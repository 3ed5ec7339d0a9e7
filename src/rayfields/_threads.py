"""Worker-count resolution and deterministic blocked execution.

Batched passes work on point arrays of rows (rays) by samples, in either
layout.  ``chunked_row_map`` cuts the rows into blocks of about
``BLOCK_POINTS`` sample points, so that a block's temporaries stay in
cache, and spreads the blocks over at most as many threads as there are
cores and blocks.  Randomness is drawn either before work is split or,
inside a block, from each row's own generator, and each block returns its
rows, which the caller joins in span order: no worker writes a shared
array, and neither the block size nor the worker count can change a result
bit.  OBSURF_THREADS caps the pool ("0" or unset means auto).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

THREADS_ENV_VAR = "OBSURF_THREADS"

# Sample points per block; one float64 row of a block is 256 KB.  Counted
# with tracemalloc on the render benchmark's 5-component scene at 192
# samples per ray, a render block peaks at about 23 live rows, in its final
# pass's evaluation: about 7 of points, depths and draws, one per component
# density, 3 of the ground's colors and 8 in the color mix.  A 9-component
# observation window (128 rays of 256 panels, at 2,048 panels per ray) peaks
# at about 19, counted the same way on the fit benchmark's scene; its
# pairwise density sum reads its eight lanes from the component rows (a copy
# only from 16 components on).
# A component kernel's own temporaries add 3 (blob) to 8 (ground colors)
# rows while it runs.
BLOCK_POINTS = 32_768


def resolve_workers() -> int:
    raw = os.environ.get(THREADS_ENV_VAR, "").strip()
    if raw in ("", "0"):
        return min(8, os.cpu_count() or 1)
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{THREADS_ENV_VAR} must be an integer, got {raw!r}") from None
    if value < 0:
        raise ValueError(f"{THREADS_ENV_VAR} must be >= 0")
    return value


def block_rows(row_points: int) -> int:
    """Rows per block when each row holds ``row_points`` sample points."""
    return max(1, BLOCK_POINTS // row_points)


def chunked_row_map(fn, n_rows: int, rows_per_block: int) -> list:
    """``fn(lo, hi)`` for each consecutive span of ``rows_per_block`` rows
    covering [0, n_rows), in span order (zero rows are the one span
    (0, 0)): run in order on the calling thread at 1 worker, otherwise on
    at most min(workers, cores, spans) threads."""
    spans = [(lo, min(lo + rows_per_block, n_rows)) for lo in range(0, n_rows, rows_per_block)] or [(0, 0)]
    workers = min(resolve_workers(), os.cpu_count() or 1, len(spans))
    if workers <= 1:
        return [fn(lo, hi) for lo, hi in spans]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda span: fn(*span), spans))
