"""Worker-count resolution and deterministic blocked execution.

Batched passes work on (rows x samples) point arrays.  ``chunked_row_map``
cuts the rows into blocks of about ``BLOCK_POINTS`` sample points, so that a
block's temporaries stay in cache, and spreads the blocks over at most as
many threads as there are cores and blocks.  Randomness is always drawn
before work is split, and blocks write disjoint rows of preallocated
outputs, so neither the block size nor the worker count can change a result
bit.  OBSURF_THREADS caps the pool ("0" or unset means auto).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

THREADS_ENV_VAR = "OBSURF_THREADS"

# Sample points per block: 256 KB per float64 temporary, so the ~10 arrays a
# block keeps live fit in a 4 MiB L2 cache.
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


def chunked_row_map(fn, n_rows: int, rows_per_block: int) -> None:
    """Call ``fn(lo, hi)`` over consecutive spans of ``rows_per_block`` rows
    covering [0, n_rows): in order on the calling thread at 1 worker,
    otherwise on at most min(workers, cores, spans) threads."""
    spans = [(lo, min(lo + rows_per_block, n_rows)) for lo in range(0, n_rows, rows_per_block)]
    workers = min(resolve_workers(), os.cpu_count() or 1, len(spans))
    if workers <= 1:
        for lo, hi in spans:
            fn(lo, hi)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for _ in pool.map(lambda span: fn(*span), spans):
            pass
