"""Segmentation and reconstruction metrics."""

from __future__ import annotations

import numpy as np

__all__ = ["ari", "mse"]


def _codes(labels: np.ndarray) -> tuple[np.ndarray, int]:
    """Labels as codes 0..k-1, and k: integer labels spanning fewer than 64
    values by their offset from the least (an absent label only adds an empty
    row or column, which changes no pair count), other labels by their rank
    (np.unique)."""
    if labels.dtype.kind in "iu" and int(labels.max()) - int(labels.min()) < 64:
        codes = (labels - labels.min()).astype(np.intp)
    else:
        codes = np.unique(labels, return_inverse=True)[1]
    return codes, int(codes.max()) + 1


def _contingency(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Joint label-count table; labels may be any integers or floats."""
    (ai, n_a), (bi, n_b) = _codes(a), _codes(b)
    return np.bincount(ai * n_b + bi, minlength=n_a * n_b).reshape(n_a, n_b)


def ari(pred, truth, restrict_to_fg: bool = False) -> float:
    """Adjusted Rand index between two label maps (chance-corrected pair
    agreement, invariant to label permutation).

    With ``restrict_to_fg`` only pixels where ``truth`` > 0 are scored.
    Computed in exact integer arithmetic before the final division; when the
    chance correction degenerates (both maps one cluster, or both all
    singletons) the value is 1 for identical partitions and 0 otherwise.
    """
    p = np.asarray(pred)
    t = np.asarray(truth)
    if p.shape != t.shape:
        raise ValueError(f"label maps differ in shape: {p.shape} vs {t.shape}")
    p = p.ravel()
    t = t.ravel()
    if restrict_to_fg:
        keep = t > 0
        p = p[keep]
        t = t[keep]
    n = p.shape[0]
    if n < 2:
        raise ValueError("need at least two pixels to score")

    table = _contingency(p, t)
    sum_cells = sum(v * (v - 1) // 2 for v in table.ravel().tolist())
    sum_rows = sum(v * (v - 1) // 2 for v in table.sum(axis=1).tolist())
    sum_cols = sum(v * (v - 1) // 2 for v in table.sum(axis=0).tolist())
    pairs = n * (n - 1) // 2

    # ari = (pairs * sum_cells - sum_rows * sum_cols) /
    #       (pairs * (sum_rows + sum_cols) / 2 - sum_rows * sum_cols)
    numerator = 2 * pairs * sum_cells - 2 * sum_rows * sum_cols
    denominator = pairs * (sum_rows + sum_cols) - 2 * sum_rows * sum_cols
    if denominator == 0:
        same = (np.count_nonzero(table, axis=1) <= 1).all() and (np.count_nonzero(table, axis=0) <= 1).all()
        return 1.0 if same else 0.0
    return numerator / denominator


def mse(a, b, mask=None) -> float:
    """Mean squared error over (optionally masked) pixels, all channels."""
    x = np.asarray(a, dtype=np.float64)
    y = np.asarray(b, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"arrays differ in shape: {x.shape} vs {y.shape}")
    if mask is not None:
        m = np.asarray(mask, dtype=bool)
        if m.shape != x.shape[: m.ndim]:
            raise ValueError("mask must match the leading array dimensions")
        x = x[m]
        y = y[m]
    if x.size == 0:
        raise ValueError("no pixels selected")
    diff = x - y
    return float(np.mean(diff * diff))
