"""Small dense linear-algebra helpers shared across modules."""

from __future__ import annotations

import numpy as np

EPS = float(np.finfo(float).eps)


def max_abs(a) -> float:
    """Largest absolute entry of an array (0.0 for empty input)."""
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0


def rank_threshold(s: np.ndarray, shape, rtol: float | None = None) -> float:
    """Singular-value cutoff: max(dim) * eps * s_max, or rtol * s_max if given."""
    smax = float(s[0]) if s.size and s[0] > 0 else 1.0
    if rtol is not None:
        return rtol * smax
    return max(shape) * EPS * smax


def numerical_rank(a: np.ndarray, rtol: float | None = None) -> int:
    a = np.atleast_2d(a)
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    return int(np.sum(s > rank_threshold(s, a.shape, rtol)))

