"""Small dense linear-algebra helpers shared across modules."""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dlange

EPS = float(np.finfo(float).eps)


def scaled_tol(factor: float, m, weight=1.0):
    """The one threshold rule: factor (a relative factor from config.DEFAULTS) times ||m||_inf times weight.

    ||m||_inf is the largest absolute row sum of the real matrix m (0.0 for
    an empty one); weight is the size of the vectors m acts on in the checked
    quantity (max mu, max|U|, ...), and may be an array.  Multiplying m by
    c > 0 multiplies the threshold by c, so no decision depends on the units
    of the rates.  The norm is one LAPACK dlange pass with no n x n
    temporary: the 1-norm of m^T, a Fortran-ordered view of a C-ordered m.
    """
    m = np.asarray(m, dtype=float)
    return factor * float(dlange("1", m.T) if m.flags.c_contiguous else dlange("I", m)) * weight


def max_abs(a) -> float:
    """Largest absolute entry of an array (0.0 for empty input); NaN if any entry is NaN.

    Real input is read by one max and one min, with no |a| temporary (a NaN
    makes both extremes NaN, so it propagates); the extremes are converted
    to float before the negation, so a signed or unsigned integer extreme
    cannot wrap.  Complex input takes np.abs.
    """
    a = np.asarray(a)
    if not a.size:
        return 0.0
    if a.dtype.kind == "c":
        return float(np.abs(a).max())
    return max(float(a.max()), -float(a.min()))


def inverse_defect(a: np.ndarray, b: np.ndarray) -> float:
    """max|a b - I| for square a b, with the product as the only n x n buffer (I subtracted in place)."""
    product = a @ b
    product.flat[:: product.shape[0] + 1] -= 1.0
    return max_abs(product)


def off_diagonal(a: np.ndarray) -> np.ndarray:
    """The off-diagonal entries of a square matrix, as an (n - 1, n) strided view.

    Row i holds the entries between diagonal entries i and i + 1 in memory
    order, so a C- or F-contiguous matrix gives a view and no copy (any other
    layout is copied once by ravel).
    """
    n = a.shape[0]
    flat = a.ravel(order="F" if a.flags.f_contiguous and not a.flags.c_contiguous else "C")
    return flat[1:].reshape(n - 1, n + 1)[:, :n] if n else flat.reshape(0, 0)


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
