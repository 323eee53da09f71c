"""Siegmund duality on totally ordered finite state spaces.

The duality function is the order indicator D_s(x,y) = 1{x >= y}; the dual of
a generator L_hat is built entrywise from

    L(y,x) = sum_{x'>=y} [L_hat(x,x') - L_hat(x-1,x')],   L_hat(row 0) := 0,

(1-indexed formula; arrays here are 0-based), with each tail sum taken from
off-diagonal rates only (see _cumulative_rate_sums).  The dual is a sub-generator
exactly when L_hat generates a monotone chain, which this module also checks
directly via the cumulative-rate condition.

D_s is invertible, so the dual's Jordan decomposition is a transform of
L_hat's: with the same J, U = D_s^T Uhat^{-T} B_J and U^{-1} = B_J Uhat^T D_s^{-T},
where B_J reverses the chain order inside each Jordan block (J B_J = B_J J^T).
siegmund_spectral applies it in O(n^2), with no eigensolve of the dual: U is
the tail sums (cumulative_transform) of the rows of Uhat^{-1}, U^{-1} the
differences of the columns of Uhat.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULTS
from .core import MatrixKind, RateMatrix
from .errors import AlreadyConservativeError, NotBiorthogonalError, ShapeMismatchError
from .linalg import inverse_defect, max_abs, off_diagonal, scaled_tol
from .spectral import JordanStructure, SpectralData, _gated

__all__ = [
    "SiegmundPair",
    "siegmund_matrix",
    "siegmund_dual",
    "check_monotone",
    "cumulative_transform",
    "siegmund_spectral",
    "reconstruct_siegmund",
    "extend_with_cemetery",
]


@dataclass(frozen=True)
class SiegmundPair:
    """A generator and its Siegmund dual, with classification and residual.

    The residual is max-abs of L_hat D_s - D_s L^T; `monotone` records the
    cumulative-rate condition on L_hat, which holds iff `l` is a
    (sub-)generator.
    """

    lhat: RateMatrix
    l: RateMatrix
    n: int
    monotone: bool
    residual: float


def siegmund_matrix(n: int) -> np.ndarray:
    """Order indicator matrix, entry (x,y) = 1 iff x >= y."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return np.tril(np.ones((n, n)))


def _cumulative_rate_sums(lhat: np.ndarray) -> np.ndarray:
    """S[y, x] = t[x, y] - t[x-1, y] (row -1 zero), t[x, y] = sum_{x'>=y} lhat[x, x'], from off-diagonal rates only.

    A zero row sum gives t[x, y] = -sum_{x'<y} lhat[x, x'], so each tail sum
    is taken from the side that does not hold the diagonal: with p the
    exclusive prefix sums of the off-diagonal part and r its row sums (the
    last entries of the same cumsum), t[x, y] = -p[x, y] for y <= x and
    r[x] - p[x, y] for y > x.  An entry whose range holds no rate is then
    exactly zero, not rounding: the dual of a birth-death chain is exactly
    tridiagonal.  Where a row sum of lhat is not zero, S differs from the
    formula with the diagonal by those row sums, so for a generator by at
    most 2 DEFAULTS.row ||L_hat||_inf per entry.  Two n x n buffers: the prefix sums, which
    become the result, and the tail sums t.
    """
    n = lhat.shape[0]
    prefix = lhat.copy()
    np.fill_diagonal(prefix, 0.0)
    np.cumsum(prefix, axis=1, out=prefix)  # prefix[x, y] = p[x, y + 1]; prefix[x, -1] = r[x]
    tails = np.multiply(np.arange(n) > np.arange(n)[:, None], prefix[:, -1:])  # t[x, y] = r[x] - p[x, y] ...
    tails[:, 1:] -= prefix[:, :-1]  # ... for y > x, and -p[x, y] for y <= x
    # S^T = the row differences of t (row -1 zero), written into the spent prefix buffer
    prefix[0] = tails[0]
    np.subtract(tails[1:], tails[:-1], out=prefix[1:])
    return prefix.T


def siegmund_dual(lhat: RateMatrix) -> SiegmundPair:
    """Build the Siegmund dual of a generator on the ordered space {0..n-1}.

    The construction is total: validity of the dual as a (sub-)generator is
    reported through its `kind` (classify_matrix), never enforced, and
    `monotone` is check_monotone's condition, read off the dual.  Every
    entry of the dual is summed from off-diagonal rates of L_hat only
    (_cumulative_rate_sums), so entries that are zero by structure are
    exactly zero; the dual then differs from the formula with the diagonal
    by the row sums of L_hat, at most 2 DEFAULTS.row ||L_hat||_inf per entry.  The residual
    max|L_hat D_s - D_s L^T| is taken in O(n^2) with no D_s: row x of
    L_hat D_s is the tail sums sum_{x' >= y} L_hat[x, x'] of row x of L_hat,
    and column y of D_s L^T is the prefix sums sum_{x' <= x} L[y, x'] of
    row y of L.
    """
    if lhat.kind is not MatrixKind.GENERATOR:
        raise ValueError("siegmund_dual requires a generator")
    entries = np.asarray(lhat.entries)
    dual = _cumulative_rate_sums(entries)
    monotone = _off_diagonal_nonnegative(dual, entries)
    l = RateMatrix.from_entries(dual)  # an INVALID dual is kept as RAW; l holds a copy
    defect = np.cumsum(entries[:, ::-1], axis=1)[:, ::-1]  # L_hat D_s
    defect -= np.cumsum(dual, axis=1, out=dual).T  # D_s L^T, in the spent buffer of dual
    return SiegmundPair(lhat=lhat, l=l, n=lhat.n, monotone=monotone, residual=max_abs(defect))


def _off_diagonal_nonnegative(sums: np.ndarray, lhat: np.ndarray) -> bool:
    return bool(off_diagonal(sums).min(initial=0.0) >= -scaled_tol(DEFAULTS.row, lhat))


def check_monotone(lhat: RateMatrix) -> bool:
    """Cumulative-rate monotonicity: sum_{x'>=y} [L(x,x') - L(x-1,x')] >= -DEFAULTS.row ||L||_inf for x != y.

    These sums are the off-diagonal entries of the Siegmund dual, so
    siegmund_dual reads `monotone` off the dual it builds.
    """
    return _off_diagonal_nonnegative(_cumulative_rate_sums(np.asarray(lhat.entries)), lhat.entries)


def cumulative_transform(w: np.ndarray) -> np.ndarray:
    """Tail sums u(x) = sum_{y >= x} w(y), along axis 0: each column of a matrix on its own.

    Maps k-th order generalized eigenfunctions of L_hat^T to ones of the
    Siegmund dual L, eigenvalue by eigenvalue.  The sums run bottom-up, one
    row at a time, into a C-ordered float or complex array (a reversed view
    would slow every product taken with it).
    """
    w = np.asarray(w)
    u = np.empty(w.shape, dtype=np.result_type(w, 0.0))
    np.cumsum(w[::-1], axis=0, out=u[::-1])
    return u


def _chain_reversal(structure: JordanStructure) -> np.ndarray:
    """Column index p with a[:, p] = a B_J: each Jordan block's positions in reverse order, so J[p][:, p] = J^T."""
    return np.array([o + i for o, (_, size) in zip(structure.offsets, structure.blocks) for i in reversed(range(size))])


def siegmund_spectral(pair: SiegmundPair, hat_data: SpectralData) -> SpectralData:
    """The dual's Jordan decomposition, transported from L_hat's: O(n^2), no eigensolve.

    With Uhat = hat_data.U, the dual pair.l has hat_data's structure,
    U = D_s^T Uhat^{-T} B_J (the tail sums of the rows of hat_data.Uinv)
    and U^{-1} = B_J Uhat^T D_s^{-T} (the differences of the columns of
    Uhat, its row -1 taken as zero).  B_J is applied as the column index
    _chain_reversal, and only where a block has size 2 or more; it is never
    formed.  The result passes the same gate as decompose, _gated
    (DecompositionFailedError); a hat_data of another
    generator fails it.  Buffers: U and U^{-1} are fresh n x n arrays, plus
    the gate's; no other n x n temporary.
    """
    if hat_data.n != pair.n:
        raise ShapeMismatchError(f"spectral data on {hat_data.n} states for a pair on {pair.n}")
    structure = hat_data.structure
    u = cumulative_transform(hat_data.Uinv.T)
    # np.diff(uhat_t, axis=1, prepend=0.0) without its (n, n + 1) temporary: that odd-sized block
    # fragments the heap, and perfbench's exclusion-transforms peak RSS read 5 MB higher with it
    uhat_t = hat_data.U.T
    uinv = np.empty(uhat_t.shape, dtype=uhat_t.dtype)
    uinv[:, 0] = uhat_t[:, 0]
    np.subtract(uhat_t[:, 1:], uhat_t[:, :-1], out=uinv[:, 1:])
    if not structure.is_diagonalizable():
        p = _chain_reversal(structure)
        u, uinv = u[:, p], uinv[p]
    return _gated(pair.l, structure, u, uinv, "Siegmund-transported eigenbasis")


def reconstruct_siegmund(uhats: np.ndarray, us: np.ndarray) -> np.ndarray:
    """Assemble sum_i uhat_i(x) u_i(y) from eigenfunction families (columns).

    The u_i must come from cumulative_transform of a family w_i that is
    bi-orthogonal to the uhat_i under counting measure; the w_i are recovered
    by differencing and the pairing checked: NotBiorthogonalError when
    max|W^T Uhat - I| (dimensionless) exceeds DEFAULTS.residual.  Under the
    preconditions the result equals siegmund_matrix(n).
    The check holds two n x n buffers, w and its Gram matrix (I subtracted
    in place), both freed before the result is formed.
    """
    uhats = np.atleast_2d(np.asarray(uhats, dtype=float))
    us = np.atleast_2d(np.asarray(us, dtype=float))
    if uhats.shape != us.shape or uhats.shape[0] != uhats.shape[1]:
        raise ShapeMismatchError("expected two square eigenfunction families of equal shape")
    # w_i(y) = u_i(y) - u_i(y+1) inverts the tail-sum transform
    w = np.empty_like(us)
    np.subtract(us[:-1], us[1:], out=w[:-1])
    w[-1] = us[-1]
    defect = inverse_defect(w.T, uhats)
    del w
    if defect > DEFAULTS.residual:
        raise NotBiorthogonalError(f"bi-orthogonality defect {defect:.3e}")
    return uhats @ us.T


def extend_with_cemetery(l: RateMatrix) -> RateMatrix:
    """Close a sub-generator into a generator by routing leak rates to a new absorbing state.

    The new state (index n) is absorbing; row x gains the entry -rowsum(x),
    where a leak within DEFAULTS.row ||L||_inf of zero counts as zero.  Raises
    AlreadyConservativeError when every row already sums to zero (the
    extension would only add an isolated absorbing state).  The result is
    classified as a generator by classify_matrix.
    """
    if l.kind not in (MatrixKind.SUB_GENERATOR, MatrixKind.GENERATOR):
        raise ValueError("extend_with_cemetery requires a (sub-)generator")
    entries = np.asarray(l.entries)
    leaks = -entries.sum(axis=1)
    leaks[np.abs(leaks) <= scaled_tol(DEFAULTS.row, entries)] = 0.0
    if not np.any(leaks > 0):
        raise AlreadyConservativeError("row sums already vanish; extension is a no-op")
    out = np.zeros((l.n + 1, l.n + 1))
    out[: l.n, : l.n] = entries
    out[: l.n, l.n] = leaks
    return RateMatrix.from_entries(out, kind=MatrixKind.GENERATOR)
