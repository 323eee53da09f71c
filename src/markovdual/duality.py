"""Duality functions for pairs of rate matrices: L_hat D = D L^T.

The module offers two independent routes to the same objects.  The first is
the full solution space, `solve_duality_space`: with real Schur forms
L_hat = Q T Q^T and L^T = Z S Z^T, it solves T Y = Y S block column by block
column (Bartels-Stewart style, in real arithmetic), one small SVD per block,
and returns a real basis of D = Q Y Z^T that is orthonormal in the Frobenius
inner product, together with the margins of its rank decisions.  Each 2 x 2
block of S (a complex-conjugate pair) is one column block.  Its rank cutoff
is n_hat n eps (||L_hat||_2 + ||L||_2); near-equal diagonal entries of S that
form a non-scalar block (a rounding-split Jordan eigenvalue) are solved
together.  It costs about n^4 and never forms the (n_hat n)^2 Kronecker
matrix I (x) L_hat - L (x) I, whose SVD survives in the tests as an oracle.
The second route is the constructors, which assemble D from eigenfunctions,
conjugate pairs, Jordan chains or whole spectral decompositions.  Residuals
are the max-abs entry of L_hat D - D L^T; only the product dualities of
`models` record an upper bound on it instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import schur
from scipy.linalg.lapack import dtrsen

from .config import DEFAULTS
from .core import Measure, RateMatrix, StateSpace
from .errors import (
    ComplexResidueError,
    DecompositionFailedError,
    NotChainError,
    NotConjugateClosedError,
    NotEigenpairError,
    NotOrthonormalError,
    ShapeMismatchError,
)
from .linalg import EPS, max_abs, numerical_rank, rank_threshold
from .spectral import SpectralData, Witness, _cluster_eigenvalues, reversible_eigenbasis

__all__ = [
    "DualityFunction",
    "DualitySpace",
    "residual",
    "make_duality",
    "solve_duality_space",
    "max_duality_rank",
    "cheap_duality",
    "tensor_duality",
    "complex_pair_duality",
    "chain_duality",
    "orthogonal_selfduality",
    "compose_dualities",
    "factor_check",
    "build_from_spectra",
]


@dataclass(frozen=True, eq=False)
class DualityFunction:
    """A duality matrix D indexed by (dual state, primal state).

    residual is recorded against the generator pair (L_hat, L) the matrix
    was built for, and `pair` holds that pair when it is known (None, for
    instance, for a duality read from JSON).  It is the max-abs entry of
    L_hat D - D L^T, or, for the product dualities of `models`, an upper
    bound on it from two-site terms.  rank is the numerical rank at the
    default singular-value threshold.  Equality and hashing go by identity.
    """

    dual_space: StateSpace
    primal_space: StateSpace
    matrix: np.ndarray
    residual: float
    rank: int
    pair: tuple[RateMatrix, RateMatrix] | None = field(default=None, repr=False)

    def __post_init__(self):
        m = self.matrix
        if not (isinstance(m, np.ndarray) and m.dtype == float and not m.flags.writeable):
            m = np.array(m, dtype=float)  # a read-only float array is frozen already and is kept
            m.setflags(write=False)
        if m.shape != (self.dual_space.n, self.primal_space.n):
            raise ShapeMismatchError(
                f"duality matrix shape {m.shape} does not match spaces "
                f"({self.dual_space.n}, {self.primal_space.n})"
            )
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True, eq=False)
class DualitySpace:
    """Basis of the linear space {D : L_hat D = D L^T}, with its rank-decision margins.

    basis is one read-only (dimension, n_hat, n) array, basis[k] the k-th
    element (shape (0, n_hat, n) for the zero space); a sequence of n_hat x n
    matrices is stacked into one.  cutoff is the singular-value threshold the
    solver used; largest_discarded is the largest singular value it treated
    as zero (0.0 if none) and smallest_kept the smallest it treated as
    nonzero (inf if none).  Equality and hashing go by identity.
    """

    dual_space: StateSpace
    primal_space: StateSpace
    basis: np.ndarray
    cutoff: float = 0.0
    largest_discarded: float = 0.0
    smallest_kept: float = math.inf

    def __post_init__(self):
        shape = (self.dual_space.n, self.primal_space.n)
        basis = np.asarray(self.basis, dtype=float)
        if basis.size == 0:
            basis = basis.reshape(0, *shape)
        if basis.ndim != 3 or basis.shape[1:] != shape:
            raise ShapeMismatchError(f"basis shape {basis.shape} does not match spaces {shape}")
        basis = basis.view()
        basis.flags.writeable = False
        object.__setattr__(self, "basis", basis)

    @property
    def dimension(self) -> int:
        return len(self.basis)


def residual(lhat: RateMatrix, l: RateMatrix, d: np.ndarray) -> float:
    """Max-abs entry of L_hat D - D L^T."""
    d = np.asarray(d)
    if d.shape != (lhat.n, l.n):
        raise ShapeMismatchError(f"D shape {d.shape}, expected ({lhat.n}, {l.n})")
    return max_abs(np.asarray(lhat.entries) @ d - d @ np.asarray(l.entries).T)


def make_duality(lhat: RateMatrix, l: RateMatrix, d: np.ndarray) -> DualityFunction:
    """Wrap a matrix as a DualityFunction, recording the pair, residual and rank (numerical_rank's default cutoff)."""
    d = np.asarray(d, dtype=float)
    return DualityFunction(
        dual_space=lhat.space,
        primal_space=l.space,
        matrix=d,
        residual=residual(lhat, l, d),
        rank=numerical_rank(d),
        pair=(lhat, l),
    )


def _column_blocks(s: np.ndarray, z: np.ndarray, tau: float):
    """Reorder the real Schur form S = Z^T L^T Z into the recursion's column blocks.

    Diagonal entries of S with a neighbour within tau are grouped as
    `decompose` groups eigenvalues (each within tau of its group's mean).  Both
    diagonal entries of a standardized 2 x 2 block equal the pair's real part,
    so a pair always falls in one group.  Each group with more than one member
    is made contiguous by dtrsen (it keeps the relative order of everything it
    does not select and keeps S quasi-triangular) and becomes one block unless
    its Schur block is numerically scalar, i.e. within tau of c I; a scalar
    (semisimple) group and every singleton is solved column by column.  The
    two columns of a 2 x 2 block are never split, however small its
    off-diagonal entries: the column recursion needs S block upper triangular.
    Returns the reordered (S, Z) and the blocks as (start, stop) column ranges.
    """
    n = s.shape[0]
    order = np.arange(n)  # original position of the eigenvalue now at each position
    diag = np.diag(s)
    near = np.flatnonzero(np.sum(np.abs(diag[:, None] - diag) <= tau, axis=1) > 1)
    clusters = [near[g] for g in _cluster_eigenvalues(diag[near], tau)[0] if len(g) > 1]
    for g in clusters:
        select = np.isin(order, g)
        s, z, *_, info = dtrsen(select.astype(np.int32), s, z, job="N")
        if info != 0:
            raise DecompositionFailedError(f"dtrsen failed with info = {info}")
        order = np.concatenate([order[select], order[~select]])
    starts = np.ones(n + 1, dtype=bool)
    for g in clusters:
        pos = np.flatnonzero(np.isin(order, g))
        a, b = pos[0], pos[-1] + 1
        block = s[a:b, a:b]
        if max_abs(block - np.mean(np.diag(block)) * np.eye(b - a)) > tau:
            starts[a + 1 : b] = False
    starts[np.flatnonzero(np.diag(s, -1)) + 1] = False
    bounds = np.flatnonzero(starts)
    return s, z, list(zip(bounds[:-1], bounds[1:]))


def solve_duality_space(lhat: RateMatrix, l: RateMatrix) -> DualitySpace:
    """Real orthonormal basis of {D : L_hat D = D L^T}, from Schur forms of both generators.

    With real Schur forms L_hat = Q T Q^T and L^T = Z S Z^T, D solves the
    equation iff Y = Q^T D Z solves T Y = Y S (Bartels-Stewart; Golub-Nash-Van
    Loan; real quasi-triangular forms as in Jonsson-Kagstrom).  Everything
    stays in real arithmetic.  S is quasi upper triangular and no column
    block splits one of its 2 x 2 blocks, so a block J of columns of Y depends
    only on the columns before it:

        T Y_J - Y_J S_JJ = sum_{i < J} Y_i S_iJ = R c,

    where c holds the coefficients of the current basis of solutions on the
    earlier columns.  Vectors are column-stacked (vec Y = [y_1; y_2; ...]).
    The blocks are solved left to right; at each one, the right singular
    vectors of [I (x) T - S_JJ^T (x) I, -R] whose singular values are at or
    below the cutoff, together with the d structural null vectors of that wide
    matrix, span the solutions on the columns so far.  They are orthonormal
    and so is the old basis, so the new basis is orthonormal without further
    work.  The basis is carried implicitly (new columns and mixing matrices
    per block) and assembled once at the end; Q Y Z^T maps it back to a real
    basis, orthonormal in the Frobenius inner product.

    Rank cutoff: n_hat n eps sigma with sigma = ||L_hat||_2 + ||L||_2.  It
    is not the Kronecker oracle's n_hat n eps sigma_max(I (x) L_hat - L (x)
    I): the two Schur forms carry
    their own backward error, which a lower bound on sigma_max does not
    cover.

    Blocking: rounding splits a size-k Jordan eigenvalue by about eps^(1/k),
    which a column-by-column recursion misreads as distinct eigenvalues.  Diagonal
    entries of S within tau = sigma (cutoff / sigma)^(1/4) of each other are
    therefore solved as one block when their Schur block is not numerically
    scalar (see `_column_blocks`).  Both the cutoff and tau scale with sigma,
    so multiplying both generators by c > 0 changes no decision.

    The decision margins are recorded on the result: the largest singular
    value treated as zero and the smallest treated as nonzero, over all
    block SVDs.

    Cost: two Schur forms plus one SVD of an (n_hat b) x (n_hat b + d) matrix
    per block of b columns, where d is the dimension so far.  With d of order
    n that is O(n^4), against O((n_hat n)^3) for the Kronecker SVD, and no
    (n_hat n)^2 matrix is formed.  Carrying the right-hand sides of the open
    columns through each block's mixing matrix adds about n_hat n^2 d^2 / 12
    multiply-adds, O(n^5) but below the SVDs' share up to n = 96, where the
    measured growth is about n^3.5.  Real Schur forms keep that exponent at
    about half the constant that complex Schur forms cost.
    """
    nh, n = lhat.n, l.n
    t, q = schur(np.asarray(lhat.entries), output="real")
    s, z = schur(np.asarray(l.entries).T, output="real")
    sigma = float(np.linalg.norm(lhat.entries, 2) + np.linalg.norm(l.entries, 2)) or 1.0
    cutoff = nh * n * EPS * sigma
    tau = sigma * (cutoff / sigma) ** 0.25
    s, z, blocks = _column_blocks(s, z, tau)

    # f[m, :, k]: sum over solved columns i of Y_k[:, i] S[i, m], for the columns m still open
    f = np.zeros((n, nh, 0))
    steps = []
    largest_discarded, smallest_kept = 0.0, math.inf
    eye_nh = np.eye(nh)
    for a, b in blocks:
        w, d = b - a, f.shape[2]
        # I_w (x) T - S_JJ^T (x) I as (w, nh, w, nh): block (q, p) is delta_pq T - S_JJ[p, q] I
        op = np.eye(w)[:, None, :, None] * t[None, :, None, :]
        op = op - s[a:b, a:b].T[:, None, :, None] * eye_nh[None, :, None, :]
        _, sv, vh = np.linalg.svd(np.concatenate([op.reshape(w * nh, w * nh), -f[:w].reshape(w * nh, d)], axis=1))
        rank = int(np.sum(sv > cutoff))
        if rank < sv.size:
            largest_discarded = max(largest_discarded, float(sv[rank]))
        if rank:
            smallest_kept = min(smallest_kept, float(sv[rank - 1]))
        null = vh[rank:].T
        y, c = null[: w * nh], null[w * nh :]
        steps.append((y, c))
        shape = (n - b, nh, c.shape[1])
        carried = (f[w:].reshape((n - b) * nh, d) @ c).reshape(shape)
        f = carried + (s[a:b, b:].T @ y.reshape(w, -1)).reshape(shape)

    dim = f.shape[2]
    basis = np.zeros((0, nh, n))
    if dim:
        p = np.eye(dim)
        cols = []
        for y, c in reversed(steps):
            cols.append(y @ p)
            p = c @ p
        yv = np.concatenate(cols[::-1]).reshape(n, nh * dim)  # yv[j, (i, k)] = Y_k[i, j]
        yz = (z @ yv).reshape(n, nh, dim).transpose(1, 0, 2)  # (Y_k Z^T)[i, j]
        dv = (q @ yz.reshape(nh, n * dim)).reshape(nh * n, dim)
        basis = dv.T.reshape(dim, nh, n)
    return DualitySpace(lhat.space, l.space, basis, cutoff, largest_discarded, smallest_kept)


MAX_RANK_SAMPLES = 8
MAX_RANK_RTOL = 1e-8


def max_duality_rank(space: DualitySpace, seed: int = 0) -> int:
    """Max numerical rank over the space, via random basis combinations.

    Generic combinations attain the maximum with probability one; the fixed
    seed keeps results deterministic.  The rank cutoff is looser than the
    plain SVD default because each basis element is accurate only to about
    space.cutoff / space.smallest_kept (the subspace error of the kernel
    solve), so singular values at that level are not rank.  All samples are
    formed by one contraction with the basis array and their singular values
    taken in one stacked call: there are MAX_RANK_SAMPLES of them, each with
    cutoff `rank_threshold` at MAX_RANK_RTOL.
    """
    if space.dimension == 0:
        return 0
    coeffs = np.random.default_rng(seed).standard_normal((MAX_RANK_SAMPLES, space.dimension))
    sv = np.linalg.svd(np.tensordot(coeffs, space.basis, 1), compute_uv=False)
    shape = space.basis.shape[1:]
    return max(int(np.sum(s > rank_threshold(s, shape, MAX_RANK_RTOL))) for s in sv)


def cheap_duality(mu: Measure) -> DualityFunction:
    """Diagonal duality D(x,y) = delta_xy / mu(y).

    Exact duality between adjoint(L, mu) and L for every L, and a self-duality
    whenever detailed balance holds, so the residual is recorded as zero.
    """
    d = np.diag(1.0 / np.asarray(mu.weights))
    return DualityFunction(mu.space, mu.space, d, residual=0.0, rank=mu.space.n)


def _validate_eigenpairs(l: RateMatrix, us: np.ndarray, tol: float) -> np.ndarray:
    """Rayleigh eigenvalue estimates of the columns u of us, each validated to max|Lu - lam u| <= tol max(1, max|u|).

    One product L @ us serves every column; lam = <u, Lu> / <u, u>.  Raises
    NotEigenpairError naming the first column that is zero or fails the bound.
    """
    us = np.asarray(us)
    lu = np.asarray(l.entries) @ us
    norm2 = np.einsum("ij,ij->j", us.conj(), us).real
    lams = np.einsum("ij,ij->j", us.conj(), lu) / np.where(norm2 == 0, 1.0, norm2)
    defects = np.max(np.abs(lu - lams * us), axis=0)
    bad = (norm2 == 0) | (defects > tol * np.maximum(1.0, np.max(np.abs(us), axis=0)))
    if bad.any():
        i = int(np.argmax(bad))
        if norm2[i] == 0:
            raise NotEigenpairError(f"column {i}: zero vector is not an eigenfunction")
        raise NotEigenpairError(f"column {i}: eigenpair defect {defects[i]:.3e} exceeds {tol:.3e}")
    return lams.astype(complex)


def tensor_duality(
    lhat: RateMatrix,
    l: RateMatrix,
    uhats: np.ndarray,
    us: np.ndarray,
    coefficients,
) -> DualityFunction:
    """D(xh, x) = sum_i a_i uhat_i(xh) u_i(x) from shared real eigenpairs.

    uhats/us hold the eigenfunctions as columns; column i of both must belong
    to a common eigenvalue.  Each side is validated by one product (L_hat @
    uhats, L @ us) that gives every column's Rayleigh quotient and defect; the
    hat columns are checked first, then the primal columns, then the
    eigenvalue match, and NotEigenpairError names the first failing column.
    Every check runs at tol = DEFAULTS.residual (see _validate_eigenpairs).
    """
    tol = DEFAULTS.residual
    uhats = np.atleast_2d(np.asarray(uhats, dtype=float))
    us = np.atleast_2d(np.asarray(us, dtype=float))
    a = np.asarray(coefficients, dtype=float)
    if uhats.shape != (lhat.n, a.size) or us.shape != (l.n, a.size):
        raise ShapeMismatchError("eigenfunction columns must match spaces and coefficient count")
    lam_hat = _validate_eigenpairs(lhat, uhats, tol)
    lam = _validate_eigenpairs(l, us, tol)
    mismatch = np.flatnonzero(np.abs(lam_hat - lam) > tol * np.maximum(1.0, np.abs(lam)))
    if mismatch.size:
        i = mismatch[0]
        raise NotEigenpairError(f"column {i}: eigenvalues {lam_hat[i]:.6g} and {lam[i]:.6g} do not match")
    d = (uhats * a) @ us.T
    return make_duality(lhat, l, d)


def complex_pair_duality(
    lhat: RateMatrix,
    l: RateMatrix,
    uhat: np.ndarray,
    u: np.ndarray,
    a: float,
) -> DualityFunction:
    """Real duality a uhat u + a uhat* u* = 2a Re(uhat (x) u) from a conjugate eigenpair.

    The eigenpair checks, the eigenvalue match and the test |Im lam| > tol
    that rules out a real eigenvalue run at tol = DEFAULTS.residual.
    """
    tol = DEFAULTS.residual
    uhat = np.asarray(uhat, dtype=complex)
    u = np.asarray(u, dtype=complex)
    lam_hat = _validate_eigenpairs(lhat, uhat[:, None], tol)[0]
    lam = _validate_eigenpairs(l, u[:, None], tol)[0]
    if abs(lam_hat - lam) > tol * max(1.0, abs(lam)):
        raise NotEigenpairError(f"eigenvalues {lam_hat:.6g} and {lam:.6g} do not match")
    if abs(lam.imag) <= tol:
        raise NotConjugateClosedError("eigenvalue is real; use tensor_duality instead")
    d = 2.0 * a * np.real(np.outer(uhat, u))
    return make_duality(lhat, l, d)


def _validate_chain(l: RateMatrix, chain: np.ndarray, tol: float) -> complex:
    """Validate L u^(k) = lam u^(k) + u^(k-1); returns the shared eigenvalue."""
    try:
        lam = _validate_eigenpairs(l, chain[:, :1], tol)[0]
    except NotEigenpairError as exc:
        raise NotChainError(f"first chain element is not an eigenfunction: {exc}") from exc
    rest = chain[:, 1:]
    defects = np.max(np.abs(np.asarray(l.entries) @ rest - lam * rest - chain[:, :-1]), axis=0, initial=0.0)
    bad = np.flatnonzero(defects > tol * max(1.0, max_abs(chain)))
    if bad.size:
        raise NotChainError(f"chain defect {defects[bad[0]]:.3e} at order {bad[0] + 2}")
    return lam


def chain_duality(
    lhat: RateMatrix,
    l: RateMatrix,
    uhat_chain: np.ndarray,
    u_chain: np.ndarray,
) -> DualityFunction:
    """Order-reversed chain pairing D = sum_k uhat^(k) (x) u^(m+1-k).

    Both arguments hold Jordan chains as columns (eigenvector first) for a
    common eigenvalue; the order reversal is what makes the cross terms cancel.
    The chain checks and the eigenvalue match run at tol = DEFAULTS.residual.
    """
    tol = DEFAULTS.residual
    uhat_chain = np.atleast_2d(np.asarray(uhat_chain, dtype=float))
    u_chain = np.atleast_2d(np.asarray(u_chain, dtype=float))
    if uhat_chain.ndim != 2 or u_chain.ndim != 2 or uhat_chain.shape[1] != u_chain.shape[1]:
        raise ShapeMismatchError("chains must have the same length")
    lam_hat = _validate_chain(lhat, uhat_chain, tol)
    lam = _validate_chain(l, u_chain, tol)
    if abs(lam_hat - lam) > tol * max(1.0, abs(lam)):
        raise NotChainError(f"chain eigenvalues {lam_hat:.6g} and {lam:.6g} do not match")
    m = uhat_chain.shape[1]
    d = sum(np.outer(uhat_chain[:, k], u_chain[:, m - 1 - k]) for k in range(m))
    return make_duality(lhat, l, d)


def orthogonal_selfduality(
    data: SpectralData,
    mu: Measure,
    tilde_us: np.ndarray,
) -> DualityFunction:
    """Orthogonal self-duality D = sum_i tilde_u_i (x) u_i for a reversible generator.

    u_i is the mu-orthonormal eigenbasis derived from `data.source`; tilde_us
    (columns) must be mu-orthonormal eigenfunctions for the same eigenvalues,
    in the same descending order.  The result satisfies row-orthogonality
    <D(x,.), D(x',.)>_mu = delta_xx' / mu(x').  Every check runs at
    max(DEFAULTS.residual, 1e-8): the mu-Gram matrix, then one product
    L @ tilde_us that gives every column's Rayleigh quotient and defect,
    then the match with the eigenvalues of u; NotEigenpairError names the
    first failing column.
    """
    l = data.source
    lams, u = reversible_eigenbasis(l, mu)
    tilde = np.atleast_2d(np.asarray(tilde_us, dtype=float))
    if tilde.shape != (l.n, l.n):
        raise ShapeMismatchError("tilde_us must be a full square eigenbasis")
    tol = max(DEFAULTS.residual, 1e-8)
    w = np.asarray(mu.weights)
    gram = (tilde.T * w) @ tilde
    if max_abs(gram - np.eye(l.n)) > tol:
        raise NotOrthonormalError("tilde_us is not orthonormal in L^2(mu)")
    lam = _validate_eigenpairs(l, tilde, tol)
    mismatch = np.flatnonzero(np.abs(lam - lams) > tol * np.maximum(1.0, np.abs(lams)))
    if mismatch.size:
        i = mismatch[0]
        raise NotEigenpairError(f"column {i}: tilde eigenvalue {lam[i]:.6g} differs from {lams[i]:.6g}")
    d = tilde @ u.T
    return make_duality(l, l, d)


def compose_dualities(
    d1: DualityFunction, d2: DualityFunction, mu: Measure, lhat: RateMatrix
) -> DualityFunction:
    """Inner product of dualities: D''(x, x') = sum_y D1(x,y) D2(x',y) mu(y).

    Both inputs must share the primal space and its reversible reference
    measure mu; the result is recorded as a self-duality for `lhat`.
    """
    if d1.primal_space.n != d2.primal_space.n or d1.primal_space.n != mu.space.n:
        raise ShapeMismatchError("composed dualities must share the primal space and measure")
    if d1.dual_space.n != lhat.n or d2.dual_space.n != lhat.n:
        raise ShapeMismatchError("dual spaces must match the supplied generator")
    w = np.asarray(mu.weights)
    d = (np.asarray(d1.matrix) * w) @ np.asarray(d2.matrix).T
    return make_duality(lhat, lhat, d)


def factor_check(d: DualityFunction, lhat: RateMatrix, l: RateMatrix):
    """Extract (f, g, lam) from a rank-1 duality D = f (x) g, or None.

    Uses the leading singular triple; validates at tol = DEFAULTS.residual
    that f and g are eigenfunctions of lhat and l for a common eigenvalue.
    Total function: returns None when D is not numerically rank 1 or
    validation fails.
    """
    tol = DEFAULTS.residual
    m = np.asarray(d.matrix)
    u, s, vh = np.linalg.svd(m)
    if int(np.sum(s > rank_threshold(s, m.shape))) != 1:
        return None
    f = u[:, 0] * s[0]
    g = vh[0]
    try:
        lam_hat = _validate_eigenpairs(lhat, f[:, None], tol)[0]
        lam = _validate_eigenpairs(l, g[:, None], tol)[0]
    except NotEigenpairError:
        return None
    if abs(lam_hat - lam) > tol * max(1.0, abs(lam)):
        return None
    return f, g, lam_hat


def build_from_spectra(
    hat_data: SpectralData,
    primal_data: SpectralData,
    witness: Witness,
    coefficients,
) -> DualityFunction:
    """Duality D = Uhat (sum_u c_u T_u) B_J U^T from matched Jordan blocks.

    Each matched block pair contributes c_u * sum_{i=1..k} uhat^(i) (x) u^(k+1-i)
    built from the first k chain columns on both sides.  All pairs are summed
    in one product (Uhat[:, hat_cols] * c) @ U[:, primal_cols]^T, where
    hat_cols lists each pair's first k hat columns, primal_cols its first k
    primal columns reversed, and c repeats c_u k times: O(n_hat n r) for a
    witness of rank r.  Coefficients of conjugate block pairs must be tied
    (equal) so the combined matrix is real; otherwise ComplexResidueError is
    raised when max|Im D| exceeds DEFAULTS.residual max(1, max|Re D|).
    """
    a = np.asarray(coefficients, dtype=float)
    if a.size != len(witness.matched):
        raise ShapeMismatchError(
            f"need {len(witness.matched)} coefficients, got {a.size}"
        )
    units = witness.matched
    hat_cols = [u.hat_offset + i for u in units for i in range(u.size)]
    primal_cols = [u.offset + u.size - 1 - i for u in units for i in range(u.size)]
    c = np.repeat(a.ravel(), [u.size for u in units])
    d = (hat_data.U[:, hat_cols] * c) @ primal_data.U[:, primal_cols].T
    if np.iscomplexobj(d):  # two real bases give a real D and need no check
        imag = max_abs(d.imag)
        if imag > DEFAULTS.residual * max(1.0, max_abs(d.real)):
            raise ComplexResidueError(
                f"imaginary residue {imag:.3e}: conjugate blocks are not tied"
            )
        d = d.real
    return make_duality(hat_data.source, primal_data.source, d)
