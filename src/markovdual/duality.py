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
together.  The primal generator L is first split into the connected
components of the nonzero pattern of |L| + |L|^T (a conserved particle
number gives one per sector).  L is block diagonal over them, so the split is
exact: the recursion runs once per component, on that component's columns
of D, with the same cutoff, and the margins are the worst over all
components.  It costs about sum_b n_b n_hat (n_hat + d_b)^2 for components
of n_b states holding d_b solutions, O(n^4) at worst, and never forms the
(n_hat n)^2 Kronecker matrix I (x) L_hat - L (x) I, whose SVD survives in the
tests as an oracle.
The second route is the constructors.  The paper's one formula, the
order-reversed sum of products of Jordan chains for shared eigenvalues, is
`chain_duality`: an eigenfunction is a chain of length 1, and a
complex-conjugate pair is two chains with tied coefficients.
`build_from_spectra` takes the chains from whole spectral decompositions and
sums them the same way.  Residuals are the max-abs entry of L_hat D - D L^T;
only the product dualities of `models` record an upper bound on it instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dgees

from .config import DEFAULTS
from .core import Measure, RateMatrix, StateSpace, _components
from .errors import (
    ComplexResidueError,
    NotChainError,
    NotEigenpairError,
    NotOrthonormalError,
    ShapeMismatchError,
)
from .linalg import EPS, max_abs, numerical_rank, rank_threshold, scaled_tol
from .spectral import SpectralData, Witness, _reorder_schur, reversible_eigenbasis

__all__ = [
    "DualityFunction",
    "DualitySpace",
    "residual",
    "make_duality",
    "solve_duality_space",
    "max_duality_rank",
    "cheap_duality",
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
    solver used, one for every primal component; largest_discarded is the
    largest singular value it treated as zero (0.0 if none) and smallest_kept
    the smallest it treated as nonzero (inf if none), each the worst over all
    components.  Equality and hashing go by identity.
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


def _real_schur(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real Schur form a = Z T Z^T as (T, Z): scipy.linalg.schur(a, output="real") without its wrapper.

    One LAPACK dgees call at the optimal workspace it reports for a, as
    scipy computes it, so the result is the same; LinAlgError if the QR
    algorithm does not converge.
    """
    lwork = int(dgees(lambda wr, wi: None, a, lwork=-1)[-2][0])
    t, _, _, _, z, _, info = dgees(lambda wr, wi: None, a, lwork=lwork)
    if info:
        raise np.linalg.LinAlgError(f"real Schur form did not converge (dgees info = {info})")
    return t, z


def _column_blocks(s: np.ndarray, z: np.ndarray, tau: float):
    """Reorder the real Schur form S = Z^T L^T Z into the recursion's column blocks.

    The real diagonal of S is sorted and split where a gap between
    neighbours exceeds tau, so each group is a chain of entries each within
    tau of the next; a group merged too far is at worst solved as one larger
    block.  Both diagonal entries of a standardized 2 x 2 block equal the
    pair's real part, so a pair always falls in one group.  Each group with
    more than one member is made contiguous by `_reorder_schur` (dtrsen keeps
    the relative order of everything it does not select and keeps S
    quasi-triangular) and becomes one block unless its Schur block is
    numerically scalar, i.e. within tau of c I; a scalar (semisimple) group
    and every singleton is solved column by column.  The two columns of a
    2 x 2 block are never split, however small its off-diagonal entries: the
    column recursion needs S block upper triangular.
    Returns the reordered (S, Z) and the blocks as (start, stop) column ranges.
    """
    n = s.shape[0]
    order = np.arange(n)  # original position of the eigenvalue now at each position
    diag = np.diag(s)
    ranked = np.argsort(diag, kind="stable")
    clusters = [g for g in np.split(ranked, np.flatnonzero(np.diff(diag[ranked]) > tau) + 1) if len(g) > 1]
    for g in clusters:
        select = np.isin(order, g)
        s, z = _reorder_schur(s, z, select)
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


def _sylvester_kernel(t: np.ndarray, q: np.ndarray, s: np.ndarray, z: np.ndarray, cutoff: float, tau: float):
    """Orthonormal basis of {D : (Q T Q^T) D = D (Z S Z^T)} by the blocked column recursion.

    t, q and s, z are real Schur forms and their orthogonal factors; cutoff
    and tau are the rank cutoff and the clustering radius (see
    `solve_duality_space`, which owns them).  Returns the basis as a
    (dim, n_hat, n) array, the largest singular value treated as zero (0.0 if
    none) and the smallest treated as nonzero (inf if none).
    """
    nh, n = t.shape[0], s.shape[0]
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
    return basis, largest_discarded, smallest_kept


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

    Primal components: the states of L fall into the connected components of
    the off-diagonal nonzero pattern of |L| + |L|^T, read with exact zeros
    (an exclusion process splits into its particle-number sectors).  L is
    block diagonal over them, so column block D_b of D (the columns of
    component b) solves L_hat D_b = D_b L_b^T on its own: the split is exact.
    The recursion runs once per component, on the one Schur form of L_hat and
    a Schur form of each L_b^T, and each component's orthonormal basis fills
    that component's columns of its own elements; bases on disjoint column
    sets are orthonormal together.  A single component runs the unsplit
    recursion on L^T itself.  L_hat is never split.

    Rank cutoff: n_hat n eps sigma with sigma = ||L_hat||_2 + ||L||_2, taken
    from the full generators and the same for every component.  It is not
    the Kronecker oracle's n_hat n eps sigma_max(I (x) L_hat - L (x) I): the
    two Schur forms carry their own backward error, which a lower bound on
    sigma_max does not cover.

    Blocking: rounding splits a size-k Jordan eigenvalue by about eps^(1/k),
    which a column-by-column recursion misreads as distinct eigenvalues.  Diagonal
    entries of S within tau = sigma (cutoff / sigma)^(1/4) of each other are
    therefore solved as one block when their Schur block is not numerically
    scalar (see `_column_blocks`).  Both the cutoff and tau scale with sigma,
    so multiplying both generators by c > 0 changes no decision.

    The decision margins are recorded on the result: the largest singular
    value treated as zero and the smallest treated as nonzero, over all
    block SVDs of all components.

    Cost: one Schur form of L_hat, one of each L_b^T, and one SVD of an
    (n_hat w) x (n_hat w + d_b) matrix per block of w columns, where d_b is
    the dimension found so far in the component: about sum_b n_b n_hat
    (n_hat + d_b)^2, against n n_hat (n_hat + d)^2 unsplit: d restarts at 0
    in each component.  When d grows like n_hat both are n n_hat^3 to leading
    order, so the split divides the constant, by up to (1 + d / n_hat)^2,
    and keeps the exponent; an irreducible L costs what it did.  With d of
    order n that is O(n^4), against O((n_hat n)^3) for the Kronecker SVD, and
    no (n_hat n)^2 matrix is formed.  Carrying the
    right-hand sides of the open columns through each block's mixing matrix
    adds about n_hat n^2 d^2 / 12 multiply-adds, O(n^5) but below the SVDs'
    share up to n = 96, where the measured growth is about n^3.5.  Real Schur
    forms keep that exponent at about half the constant that complex Schur
    forms cost.
    """
    nh, n = lhat.n, l.n
    t, q = _real_schur(np.asarray(lhat.entries))
    sigma = float(np.linalg.norm(lhat.entries, 2) + np.linalg.norm(l.entries, 2)) or 1.0
    cutoff = nh * n * EPS * sigma
    tau = sigma * (cutoff / sigma) ** 0.25
    lt = np.asarray(l.entries).T
    labels = _components(l.entries)
    roots = np.flatnonzero(labels == np.arange(n))
    if roots.size == 1:  # one component: the unsplit recursion on L^T, with no copy of it or of the basis
        basis, largest_discarded, smallest_kept = _sylvester_kernel(t, q, *_real_schur(lt), cutoff, tau)
        return DualitySpace(lhat.space, l.space, basis, cutoff, largest_discarded, smallest_kept)

    parts = []
    for root in roots:
        cols = np.flatnonzero(labels == root)
        parts.append((cols, *_sylvester_kernel(t, q, *_real_schur(lt[cols[:, None], cols]), cutoff, tau)))
    basis = np.zeros((sum(len(p[1]) for p in parts), nh, n))
    k = 0
    for cols, part, _, _ in parts:
        basis[k : k + len(part), :, cols] = part
        k += len(part)
    largest_discarded = max(p[2] for p in parts)
    smallest_kept = min(p[3] for p in parts)
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


def _validate_chains(l: RateMatrix, cols: np.ndarray, lengths) -> np.ndarray:
    """Eigenvalues of the Jordan chains laid out side by side in cols, each chain validated.

    Chain i is lengths[i] consecutive columns, eigenvector first, and one
    product L @ cols serves every chain.  Its eigenvalue is the Rayleigh
    quotient lam = <u, Lu> / <u, u> of its first column u, which must be
    nonzero with max|Lu - lam u| <= tol max|u|; every later column must
    satisfy max|L u^(k) - lam u^(k) - u^(k-1)| <= tol max|chain|, where
    tol = DEFAULTS.residual ||L||_inf.
    The first failing column is reported: NotEigenpairError ("column i: ...")
    for a chain of length 1, NotChainError ("chain i: ... at order k") for a
    longer one.
    """
    cols, lengths = np.asarray(cols), np.asarray(lengths)
    starts = np.cumsum(lengths) - lengths
    owner = np.repeat(np.arange(lengths.size), lengths)
    lc = np.asarray(l.entries) @ cols
    norm2 = np.einsum("ij,ij->j", cols.conj(), cols).real[starts]
    lams = np.einsum("ij,ij->j", cols.conj(), lc)[starts] / np.where(norm2 == 0, 1.0, norm2)
    below = np.concatenate([np.zeros_like(cols[:, :1]), cols[:, :-1]], axis=1)  # u^(k-1) under each u^(k)
    below[:, starts] = 0.0  # and nothing under a chain's eigenvector
    defects = np.max(np.abs(lc - lams[owner] * cols - below), axis=0, initial=0.0)
    col_max = np.max(np.abs(cols), axis=0, initial=0.0)
    scale = np.maximum.reduceat(col_max, starts)[owner]  # max|chain| for the later columns
    scale[starts] = col_max[starts]  # and max|u| for each eigenvector
    bound = scaled_tol(DEFAULTS.residual, l.entries, scale)
    bad = defects > bound
    bad[starts] |= norm2 == 0
    if bad.any():
        j = int(np.argmax(bad))
        i = owner[j]
        if lengths[i] == 1:
            what = f"eigenpair defect {defects[j]:.3e} exceeds {bound[j]:.3e}"
            raise NotEigenpairError(f"column {i}: {'zero vector is not an eigenfunction' if norm2[i] == 0 else what}")
        what = "zero vector" if norm2[i] == 0 else f"chain defect {defects[j]:.3e}"
        raise NotChainError(f"chain {i}: {what} at order {j - starts[i] + 1}")
    return lams.astype(complex)


def _check_matched(lhat: RateMatrix, l: RateMatrix, lam_hat: np.ndarray, lam: np.ndarray, lengths) -> None:
    """Raise unless |lam_hat - lam| <= DEFAULTS.residual max(||L_hat||_inf, ||L||_inf) for every chain.

    The first mismatch is named as _validate_chains names a failing chain.
    """
    mismatch = np.flatnonzero(np.abs(lam_hat - lam) > max(scaled_tol(DEFAULTS.residual, m.entries) for m in (lhat, l)))
    if mismatch.size:
        i = mismatch[0]
        error, what = (NotEigenpairError, "column") if lengths[i] == 1 else (NotChainError, "chain")
        raise error(f"{what} {i}: eigenvalues {lam_hat[i]:.6g} and {lam[i]:.6g} do not match")


def _chain_blocks(chains, n: int) -> list:
    """Each chain as an (n, k) array, eigenvector first; a 1-D array is a chain of length 1."""
    blocks = [b[:, None] if b.ndim == 1 else b for b in map(np.asarray, chains)]
    if any(b.ndim != 2 or b.shape[0] != n or b.shape[1] == 0 for b in blocks):
        raise ShapeMismatchError(f"each chain must be a length-{n} vector or a nonempty ({n}, k) array")
    return blocks


def _side_by_side(blocks: list, n: int) -> np.ndarray:
    """The blocks' columns as one C-ordered array, float64 or complex; (n, 0) for no blocks."""
    return np.concatenate([np.zeros((n, 0)), *blocks], axis=1)


def _paired_sum(
    lhat: RateMatrix, l: RateMatrix, hat_cols: np.ndarray, primal_cols: np.ndarray, c
) -> DualityFunction:
    """D = sum_j c_j hat_cols[:, j] (x) primal_cols[:, j], in one product (hat_cols * c) @ primal_cols^T.

    A complex D is returned as its real part.  Its conjugate terms must carry
    tied (equal) coefficients: ComplexResidueError is raised when max|Im D|
    exceeds DEFAULTS.residual max|D|.
    """
    d = (hat_cols * c) @ primal_cols.T
    if np.iscomplexobj(d):  # two real sides give a real D and need no check
        imag = max_abs(d.imag)
        if imag > DEFAULTS.residual * max_abs(d):
            raise ComplexResidueError(f"imaginary residue {imag:.3e}: conjugate chains are not tied")
        d = d.real
    return make_duality(lhat, l, d)


def chain_duality(lhat: RateMatrix, l: RateMatrix, hat_chains, chains, coefficients) -> DualityFunction:
    """D = sum_i c_i sum_{j=1..k} uhat_i^(j) (x) u_i^(k+1-j) from Jordan chains for shared eigenvalues.

    hat_chains[i] and chains[i] are Jordan chains of L_hat and L for a common
    eigenvalue, each an (n, k) array stored eigenvector first, with the same
    k on both sides, and coefficients[i] is their real coefficient c_i.  A
    1-D array is an eigenfunction (k = 1), so eigenfunctions give the
    product duality sum_i c_i uhat_i (x) u_i.  The order reversal is what
    makes the cross terms of a longer chain cancel.

    Values may be real or complex, and a complex sum is returned as its real
    part.  For a complex-conjugate eigenvalue pair, pass the chains of both
    eigenvalues (u and conj(u) on each side) with tied (equal) coefficients:
    c uhat (x) u + c conj(uhat (x) u) = 2c Re(uhat (x) u).  Untied conjugate
    coefficients raise ComplexResidueError, as in build_from_spectra.

    Both sides are validated by _validate_chains, the hat side first, then
    the eigenvalues are matched (_check_matched): a failing chain of length 1
    raises NotEigenpairError ("column i: ..."), a longer one NotChainError.
    """
    a = np.asarray(coefficients, dtype=float).ravel()
    hat, primal = _chain_blocks(hat_chains, lhat.n), _chain_blocks(chains, l.n)
    lengths = [b.shape[1] for b in hat]
    if a.size != len(hat) or lengths != [b.shape[1] for b in primal]:
        raise ShapeMismatchError("need one coefficient per chain and paired chains of equal length")
    hat_cols = _side_by_side(hat, lhat.n)
    lam_hat = _validate_chains(lhat, hat_cols, lengths)
    _check_matched(lhat, l, lam_hat, _validate_chains(l, _side_by_side(primal, l.n), lengths), lengths)
    reversed_cols = _side_by_side([b[:, ::-1] for b in primal], l.n)
    return _paired_sum(lhat, l, hat_cols, reversed_cols, np.repeat(a, lengths))


def orthogonal_selfduality(
    l: RateMatrix,
    mu: Measure,
    tilde_us: np.ndarray,
) -> DualityFunction:
    """Orthogonal self-duality D = sum_i tilde_u_i (x) u_i for a reversible generator l.

    u_i is the mu-orthonormal eigenbasis of l (reversible_eigenbasis); tilde_us
    (columns) must be mu-orthonormal eigenfunctions for the same eigenvalues,
    in the same descending order.  The result satisfies row-orthogonality
    <D(x,.), D(x',.)>_mu = delta_xx' / mu(x').  The checks: the mu-Gram
    matrix within DEFAULTS.residual of I, then one product L @ tilde_us that
    gives every column's Rayleigh quotient and defect (_validate_chains),
    then the match with the eigenvalues of u (_check_matched);
    NotEigenpairError names the first failing column.
    """
    lams, u = reversible_eigenbasis(l, mu)
    tilde = np.atleast_2d(np.asarray(tilde_us, dtype=float))
    if tilde.shape != (l.n, l.n):
        raise ShapeMismatchError("tilde_us must be a full square eigenbasis")
    w = np.asarray(mu.weights)
    gram = (tilde.T * w) @ tilde
    if max_abs(gram - np.eye(l.n)) > DEFAULTS.residual:
        raise NotOrthonormalError("tilde_us is not orthonormal in L^2(mu)")
    ones = np.ones(l.n, dtype=int)
    _check_matched(l, l, _validate_chains(l, tilde, ones), lams, ones)
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

    Uses the leading singular triple; validates (_validate_chains,
    _check_matched) that f and g are eigenfunctions of lhat and l for a
    common eigenvalue.
    Total function: returns None when D is not numerically rank 1 or
    validation fails.
    """
    m = np.asarray(d.matrix)
    u, s, vh = np.linalg.svd(m)
    if int(np.sum(s > rank_threshold(s, m.shape))) != 1:
        return None
    f = u[:, 0] * s[0]
    g = vh[0]
    try:
        lam_hat = _validate_chains(lhat, f[:, None], [1])
        _check_matched(lhat, l, lam_hat, _validate_chains(l, g[:, None], [1]), [1])
    except NotEigenpairError:
        return None
    return f, g, lam_hat[0]


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
    witness of rank r.  This is chain_duality's sum on the chains of the
    matched blocks, which decompose has validated already.  Coefficients of
    conjugate block pairs must be tied (equal) so the combined matrix is real;
    otherwise ComplexResidueError is raised when max|Im D| exceeds
    DEFAULTS.residual max|D|.
    """
    a = np.asarray(coefficients, dtype=float)
    if a.size != len(witness.matched):
        raise ShapeMismatchError(f"need {len(witness.matched)} coefficients, got {a.size}")
    units = witness.matched
    hat_cols = [u.hat_offset + i for u in units for i in range(u.size)]
    primal_cols = [u.offset + u.size - 1 - i for u in units for i in range(u.size)]
    c = np.repeat(a.ravel(), [u.size for u in units])
    return _paired_sum(hat_data.source, primal_data.source, hat_data.U[:, hat_cols], primal_data.U[:, primal_cols], c)
