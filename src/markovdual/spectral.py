"""Jordan-form machinery for small dense real matrices.

decompose() produces eigenvalue clusters, Jordan chains and the inverse-row
functions; check_r_similar() provides the rank-r similarity test that turns
shared spectral structure into duality functions (see
markovdual.duality.build_from_spectra).  Every SpectralData, from decompose,
spectral_from_eigenbasis or siegmund.siegmund_spectral, passes one residual
gate, _gated.

Chains are stored eigenvector-first, so M @ U == U @ J with J upper bidiagonal
(ones on the superdiagonal inside each block).  A matrix in detailed balance
(core._symmetrization) takes decompose's symmetric route: one `eigh` of
W^{1/2} M W^{-1/2}, its eigenvalues grouped on the same tree as below.  Any
other takes the Schur route, which reads every decision from one real Schur
form M = Z T Z^T, with no eigenvalue radius.
Which computed eigenvalues count as one is decided on the single-linkage
tree of the diagonal of T folded into the upper half-plane (re + i|im|), so
a conjugate pair is one point and each node is a set of Schur positions: a
node well separated from the rest (by the fixed ratio RATIO) is moved to
the front of the Schur form by one dtrsen reordering, and it is one
eigenvalue when the staircase of its leading block (one SVD per level,
deflating the null vectors found, at the single cutoff sqrt(eps) s) reaches
its multiplicity as a Jordan partition; its chains map back through the
leading Schur vectors (Kagstrom-Ruhe, ACM TOMS 1980).  Otherwise the node's
children are tried, and a leaf left over is a simple eigenvalue, whose
chain is its column from one `eig` of the leading block of all simple
positions, taken by eigenvalue, not by position.  match_jordan_blocks pairs
the block eigenvalues of two structures by nearest neighbour at a
residual-level radius.  _reorder_schur is the one dtrsen call, shared with
the duality kernel's column blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dgees, dtrsen

from .config import DEFAULTS
from .core import Measure, RateMatrix, _symmetrization, _symmetrized
from .errors import DecompositionFailedError, NotOrthonormalError, ShapeMismatchError
from .linalg import EPS, max_abs, scaled_tol

__all__ = [
    "JordanBlock",
    "JordanStructure",
    "SpectralData",
    "Witness",
    "MatchedBlock",
    "decompose",
    "match_jordan_blocks",
    "check_r_similar",
    "reversible_eigenbasis",
    "spectral_from_eigenbasis",
]


class JordanBlock(NamedTuple):
    eigenvalue: complex
    size: int


def _canonical_key(block: JordanBlock):
    # fixes the "unique up to permutations" freedom: Re desc, Im desc, size desc
    return (-block.eigenvalue.real, -block.eigenvalue.imag, -block.size)


@dataclass(frozen=True)
class JordanStructure:
    """Ordered Jordan blocks (eigenvalue, size) in canonical order."""

    blocks: tuple[JordanBlock, ...]

    def __post_init__(self):
        blocks = tuple(JordanBlock(complex(ev), int(m)) for ev, m in self.blocks)
        if any(b.size < 1 for b in blocks):
            raise ValueError("block sizes must be positive")
        object.__setattr__(self, "blocks", tuple(sorted(blocks, key=_canonical_key)))

    @property
    def n(self) -> int:
        return sum(b.size for b in self.blocks)

    @property
    def offsets(self) -> tuple[int, ...]:
        """Column offset of each block inside U."""
        out, pos = [], 0
        for b in self.blocks:
            out.append(pos)
            pos += b.size
        return tuple(out)

    def is_real(self) -> bool:
        return all(b.eigenvalue.imag == 0.0 for b in self.blocks)

    def jordan_matrix(self) -> np.ndarray:
        """Assemble J: eigenvalues on the diagonal, ones on in-block superdiagonals.

        float64 when every eigenvalue is real, complex128 otherwise.
        """
        real = self.is_real()
        j = np.zeros((self.n, self.n), dtype=float if real else complex)
        pos = 0
        for ev, m in self.blocks:
            ev = ev.real if real else ev
            for i in range(m):
                j[pos + i, pos + i] = ev
                if i + 1 < m:
                    j[pos + i, pos + i + 1] = 1.0
            pos += m
        return j

    def is_diagonalizable(self) -> bool:
        return all(b.size == 1 for b in self.blocks)


@dataclass(frozen=True, eq=False)
class SpectralData:
    """Jordan decomposition M = U J U^{-1} of a rate matrix.

    Columns of U are (generalized) eigenfunctions grouped by block in chain
    order; rows of Uinv are the dual functions w_i with <w_i, u_j> = delta_ij.
    residual = max of the reconstruction and inversion defects (max-abs entry).

    Storage: U and Uinv are read-only, float64 when every block eigenvalue
    is real and complex128 otherwise (spectral_from_eigenbasis keeps the
    given basis's dtype, widened to float64 or complex128).  They may be
    views of arrays the producer was given (see spectral_from_eigenbasis).
    Every producer (decompose, spectral_from_eigenbasis,
    siegmund.siegmund_spectral) builds it through one gate, _gated.
    Equality and hashing go by identity.
    """

    source: RateMatrix
    structure: JordanStructure
    U: np.ndarray
    Uinv: np.ndarray
    residual: float

    @property
    def n(self) -> int:
        return self.structure.n

    @property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues with algebraic multiplicity, in block order."""
        return np.concatenate([[b.eigenvalue] * b.size for b in self.structure.blocks])


RATIO = 100.0  # a tree node is tried when its separation is at least RATIO times its spread


def _tried_nodes(points: np.ndarray, widths: np.ndarray, norm: float):
    """Prim's order of complex points, and the nodes of their single-linkage tree that the ratio test passes.

    `order` is the order in which Prim's minimum-spanning-tree pass (from
    point 0, one p x p distance array, O(p^2); on the real line, from the
    leftmost point, which is a sort) adds the points.  Every single-linkage
    cluster is a contiguous range of that order, and the tree is the
    Cartesian tree of the reach r (each point's edge to those added before
    it; r = inf before the first point and after the last): the merge at
    position j, of height r_j, spans from the last earlier position with
    r >= r_j to the first later one with r > r_j.  A node's spread is its
    merge height, or for a leaf its `width` (positive for a pair, else the
    leaf is never tried), and its separation is its parent's height, the
    smaller reach at its two ends, or `norm` for the root.  A merge or a pair
    leaf is tried when separation >= RATIO max(spread, eps norm).  The
    ranges are read only for nodes that can pass: no separation exceeds
    max(norm, the longest edge), so the spread must be at most that over
    RATIO, and a merge's neighbouring reach that bounds its separation (an
    earlier one >= its height, a later one > it) must be at least RATIO
    times its height.  With none left, no node is tried and no range is
    read.  Returns (order, nodes): nodes are the (start, stop) ranges
    order[start:stop] of the tried nodes, larger first, so an ancestor
    comes before its descendants.
    """
    p = len(points)
    if np.iscomplexobj(points) and points.imag.any():
        dist = np.abs(points[:, None] - points)
        best, done, order, reach = dist[0].copy(), np.zeros(p, dtype=bool), [0], [np.inf]
        for _ in range(p - 1):
            done[order[-1]] = True
            np.putmask(best, done, np.inf)
            order.append(int(best.argmin()))
            reach.append(best[order[-1]])
            np.minimum(best, dist[order[-1]], out=best)
        order = np.array(order)
    else:  # on the real line, Prim's pass from the leftmost point is a sort
        order = np.argsort(points.real, kind="stable")
        reach = [np.inf, *np.diff(points.real[order]).tolist()]
    r, widths = np.array(reach + [np.inf]), widths[order]
    limit = r[1:p].max(initial=norm) / RATIO
    at = (r[1:p] <= limit).nonzero()[0] + 1  # the merges low enough to pass, by position
    pairs = ((widths > 0.0) & (widths <= limit)).nonzero()[0]  # the pair leaves that can pass
    if not (at.size or pairs.size):
        return order, []
    h, before, after = r[at], r[at - 1], r[at + 1]  # a merge's height and its neighbours' reach
    at = at[((before < h) | (before >= RATIO * h)) & ((after <= h) | (after >= RATIO * h))]  # and can pass
    if not (at.size or pairs.size):
        return order, []
    pos = np.arange(p + 1)
    start = np.where((pos < at[:, None]) & (r >= r[at, None]), pos, 0).max(axis=1)
    stop = np.where((pos > at[:, None]) & (r > r[at, None]), pos, p).min(axis=1)
    start, stop = np.concatenate([start, pairs]), np.concatenate([stop, pairs + 1])
    separation = np.minimum(r[start], r[stop])
    separation[np.isinf(separation)] = norm  # the root's
    passed = separation >= RATIO * np.maximum(np.concatenate([r[at], widths[pairs]]), EPS * norm)
    return order, sorted(zip(start[passed].tolist(), stop[passed].tolist()), key=lambda node: node[0] - node[1])


def _staircase(a: np.ndarray, cutoff: float, m_alg: int):
    """Null dimensions and nested orthonormal null bases of a^k, k = 1.., or None.

    The staircase (Kublanovskaya 1966; Kagstrom-Ruhe, ACM TOMS 1980): one
    gesvd SVD per level, whose d right singular vectors at or below the
    cutoff extend the null basis, then deflation to the rest, B <- V2^H B V2
    for the other right singular vectors V2, so Null(a^k) is the level-k
    basis without any power being formed.  One cutoff serves every level.  A
    block whose Frobenius norm is within the cutoff has every singular value
    within it, so it is wholly null, with no SVD (the identity basis when that
    happens at the first level).  The levels stop at m_alg null vectors or at
    a level with none.  Returns (dims, bases), dims[0] = 0 and bases[k - 1] a
    basis of Null(a^k), when the dims form a Jordan partition of m_alg (the
    increments never grow, and the last dim is m_alg); otherwise None.  Cost:
    at most one SVD of block size per level.
    """
    bases, basis, rest, b = [], a[:, :0], np.eye(len(a), dtype=a.dtype), a
    while basis.shape[1] < m_alg and len(b):
        if np.linalg.norm(b) <= cutoff:
            keep, v = 0, np.eye(len(b), dtype=b.dtype)
        else:
            _, sv, vh = scipy.linalg.svd(b, check_finite=False, lapack_driver="gesvd")
            keep, v = int(np.sum(sv > cutoff)), vh.conj().T
        if keep == len(b):
            break
        basis, rest = np.hstack([basis, rest @ v[:, keep:]]), rest @ v[:, :keep]
        b = v[:, :keep].conj().T @ b @ v[:, :keep]
        bases.append(basis)
    dims = [0, *(x.shape[1] for x in bases)]
    return None if dims[-1] != m_alg or np.any(np.diff(dims, 2) > 0) else (dims, bases)


def _reorder_schur(t: np.ndarray, z: np.ndarray, select: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Move the selected positions of the real Schur form (t, z) to the front, by dtrsen.

    Everything not selected keeps its relative order and the form stays
    quasi-triangular; raises DecompositionFailedError when dtrsen fails.
    """
    t, z, *_, info = dtrsen(select.astype(np.int32), t, z, job="N")
    if info != 0:
        raise DecompositionFailedError(f"dtrsen failed with info = {info}")
    return t, z


def _pivoted_picks(candidates: np.ndarray, avoid: np.ndarray | None, want: int) -> np.ndarray:
    """The first `want` greedy picks from the candidate columns, as orthonormal columns.

    Candidates are projected off span(avoid); each pick is then the candidate
    of largest norm after projecting off the earlier picks, normalized.  That
    greedy rule is QR with column pivoting (Businger-Golub), so pick i is
    Q[:, i] R[i, i] / |R[i, i]| of LAPACK's pivoted QR: O(n k^2) for k
    candidates.  Raises DecompositionFailedError when fewer than `want`
    candidates are left or a pivot is zero.
    """
    if avoid is not None:
        q, _ = np.linalg.qr(avoid)
        candidates = candidates - q @ (q.conj().T @ candidates)
    if min(candidates.shape) < want:
        raise DecompositionFailedError("could not complete a Jordan chain basis")
    qc, r, _ = scipy.linalg.qr(candidates, mode="economic", pivoting=True)
    pivots = np.diag(r)[:want]
    if np.any(pivots == 0.0):
        raise DecompositionFailedError("could not complete a Jordan chain basis")
    return qc[:, :want] * (pivots / np.abs(pivots))


def _jordan_chains(a: np.ndarray, dims: list[int], bases: list[np.ndarray]) -> list[list[np.ndarray]]:
    """Jordan chains of a = T11 - lam I from its staircase (dims, bases), each chain eigenvector-first.

    When a is wholly null at the first level (a real semisimple node), the
    chains are the unit vectors, which Z1 maps to the node's Schur vectors.
    Otherwise top vectors are picked per level (descending) from Null(a^k)
    by _pivoted_picks, avoiding Null(a^{k-1}) and the level-k members of
    already-chosen chains, which makes the output deterministic.  The dims
    form a Jordan partition (_staircase), so the level counts are the block
    sizes and the chains hold dims[-1] vectors.  Cost: one pivoted QR per
    level, of block size.  Raises DecompositionFailedError when a chain
    basis cannot be completed.
    """
    if dims[1] == len(a):
        return [[e] for e in bases[0].T]
    chains: list[list[np.ndarray]] = []
    for level in range(len(bases), 0, -1):
        want = (dims[level] - dims[level - 1]) - sum(1 for c in chains if len(c) >= level)
        if not want:
            continue
        avoid = []
        if level >= 2:
            avoid.append(bases[level - 2])
        members = [c[level - 1] for c in chains if len(c) >= level]
        if members:
            avoid.append(np.array(members).T)
        tops = _pivoted_picks(bases[level - 1], np.hstack(avoid) if avoid else None, want)
        for top in tops.T:
            chain = [top]
            for _ in range(level - 1):
                chain.append(a @ chain[-1])
            chain.reverse()
            chains.append(chain)
    return chains


def _block_mask(first: np.ndarray, wi: np.ndarray) -> np.ndarray:
    """Mask of the Schur positions of the points at positions `first`: both positions of a pair."""
    select = np.zeros(len(wi), dtype=bool)
    select[first] = True
    select[first[wi[first] > 0.0] + 1] = True
    return select


def _node_cutoff(colsq: np.ndarray, diag: np.ndarray, lam: complex) -> float:
    """The staircase's cutoff sqrt(eps) s at the shift lam, s the largest column norm of A - lam I.

    s is read off the squared column norms colsq and the diagonal diag of A.
    A semisimple node's members lie within this cutoff of lam.
    """
    return np.sqrt(EPS) * float(np.sqrt(np.max(colsq - diag**2 + np.abs(diag - lam) ** 2)))


def _semisimple_fits(defect: np.ndarray, norm: float) -> bool:
    """True when a semisimple node's unit eigenvectors V leave a defect (M - lam I) V within DEFAULTS.residual norm.

    norm is ||M||_inf, so the bound is the gate's for unit columns.
    """
    return max_abs(defect) <= DEFAULTS.residual * norm


def _node_chains(mat: np.ndarray, schur_form, select: np.ndarray, norm: float):
    """(eigenvalue, chains) of one tree node's Schur positions (the mask select), or None when no shift fits.

    schur_form = (T, Z, folded, c): mat = Z T Z^T, folded the diagonal of T
    as re + i|im|, c the squared column norms of mat.  _reorder_schur moves
    exactly the node's k positions to the front, so M Z1 = Z1 T11, and Z1
    maps each chain of T11 - lam I (_jordan_chains) to a chain of M - lam I.
    Two shifts are tried in turn: the real mean of the positions' values,
    with multiplicity k; then, when k is even and holds conjugate pairs and
    k / 2 > 1, the complex mean of their folded values, with multiplicity
    k / 2 (a pair alone is a simple eigenvalue).  A shift fits when the
    staircase of T11 - lam I at the cutoff sqrt(eps) s (_node_cutoff), s
    the largest column norm of M - lam I (read off c and the diagonal of
    mat), reaches the multiplicity as a Jordan partition.  The cutoff scales
    with the full M - lam I, not with the block, which for a semisimple node
    holds only rounding.  A real shift whose block is wholly null at the first level
    (a semisimple node, whose chains are its Schur vectors) fits only when
    the defect those vectors leave, Z1 (T11 - lam I), is within
    DEFAULTS.residual norm (_semisimple_fits), the gate's bound for unit
    columns: two distinct eigenvalues closer than the cutoff but split by
    more than rounding are not one eigenvalue, and their node descends to
    its leaves.
    Cost: one dtrsen, O(k n^2), plus work of block size.  Raises
    DecompositionFailedError when dtrsen fails or _jordan_chains does.
    """
    t, z, folded, colsq = schur_form
    k = int(np.count_nonzero(select))
    t, z = _reorder_schur(t, z, select)
    values = folded[select]
    shifts = [(float(np.mean(values.real)), k)]
    if k % 2 == 0 and k > 2 and np.any(values.imag):
        shifts.append((complex(np.mean(values)), k // 2))
    diag = np.diag(mat)
    for lam, m_alg in shifts:
        a = t[:k, :k] - lam * np.eye(k)
        stairs = _staircase(a, _node_cutoff(colsq, diag, lam), m_alg)
        # a semisimple node must leave no more defect than the gate allows its Schur vectors
        if stairs is not None and (stairs[0][1] < k or _semisimple_fits(z[:, :k] @ a, norm)):
            chains = _jordan_chains(a, *stairs)
            cols = iter((z[:, :k] @ np.array([v for c in chains for v in c]).T).T)
            return complex(lam), [[next(cols) for _ in c] for c in chains]
    return None


def decompose(m: RateMatrix | np.ndarray) -> SpectralData:
    """Jordan decomposition of a real square matrix.

    Two routes, picked by one detailed-balance test (core._symmetrization:
    off-diagonal entries >= 0, a symmetric nonzero pattern, and weights w
    whose symmetrization S = W^{1/2} M W^{-1/2} has an asymmetry
    max|S - S^T| within DEFAULTS.residual ||M||_inf).  A matrix that passes,
    such as SEP or any birth-death chain, takes the symmetric route
    (_symmetric_route): one `eigh` of S, so
    U = W^{-1/2} V and Uinv = V^T W^{1/2} with no inverse, and every block
    has size 1.  Any other matrix takes the Schur route (_schur_route), the
    reference.  ||M||_inf is read once and serves the test, the route and
    the gate.

    The Schur route reads every decision from one real Schur form
    M = Z T Z^T (one dgees call, with a blocked workspace of 34 n).  Its
    diagonal, folded into the upper half-plane as re + i|im| (read off
    dgees' wr and wi), gives one point per Schur block, so a conjugate pair
    is one point.  Which computed eigenvalues count as one is decided on the
    single-linkage tree of these points (_tried_nodes), with no radius: a
    node's spread is its merge height (a 2 x 2 leaf's is 2|wi|, a real
    leaf's 0), its separation its parent's height (the root's ||M||_inf).  A
    node of two or more Schur positions whose separation is at least
    RATIO max(spread, eps ||M||_inf) is tried (_node_chains: a real shift,
    then a complex one, each accepted when the staircase's null dimensions
    form a Jordan partition of its multiplicity), ancestors before
    descendants and none inside a node already accepted.  An accepted node
    gives its chains, mapped back through the leading Schur vectors Z1; a
    leaf inside no accepted node is a simple eigenvalue.  A node is a set of
    whole points, so a complex node always holds whole pairs.  When no two
    points lie within max(||M||_inf, the longest tree edge) / RATIO and no
    pair is that narrow, no node is tried and the tree's ranges are never
    read.

    The simple eigenvalues take one route: one dtrsen reordering (none when
    every eigenvalue is simple) moves all their positions to the front, and
    each column is Z1 times an eigenvector from one `eig` of that leading
    block (a real column for a real eigenvalue, the upper eigenvalue's column
    for a pair).  The block holds no accepted node: `eig` balances its
    input, and on a T with large semisimple clusters, whose blocks are
    diagonal up to rounding, the balancing scales reach 1e16 and the
    eigenvectors are wrong.  `eig` also reorders the eigenvalues, so each
    simple eigenvalue takes the column whose eigenvalue is nearest its
    folded value, never the column at its position; two taking one column
    raise DecompositionFailedError.

    A complex node is processed at its upper eigenvalue and mirrored, so
    conjugate blocks carry exactly conjugate columns.  Cost: O(n^3) for the
    Schur form (or the `eigh`), the `eig` of the simple block, the inverse
    and the residual check, O(n^2) for the tree, plus O(k n^2) per tried
    node of k positions and O(n^2) per simple eigenvalue moved for the
    dtrsen calls, and work of block size.  The symmetric route makes no
    dtrsen, staircase or `eig` call and no inverse.

    Storage: U and Uinv are read-only, float64 when every block eigenvalue
    is real (the chains of a real eigenvalue are real columns) and
    complex128 otherwise.  Both routes end in _gated, the gate every
    SpectralData passes; it is the final judge of every decision.

    Raises DecompositionFailedError if two simple eigenvalues take one `eig`
    column, if a LAPACK call (gees, trsen, eig, eigh, qr, svd) fails, if the
    basis is singular, or if the gate rejects the reconstruction or
    inversion defect.
    """
    source = m if isinstance(m, RateMatrix) else RateMatrix.from_entries(m)
    norm = scaled_tol(1.0, source.entries)
    balanced = _symmetrization(source.entries, norm)
    try:  # eig, eigh, qr and svd signal a LAPACK failure by LinAlgError
        return _schur_route(source, norm) if balanced is None else _symmetric_route(source, norm, *balanced)
    except np.linalg.LinAlgError as exc:
        raise DecompositionFailedError(f"decomposition: {exc}") from exc


def _symmetric_eigh(sym: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(lams, V): one `eigh` of the symmetric part (S + S^T) / 2 of the symmetrization S = sym.

    lams ascend and V is orthonormal, so diag(1/root) V holds eigenvectors of
    m when S = diag(root) m diag(1/root) (core._symmetrized) is symmetric.
    The one eigensolve of the symmetric route and of reversible_eigenbasis.
    numpy's eigh, not scipy's dsyevd: the gate's products run in numpy's
    BLAS, and an eigensolve in scipy's BLAS between them made the two
    libraries' idle threads compete for the cores (SEP(2, 8) with two BLAS
    threads on two cores: about 10 ms through dsyevd, 1.3 ms through eigh).
    """
    return np.linalg.eigh((sym + sym.T) / 2.0)


def _symmetric_route(source: RateMatrix, norm: float, root: np.ndarray, sym: np.ndarray) -> SpectralData:
    """decompose of a matrix in detailed balance, from its symmetrization (core._symmetrization).

    root = W^{1/2} for the weights w and sym = S = W^{1/2} M W^{-1/2}.  One
    `eigh` of S (_symmetric_eigh) gives the real eigenvalues and
    U = W^{-1/2} V, Uinv = V^T W^{1/2}.  Which eigenvalues count as one is
    decided on the tree of _tried_nodes, as on the Schur route: a tried node
    is one eigenvalue, at the mean lam of its members, when every member
    lies within the staircase's cutoff of lam (_node_cutoff, with S for M),
    which is the decision the staircase takes on the diagonal Schur form of
    a normal matrix, and its eigenvectors' defect V_node (Lambda_node - lam I)
    passes _semisimple_fits, the semisimple test of _node_chains.  Every block has size 1; the columns are sorted into
    canonical order.
    """
    lams, v = _symmetric_eigh(sym)
    order, tried = _tried_nodes(lams, np.zeros(len(lams)), norm)
    if tried:
        colsq, diag = np.einsum("ij,ij->j", sym, sym), np.diag(sym)
        covered = np.zeros(len(lams), dtype=bool)
        for first, last in tried:  # none inside a node already accepted
            if not covered[first]:
                members = order[first:last]
                lam = float(np.mean(lams[members]))
                shift = lams[members] - lam
                if max_abs(shift) <= _node_cutoff(colsq, diag, lam) and _semisimple_fits(v[:, members] * shift, norm):
                    lams[members] = lam
                    covered[first:last] = True
    # the eigenvalues ascend, and a node's mean stays between its neighbours: descending order is the reverse
    structure = JordanStructure(tuple(zip(lams[::-1].tolist(), [1] * len(lams))))
    v = v[:, ::-1]
    return _gated(source, structure, v / root[:, None], v.T * root, "decomposition", norm)


def _schur_route(source: RateMatrix, norm: float) -> SpectralData:
    """decompose through one real Schur form, for any real square matrix (see decompose)."""
    mat = np.asarray(source.entries)
    t, _, wr, wi, z, _, info = dgees(lambda wr, wi: None, mat, lwork=34 * len(mat))
    if info:
        raise DecompositionFailedError(f"decomposition: the real Schur form did not converge (dgees info = {info})")
    folded = wr + 1j * np.abs(wi)
    upper = wi >= 0.0  # one position per Schur block
    points = np.flatnonzero(upper)
    order, tried = _tried_nodes(folded[points], 2.0 * wi[points], norm)  # a pair leaf spans 2|wi|
    schur_form = (t, z, folded, np.einsum("ij,ij->j", mat, mat)) if tried else None
    blocks: list[tuple[complex, list[np.ndarray]]] = []
    covered = np.zeros(len(points), dtype=bool)
    for first, last in tried:  # none inside a node already accepted
        if not covered[first]:
            found = _node_chains(mat, schur_form, _block_mask(points[order[first:last]], wi), norm)
            if found is not None:
                blocks.extend((found[0], chain) for chain in found[1])
                covered[first:last] = True
    simple = order[~covered]  # the leaves left over: simple eigenvalues
    if simple.size:
        select = _block_mask(points[simple], wi)
        k = int(np.count_nonzero(select))
        if k < len(t):  # the simple positions become the leading block
            t, z = _reorder_schur(t, z, select)
            upper &= select
        w, v = np.linalg.eig(t[:k, :k])
        lams = folded[upper]
        picks = np.abs(w - lams[:, None]).argmin(axis=1)
        if len(set(picks.tolist())) < len(picks):
            raise DecompositionFailedError("decomposition: two simple eigenvalues take the same eig column")
        cols = (z[:, :k] @ v[:, picks]).T
        blocks.extend((lam, [col.real if lam.imag == 0.0 else col]) for lam, col in zip(lams.tolist(), cols))
    blocks += [(lam.conjugate(), [v.conj() for v in chain]) for lam, chain in blocks if lam.imag != 0.0]
    blocks.sort(key=lambda b: _canonical_key(JordanBlock(b[0], len(b[1]))))
    structure = JordanStructure(tuple(JordanBlock(ev, len(chain)) for ev, chain in blocks))
    dtype = float if structure.is_real() else complex
    u = np.array([v for _, chain in blocks for v in chain], dtype=dtype).T
    return _gated(source, structure, u, None, "decomposition", norm)


def _read_only(a: np.ndarray) -> np.ndarray:
    """A read-only view of a (a itself stays as it was)."""
    view = a.view()
    view.setflags(write=False)
    return view


def _gated(
    source: RateMatrix,
    structure: JordanStructure,
    u: np.ndarray,
    uinv: np.ndarray | None,
    label: str,
    norm: float | None = None,
) -> SpectralData:
    """SpectralData for source = U J U^{-1}, after the one residual gate every producer passes.

    u is inverted when no uinv is given; a singular u raises
    DecompositionFailedError.  DecompositionFailedError, naming `label`, is
    also raised when max|M U - U J| exceeds DEFAULTS.residual ||M||_inf
    max|U|, or when max|Uinv U - I| exceeds DEFAULTS.residual.  Where a
    Jordan block has size 2 or more, that second defect is taken for the
    basis with every column scaled to max-abs 1 (entry (i, j) times
    max|U_i| / max|U_j|, with U_k column k): the chains of c M are those of
    M with the k-th member of a chain scaled by c^(k-1), which scales entry
    (i, j) of Uinv U - I by c^(j-i), and the scaled basis undoes that.  The
    recorded residual is the larger absolute max-abs entry of M U - U J and
    Uinv U - I.  U J is taken in O(n^2) without forming J: lambda times each
    column, plus the previous column inside each chain.  The eigenvalues are
    real when the structure is, so a real U gives a real defect.  Buffers:
    M U, lambda U and Uinv U, one n x n each, and two more for the scaled
    defect where a block has size 2 or more.
    U and Uinv are stored as read-only views of u and uinv, not copies.
    norm is ||M||_inf when the caller has read it already, else one dlange
    pass reads it.
    """
    if uinv is None:
        try:
            uinv = np.linalg.inv(u)
        except np.linalg.LinAlgError as exc:
            raise DecompositionFailedError(f"{label}: the eigenbasis is numerically singular") from exc
    real, diagonalizable = structure.is_real(), structure.is_diagonalizable()
    lams = np.repeat([ev.real if real else ev for ev, _ in structure.blocks], [size for _, size in structure.blocks])
    defect = (np.asarray(source.entries) @ u).astype(np.result_type(u, lams), copy=False)
    defect -= u * lams
    if not diagonalizable:
        links = [o + i for o, (_, size) in zip(structure.offsets, structure.blocks) for i in range(1, size)]
        defect[:, links] -= u[:, np.subtract(links, 1)]
    gram = np.asarray(uinv) @ u
    gram.flat[:: gram.shape[0] + 1] -= 1.0
    norm = scaled_tol(1.0, source.entries) if norm is None else norm
    fit, inverse, bound = max_abs(defect), max_abs(gram), DEFAULTS.residual * norm * max_abs(u)
    scaled = inverse
    if not diagonalizable:
        scale = np.abs(u).max(axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):  # a zero column gives inf or NaN, which fails below
            scaled = max_abs(gram * (scale[:, None] / scale))
    if not (fit <= bound and scaled <= DEFAULTS.residual):
        raise DecompositionFailedError(
            f"{label} residual {max(fit, inverse):.3e} exceeds tolerance: reconstruction {fit:.3e} against "
            f"{bound:.3e}, inversion {scaled:.3e} against {DEFAULTS.residual:.3e}"
        )
    return SpectralData(source, structure, _read_only(u), _read_only(np.asarray(uinv)), max(fit, inverse))


def spectral_from_eigenbasis(
    source: RateMatrix,
    eigenvalues: Sequence[complex],
    u: np.ndarray,
    uinv: np.ndarray | None = None,
) -> SpectralData:
    """SpectralData from a known eigenbasis (all blocks size 1), validated.

    A known inverse `uinv` (rows dual to the columns of u, e.g. a closed
    form) is taken as given; otherwise U is inverted.  The gate (_gated)
    raises DecompositionFailedError when u is singular or M U - U diag(lambda)
    or Uinv U - I is too large.

    Storage: U keeps u's dtype, widened to float64 or complex128 (a real
    basis stays real), and Uinv is the given or computed inverse.  Both are
    stored read-only.  When the eigenvalues are already in canonical order
    (real part descending, as for the walks of `models`), no column is
    moved: U and a given Uinv are read-only views of u and uinv, not copies,
    so the caller must not write to those arrays afterwards.  Otherwise the
    columns of u, and the rows of a given uinv, are re-sorted into copies.
    """
    structure = JordanStructure(tuple(JordanBlock(complex(ev), 1) for ev in eigenvalues))
    keys = [_canonical_key(JordanBlock(complex(ev), 1)) for ev in eigenvalues]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    u = np.asarray(u)
    u = u.astype(np.result_type(u.dtype, float), copy=False)
    if order != list(range(len(order))):
        # re-sort columns (and the inverse's rows) so they line up with the canonical block order
        u = u[:, order]
        uinv = None if uinv is None else np.asarray(uinv)[order]
    return _gated(source, structure, u, uinv, "analytic eigenbasis")


class MatchedBlock(NamedTuple):
    """One matched Jordan-block pair contributing `size` to a duality rank.

    hat_offset/offset are column offsets into the hat/primal U matrices;
    hat_size/primal_size the full block sizes, size = the matched chain length
    (min of the two, possibly truncated to hit a requested rank).
    """

    eigenvalue: complex
    hat_offset: int
    hat_size: int
    offset: int
    primal_size: int
    size: int


def _blocks_by_eigenvalue(structure: JordanStructure) -> tuple[np.ndarray, list[list[int]]]:
    """The distinct block eigenvalues and, for each, its block indices by descending size (ties in block order)."""
    groups: dict[complex, list[int]] = {}
    for k, b in enumerate(structure.blocks):
        groups.setdefault(b.eigenvalue, []).append(k)
    sizes = [b.size for b in structure.blocks]
    return np.array(list(groups), dtype=complex), [sorted(ks, key=lambda k: -sizes[k]) for ks in groups.values()]


def match_jordan_blocks(hat: JordanStructure, primal: JordanStructure) -> list[MatchedBlock]:
    """Maximal block matching between two structures.

    The distinct block eigenvalues of the two sides are paired in one
    vectorized nearest-neighbour pass: a hat and a primal eigenvalue match
    when they lie within DEFAULTS.residual times the largest |eigenvalue| of
    the two structures.  An eigenvalue with two candidates on the other side
    raises DecompositionFailedError; it is not resolved greedily.  At each
    matched eigenvalue the hat and the primal block sizes are sorted
    descending (ties in block order) and paired elementwise; each pair
    supports a chain overlap of min(sizes) and carries its hat block's
    eigenvalue.  For equal size lists this reduces to counting shared
    eigenvalues with multiplicity.
    """
    (hat_eigs, hat_groups), (eigs, groups) = _blocks_by_eigenvalue(hat), _blocks_by_eigenvalue(primal)
    radius = DEFAULTS.residual * np.max(np.abs(np.concatenate([hat_eigs, eigs])), initial=0.0)
    close = np.abs(hat_eigs[:, None] - eigs) <= radius
    for values, count in ((hat_eigs, close.sum(axis=1)), (eigs, close.sum(axis=0))):
        if np.any(count > 1):
            k = int(np.argmax(count))
            raise DecompositionFailedError(
                f"block eigenvalue {values[k]:.6g} has {count[k]} candidates within {radius:.3e} on the other side"
            )
    hat_offsets, offsets = hat.offsets, primal.offsets
    matches: list[MatchedBlock] = []
    for i, j in zip(*np.nonzero(close)):
        for hk, pk in zip(hat_groups[i], groups[j]):
            h, p = hat.blocks[hk], primal.blocks[pk]
            matches.append(MatchedBlock(h.eigenvalue, hat_offsets[hk], h.size, offsets[pk], p.size, min(h.size, p.size)))
    matches.sort(key=lambda u: (-u.eigenvalue.real, -u.eigenvalue.imag, -u.size, u.hat_offset))
    return matches


@dataclass(frozen=True)
class Witness:
    """Rank-r similarity witness: the matched block pairs of a T with Jhat T = T J.

    T (hat.n x primal.n) maps the first `size` chain positions of each
    matched hat block onto the last `size` positions of the matched primal
    block; it is a 0/1 matrix of rank r and is not formed.
    """

    matched: tuple[MatchedBlock, ...]
    rank: int


def check_r_similar(hat: SpectralData, primal: SpectralData, r: int) -> Witness | None:
    """Witness that the two matrices are r-similar, or None.

    The blocks of match_jordan_blocks, truncated to total size r, define a T
    with Jhat T = T J exactly for the assembled Jordan matrices (up to the
    matching radius of match_jordan_blocks, DEFAULTS.residual times the
    largest |eigenvalue|); see Witness.  Raises DecompositionFailedError
    when an eigenvalue has two candidates on the other side.
    """
    if r < 1 or r > min(hat.n, primal.n):
        raise ValueError(f"rank r={r} out of range 1..{min(hat.n, primal.n)}")
    matches = match_jordan_blocks(hat.structure, primal.structure)
    total = sum(u.size for u in matches)
    if total < r:
        return None
    kept: list[MatchedBlock] = []
    remaining = r
    for u in matches:
        if remaining == 0:
            break
        take = min(u.size, remaining)
        kept.append(u._replace(size=take))
        remaining -= take
    return Witness(matched=tuple(kept), rank=r)


def reversible_eigenbasis(l: RateMatrix, mu: Measure) -> tuple[np.ndarray, np.ndarray]:
    """Real eigenvalues and a mu-orthonormal eigenbasis of a reversible generator.

    Uses the symmetrization diag(sqrt(mu)) L diag(1/sqrt(mu)) (_symmetric_eigh); raises
    NotOrthonormalError if L is not self-adjoint in L^2(mu), i.e. when the
    symmetrization's asymmetry exceeds DEFAULTS.residual times its max-abs entry.
    """
    if mu.space.n != l.n:
        raise ShapeMismatchError("measure and matrix sizes differ")
    w = np.sqrt(np.asarray(mu.weights))
    sym = _symmetrized(l.entries, w)
    if max_abs(sym - sym.T) > DEFAULTS.residual * max_abs(sym):
        raise NotOrthonormalError("matrix is not reversible w.r.t. the supplied measure")
    lams, v = _symmetric_eigh(sym)
    order = np.argsort(-lams)
    return lams[order], (v[:, order] / w[:, None])
