"""Jordan-form machinery for small dense real matrices.

decompose() produces eigenvalue clusters, Jordan chains and the inverse-row
functions; check_r_similar() provides the rank-r similarity test that turns
shared spectral structure into duality functions (see
markovdual.duality.build_from_spectra).  Every SpectralData, from decompose,
spectral_from_eigenbasis or siegmund.siegmund_spectral, passes one residual
gate, _gated.

Chains are stored eigenvector-first, so M @ U == U @ J with J upper bidiagonal
(ones on the superdiagonal inside each block).  decompose reads every
decision from one real Schur form M = Z T Z^T.  Which computed eigenvalues
count as one is decided by one grouping rule, _cluster_eigenvalues: over the
diagonal of T folded into the upper half-plane (re + i|im|) in decompose, so
a conjugate pair is one cluster and each cluster is a set of Schur
positions, and over the block eigenvalues of both sides in
match_jordan_blocks.  Every set of positions, one per repeated eigenvalue
and one for all simple eigenvalues together, is moved to the front of the
same Schur form by one dtrsen reordering, and the chains of its leading
block map back through the leading Schur vectors (Kagstrom-Ruhe, ACM TOMS
1980).  A simple eigenvalue's chain is its column from one `eig` of its
leading block, taken by eigenvalue, not by position; a repeated one's come
from the null spaces of its block's powers, with chain lengths read off one SVD per power at the single cutoff
sqrt(eps) s^k and accepted only when the null dimensions form a Jordan
partition.  A cluster whose block has no null vector is not one eigenvalue,
and its members are split into simple ones.  _reorder_schur is the one
dtrsen call, shared with the duality kernel's column blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dgees, dtrsen

from .config import DEFAULTS
from .core import Measure, RateMatrix
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


def _cluster_eigenvalues(eigs: np.ndarray, tol: float) -> tuple[list[list[int]], np.ndarray]:
    """Group eigenvalues: greedy merge within tol of a group's running mean.

    An eigenvalue with no other within tol (one n x n distance comparison) is
    a group of its own.  The rest are visited in (real, imag) order; each
    joins the first group, in creation order, whose current mean is within
    tol, or else starts a new group.  Running sums and counts keep every mean
    at hand, so each visit is one vectorized comparison against all groups.
    A value exactly equal to the one visited before it (the second half of a
    folded conjugate pair) skips the comparison: it would join the same
    group, since adding a member moves the mean towards it.  Returns the
    groups (indices into eigs) and their means: the merged groups in
    creation order, then the lone eigenvalues in index order.  This is the
    one grouping rule: decompose applies it to the folded diagonal of its
    real Schur form (re + i|im|), the duality kernel to the diagonal of
    another real Schur form, and match_jordan_blocks to the block
    eigenvalues of two structures.
    """
    crowded = np.count_nonzero(np.abs(eigs[:, None] - eigs) <= tol, axis=1) > 1
    lone = np.flatnonzero(~crowded)
    near = np.flatnonzero(crowded)
    groups: list[list[int]] = []
    sums = np.zeros(near.size, dtype=complex)
    means = np.zeros(near.size, dtype=complex)
    counts = np.zeros(near.size, dtype=int)
    value = None
    for idx in near[np.lexsort((eigs.imag[near], eigs.real[near]))].tolist():
        if eigs[idx] != value:  # an exact repeat, such as a conjugate twin, joins its predecessor's group
            value = eigs[idx]
            close = np.flatnonzero(np.abs(value - means[: len(groups)]) <= tol)
            g = close[0] if close.size else len(groups)
            if g == len(groups):
                groups.append([])
        groups[g].append(idx)
        sums[g] += value
        counts[g] += 1
        means[g] = sums[g] / counts[g]
    return groups + [[i] for i in lone.tolist()], np.concatenate([means[: len(groups)], eigs[lone]])


def _null_basis_sequence(a: np.ndarray, lam: complex, m_alg: int, scale: float):
    """Null dims and orthonormal bases of a^k, k = 1.., for one cluster.

    a = T11 - lam I is the cluster's leading block of the reordered Schur form
    (m_alg x m_alg, or 2 m_alg x 2 m_alg for a complex lam).  The cutoffs scale
    with the full n x n matrix M - lam I, not with a, which for a semisimple
    cluster holds only rounding: with s = `scale`, the largest column norm of
    M - lam I, the k-th cutoff is sqrt(eps) s^k.  One gesvd SVD per power
    gives both the null dimension and the null basis; a power whose Frobenius
    norm is within the cutoff has every singular value within it, so it is
    the whole null space, with the identity as its basis and no SVD.  The
    powers stop when the null dimension reaches m_alg or stops growing.  A
    first power with no null vector gives [0, 0]: the cluster is not one
    eigenvalue, and the caller splits it.  Otherwise raises
    DecompositionFailedError, naming the sequence, unless the null
    dimensions form a Jordan partition of m_alg (the increments never grow,
    and the last is m_alg); an SVD that does not converge raises
    LinAlgError, which decompose turns into DecompositionFailedError.  Cost:
    at most one SVD of block size per power, O(s_max m_alg^3) for largest
    block size s_max.
    """
    dims, bases = [0], []
    for k in range(1, m_alg + 1):
        ak = a if k == 1 else ak @ a
        cutoff = np.sqrt(EPS) * scale**k
        if np.linalg.norm(ak) <= cutoff:  # the Frobenius norm bounds every singular value: all null
            sv = np.zeros(len(ak))
        else:
            _, sv, vh = scipy.linalg.svd(ak, check_finite=False, lapack_driver="gesvd")
        d = int(np.sum(sv <= cutoff))
        bases.append(np.eye(d, dtype=a.dtype) if d == len(sv) else vh[len(sv) - d :].conj().T)
        dims.append(d)
        if d >= m_alg or d == dims[-2]:
            break
    steps = np.diff(dims)
    if dims[1] and (dims[-1] != m_alg or np.any(np.diff(steps) > 0)):
        raise DecompositionFailedError(
            f"null dimensions of the powers {dims} at {lam:.6g} are not a Jordan partition "
            f"of algebraic multiplicity {m_alg}"
        )
    return dims, bases


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


def _jordan_chains(a: np.ndarray, lam: complex, m_alg: int, scale: float) -> list[list[np.ndarray]]:
    """Jordan chains of a = T11 - lam I for one eigenvalue cluster, each chain eigenvector-first.

    The k = 1 exits: when a has no null vector, there are no chains (the
    cluster is not one eigenvalue); when its null dimension is already the
    size of a (a real semisimple cluster, a numerically zero block), the
    chains are the unit vectors, which Z1 maps to the cluster's Schur
    vectors.  Otherwise top vectors are picked per level (descending) from
    Null(a^k) by _pivoted_picks, avoiding Null(a^{k-1}) and the level-k
    members of already-chosen chains, which makes the output deterministic.
    Cutoffs as in _null_basis_sequence, with `scale` from the full matrix;
    its partition check makes the level counts the block sizes, so the
    chains hold exactly m_alg vectors.  Cost: the SVDs of
    _null_basis_sequence plus one pivoted QR per level, all of block size.
    Raises DecompositionFailedError when the null dimensions are not a
    Jordan partition or a chain basis cannot be completed.
    """
    dims, bases = _null_basis_sequence(a, lam, m_alg, scale)
    if dims[1] in (0, a.shape[0]):
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


def _cluster_chains(mat: np.ndarray, schur_form, positions: list[int], lam: complex) -> list[list[np.ndarray]]:
    """Chains of one cluster of two or more Schur positions at lam, as columns of the n x n matrix.

    positions index the diagonal of T in the real Schur form
    schur_form = (T, Z, c), mat = Z T Z^T, c the squared column norms of mat,
    and lam is their folded mean (its real part for a real cluster).  A real
    cluster has algebraic multiplicity m_alg = len(positions); a complex one
    holds both positions of m_alg 2 x 2 blocks, so m_alg = len(positions) / 2.
    _reorder_schur moves exactly these positions to the front, so
    M Z1 = Z1 T11 and Z1 maps each chain of T11 - lam I (_jordan_chains) to a
    chain of M - lam I.  The cutoffs scale with s, the largest column norm of
    M - lam I, read off c and the diagonal of mat.  No chains (an empty list)
    means T11 - lam I has no null vector: the positions are not one
    eigenvalue.  Cost: one dtrsen, O(m_alg n^2), plus work of block size.
    Raises DecompositionFailedError when dtrsen fails or _jordan_chains does.
    """
    t, z, colsq = schur_form
    size = len(positions)
    select = np.zeros(len(t), dtype=bool)
    select[positions] = True
    t, z = _reorder_schur(t, z, select)
    diag = np.diag(mat)
    scale = float(np.sqrt(np.max(colsq - diag**2 + np.abs(diag - lam) ** 2)))
    shift, m_alg = (lam.real, size) if lam.imag == 0.0 else (lam, size // 2)
    chains = _jordan_chains(t[:size, :size] - shift * np.eye(size), lam, m_alg, scale)
    if not chains:
        return []
    cols = iter((z[:, :size] @ np.array([v for c in chains for v in c]).T).T)
    return [[next(cols) for _ in c] for c in chains]


def decompose(m: RateMatrix | np.ndarray, tol_cluster: float = DEFAULTS.cluster) -> SpectralData:
    """Jordan decomposition of a real square matrix.

    Every decision is read from one real Schur form M = Z T Z^T (one dgees
    call).  One grouping pass (_cluster_eigenvalues) over the diagonal of T,
    folded into the upper half-plane as re + i|im| (read off dgees' wr and
    wi, so both positions of a 2 x 2 block get the same value), decides
    which eigenvalues count as one: eigenvalues within the radius
    tol_cluster ||M||_inf (tol_cluster is a relative factor) are merged
    before chain construction, so floating-point splits of designed Jordan
    blocks are re-absorbed (size-2 blocks split by ~sqrt(eps) ||M||, within
    the default; deeper blocks need a looser tol_cluster).  Each group is a
    set of Schur positions.  A group whose folded mean lies within that
    radius of the real axis is real, with multiplicity m_alg its member
    count; any other group holds m_alg conjugate pairs, half its member count
    (an odd count raises DecompositionFailedError).  Each group takes one of
    two routes:

    - m_alg >= 2, real or complex: chains from the leading block T11 after
      one dtrsen reordering that moves exactly the group's positions to the
      front, mapped back through the leading Schur vectors Z1 (see
      _cluster_chains).  A real group whose block T11 - lam I has null
      dimension m_alg at the first power is semisimple, and its chains are
      the m_alg columns of Z1.  A group whose block has no null vector at
      all is not one eigenvalue: its members are split into simple ones.
    - m_alg = 1, or a split member: a simple eigenvalue at its folded value.
      One dtrsen reordering (none when every eigenvalue is simple) moves
      all simple positions to the front, and each column is Z1 times an
      eigenvector from one `eig` of that leading block (a real column for a
      real eigenvalue, the upper eigenvalue's column for a pair).  The
      block holds no cluster: `eig` balances its input, and on a T with
      large semisimple clusters, whose blocks are diagonal up to rounding,
      the balancing scales reach 1e16 and the eigenvectors are wrong.
      `eig` also reorders the eigenvalues, so each simple eigenvalue takes
      the column whose eigenvalue is nearest its folded value, never the
      column at its position; two taking one column raise
      DecompositionFailedError.

    The null-space cutoffs scale with the full M - lam I, not with the block
    (see _null_basis_sequence).  A complex group is processed at its upper
    eigenvalue and mirrored, so conjugate blocks carry exactly conjugate
    columns.  Cost: O(n^3) for the Schur form, the `eig` of the simple
    block, the inverse and the residual check, O(n^2) for the grouping's
    distance test, plus O(m_alg n^2) per cluster and O(n^2) per simple
    eigenvalue moved for the dtrsen calls, and work of block size.

    Storage: U and Uinv are read-only, float64 when every block eigenvalue
    is real (the chains of a real eigenvalue are real columns) and
    complex128 otherwise.  The basis is inverted and checked by _gated, the
    gate every SpectralData passes.

    Raises DecompositionFailedError if a complex group has an odd member
    count, if the null dimensions of a cluster's powers are not a Jordan
    partition (see _null_basis_sequence), if two simple eigenvalues take
    one `eig` column, if a LAPACK call (gees, eig, qr, svd) fails, if the
    basis is singular, or if the gate rejects the reconstruction or
    inversion defect.
    """
    source = m if isinstance(m, RateMatrix) else RateMatrix.from_entries(m)
    mat = np.asarray(source.entries, dtype=float)
    radius = scaled_tol(tol_cluster, mat)
    try:  # eig, qr and svd signal a LAPACK failure by LinAlgError
        t, _, wr, wi, z, _, info = dgees(lambda wr, wi: None, mat)
        if info:
            raise DecompositionFailedError(f"decomposition: the real Schur form did not converge (dgees info = {info})")
        folded = wr + 1j * np.abs(wi)
        groups, reps = _cluster_eigenvalues(folded, radius)
        blocks: list[tuple[complex, list[np.ndarray]]] = []
        simple: list[int] = []  # the Schur positions of simple eigenvalues
        schur_form = None
        for group, rep in zip(groups, reps):
            lam = complex(rep)
            if lam.imag <= radius:
                lam = complex(lam.real, 0.0)
            elif len(group) % 2:
                raise DecompositionFailedError(
                    f"complex eigenvalue cluster at {lam:.6g} holds an odd number ({len(group)}) of eigenvalues"
                )
            if len(group) == (1 if lam.imag == 0.0 else 2):
                simple += group
                continue
            if schur_form is None:
                schur_form = (t, z, np.einsum("ij,ij->j", mat, mat))
            chains = _cluster_chains(mat, schur_form, group, lam)
            if not chains:  # no null vector: the members are simple eigenvalues
                simple += group
            blocks.extend((lam, chain) for chain in chains)
        if simple:
            k, upper = len(simple), wi >= 0.0  # upper: one position per Schur block
            if k < len(t):  # the simple positions become the leading block
                select = np.zeros(len(t), dtype=bool)
                select[simple] = True
                t, z = _reorder_schur(t, z, select)
                upper &= select
            w, v = np.linalg.eig(t[:k, :k])
            lams = folded[upper]
            picks = np.abs(w - lams[:, None]).argmin(axis=1)
            if len(set(picks.tolist())) < len(picks):
                raise DecompositionFailedError("decomposition: two simple eigenvalues take the same eig column")
            cols = (z[:, :k] @ v[:, picks]).T
            blocks.extend((lam, [col.real if lam.imag == 0.0 else col]) for lam, col in zip(lams.tolist(), cols))
    except np.linalg.LinAlgError as exc:
        raise DecompositionFailedError(f"decomposition: {exc}") from exc
    blocks += [(lam.conjugate(), [v.conj() for v in chain]) for lam, chain in blocks if lam.imag != 0.0]
    blocks.sort(key=lambda b: _canonical_key(JordanBlock(b[0], len(b[1]))))
    structure = JordanStructure(tuple(JordanBlock(ev, len(chain)) for ev, chain in blocks))
    dtype = float if structure.is_real() else complex
    u = np.array([v for _, chain in blocks for v in chain], dtype=dtype).T
    return _gated(source, structure, u, None, "decomposition")


def _read_only(a: np.ndarray) -> np.ndarray:
    """A read-only view of a (a itself stays as it was)."""
    view = a.view()
    view.setflags(write=False)
    return view


def _gated(
    source: RateMatrix, structure: JordanStructure, u: np.ndarray, uinv: np.ndarray | None, label: str
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
    """
    if uinv is None:
        try:
            uinv = np.linalg.inv(u)
        except np.linalg.LinAlgError as exc:
            raise DecompositionFailedError(f"{label}: the eigenbasis is numerically singular") from exc
    real = structure.is_real()
    lams = np.repeat([ev.real if real else ev for ev, _ in structure.blocks], [size for _, size in structure.blocks])
    defect = (np.asarray(source.entries) @ u).astype(np.result_type(u, lams), copy=False)
    defect -= u * lams
    links = [o + i for o, (_, size) in zip(structure.offsets, structure.blocks) for i in range(1, size)]
    if links:
        defect[:, links] -= u[:, np.subtract(links, 1)]
    gram = np.asarray(uinv) @ u
    gram.flat[:: gram.shape[0] + 1] -= 1.0
    fit, inverse, bound = max_abs(defect), max_abs(gram), scaled_tol(DEFAULTS.residual, source.entries, max_abs(u))
    scaled = inverse
    if not structure.is_diagonalizable():
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


def match_jordan_blocks(hat: JordanStructure, primal: JordanStructure) -> list[MatchedBlock]:
    """Greedy maximal block matching between two structures.

    The hat and primal block eigenvalues are grouped together by the one
    grouping rule, _cluster_eigenvalues, at the radius DEFAULTS.cluster
    times the largest |eigenvalue| of the two structures.  In each group the
    hat and the primal block sizes are sorted descending (ties in block
    order) and paired elementwise; each pair supports a chain overlap of
    min(sizes) and carries its hat block's eigenvalue.  For equal size
    lists this reduces to counting shared eigenvalues with multiplicity.
    """
    blocks = hat.blocks + primal.blocks
    offsets = hat.offsets + primal.offsets
    eigs = np.array([b.eigenvalue for b in blocks], dtype=complex)
    groups, _ = _cluster_eigenvalues(eigs, DEFAULTS.cluster * np.max(np.abs(eigs), initial=0.0))
    matches: list[MatchedBlock] = []
    for group in groups:
        ranked = sorted(group, key=lambda k: (-blocks[k].size, k))
        hat_side = [k for k in ranked if k < len(hat.blocks)]
        for hk, pk in zip(hat_side, [k for k in ranked if k >= len(hat.blocks)]):
            h, p = blocks[hk], blocks[pk]
            matches.append(MatchedBlock(h.eigenvalue, offsets[hk], h.size, offsets[pk], p.size, min(h.size, p.size)))
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
    eigenvalue grouping radius of match_jordan_blocks); see Witness.
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

    Uses the symmetrization diag(sqrt(mu)) L diag(1/sqrt(mu)); raises
    NotOrthonormalError if L is not self-adjoint in L^2(mu), i.e. when the
    symmetrization's asymmetry exceeds DEFAULTS.residual times its max-abs entry.
    """
    if mu.space.n != l.n:
        raise ShapeMismatchError("measure and matrix sizes differ")
    w = np.sqrt(np.asarray(mu.weights))
    sym = (np.asarray(l.entries) * w[:, None]) / w[None, :]
    if max_abs(sym - sym.T) > DEFAULTS.residual * max_abs(sym):
        raise NotOrthonormalError("matrix is not reversible w.r.t. the supplied measure")
    lams, v = np.linalg.eigh((sym + sym.T) / 2.0)
    order = np.argsort(-lams)
    return lams[order], (v[:, order] / w[:, None])
