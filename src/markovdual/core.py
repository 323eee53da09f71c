"""Foundational types and checks for finite-state Markov generators.

Conventions: a generator L has L(x,y) >= 0 for x != y and zero row sums; a
sub-generator relaxes the row sums to <= 0 (mass may leave the state space).
States are indexed 0..n-1 throughout the package; formulas quoted from the
1-indexed literature are translated accordingly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import scipy.sparse
import scipy.sparse.csgraph
from scipy.linalg.lapack import dgesv, dposv

from .config import DEFAULTS
from .errors import NoPositiveSolutionError, NotIrreducibleError, ShapeMismatchError
from .linalg import max_abs, off_diagonal, scaled_tol


class MatrixKind(enum.Enum):
    GENERATOR = "generator"
    SUB_GENERATOR = "sub-generator"
    RAW = "raw"
    INVALID = "invalid"


@dataclass(frozen=True)
class StateSpace:
    """Finite state space of size n with optional distinct labels."""

    n: int
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"state space size must be >= 1, got {self.n}")
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(self.labels))
            if len(self.labels) != self.n:
                raise ValueError("labels length does not match state space size")
            if len(set(self.labels)) != self.n:
                raise ValueError("labels must be distinct")


def _frozen_array(entries, dtype=float) -> np.ndarray:
    """A read-only array of `dtype`: a read-only array of that dtype is kept as is, anything else is copied."""
    if isinstance(entries, np.ndarray) and entries.dtype == dtype and not entries.flags.writeable:
        return entries
    arr = np.array(entries, dtype=dtype)
    arr.setflags(write=False)
    return arr


def classify_matrix(entries) -> MatrixKind:
    """Classify a square matrix as GENERATOR, SUB_GENERATOR or INVALID.

    With tol = DEFAULTS.row ||L||_inf: off-diagonal entries must be >= -tol
    for either class; row sums must vanish within tol for a generator and be
    <= tol for a sub-generator.  A matrix whose ||L||_inf overflows has no
    such scale and is INVALID.
    """
    m = np.asarray(entries, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeMismatchError(f"expected a square matrix, got shape {m.shape}")
    row_tol = scaled_tol(DEFAULTS.row, m)
    if not np.isfinite(row_tol) or off_diagonal(m).min(initial=0.0) < -row_tol:
        return MatrixKind.INVALID
    row_sums = m.sum(axis=1)
    if np.all(np.abs(row_sums) <= row_tol):
        return MatrixKind.GENERATOR
    if np.all(row_sums <= row_tol):
        return MatrixKind.SUB_GENERATOR
    return MatrixKind.INVALID


def _require_finite(entries: np.ndarray, what: str = "rate matrix entry") -> None:
    """Raise ValueError naming the first NaN or infinite entry (row-major order)."""
    finite = np.isfinite(entries)
    if not finite.all():
        index = tuple(int(i) for i in np.argwhere(~finite)[0])
        raise ValueError(f"{what} {index} is {entries[index]}, not finite")


@dataclass(frozen=True, eq=False)
class RateMatrix:
    """Square rate matrix over an indexed state space.

    kind GENERATOR / SUB_GENERATOR certify the sign and row-sum constraints;
    RAW carries no constraint and is used for adjoints and intermediates.
    entries is a read-only float64 array; a read-only float64 array passed
    in is kept, not copied.  Equality and hashing go by identity.
    """

    space: StateSpace
    entries: np.ndarray
    kind: MatrixKind

    def __post_init__(self):
        entries = _frozen_array(self.entries)
        if entries.ndim != 2 or entries.shape != (self.space.n, self.space.n):
            raise ShapeMismatchError(
                f"entries shape {entries.shape} does not match state space size {self.space.n}"
            )
        if self.kind is MatrixKind.INVALID:
            raise ValueError("a RateMatrix cannot be constructed with kind INVALID; use RAW")
        _require_finite(entries)
        object.__setattr__(self, "entries", entries)

    @classmethod
    def from_entries(
        cls,
        entries,
        kind: MatrixKind | None = None,
        labels: Sequence[str] | None = None,
    ) -> "RateMatrix":
        """Build a RateMatrix, auto-classifying when `kind` is not given.

        An explicit GENERATOR/SUB_GENERATOR kind is validated against the
        entries; unclassifiable matrices fall back to RAW when kind is None.
        """
        arr = np.array(entries, dtype=float)
        arr.setflags(write=False)  # the constructor keeps this private copy instead of copying it again
        _require_finite(arr)  # before classifying, so the error names the entry rather than a kind
        found = classify_matrix(arr)
        if kind is None:
            kind = found if found is not MatrixKind.INVALID else MatrixKind.RAW
        elif kind is MatrixKind.GENERATOR and found is not MatrixKind.GENERATOR:
            raise ValueError(f"matrix classifies as {found.value}, not generator")
        elif kind is MatrixKind.SUB_GENERATOR and found not in (
            MatrixKind.GENERATOR,
            MatrixKind.SUB_GENERATOR,
        ):
            raise ValueError(f"matrix classifies as {found.value}, not sub-generator")
        space = StateSpace(arr.shape[0], tuple(labels) if labels is not None else None)
        return cls(space, arr, kind)

    @property
    def n(self) -> int:
        return self.space.n


def generator(entries) -> RateMatrix:
    """Strict constructor: raises if `entries` is not a generator (classify_matrix, at DEFAULTS.row ||L||_inf)."""
    return RateMatrix.from_entries(entries, kind=MatrixKind.GENERATOR)


@dataclass(frozen=True, eq=False)
class Measure:
    """Strictly positive weight vector over a state space (read-only); equality goes by identity.

    `normalized` is derived, not passed: the weights sum to 1 within 1e-12.
    """

    space: StateSpace
    weights: np.ndarray
    normalized: bool = field(init=False, default=False)

    def __post_init__(self):
        w = _frozen_array(self.weights)
        if w.ndim != 1 or w.shape[0] != self.space.n:
            raise ShapeMismatchError("weights length does not match state space size")
        _require_finite(w, "measure weight")
        if np.any(w <= 0):
            raise ValueError("measure weights must be strictly positive")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "normalized", bool(abs(w.sum() - 1.0) <= 1e-12))

    @classmethod
    def from_weights(cls, weights, labels: Sequence[str] | None = None) -> "Measure":
        w = np.asarray(weights, dtype=float)
        return cls(StateSpace(w.shape[0], tuple(labels) if labels is not None else None), w)


def is_irreducible(l: RateMatrix) -> bool:
    """Strong connectivity of the digraph with edges where the rate exceeds DEFAULTS.row ||L||_inf."""
    adj = (l.entries > scaled_tol(DEFAULTS.row, l.entries)).astype(np.int8)
    np.fill_diagonal(adj, 0)
    ncomp, _ = scipy.sparse.csgraph.connected_components(
        scipy.sparse.csr_matrix(adj), directed=True, connection="strong"
    )
    return ncomp == 1


def _components(m) -> np.ndarray:
    """Component of each state in the graph of the off-diagonal nonzero pattern of |m| + |m|^T.

    Exact zeros, no tolerance: two states share a component iff a chain of
    nonzero rates, read in either direction, joins them.  Returns one label
    per state, the smallest state of its component.  Label propagation in
    numpy: each pass gives every state, and the state its label names, the
    smallest label among the state and its neighbours, then jumps each label
    to its own label, until no state has a neighbour with a smaller label.
    Then each component carries one label, its smallest state: labels only
    fall and always name a state of the same component, so the smallest
    state keeps its own.  Lowering the named state moves a whole tree of
    labels at once, so a chain of states settles in about log2 n passes in
    any order, where lowering states alone takes up to n.  Every pass is one
    n x n reduction.
    """
    a = np.asarray(m) != 0
    a = a | a.T
    labels = np.arange(a.shape[0])
    while True:
        smallest = np.where(a, labels, labels.size).min(axis=1, initial=labels.size)
        if (smallest >= labels).all():
            return labels
        new = np.minimum(labels, smallest)
        np.minimum.at(new, labels, smallest)
        labels = new[new]


def _symmetrization(m, norm: float) -> tuple[np.ndarray, np.ndarray] | None:
    """(root, S) for m in detailed balance, or None: root = sqrt(w), S = diag(root) m diag(1/root).

    w > 0 are detailed-balance weights of m, largest 1 on each component
    (_components).  m passes when every off-diagonal entry is >= 0, its
    off-diagonal nonzero pattern is symmetric (exact zeros), and the
    asymmetry max|S - S^T| is within DEFAULTS.residual norm, norm being
    ||m||_inf; a NaN fails.  S - S^T at (x, y) is the flux defect
    w(x) m(x,y) - w(y) m(y,x) over sqrt(w(x) w(y)), so the bound holds the
    flux of light states to their own scale, and it is the asymmetry an
    `eigh` of S would discard.  The cheap tests come first: one pass reads
    the smallest off-diagonal entry, which rejects a negative rate and, when
    positive, marks a complete pattern.  A complete pattern takes star
    weights from state 0, w(y) = m(0,y) / m(y,0), and the asymmetry decides,
    with no solve; its entry (1, 2) is read first, alone, and rejects most
    matrices that are not reversible.  Otherwise a one-sided rate (an
    asymmetric pattern) rejects, and the log-weights are the least-squares
    potentials of the edge differences log m(x,y) - log m(y,x) over the
    undirected edges: one Cholesky solve (LAPACK dposv) with the graph
    Laplacian of the pattern grounded at the smallest state of each
    component, which is positive definite and pins that state's potential
    to 0.  On a reversible m the differences are a gradient (Kolmogorov's
    criterion), so the potentials are exact up to rounding, which least
    squares spreads over the edges rather than accumulating it along paths.
    Each component is then scaled to a largest weight of 1.
    """
    m = np.asarray(m)
    n = len(m)
    smallest = off_diagonal(m).min(initial=np.inf)
    if smallest < 0.0:
        return None
    if smallest > 0.0:  # a complete pattern
        w = np.concatenate([[1.0], m[0, 1:] / m[1:, 0]])
        w /= w.max()
        if n > 2 and abs(w[1] * m[1, 2] - w[2] * m[2, 1]) > DEFAULTS.residual * norm * np.sqrt(w[1] * w[2]):
            return None  # the asymmetry at (1, 2) alone is above the bound
    else:
        edges = m != 0.0
        if (edges != edges.T).any():
            return None
        edges.flat[:: n + 1] = False
        labels = _components(edges)
        logs = np.log(np.where(edges, m, 1.0))  # 0 off the pattern
        system = -edges.astype(float)
        system.flat[:: n + 1] = edges.sum(axis=1) + (labels == np.arange(n))
        # row x of the right-hand side: the sum over x's edges of log m(y,x) - log m(x,y)
        _, phi, info = dposv(system, (logs.T - logs).sum(axis=1), overwrite_a=1)
        if info:
            return None
        top = np.full(n, -np.inf)
        np.maximum.at(top, labels, phi)
        w = np.exp(phi - top[labels])
    if not w.min() > 0.0:
        return None
    root = np.sqrt(w)
    sym = _symmetrized(m, root)
    # S - S^T is antisymmetric, so its largest entry is its largest absolute entry; max keeps a NaN
    if not (sym - sym.T).max() <= DEFAULTS.residual * norm:
        return None
    return root, sym


def _symmetrized(m, root: np.ndarray) -> np.ndarray:
    """diag(root) m diag(1/root), symmetric when m is in detailed balance with the weights root^2."""
    return np.asarray(m) * root[:, None] / root


def stationary_measure(l: RateMatrix) -> Measure:
    """Unique stationary measure mu > 0 with mu^T L = 0, normalized to sum 1.

    mu solves L^T mu = 0 with its last equation replaced by sum(mu) = 1, by
    one LU solve (LAPACK dgesv) that factors the one Fortran-ordered copy of
    L^T in place.  Irreducibility makes the kernel of L^T one-dimensional and
    spanned by a positive vector, so that system is nonsingular; a singular
    factor, a non-positive entry, or a residual max|mu^T L| above
    DEFAULTS.residual ||L||_inf max mu raises NoPositiveSolutionError.
    """
    if l.kind is not MatrixKind.GENERATOR:
        raise ValueError("stationary_measure requires a generator")
    if not is_irreducible(l):
        raise NotIrreducibleError("rate digraph is not strongly connected")
    m = np.asarray(l.entries)
    a = np.array(m.T, order="F")
    a[-1] = 1.0
    rhs = np.zeros(l.n)
    rhs[-1] = 1.0
    _, _, mu, info = dgesv(a, rhs, overwrite_a=1)
    if info > 0:
        raise NoPositiveSolutionError(f"stationary system is singular: U({info}, {info}) is zero")
    del a  # the LU factors; freed before the residual product
    if np.any(mu <= 0):
        raise NoPositiveSolutionError("kernel vector has a non-positive entry")
    mu = mu / mu.sum()
    residual, tol = max_abs(mu @ m), scaled_tol(DEFAULTS.residual, m, mu.max())
    if residual > tol:
        raise NoPositiveSolutionError(f"stationary residual {residual:.3e} exceeds {tol:.3e}")
    return Measure(l.space, mu)


def check_detailed_balance(l: RateMatrix, mu: Measure) -> bool:
    """True iff mu(x) L(x,y) == mu(y) L(y,x) for all x, y, within DEFAULTS.residual ||L||_inf max mu.

    The flux mu(x) L(x,y) is the one n x n buffer; its difference from its
    transpose is taken by blocks of rows of at most 2^17 entries.
    """
    if mu.space.n != l.n:
        raise ShapeMismatchError("measure and matrix sizes differ")
    w = np.asarray(mu.weights)
    flux = w[:, None] * np.asarray(l.entries)
    step = max(1, 2**17 // l.n)
    worst = [max_abs(flux[a : a + step] - flux[:, a : a + step].T) for a in range(0, l.n, step)]
    return bool(np.max(worst) <= scaled_tol(DEFAULTS.residual, l.entries, w.max()))


def adjoint(l: RateMatrix, mu: Measure) -> RateMatrix:
    """Adjoint of L in L^2(mu): entries mu(y) L(y,x) / mu(x).

    An involution; when mu is stationary for a generator L the result
    classifies as a generator again.
    """
    if mu.space.n != l.n:
        raise ShapeMismatchError("measure and matrix sizes differ")
    w = np.asarray(mu.weights)
    entries = (np.asarray(l.entries) * w[:, None]).T / w[:, None]
    return RateMatrix.from_entries(entries, labels=l.space.labels)
