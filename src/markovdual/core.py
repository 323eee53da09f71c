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
from scipy.linalg.lapack import dgesv

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
    to its own label, until no label changes.  Lowering the named state moves
    a whole tree of labels at once, so a chain of states settles in about
    log2 n passes in any order, where lowering states alone takes up to n.
    Every pass is one n x n reduction.
    """
    a = np.asarray(m) != 0
    a = a | a.T
    labels = np.arange(a.shape[0])
    while True:
        smallest = np.where(a, labels, labels.size).min(axis=1, initial=labels.size)
        new = np.minimum(labels, smallest)
        np.minimum.at(new, labels, smallest)
        new = new[new]
        if np.array_equal(new, labels):
            return labels
        labels = new


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
