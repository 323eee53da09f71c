"""Intertwining operators between generators and duality transport through them.

An operator Lam mapping functions on the space of L to functions on the space
of Ltilde (matrix shape ntilde x n) intertwines the two when
Ltilde @ Lam == Lam @ L; a duality for (Lhat, L) then pushes to a duality for
(Lhat, Ltilde) by applying Lam to the primal variable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .config import DEFAULTS
from .core import RateMatrix, StateSpace
from .duality import DualityFunction, make_duality, residual as duality_residual
from .errors import PreconditionFailedError, ShapeMismatchError
from .linalg import max_abs
from .models import ConfigurationSpace, SpaceKind, ladder_projection

__all__ = [
    "IntertwiningOperator",
    "intertwining_residual",
    "push_duality",
    "push_duality_left",
    "lumping_operator",
    "inverse_intertwiner",
]


@dataclass(frozen=True, eq=False)
class IntertwiningOperator:
    """Rectangular operator Lambda between two state spaces.

    from_space is the space of L (size n), to_space the space of Ltilde
    (size ntilde); the matrix is ntilde x n.  `stochastic` is derived:
    nonnegative rows summing to one.  Equality and hashing go by identity.
    """

    from_space: StateSpace
    to_space: StateSpace
    matrix: np.ndarray
    stochastic: bool = field(init=False, default=False)

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        if m.shape != (self.to_space.n, self.from_space.n):
            raise ShapeMismatchError(
                f"operator shape {m.shape} does not match spaces "
                f"({self.to_space.n}, {self.from_space.n})"
            )
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        is_stochastic = bool(
            m.min(initial=0.0) >= -1e-12 and max_abs(m.sum(axis=1) - 1.0) <= 1e-12
        )
        object.__setattr__(self, "stochastic", is_stochastic)

    @classmethod
    def from_matrix(cls, matrix) -> "IntertwiningOperator":
        m = np.asarray(matrix, dtype=float)
        return cls(StateSpace(m.shape[1]), StateSpace(m.shape[0]), m)


def intertwining_residual(ltilde: RateMatrix, l: RateMatrix, op: IntertwiningOperator) -> float:
    """Max-abs entry of Ltilde Lambda - Lambda L."""
    lam = np.asarray(op.matrix)
    if lam.shape != (ltilde.n, l.n):
        raise ShapeMismatchError(
            f"operator shape {lam.shape}, expected ({ltilde.n}, {l.n})"
        )
    return max_abs(np.asarray(ltilde.entries) @ lam - lam @ np.asarray(l.entries))


def push_duality(
    d: DualityFunction,
    op: IntertwiningOperator,
    ltilde: RateMatrix,
    l: RateMatrix,
    lhat: RateMatrix,
    tol: float = DEFAULTS.residual,
) -> DualityFunction:
    """Push a duality for (lhat, l) through Lambda to a duality for (lhat, ltilde).

    (Lambda_right D)(xhat, xtilde) = sum_x Lambda(xtilde, x) D(xhat, x), i.e.
    D @ Lambda^T.  The intertwining and duality preconditions are validated;
    the theorem's conclusion is false without them.  When d was recorded
    against this very pair (d.pair holds the objects lhat and l), its
    recorded residual is the duality precondition: the dense max-abs of
    L_hat D - D L^T, or a product duality's two-site bound on it.  For any
    other pair, equal entries included, the dense residual is computed.
    """
    inter_res = intertwining_residual(ltilde, l, op)
    if inter_res > tol:
        raise PreconditionFailedError(f"intertwining residual {inter_res:.3e} exceeds {tol:.3e}")
    recorded = d.pair is not None and d.pair[0] is lhat and d.pair[1] is l
    dual_res = d.residual if recorded else duality_residual(lhat, l, d.matrix)
    if dual_res > tol:
        raise PreconditionFailedError(f"duality residual {dual_res:.3e} exceeds {tol:.3e}")
    pushed = np.asarray(d.matrix) @ np.asarray(op.matrix).T
    return make_duality(lhat, ltilde, pushed)


def _transposed(d: DualityFunction) -> DualityFunction:
    """D read the other way round: a duality for (lhat, l) is D^T for (l, lhat), with the same residual."""
    pair = None if d.pair is None else d.pair[::-1]
    return DualityFunction(d.primal_space, d.dual_space, np.asarray(d.matrix).T, d.residual, d.rank, pair)


def push_duality_left(
    d: DualityFunction,
    op: IntertwiningOperator,
    ltilde: RateMatrix,
    lhat: RateMatrix,
    l: RateMatrix,
    tol: float = DEFAULTS.residual,
) -> DualityFunction:
    """push_duality acting on the dual variable, via transposition.

    With Lambda intertwining ltilde and lhat (dual side), a duality for
    (lhat, l) maps to Lambda @ D, a duality for (ltilde, l): D^T is a duality
    for (l, lhat), push_duality carries it (with the same precondition checks)
    to D^T Lambda^T for (l, ltilde), and its transpose is returned with the
    residual and rank recorded there.
    """
    return _transposed(push_duality(_transposed(d), op, ltilde, lhat, l, tol))


def lumping_operator(pi: Sequence[int], small: StateSpace | int) -> IntertwiningOperator:
    """Deterministic kernel induced by a projection map pi: big space -> small space.

    Row xtilde carries a single 1 in column pi(xtilde); always stochastic.
    """
    small_space = small if isinstance(small, StateSpace) else StateSpace(int(small))
    pi = np.asarray(pi)
    big_space = StateSpace(len(pi))
    outside = (pi < 0) | (pi >= small_space.n)
    if np.any(outside):
        raise ValueError(f"projection value {pi[outside][0]} outside the small space")
    m = np.zeros((big_space.n, small_space.n))
    m[np.arange(big_space.n), pi] = 1.0
    return IntertwiningOperator(small_space, big_space, m)


def inverse_intertwiner(sep_space, ladder_space=None) -> IntertwiningOperator:
    """Stochastic inverse of the ladder lumping for exclusion processes.

    Row eta spreads uniform weight 1 / prod_x C(gamma, eta(x)) over the ladder
    configurations compatible with eta (those projecting to it), so row sums
    are exactly one.  Intertwines the SEP generator with the ladder generator:
    L_sep @ Lam == Lam @ L_ladder for matching rates.
    """
    if not isinstance(sep_space, ConfigurationSpace) or sep_space.kind is not SpaceKind.SEP:
        raise ValueError("inverse_intertwiner expects a SEP configuration space")
    if ladder_space is None:
        ladder_space = ConfigurationSpace.ladder(sep_space.vertices, sep_space.gamma)
    if ladder_space != ConfigurationSpace(SpaceKind.LADDER, sep_space.vertices, sep_space.gamma):
        raise ValueError("ladder space does not match the SEP space")
    # the products are exact integers (at most the ladder size), so each weight is one rounding
    binomials = np.array([math.comb(sep_space.gamma, k) for k in range(sep_space.gamma + 1)])
    weights = 1.0 / np.prod(binomials[sep_space.digits()], axis=1)
    pi = ladder_projection(ladder_space, sep_space)
    m = np.zeros((sep_space.size, ladder_space.size))
    m[pi, np.arange(ladder_space.size)] = weights[pi]
    return IntertwiningOperator(ladder_space.state_space(), sep_space.state_space(), m)
