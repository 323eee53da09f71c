"""Concrete processes with explicitly known spectra and duality families.

Contains the two boundary-variant symmetric random walks (closed-form
eigenfunctions), exclusion-process generators over mixed-radix configuration
spaces, and the single-site self-duality tables of the factorized SEP
families, each backed by an independent brute-force evaluator.

Convention: 0^0 = 1 throughout product-form duality evaluation (required for
the indicator families to emerge from the product formula).
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .config import DEFAULTS, max_states
from .core import MatrixKind, RateMatrix, StateSpace
from .duality import DualityFunction, residual
from .errors import (
    DomainError,
    ShapeMismatchError,
    SpaceTooLargeError,
)
from .linalg import rank_threshold
from .siegmund import SiegmundPair, siegmund_dual
from .spectral import SpectralData, spectral_from_eigenbasis

__all__ = [
    "SpaceKind",
    "ConfigurationSpace",
    "SingleSiteDualityParams",
    "ReflectedAbsorbedRW",
    "BlockedAbsorbedRW",
    "rw_reflected_absorbed",
    "rw_blocked_absorbed",
    "sep_generator",
    "ladder_sep_generator",
    "ladder_projection",
    "ssep_selfduality",
    "classify_regime",
    "single_site_duality",
    "single_site_duality_bruteforce",
    "ladder_bracket_sum",
    "factorized_duality",
]


class SpaceKind(enum.Enum):
    SEP = "sep"
    LADDER = "ladder"


@dataclass(frozen=True)
class ConfigurationSpace:
    """Particle configurations over a vertex set, indexed by their mixed-radix number.

    SEP: occupation vectors over V with entries 0..gamma (radix gamma + 1).
    LADDER: 0/1 vectors over V x {1..gamma} (radix 2), site (x, a) at x*gamma + a.

    The index has the first site as the most significant digit, so the order
    is lexicographic and Kronecker: a product over sites of f_s(xi_s, eta_s) is
    the matrix f_0 (x) f_1 (x) ... .  No configuration is stored; digits()
    computes the (size, n_sites) table of all of them.
    """

    kind: SpaceKind
    vertices: tuple
    gamma: int

    @classmethod
    def sep(cls, vertices, gamma: int, cap: int | None = None) -> "ConfigurationSpace":
        return cls._capped(SpaceKind.SEP, vertices, gamma, cap)

    @classmethod
    def ladder(cls, vertices, gamma: int, cap: int | None = None) -> "ConfigurationSpace":
        return cls._capped(SpaceKind.LADDER, vertices, gamma, cap)

    @classmethod
    def _capped(cls, kind: SpaceKind, vertices, gamma: int, cap: int | None) -> "ConfigurationSpace":
        if gamma < 0:
            raise ValueError("gamma must be >= 0")
        space = cls(kind, tuple(range(vertices)) if isinstance(vertices, int) else tuple(vertices), gamma)
        cap = cap or max_states()
        if space.size > cap:
            raise SpaceTooLargeError(f"{kind.name} space size {space.size} exceeds cap {cap}")
        return space

    @property
    def radix(self) -> int:
        return self.gamma + 1 if self.kind is SpaceKind.SEP else 2

    @property
    def n_sites(self) -> int:
        return self.n_vertices if self.kind is SpaceKind.SEP else self.n_vertices * self.gamma

    @property
    def size(self) -> int:
        return self.radix**self.n_sites

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def place_values(self) -> np.ndarray:
        return self.radix ** np.arange(self.n_sites - 1, -1, -1)

    def digits(self) -> np.ndarray:
        """The (size, n_sites) table of all configurations: row i is configuration i."""
        return (np.arange(self.size)[:, None] // self.place_values) % self.radix

    def index(self, configs) -> np.ndarray:
        """Index of one configuration, or of each one along the leading axes of an array."""
        configs = np.asarray(configs)
        if configs.shape[-1:] != (self.n_sites,) or not np.isin(configs, np.arange(self.radix)).all():
            raise ValueError(f"a configuration is {self.n_sites} digits in 0..{self.radix - 1}, got shape {configs.shape}")
        return configs.astype(np.int64) @ self.place_values

    def occupancy(self, configs) -> np.ndarray:
        """Per-vertex particle counts of ladder configurations (the lumping map), over the last axis."""
        if self.kind is not SpaceKind.LADDER:
            raise ValueError("occupancy is defined on ladder configurations")
        configs = np.asarray(configs)
        return configs.reshape(configs.shape[:-1] + (self.n_vertices, self.gamma)).sum(axis=-1)

    def state_space(self) -> StateSpace:
        return StateSpace(self.size)


def _rate_table(p, m: int) -> np.ndarray:
    """Normalize a rate argument (callable, matrix, or scalar) to an m x m array."""
    if callable(p):
        table = np.array([[p(x, y) for y in range(m)] for x in range(m)], dtype=float).reshape(m, m)
    elif np.isscalar(p):
        table = float(p) * (1.0 - np.eye(m))
    else:
        table = np.array(p, dtype=float)
        if table.shape != (m, m):
            raise ShapeMismatchError(f"rate table shape {table.shape}, expected ({m}, {m})")
    if np.any(table < 0):
        raise ValueError("rates must be nonnegative")
    np.fill_diagonal(table, 0.0)
    return table


def _exclusion_generator(space: ConfigurationSpace, rates: np.ndarray) -> RateMatrix:
    """Exclusion with at most capacity = radix - 1 particles on each of `space`'s sites.

    A configuration's index is its mixed-radix number (site 0 most significant,
    place values w), so a hop src -> dst moves index i to i - w[src] + w[dst].
    Each ordered pair (x, y) adds rates[x, y] eta(src) (capacity - eta(dst)) for
    (src, dst) = (x, y) and then (y, x), pair by pair in row-major order: every
    entry is accumulated from the same products in the same order as a loop
    over configurations would, hence bit for bit the same.
    """
    w = space.place_values
    occ = space.digits()
    capacity = space.radix - 1
    gen = np.zeros((space.size, space.size))
    for x in range(space.n_sites):
        for y in range(space.n_sites):
            if x == y or rates[x, y] == 0.0:
                continue
            for src, dst in ((x, y), (y, x)):
                rate = rates[x, y] * occ[:, src] * (capacity - occ[:, dst])
                rows = np.flatnonzero(rate)
                gen[rows, rows - w[src] + w[dst]] += rate[rows]
    np.fill_diagonal(gen, gen.diagonal() - gen.sum(axis=1))
    return RateMatrix(space.state_space(), gen, MatrixKind.GENERATOR)


def sep_generator(space: ConfigurationSpace, p=1.0) -> RateMatrix:
    """SEP(gamma) generator: particles hop x->y at rate (p(x,y) + p(y,x)) eta(x) (gamma - eta(y)).

    Each ordered pair (x, y) contributes p(x,y) to hops in both directions, so
    the rates are symmetrized: a scalar p gives rate 2p per hop.  Rows sum to
    zero exactly for small integer rates; the generator is block-diagonal
    across total-particle-number sectors.
    """
    if space.kind is not SpaceKind.SEP:
        raise ValueError("sep_generator expects a SEP configuration space")
    return _exclusion_generator(space, _rate_table(p, space.n_vertices))


def ladder_sep_generator(space: ConfigurationSpace, p=1.0) -> RateMatrix:
    """gamma-ladder SEP: exclusion on V x {1..gamma} with rung-blind rates p(x,y) + p(y,x).

    This is SEP(1) on the V*gamma sites (x, a), flat index x*gamma + a, with
    site rates p (x) J_gamma (J the all-ones matrix): a particle hops between
    any rungs of two distinct vertices, never within a vertex.  As in
    sep_generator, each ordered pair drives hops in both directions.
    """
    if space.kind is not SpaceKind.LADDER:
        raise ValueError("ladder_sep_generator expects a ladder configuration space")
    hop = np.kron(_rate_table(p, space.n_vertices), np.ones((space.gamma, space.gamma)))
    return _exclusion_generator(space, hop)


def ladder_projection(ladder_space: ConfigurationSpace, sep_space: ConfigurationSpace) -> np.ndarray:
    """Index map of the occupancy projection (entry i: SEP index of ladder configuration i's occupancy)."""
    return sep_space.index(ladder_space.occupancy(ladder_space.digits()))


def _power(base: float, expo: float) -> float:
    """Real power with the 0^0 = 1 convention; raises DomainError when undefined."""
    if base == 0.0:
        if expo == 0.0:
            return 1.0
        if expo > 0.0:
            return 0.0
        raise DomainError("0 raised to a negative power")
    if base < 0.0 and expo != int(expo):
        raise DomainError(f"negative base {base} with non-integer exponent {expo}")
    return float(base) ** float(expo)


@dataclass(frozen=True)
class SingleSiteDualityParams:
    """Parameters (alpha, beta, epsilon, delta) of the product-form family at ladder width gamma."""

    alpha: float
    beta: float
    epsilon: float
    delta: float
    gamma: int

    def __post_init__(self):
        if self.gamma < 1:
            raise ValueError("gamma must be >= 1")


def _product_duality(generator: RateMatrix, factors: Sequence[np.ndarray]) -> DualityFunction:
    """Self-duality D = factors[0] (x) factors[1] (x) ... of `generator`.

    In ConfigurationSpace's mixed-radix order the product over sites is
    this Kronecker product.  The singular values of a Kronecker product are the
    products of its factors' singular values, so the rank comes from one
    batched SVD of the small factors, at numerical_rank's cutoff
    max(N) eps s_max, instead of an SVD of D.  The residual is the dense
    max-abs entry of L D - D L^T against (generator, generator).
    """
    if not factors:  # no sites: the one empty configuration
        factors = [np.ones((1, 1))]
    d = functools.reduce(np.kron, factors)
    sv = np.linalg.svd(np.stack(factors), compute_uv=False)
    s = np.sort(functools.reduce(np.multiply.outer, sv).ravel())[::-1]
    return DualityFunction(
        dual_space=generator.space,
        primal_space=generator.space,
        matrix=d,
        residual=residual(generator, generator, d),
        rank=int(np.sum(s > rank_threshold(s, d.shape))),
    )


def ssep_selfduality(
    space: ConfigurationSpace,
    params: SingleSiteDualityParams,
    generator: RateMatrix,
) -> DualityFunction:
    """Product self-duality of the ladder exclusion process.

    D(xi, eta) = prod_site (alpha + beta eta_site)^(epsilon + delta xi_site),
    evaluated with 0^0 = 1, assembled as the Kronecker power of the 2x2 site
    table over the V*gamma ladder sites; its rank is counted from the table's
    singular values (see _product_duality).  Residual recorded against
    (generator, generator), not gated.
    """
    if space.kind is not SpaceKind.LADDER:
        raise ValueError("ssep_selfduality expects a ladder configuration space")
    if params.gamma != space.gamma:
        raise ValueError("params.gamma does not match the configuration space")
    # one 2x2 site factor table: rows xi in {0,1}, cols eta in {0,1}
    site = np.array(
        [
            [
                _power(params.alpha + params.beta * v_eta, params.epsilon + params.delta * v_xi)
                for v_eta in (0, 1)
            ]
            for v_xi in (0, 1)
        ]
    )
    return _product_duality(generator, [site] * (space.n_vertices * space.gamma))


def classify_regime(params: SingleSiteDualityParams) -> str:
    """Name of the parameter family, detected exactly (no snapping of near-degenerate values).

    A label only: single_site_duality evaluates every family by one formula.
    """
    if params.delta == 0.0:
        return "constant-exponent"
    if params.alpha == 0.0 and params.epsilon == 0.0:
        return "classical"
    if params.alpha == 0.0:
        return "top-indicator"
    if params.beta == 0.0:
        return "beta-zero"
    if params.alpha == -params.beta:
        return "bottom-indicator"
    return "orthogonal"


def single_site_duality(params: SingleSiteDualityParams) -> np.ndarray:
    """Closed-form single-site table d(k, n), k, n in 0..gamma.

    d(k, n) is the ladder average of single_site_duality_bruteforce with its
    C(gamma, n) rung patterns grouped by the number j of rungs occupied in
    both xi (its first k) and eta:

        d(k, n) = (a+b)^(e n) a^(e (gamma-n))
                  sum_j C(k, j) C(gamma-k, n-j) / C(gamma, n) ((a+b)^d)^j (a^d)^(k-j),

    j from max(0, k+n-gamma) to min(k, n), for (alpha, beta, epsilon, delta)
    = (a, b, e, d).  Powers take 0^0 = 1.  Every table with gamma >= 1 has
    terms with j > 0 (d(1, 1)) and with k - j > 0 (d(1, 0)), so the two site
    powers (a+b)^d and a^d are always evaluated, as the brute-force sum
    evaluates them; DomainError is raised exactly where that sum raises it:
    where a prefactor or site power has base 0 and a negative exponent, or a
    negative base and a non-integer exponent.  For a != 0 the sum is
    (a^d)^k 2F1(-k, -n; -gamma; 1 - (1 + b/a)^d) times the prefactor.
    Cost: O(gamma^3) scalar terms.
    """
    a, b, e, dl, g = params.alpha, params.beta, params.epsilon, params.delta, params.gamma
    both, xi_only = _power(a + b, dl), _power(a, dl)
    table = np.empty((g + 1, g + 1))
    for k, n in itertools.product(range(g + 1), repeat=2):
        overlap = math.fsum(
            math.comb(k, j) * math.comb(g - k, n - j) * both**j * xi_only ** (k - j)
            for j in range(max(0, k + n - g), min(k, n) + 1)
        )
        table[k, n] = _power(a + b, e * n) * _power(a, e * (g - n)) * overlap / math.comb(g, n)
    return table


def ladder_bracket_sum(
    k: int,
    n: int,
    gamma: int,
    alpha: float,
    beta: float,
    delta: float,
    xi_pattern: Sequence[int] | None = None,
) -> float:
    """Brute-force bracket: (1/C(gamma,n)) sum_{|eta|=n} prod_a (alpha + beta eta_a)^(delta xi_a).

    xi_pattern defaults to k ones followed by zeros; the value depends on the
    pattern only through its total (a property the tests assert).  Equals 1
    for delta = 0 by the Vandermonde convolution.
    """
    if xi_pattern is None:
        xi_pattern = [1] * k + [0] * (gamma - k)
    xi_pattern = list(xi_pattern)
    if len(xi_pattern) != gamma or sum(xi_pattern) != k:
        raise ValueError("xi_pattern must have length gamma and total k")
    total = 0.0
    for eta in itertools.product((0, 1), repeat=gamma):
        if sum(eta) != n:
            continue
        value = 1.0
        for site_xi, site_eta in zip(xi_pattern, eta):
            value *= _power(alpha + beta * site_eta, delta * site_xi)
        total += value
    return total / math.comb(gamma, n)


def single_site_duality_bruteforce(params: SingleSiteDualityParams) -> np.ndarray:
    """Independent oracle: evaluate the single-site table by exhaustive ladder sums."""
    a, b, e, dl, g = params.alpha, params.beta, params.epsilon, params.delta, params.gamma
    table = np.zeros((g + 1, g + 1))
    for k in range(g + 1):
        for n in range(g + 1):
            prefactor = _power(a + b, e * n) * _power(a, e * (g - n))
            table[k, n] = prefactor * ladder_bracket_sum(k, n, g, a, b, dl)
    return table


def factorized_duality(
    tables: Sequence[np.ndarray],
    space: ConfigurationSpace,
    generator: RateMatrix,
) -> DualityFunction:
    """Product duality D(xi, eta) = prod_x d_x(xi(x), eta(x)) over a SEP space.

    Assembled as d_0 (x) ... (x) d_{V-1}, one table per vertex in vertex order;
    its rank is counted from the tables' singular values (see
    _product_duality).  Residual recorded against (generator, generator), not
    gated.
    """
    if space.kind is not SpaceKind.SEP:
        raise ValueError("factorized_duality expects a SEP configuration space")
    tables = [np.asarray(t, dtype=float) for t in tables]
    if len(tables) != space.n_vertices:
        raise ShapeMismatchError(f"need one table per vertex ({space.n_vertices})")
    expected = (space.gamma + 1, space.gamma + 1)
    for t in tables:
        if t.shape != expected:
            raise ShapeMismatchError(f"table shape {t.shape}, expected {expected}")
    return _product_duality(generator, tables)


# ---------------------------------------------------------------------------
# one-dimensional symmetric random walks with closed-form spectra
# ---------------------------------------------------------------------------


def _walk_interior(n: int) -> np.ndarray:
    """n x n matrix with the symmetric walk's +1, -2, +1 stencil on rows 1..n-2; rows 0 and n-1 zero."""
    m = np.zeros((n, n))
    x = np.arange(1, n - 1)
    m[x, x - 1] = m[x, x + 1] = 1.0
    m[x, x] = -2.0
    return m


@dataclass(frozen=True)
class ReflectedAbsorbedRW:
    """Reflected/absorbed walk pair on {1..n} with analytic spectral data.

    l reflects at the left boundary and is absorbed (frozen) at the right;
    lhat mirrors this.  Both share the spectrum lambda_1 = 0,
    lambda_i = 2(cos theta_i - 1) with theta_i = (i - 1/2) pi / (n-1).
    """

    n: int
    l: RateMatrix
    lhat: RateMatrix
    lambdas: np.ndarray
    thetas: np.ndarray
    u: np.ndarray
    uhat: np.ndarray
    spectral: SpectralData
    spectral_hat: SpectralData


def rw_reflected_absorbed(n: int, tol: float = DEFAULTS.residual) -> ReflectedAbsorbedRW:
    """Build the reflected-left/absorbed-right walk and its mirror, with spectra.

    Eigenfunctions: u_i(x) = cos(theta_i (x-1)) / sqrt(n) for l,
    uhat_i(x) = sin(theta_i (x-1)) / sqrt(n) for lhat, plus the constant
    1/sqrt(n) at eigenvalue zero.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    l = _walk_interior(n)
    lhat = _walk_interior(n)
    l[0, 1] = 2.0
    l[0, 0] = -2.0  # reflected left; row n-1 stays zero (absorbed right)
    lhat[n - 1, n - 2] = 2.0
    lhat[n - 1, n - 1] = -2.0  # reflected right; row 0 stays zero (absorbed left)
    thetas = (np.arange(1, n) - 0.5) * np.pi / (n - 1)
    lambdas = np.concatenate([[0.0], 2.0 * (np.cos(thetas) - 1.0)])
    arg = np.outer(np.arange(n), thetas)
    u = np.empty((n, n))
    uhat = np.empty((n, n))
    u[:, 0] = uhat[:, 0] = 1.0 / np.sqrt(n)
    u[:, 1:] = np.cos(arg) / np.sqrt(n)
    uhat[:, 1:] = np.sin(arg) / np.sqrt(n)
    l_rm = RateMatrix.from_entries(l)
    lhat_rm = RateMatrix.from_entries(lhat)
    return ReflectedAbsorbedRW(
        n=n,
        l=l_rm,
        lhat=lhat_rm,
        lambdas=lambdas,
        thetas=thetas,
        u=u,
        uhat=uhat,
        spectral=spectral_from_eigenbasis(l_rm, lambdas, u, tol),
        spectral_hat=spectral_from_eigenbasis(lhat_rm, lambdas, uhat, tol),
    )


@dataclass(frozen=True)
class BlockedAbsorbedRW:
    """Blocked walk, its absorbed Siegmund dual, and the analytic eigenbases.

    uhat columns are counting-measure-orthonormal eigenfunctions of the
    (symmetric) blocked generator; u columns are their tail sums, eigen for
    the absorbed sub-generator at the same eigenvalues.
    """

    n: int
    pair: SiegmundPair
    lambdas: np.ndarray
    thetas: np.ndarray
    u: np.ndarray
    uhat: np.ndarray
    spectral: SpectralData
    spectral_hat: SpectralData


def rw_blocked_absorbed(n: int, tol: float = DEFAULTS.residual) -> BlockedAbsorbedRW:
    """Blocked-boundary walk and its Siegmund dual (absorbed walk with a leak).

    Spectrum lambda_1 = 0, lambda_i = 2(cos theta_i - 1), theta_i = (i-1) pi / n
    for i = 2..n; the dual's eigenfunctions are tail sums of the blocked
    walk's, including u_1(x) = (n + 1 - x)/sqrt(n) at eigenvalue zero.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    lhat = _walk_interior(n)
    lhat[0, 0], lhat[0, 1] = -1.0, 1.0
    lhat[n - 1, n - 2], lhat[n - 1, n - 1] = 1.0, -1.0
    thetas = (np.arange(2, n + 1) - 1) * np.pi / n
    lambdas = np.concatenate([[0.0], 2.0 * (np.cos(thetas) - 1.0)])
    x = np.arange(1, n + 1)
    arg = np.outer(x - 1, thetas)
    norm = 1.0 / np.sqrt(n * (1.0 - np.cos(thetas)))
    uhat = np.empty((n, n))
    u = np.empty((n, n))
    uhat[:, 0] = 1.0 / np.sqrt(n)
    u[:, 0] = (n + 1 - x) / np.sqrt(n)
    uhat[:, 1:] = norm * (-np.sin(thetas) * np.cos(arg) + (1.0 - np.cos(thetas)) * np.sin(arg))
    u[:, 1:] = norm * np.sin(arg)
    del arg  # n x n; freed so the closed-form inverse below adds no array at the peak
    # uhat is orthogonal and u = S uhat with S[x, y] = [y >= x] (tail sums), so
    # u^{-1} = uhat^T S^{-1}: u^{-1}[i, y] = uhat[y, i] - uhat[y - 1, i], uhat[-1] = 0
    uinv = np.diff(uhat.T, axis=1, prepend=0.0)
    lhat_rm = RateMatrix.from_entries(lhat, kind=MatrixKind.GENERATOR)
    pair = siegmund_dual(lhat_rm)
    return BlockedAbsorbedRW(
        n=n,
        pair=pair,
        lambdas=lambdas,
        thetas=thetas,
        u=u,
        uhat=uhat,
        spectral=spectral_from_eigenbasis(pair.l, lambdas, u, tol, uinv),
        spectral_hat=spectral_from_eigenbasis(lhat_rm, lambdas, uhat, tol, uhat.T),
    )
