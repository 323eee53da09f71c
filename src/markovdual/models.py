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
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .config import max_states
from .core import MatrixKind, RateMatrix, StateSpace
from .duality import DualityFunction
from .errors import (
    DomainError,
    ShapeMismatchError,
    SpaceTooLargeError,
)
from .linalg import max_abs, rank_threshold
from .siegmund import SiegmundPair, siegmund_dual, siegmund_spectral
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

    The constructors sep() and ladder() take a vertex count (vertices
    0..count-1) or any sequence of distinct vertex labels, and raise
    ValueError for a negative count or gamma or a repeated label and
    SpaceTooLargeError when the size exceeds config.max_states(), the
    DUALITY_MAX_STATES cap.
    """

    kind: SpaceKind
    vertices: tuple
    gamma: int

    @classmethod
    def sep(cls, vertices, gamma: int) -> "ConfigurationSpace":
        return cls._capped(SpaceKind.SEP, vertices, gamma)

    @classmethod
    def ladder(cls, vertices, gamma: int) -> "ConfigurationSpace":
        return cls._capped(SpaceKind.LADDER, vertices, gamma)

    @classmethod
    def _capped(cls, kind: SpaceKind, vertices, gamma: int) -> "ConfigurationSpace":
        if gamma < 0:
            raise ValueError("gamma must be >= 0")
        if isinstance(vertices, int):
            if vertices < 0:
                raise ValueError(f"vertex count must be >= 0, got {vertices}")
            vertices = range(vertices)
        vertices = tuple(vertices)
        if _has_repeats(vertices):
            raise ValueError(f"vertex labels must be distinct, got {len(vertices)} with a repeat")
        space = cls(kind, vertices, gamma)
        cap = max_states()
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


def _has_repeats(labels: tuple) -> bool:
    try:
        return len(set(labels)) < len(labels)
    except TypeError:  # unhashable labels, such as lists read from a JSON vertex file
        return any(v in labels[:i] for i, v in enumerate(labels))


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


class _Hops(NamedTuple):
    """Every one-particle hop of exclusion with `capacity` particles per site on `n_sites` sites.

    Configurations are indexed as in ConfigurationSpace (a ladder space is
    the capacity-1 case).  Sites s < t form pair k in row-major order, and a
    particle can hop either way between them.  Hop h takes configuration
    rows[h] to cols[h] = rows[h] - w[src] + w[dst] (w the place values,
    (src, dst) = (s, t) or (t, s) of pair pair[h]); it exists where
    occ[h] = eta(src) > 0 and free[h] = capacity - eta(dst) > 0.  Hops are
    sorted by row, no two share a (row, col) position and none lies on the
    diagonal.
    """

    s: np.ndarray
    t: np.ndarray
    others: np.ndarray  # (pairs, n_sites - 2): the sites outside each pair
    pair: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    occ: np.ndarray
    free: np.ndarray


def _freeze(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.setflags(write=False)


@functools.lru_cache(maxsize=16)
def _hop_pattern(n_sites: int, capacity: int) -> _Hops:
    """The _Hops of n_sites sites at `capacity`: read-only, cached, in the smallest integer types that hold them."""
    space = ConfigurationSpace(SpaceKind.SEP, tuple(range(n_sites)), capacity)
    s, t = np.triu_indices(n_sites, 1)
    sites = np.broadcast_to(np.arange(n_sites), (len(s), n_sites))
    others = sites[(sites != s[:, None]) & (sites != t[:, None])].reshape(len(s), max(n_sites - 2, 0))
    src, dst = np.concatenate([s, t]), np.concatenate([t, s])
    eta = space.digits()
    rows, h = np.nonzero((eta[:, src] > 0) & (eta[:, dst] < capacity))
    w = space.place_values
    index, count = np.min_scalar_type(-space.size), np.min_scalar_type(capacity)
    pattern = _Hops(
        s,
        t,
        others,
        np.concatenate([np.arange(len(s))] * 2)[h].astype(index),
        rows.astype(index),
        (rows - w[src[h]] + w[dst[h]]).astype(index),
        eta[rows, src[h]].astype(count),
        (capacity - eta[rows, dst[h]]).astype(count),
    )
    _freeze(*pattern)
    return pattern


def _exclusion_generator(space: ConfigurationSpace, rates: np.ndarray) -> RateMatrix:
    """Exclusion with at most capacity = radix - 1 particles on each of `space`'s sites.

    A configuration's index is its mixed-radix number (site 0 most significant,
    place values w), so a hop src -> dst moves index i to i - w[src] + w[dst].
    The ordered pairs (s, t) and (t, s), s < t, each drive hops both ways, so
    a hop between s and t has rate
    rates[s, t] eta(src) (capacity - eta(dst)) + rates[t, s] eta(src) (capacity - eta(dst)),
    the two products added in that order: every entry is the sum a loop over
    configurations and ordered pairs would accumulate, bit for bit.
    """
    p = _hop_pattern(space.n_sites, space.radix - 1)
    forward, backward = rates[p.s, p.t][p.pair], rates[p.t, p.s][p.pair]
    gen = np.zeros((space.size, space.size))
    gen[p.rows, p.cols] = forward * p.occ * p.free + backward * p.occ * p.free
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
    """Real power with the 0^0 = 1 convention; raises DomainError when undefined or beyond a float."""
    if base == 0.0:
        if expo == 0.0:
            return 1.0
        if expo > 0.0:
            return 0.0
        raise DomainError("0 raised to a negative power")
    if base < 0.0 and expo != int(expo):
        raise DomainError(f"negative base {base} with non-integer exponent {expo}")
    try:
        return float(base) ** float(expo)
    except OverflowError:
        raise DomainError(f"{base} to the power {expo} overflows a float") from None


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


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two matrices (the same products a[i, j] b[k, l]), without its general-case overhead."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


@functools.lru_cache(maxsize=4)  # bounded: on two vertices the pair generator is as large as the space
def _pair_generator(capacity: int) -> np.ndarray:
    """Unit-rate exclusion on two sites, (capacity + 1)^2 configurations, first site most significant."""
    space = ConfigurationSpace(SpaceKind.SEP, (0, 1), capacity)
    return _exclusion_generator(space, np.array([[0.0, 1.0], [0.0, 0.0]])).entries


# the certificate reads the generator's rows in blocks of about this many entries
_BLOCK_ENTRIES = 1 << 18


def _two_site_certificate(generator: RateMatrix, space: ConfigurationSpace, factors: Sequence[np.ndarray]) -> float:
    """Upper bound on max|L D - D L^T| for D = factors[0] (x) factors[1] (x) ..., with no N x N product.

    Split L = H + E, where H = sum_{s<t} q_st h_st is the exclusion generator
    on `space` whose pair rates q_st = L[w_s, w_t] / capacity are read off
    L's one-particle entries (w_s: one particle at site s, none elsewhere),
    and h_st is the unit-rate two-site generator on sites s and t.  D is a
    Kronecker product, so h_st D - D h_st^T is the local defect
    h (d_s (x) d_t) - (d_s (x) d_t) h^T on sites s, t times the other
    factors, and the max-abs entry of a Kronecker product is the product of
    its factors'.  With m_u = max|d_u| and r_st the max-abs local defect,

        max|L D - D L^T| <= sum_{s<t} |q_st| r_st prod_{u != s,t} m_u + 2 ||E||_inf prod_u m_u

    for every L on `space`, exclusion generator or not.  ||E||_inf, the
    largest absolute row sum of L - H, takes one pass over L: a block of rows
    at a time is copied and H's hop entries and diagonal are subtracted from
    it.  r_st is evaluated once per distinct pair of factors.  The bound is
    exact arithmetic's; the computed value, like the dense residual, carries
    rounding of order eps times its terms.  Cost: O(N V^2) for N
    configurations on V sites, plus the pass over L; no N x N product.
    """
    entries = np.asarray(generator.entries)
    n, capacity = space.size, space.radix - 1
    if entries.shape != (n, n):
        raise ShapeMismatchError(f"generator shape {entries.shape}, expected ({n}, {n})")
    s, t, others, pair, rows, cols, occ, free = _hop_pattern(space.n_sites, capacity)
    w = space.place_values
    q = entries[w[s], w[t]] / capacity if capacity else np.zeros(len(s))
    hops = q[pair] * occ * free
    leaving = np.bincount(rows, hops, minlength=n)  # H's diagonal is -leaving
    step = max(1, _BLOCK_ENTRIES // n)
    cuts = np.searchsorted(rows, np.arange(0, n + step, step))  # hops of rows start..start + step
    defect, buffer = 0.0, np.empty((min(step, n), n))
    for lo, hi, start in zip(cuts[:-1], cuts[1:], range(0, n, step)):
        e = buffer[: min(step, n - start)]  # rows start.. of E = L - H
        np.copyto(e, entries[start : start + step])
        e[rows[lo:hi] - start, cols[lo:hi]] -= hops[lo:hi]
        e.ravel()[start :: n + 1] += leaving[start : start + step]  # entry (i, start + i) of the block
        defect = max(defect, float(np.abs(e, out=e).sum(axis=1).max()))

    keys = [f.tobytes() for f in factors]
    distinct = dict(zip(keys, factors))  # one table per distinct entry list, in order of appearance
    label = {key: i for i, key in enumerate(distinct)}
    site = np.array([label[key] for key in keys])
    tables, u = list(distinct.values()), len(distinct)
    codes = site[s] * u + site[t]
    h = _pair_generator(capacity)
    local = np.zeros(u * u)  # local defect of tables[a] (x) tables[b] at a * u + b, for the pairs sites carry
    for code in set(codes.tolist()):
        k = _kron(tables[code // u], tables[code % u])
        local[code] = max_abs(h @ k - k @ h.T)
    m = np.array([max_abs(f) for f in tables])[site]
    return float(np.sum(np.abs(q) * local[codes] * m[others].prod(axis=1)) + 2.0 * defect * m.prod())


def _product_duality(generator: RateMatrix, space: ConfigurationSpace, factors: Sequence[np.ndarray]) -> DualityFunction:
    """Self-duality D = factors[0] (x) factors[1] (x) ... of `generator`, one factor per site of `space`.

    In ConfigurationSpace's mixed-radix order the product over sites is
    this Kronecker product.  The singular values of a Kronecker product are the
    products of its factors' singular values, so the rank comes from one
    batched SVD of the small factors, at numerical_rank's cutoff
    max(N) eps s_max, instead of an SVD of D.  The residual is the two-site
    certificate of _two_site_certificate: an upper bound on the dense
    max-abs entry of L D - D L^T for the generator as passed, computed with
    no N x N product.  It is recorded against (generator, generator), which
    push_duality then reuses instead of recomputing the dense residual.
    """
    if not factors:  # no sites: the one empty configuration
        factors = [np.ones((1, 1))]
    d = functools.reduce(_kron, factors, np.ones((1, 1)))  # a new array even for one factor
    d.setflags(write=False)  # handed to DualityFunction as is
    sv = np.linalg.svd(np.stack(factors), compute_uv=False)
    s = np.sort(functools.reduce(np.multiply.outer, sv).ravel())[::-1]
    return DualityFunction(
        dual_space=generator.space,
        primal_space=generator.space,
        matrix=d,
        residual=_two_site_certificate(generator, space, factors),
        rank=int(np.sum(s > rank_threshold(s, d.shape))),
        pair=(generator, generator),
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
    singular values (see _product_duality).  The residual, recorded against
    (generator, generator) and not gated, is the two-site certificate: an
    upper bound on max|L D - D L^T| for the generator as passed, from the
    2x2 table's defect under each pair's two-site generator and the distance
    of the generator from a ladder exclusion generator, with no N x N
    product (see _two_site_certificate).
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
    return _product_duality(generator, space, [site] * (space.n_vertices * space.gamma))


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


def _require_finite_table(table: np.ndarray) -> np.ndarray:
    """The table itself; DomainError naming the first non-finite entry d(k, n) (a product of finite powers that overflows)."""
    bad = np.argwhere(~np.isfinite(table))
    if bad.size:
        k, n = (int(i) for i in bad[0])
        raise DomainError(f"site table entry d({k}, {n}) is {table[k, n]}: a product of powers overflows a float")
    return table


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
    A power, a binomial coefficient C(gamma, n), an overlap sum or a table
    entry too large for a float is a DomainError too; the last names the
    first such entry (k, n).  Cost: O(gamma^3) scalar terms.
    """
    a, b, e, dl, g = params.alpha, params.beta, params.epsilon, params.delta, params.gamma
    if math.comb(g, g // 2) > sys.float_info.max:
        raise DomainError(f"gamma = {g}: the binomial coefficients C(gamma, n) overflow a float")
    both, xi_only = _power(a + b, dl), _power(a, dl)
    table = np.empty((g + 1, g + 1))
    try:
        for k, n in itertools.product(range(g + 1), repeat=2):
            overlap = math.fsum(
                math.comb(k, j) * math.comb(g - k, n - j) * both**j * xi_only ** (k - j)
                for j in range(max(0, k + n - g), min(k, n) + 1)
            )
            table[k, n] = _power(a + b, e * n) * _power(a, e * (g - n)) * overlap / math.comb(g, n)
    except OverflowError:
        raise DomainError(f"gamma = {g}: the overlap sum of powers of {both} and {xi_only} overflows a float") from None
    return _require_finite_table(table)


def ladder_bracket_sum(k: int, n: int, gamma: int, alpha: float, beta: float, delta: float) -> float:
    """Brute-force bracket: (1/C(gamma,n)) sum_{|eta|=n} prod_a (alpha + beta eta_a)^(delta xi_a).

    xi is k ones followed by zeros; the value depends on the pattern only
    through its total (a property the tests assert).  Equals 1 for delta = 0
    by the Vandermonde convolution.  Only the C(gamma, n) patterns eta with n
    occupied rungs are generated, in lexicographic order of eta (the reverse
    of the combinations' order of the occupied rungs).  ValueError unless
    0 <= k <= gamma.
    """
    if not 0 <= k <= gamma:
        raise ValueError("k must lie in 0..gamma")
    xi_pattern = [1] * k + [0] * (gamma - k)
    total = 0.0
    for rungs in reversed(list(itertools.combinations(range(gamma), n))):
        eta = [0] * gamma
        for a in rungs:
            eta[a] = 1
        value = 1.0
        for site_xi, site_eta in zip(xi_pattern, eta):
            value *= _power(alpha + beta * site_eta, delta * site_xi)
        total += value
    return total / math.comb(gamma, n)


def single_site_duality_bruteforce(params: SingleSiteDualityParams) -> np.ndarray:
    """Independent oracle: evaluate the single-site table by exhaustive ladder sums.

    Raises DomainError where single_site_duality does, a non-finite entry included.
    """
    a, b, e, dl, g = params.alpha, params.beta, params.epsilon, params.delta, params.gamma
    table = np.zeros((g + 1, g + 1))
    for k in range(g + 1):
        for n in range(g + 1):
            prefactor = _power(a + b, e * n) * _power(a, e * (g - n))
            table[k, n] = prefactor * ladder_bracket_sum(k, n, g, a, b, dl)
    return _require_finite_table(table)


def factorized_duality(
    tables: Sequence[np.ndarray],
    space: ConfigurationSpace,
    generator: RateMatrix,
) -> DualityFunction:
    """Product duality D(xi, eta) = prod_x d_x(xi(x), eta(x)) over a SEP space.

    Assembled as d_0 (x) ... (x) d_{V-1}, one table per vertex in vertex order;
    its rank is counted from the tables' singular values (see
    _product_duality).  The residual, recorded against (generator,
    generator) and not gated, is the two-site certificate: an upper bound on
    max|L D - D L^T| for the generator as passed, from each pair of tables'
    defect under the two-site SEP generator and the distance of the generator
    from a SEP generator, with no N x N product (see _two_site_certificate).
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
    return _product_duality(generator, space, tables)


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


@dataclass(frozen=True, eq=False)
class ReflectedAbsorbedRW:
    """Reflected/absorbed walk pair on {1..n} with analytic spectral data.

    l reflects at the left boundary and is absorbed (frozen) at the right;
    lhat mirrors this.  Both share the spectrum lambda_1 = 0,
    lambda_i = 2(cos theta_i - 1) with theta_i = (i - 1/2) pi / (n-1).

    Every array is read-only float64.  The eigenvalues are in canonical
    order already, so spectral.U is u and spectral_hat.U is uhat (shared
    memory, no copies); each Uinv is the inverse np.linalg.inv computes.
    Equality and hashing go by identity.
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


def rw_reflected_absorbed(n: int) -> ReflectedAbsorbedRW:
    """Build the reflected-left/absorbed-right walk and its mirror, with spectra.

    Eigenfunctions: u_i(x) = cos(theta_i (x-1)) / sqrt(n) for l,
    uhat_i(x) = sin(theta_i (x-1)) / sqrt(n) for lhat, plus the constant
    1/sqrt(n) at eigenvalue zero.  Both bases are validated by
    spectral_from_eigenbasis, at DEFAULTS.residual.
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
    _freeze(lambdas, thetas, u, uhat)
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
        spectral=spectral_from_eigenbasis(l_rm, lambdas, u),
        spectral_hat=spectral_from_eigenbasis(lhat_rm, lambdas, uhat),
    )


@dataclass(frozen=True, eq=False)
class BlockedAbsorbedRW:
    """Blocked walk, its absorbed Siegmund dual, and the eigenbases of both.

    uhat columns are counting-measure-orthonormal eigenfunctions of the
    (symmetric) blocked generator, in closed form; u columns are their tail
    sums, eigen for the absorbed sub-generator at the same eigenvalues,
    transported by siegmund_spectral.

    Every array is read-only float64, and each basis is stored once:
    u is spectral.U, spectral_hat.U is uhat and spectral_hat.Uinv is the
    view uhat.T (shared memory, no copies); spectral.Uinv is the row
    differences of uhat.T.  Equality and hashing go by identity.
    """

    n: int
    pair: SiegmundPair
    lambdas: np.ndarray
    thetas: np.ndarray
    u: np.ndarray
    uhat: np.ndarray
    spectral: SpectralData
    spectral_hat: SpectralData


def rw_blocked_absorbed(n: int) -> BlockedAbsorbedRW:
    """Blocked-boundary walk and its Siegmund dual (absorbed walk with a leak).

    Spectrum lambda_1 = 0, lambda_i = 2(cos theta_i - 1), theta_i = (i-1) pi / n
    for i = 2..n.  The blocked walk's eigenbasis is in closed form and
    validated by spectral_from_eigenbasis, with uhat^T as its inverse; the
    dual's is its transport by siegmund_spectral (tail sums of the columns
    of uhat, including u_1(x) = (n + 1 - x)/sqrt(n) at eigenvalue zero).
    Both gates run at DEFAULTS.residual.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    lhat = _walk_interior(n)
    lhat[0, 0], lhat[0, 1] = -1.0, 1.0
    lhat[n - 1, n - 2], lhat[n - 1, n - 1] = 1.0, -1.0
    lhat_rm = RateMatrix.from_entries(lhat, kind=MatrixKind.GENERATOR)
    del lhat  # lhat_rm holds its own copy
    pair = siegmund_dual(lhat_rm)
    thetas = (np.arange(2, n + 1) - 1) * np.pi / n
    lambdas = np.concatenate([[0.0], 2.0 * (np.cos(thetas) - 1.0)])
    norm = 1.0 / np.sqrt(n * (1.0 - np.cos(thetas)))
    uhat = np.empty((n, n))
    uhat[:, 0] = 1.0 / np.sqrt(n)
    # uhat = norm (-sin(theta) cos(arg) + (1 - cos(theta)) sin(arg)), evaluated in place in two n x n buffers
    arg = np.outer(np.arange(n), thetas)
    sin = np.sin(arg)
    sin *= 1.0 - np.cos(thetas)
    cos = np.cos(arg, out=arg)
    cos *= -np.sin(thetas)
    cos += sin
    np.multiply(norm, cos, out=uhat[:, 1:])
    del arg, sin, cos  # freed so the transport below adds no array at the peak
    _freeze(lambdas, thetas, uhat)
    spectral_hat = spectral_from_eigenbasis(lhat_rm, lambdas, uhat, uhat.T)
    spectral = siegmund_spectral(pair, spectral_hat)
    return BlockedAbsorbedRW(
        n=n,
        pair=pair,
        lambdas=lambdas,
        thetas=thetas,
        u=spectral.U,
        uhat=uhat,
        spectral=spectral,
        spectral_hat=spectral_hat,
    )
