"""Scale invariance: every verdict is the same for c L as for L, c > 0.

Each threshold is a relative factor from config.DEFAULTS times the scale of
the checked input (linalg.scaled_tol), so multiplying every rate by c
changes no decision.  Judged three ways: inputs on which an absolute
threshold fails, a property over c in [1e-9, 1e7], and the exact duality-space
dimension of integer-rate inputs (conftest.exact_duality_dimension), which
does not move with c.
"""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markovdual import (
    ConfigurationSpace,
    MatrixKind,
    RateMatrix,
    check_detailed_balance,
    check_r_similar,
    classify_matrix,
    decompose,
    extend_with_cemetery,
    is_irreducible,
    rw_blocked_absorbed,
    rw_reflected_absorbed,
    sep_generator,
    siegmund_dual,
    solve_duality_space,
    stationary_measure,
)
from markovdual.errors import AlreadyConservativeError, DecompositionFailedError, NotIrreducibleError
from markovdual.scenarios import cyclic_generator, jordan_block_generator

from conftest import direct_sum, exact_duality_dimension, permuted, random_birth_death, random_generator


def scaled(c: float, l: RateMatrix) -> RateMatrix:
    return RateMatrix.from_entries(c * np.asarray(l.entries))


def sizes(l: RateMatrix) -> list[int]:
    return [b.size for b in decompose(l).structure.blocks]


class TestFarFromUnitRates:
    """Verdicts on rates far from order 1, each of which an absolute threshold gets wrong."""

    def test_fast_dense_generators_classify_as_generators(self):
        rng = np.random.default_rng(0)
        for _ in range(20):  # uniform rates, as perfbench's dense inputs
            assert classify_matrix(1e5 * np.asarray(random_generator(rng, 30).entries)) is MatrixKind.GENERATOR

    @pytest.mark.parametrize("c", [1e-9, 1e7])
    def test_decompose_keeps_its_structure(self, c):
        dense = random_generator(np.random.default_rng(1), 12)
        sep = sep_generator(ConfigurationSpace.sep(3, 2))
        for l in (dense, sep):
            assert sizes(scaled(c, l)) == sizes(l)

    def test_slow_path_is_irreducible(self):
        n = 6
        m = np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
        np.fill_diagonal(m, -m.sum(axis=1))
        assert is_irreducible(RateMatrix.from_entries(1e-11 * m))

    def test_slow_dual_takes_a_cemetery(self):
        dual = scaled(1e-12, rw_blocked_absorbed(8).pair.l)
        assert dual.kind is MatrixKind.SUB_GENERATOR
        assert extend_with_cemetery(dual).kind is MatrixKind.GENERATOR


def _symmetric_rates(rng, vertices):
    p = rng.uniform(0.5, 2.0, (vertices, vertices))
    p = (p + p.T) / 2.0
    np.fill_diagonal(p, 0.0)
    return p


FAMILIES = {
    "dense": lambda rng: random_generator(rng, int(rng.integers(3, 13))),
    "birth-death": lambda rng: random_birth_death(rng, int(rng.integers(3, 21))),
    "sep": lambda rng: permuted(
        rng,
        sep_generator(
            ConfigurationSpace.sep(v := int(rng.integers(2, 4)), int(rng.integers(1, 3))), _symmetric_rates(rng, v)
        ),
    ),
    "jordan4 sum": lambda rng: direct_sum(rng, jordan_block_generator(), int(rng.integers(1, 4))),
    "cyclic3 sum": lambda rng: direct_sum(rng, cyclic_generator(), int(rng.integers(1, 5))),
}


def verdicts(l: RateMatrix, relabelled: RateMatrix) -> dict:
    """Every decision the library takes on a generator l, with relabelled a relabelling of it."""
    out = {"kind": classify_matrix(l.entries), "irreducible": is_irreducible(l)}
    try:
        mu = stationary_measure(l)
        out["stationary"], out["balanced"] = mu.weights, check_detailed_balance(l, mu)
    except NotIrreducibleError:
        out["stationary"] = None
    pair = siegmund_dual(l)
    out["monotone"], out["dual kind"] = pair.monotone, pair.l.kind
    if pair.l.kind in (MatrixKind.GENERATOR, MatrixKind.SUB_GENERATOR):
        try:
            out["cemetery"] = extend_with_cemetery(pair.l).kind
        except AlreadyConservativeError:
            out["cemetery"] = None
    try:
        hat, primal = decompose(l), decompose(relabelled)
        out["blocks"] = [b.size for b in hat.structure.blocks]
        out["witness"] = check_r_similar(hat, primal, l.n) is not None
    except DecompositionFailedError:
        out["blocks"] = None
    out["dimension"] = solve_duality_space(l, l).dimension
    return out


@settings(max_examples=60)
@given(st.sampled_from(sorted(FAMILIES)), st.integers(0, 2**32 - 1), st.floats(-9.0, 7.0))
def test_every_verdict_is_scale_free(family, seed, k):
    rng = np.random.default_rng(seed)
    l = FAMILIES[family](rng)
    relabelled = permuted(rng, l)
    c = 10.0**k
    base, found = verdicts(l, relabelled), verdicts(scaled(c, l), scaled(c, relabelled))
    mu, mu_c = base.pop("stationary"), found.pop("stationary")
    assert found == base
    assert (mu is None) == (mu_c is None)
    if mu is not None:
        npt.assert_allclose(mu_c, mu, rtol=1e-10, atol=0.0)
    assert base["blocks"] is not None  # every family decomposes at c = 1


def _integer_dense(rng, n):
    m = rng.integers(0, 4, (n, n)).astype(float)
    np.fill_diagonal(m, 0.0)
    np.fill_diagonal(m, -m.sum(axis=1))
    return RateMatrix.from_entries(m)


def _integer_birth_death(rng, n):
    m = np.diag(rng.integers(1, 4, n - 1).astype(float), 1) + np.diag(rng.integers(1, 4, n - 1).astype(float), -1)
    np.fill_diagonal(m, -m.sum(axis=1))
    return RateMatrix.from_entries(m)


def _pure_birth(n):
    """Unit-rate pure-birth chain, absorbed at n - 1: Jordan blocks of sizes n - 1 (at -1) and 1 (at 0)."""
    m = np.diag(np.ones(n - 1), 1)
    np.fill_diagonal(m, -m.sum(axis=1))
    return RateMatrix.from_entries(m)


def _integer_pairs():
    rng = np.random.default_rng(13)
    for n in range(3, 9):
        for _ in range(2):
            l = _integer_dense(rng, n)
            yield f"dense {n}", l, l
    for n in (5, 10, 20):
        l = _integer_birth_death(rng, n)
        yield f"birth-death {n}", l, l
    for v, g in ((2, 2), (3, 1), (4, 1)):
        l = sep_generator(ConfigurationSpace.sep(v, g))
        yield f"sep {v},{g}", l, l
    rw = rw_reflected_absorbed(8)
    yield "rw54 8", rw.lhat, rw.l
    for n in (3, 4, 5, 6, 8, 10, 12):
        yield f"pure birth {n}", _pure_birth(n), _pure_birth(n)
    j = RateMatrix.from_entries(2.0 * np.asarray(jordan_block_generator().entries))  # integer rates
    yield "jordan4", j, j


def test_kernel_dimension_is_exact_at_every_scale():
    checked = 0
    for name, lhat, l in _integer_pairs():
        assert lhat.n * l.n <= 400, name
        exact = exact_duality_dimension(lhat, l)
        for c in (1e-6, 1.0, 1e6):
            assert solve_duality_space(scaled(c, lhat), scaled(c, l)).dimension == exact, (name, c)
        checked += 1
    assert checked == 27
