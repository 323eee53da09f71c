import itertools
import re

import numpy as np
import numpy.testing as npt
import pytest

from hypothesis import given
from hypothesis import strategies as st

from markovdual import (
    ConfigurationSpace,
    IntertwiningOperator,
    MatrixKind,
    RateMatrix,
    SingleSiteDualityParams,
    SpaceKind,
    chain_duality,
    classify_regime,
    decompose,
    factorized_duality,
    ladder_bracket_sum,
    ladder_sep_generator,
    make_duality,
    push_duality,
    residual,
    rw_blocked_absorbed,
    rw_reflected_absorbed,
    sep_generator,
    single_site_duality,
    single_site_duality_bruteforce,
    solve_duality_space,
    spectral_from_eigenbasis,
    ssep_selfduality,
)
from markovdual.config import DEFAULTS
from markovdual.errors import (
    DecompositionFailedError,
    DomainError,
    PreconditionFailedError,
    ShapeMismatchError,
    SpaceTooLargeError,
)
from markovdual.linalg import EPS, numerical_rank
from markovdual.models import _product_duality

from conftest import (
    enumerate_configs,
    gather_product_duality,
    ladder_bracket_sum_all_patterns,
    occupancy_tuple,
    ladder_sep_generator_loops,
    rw_blocked_absorbed_loops,
    rw_reflected_absorbed_loops,
    sep_generator_loops,
)


class TestConfigurationSpace:
    def test_sep_enumeration(self):
        space = ConfigurationSpace.sep(2, 1)
        npt.assert_array_equal(space.digits(), [(0, 0), (0, 1), (1, 0), (1, 1)])
        assert space.size == 4

    def test_ladder_enumeration_and_occupancy(self):
        space = ConfigurationSpace.ladder(2, 2)
        assert space.size == 16
        npt.assert_array_equal(space.occupancy((1, 0, 1, 1)), (1, 2))

    def test_gamma_zero_single_configuration(self):
        space = ConfigurationSpace.sep(3, 0)
        npt.assert_array_equal(space.digits(), [(0, 0, 0)])

    @pytest.mark.parametrize("kind", ["sep", "ladder"])
    @pytest.mark.parametrize("vertices,gamma", [(1, 1), (2, 0), (2, 3), (3, 2), (0, 2), (4, 1), (2, 5)])
    def test_digits_and_index_match_enumeration(self, kind, vertices, gamma):
        space = getattr(ConfigurationSpace, kind)(vertices, gamma)
        configs, index = enumerate_configs(space)
        assert space.size == len(configs)
        npt.assert_array_equal(space.digits(), np.array(configs))
        assert [space.index(c) for c in configs] == list(index.values())
        npt.assert_array_equal(space.index(space.digits()), np.arange(space.size))

    @pytest.mark.parametrize("vertices,gamma", [(1, 1), (2, 2), (3, 1), (2, 3), (1, 0)])
    def test_occupancy_matches_rung_sums(self, vertices, gamma):
        space = ConfigurationSpace.ladder(vertices, gamma)
        configs, _ = enumerate_configs(space)
        expected = [occupancy_tuple(space, c) for c in configs]
        npt.assert_array_equal(space.occupancy(space.digits()), np.reshape(expected, (len(configs), vertices)))
        assert [tuple(space.occupancy(c)) for c in configs] == expected

    def test_occupancy_rejected_on_sep(self):
        with pytest.raises(ValueError, match="ladder"):
            ConfigurationSpace.sep(2, 2).occupancy((1, 1))

    @pytest.mark.parametrize("config", [(0, 1, 0), (1,), (), ((0, 1, 2),)])
    def test_index_rejects_wrong_length(self, config):
        with pytest.raises(ValueError, match="digits"):
            ConfigurationSpace.sep(2, 2).index(config)

    @pytest.mark.parametrize(
        "space,config",
        [("sep", (0, 3)), ("sep", (-1, 0)), ("sep", (0, 0.5)), ("ladder", (0, 2)), ("ladder", (1, -1))],
    )
    def test_index_rejects_digit_out_of_range(self, space, config):
        two_sites = ConfigurationSpace.sep(2, 2) if space == "sep" else ConfigurationSpace.ladder(1, 2)
        with pytest.raises(ValueError, match="digits"):
            two_sites.index(config)

    @pytest.mark.parametrize("kind", ["sep", "ladder"])
    def test_negative_gamma_rejected(self, kind):
        with pytest.raises(ValueError, match="gamma"):
            getattr(ConfigurationSpace, kind)(2, -1)

    @pytest.mark.parametrize("kind", ["sep", "ladder"])
    def test_negative_vertex_count_rejected(self, kind):
        with pytest.raises(ValueError, match="vertex count"):
            getattr(ConfigurationSpace, kind)(-3, 1)

    @pytest.mark.parametrize("kind", ["sep", "ladder"])
    @pytest.mark.parametrize("vertices", [("a", "a"), (0, 1, 0), ([0], [1], [0])])
    def test_repeated_vertex_label_rejected(self, kind, vertices):
        with pytest.raises(ValueError, match="distinct"):
            getattr(ConfigurationSpace, kind)(vertices, 1)

    def test_unhashable_distinct_labels_accepted(self):
        assert ConfigurationSpace.sep([[0], [1]], 1).size == 4

    def test_spaces_compare_by_value(self):
        assert ConfigurationSpace.sep(2, 2) == ConfigurationSpace.sep((0, 1), 2)
        assert ConfigurationSpace.sep(2, 2) != ConfigurationSpace.ladder(2, 2)

    def test_cap_enforced(self, monkeypatch):
        monkeypatch.setenv("DUALITY_MAX_STATES", "1000")
        with pytest.raises(SpaceTooLargeError):
            ConfigurationSpace.sep(10, 9)
        with pytest.raises(SpaceTooLargeError):
            ConfigurationSpace.ladder(8, 4)

    def test_env_cap_override(self, monkeypatch):
        monkeypatch.setenv("DUALITY_MAX_STATES", "8")
        with pytest.raises(SpaceTooLargeError):
            ConfigurationSpace.sep(2, 2)
        monkeypatch.setenv("DUALITY_MAX_STATES", "100")
        assert ConfigurationSpace.sep(2, 2).size == 9

    def test_vertex_labels(self):
        space = ConfigurationSpace.sep(("a", "b"), 1)
        assert space.vertices == ("a", "b")


class TestSepGenerator:
    def test_two_site_single_particle_by_hand(self):
        # only (1,0) <-> (0,1) can move; both ordered pairs contribute, so rate 2
        space = ConfigurationSpace.sep(2, 1)
        gen = np.asarray(sep_generator(space, 1.0).entries)
        expected = np.zeros((4, 4))
        i01, i10 = space.index((0, 1)), space.index((1, 0))
        expected[i01, i10] = 2.0
        expected[i01, i01] = -2.0
        expected[i10, i01] = 2.0
        expected[i10, i10] = -2.0
        npt.assert_array_equal(gen, expected)

    def test_gamma_zero_generator_is_zero(self):
        space = ConfigurationSpace.sep(2, 0)
        npt.assert_array_equal(sep_generator(space, 1.0).entries, np.zeros((1, 1)))

    def test_particle_number_conservation(self):
        space = ConfigurationSpace.sep(2, 2)
        gen = np.asarray(sep_generator(space, 1.0).entries)
        totals = space.digits().sum(axis=1)
        off_sector = totals[:, None] != totals[None, :]
        assert np.all(gen[off_sector] == 0.0)

    def test_rate_matrix_kind(self):
        space = ConfigurationSpace.sep(3, 1)
        assert sep_generator(space, 1.0).kind is MatrixKind.GENERATOR

    def test_asymmetric_rates_still_generator(self):
        space = ConfigurationSpace.sep(2, 2)
        p = np.array([[0.0, 2.0], [0.5, 0.0]])
        gen = sep_generator(space, p)
        assert np.max(np.abs(np.asarray(gen.entries).sum(axis=1))) == 0.0

    def test_callable_rates_match_matrix_rates(self):
        space = ConfigurationSpace.sep(3, 1)
        table = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 2.0], [0.0, 2.0, 0.0]])
        from_callable = sep_generator(space, lambda x, y: table[x, y])
        from_matrix = sep_generator(space, table)
        npt.assert_array_equal(from_callable.entries, from_matrix.entries)

    @pytest.mark.parametrize("rates", [1.0, np.zeros((0, 0)), lambda x, y: 1.0])
    def test_no_vertices_any_rate_form(self, rates):
        gen = sep_generator(ConfigurationSpace.sep(0, 2), rates)
        npt.assert_array_equal(gen.entries, np.zeros((1, 1)))


class TestLadderGenerator:
    def test_single_rung_equals_sep(self):
        sep_space = ConfigurationSpace.sep(2, 1)
        ladder_space = ConfigurationSpace.ladder(2, 1)
        npt.assert_array_equal(
            np.asarray(sep_generator(sep_space, 1.0).entries),
            np.asarray(ladder_sep_generator(ladder_space, 1.0).entries),
        )

    def test_symmetric_matrix(self):
        space = ConfigurationSpace.ladder(2, 2)
        gen = np.asarray(ladder_sep_generator(space, 1.0).entries)
        npt.assert_array_equal(gen, gen.T)

    def test_no_intra_site_hops(self):
        space = ConfigurationSpace.ladder(1, 3)
        npt.assert_array_equal(ladder_sep_generator(space, 1.0).entries, np.zeros((8, 8)))


class TestSsepSelfduality:
    def test_domination_indicator(self):
        space = ConfigurationSpace.ladder(2, 2)
        gen = ladder_sep_generator(space, 1.0)
        params = SingleSiteDualityParams(0.0, 1.0, 0.0, 1.0, 2)
        d = ssep_selfduality(space, params, gen)
        for i, xi in enumerate(space.digits()):
            for j, eta in enumerate(space.digits()):
                dominated = all(a <= b for a, b in zip(xi, eta))
                assert d.matrix[i, j] == (1.0 if dominated else 0.0)
        assert d.residual < 1e-12

    def test_trivial_exponents_give_ones(self):
        space = ConfigurationSpace.ladder(2, 1)
        gen = ladder_sep_generator(space, 1.0)
        params = SingleSiteDualityParams(0.7, -0.2, 0.0, 0.0, 1)
        d = ssep_selfduality(space, params, gen)
        npt.assert_array_equal(d.matrix, np.ones((4, 4)))

    @pytest.mark.parametrize(
        "alpha,beta,eps,delta",
        [(1.0, 1.0, 0.0, 1.0), (2.0, 0.5, 1.0, 1.0), (1.0, -1.0, 1.0, 1.0), (1.0, 0.0, 1.0, 2.0)],
    )
    def test_residual_across_parameters(self, alpha, beta, eps, delta):
        space = ConfigurationSpace.ladder(2, 2)
        gen = ladder_sep_generator(space, 1.0)
        d = ssep_selfduality(space, SingleSiteDualityParams(alpha, beta, eps, delta, 2), gen)
        assert d.residual < 1e-12

    def test_zero_base_negative_exponent_rejected(self):
        space = ConfigurationSpace.ladder(1, 1)
        gen = ladder_sep_generator(space, 1.0)
        with pytest.raises(DomainError):
            ssep_selfduality(space, SingleSiteDualityParams(0.0, 1.0, -1.0, 0.0, 1), gen)


FAMILIES = [
    ("constant-exponent", 1.5, 0.5, 1.0, 0.0),
    ("classical", 0.0, 1.0, 0.0, 1.0),
    ("top-indicator", 0.0, 2.0, 1.0, 1.0),
    ("beta-zero", 1.0, 0.0, 1.0, 1.0),
    ("bottom-indicator", 2.0, -2.0, 1.0, 1.0),
    ("orthogonal", 1.0, 1.0, 0.0, 1.0),
]


# family edges: the bottom indicator at epsilon 0 (whose table is not zero off
# column 0), and tables where a power of the product formula is undefined
# (epsilon < 0, delta < 0, negative alpha to a half power)
FAMILY_EDGES = [
    ("bottom-indicator, epsilon 0", 2.0, -2.0, 0.0, 1.0),
    ("top-indicator, epsilon < 0", 0.0, 1.0, -1.0, 1.0),
    ("classical, delta < 0", 0.0, 1.0, 0.0, -1.0),
    ("bottom-indicator, delta < 0", 1.0, -1.0, 0.0, -1.0),
    ("beta-zero, negative alpha to a half power", -1.0, 0.0, 0.5, 1.0),
]


def _raises_domain_error(fn, params) -> bool:
    try:
        fn(params)
    except DomainError:
        return True
    return False


class TestSingleSiteDuality:
    @pytest.mark.parametrize("name,alpha,beta,eps,delta", FAMILIES)
    def test_regime_detection(self, name, alpha, beta, eps, delta):
        assert classify_regime(SingleSiteDualityParams(alpha, beta, eps, delta, 2)) == name

    def test_constant_exponent_formula(self):
        params = SingleSiteDualityParams(1.5, 0.5, 2.0, 0.0, 3)
        table = single_site_duality(params)
        for k in range(4):
            for n in range(4):
                assert table[k, n] == pytest.approx(2.0 ** (2 * n) * 1.5 ** (2 * (3 - n)))

    def test_classical_value_by_hand(self):
        # gamma=2, beta=delta=1: d(1,2) = 1!/2! * 2!/1! = 1
        table = single_site_duality(SingleSiteDualityParams(0.0, 1.0, 0.0, 1.0, 2))
        assert table[1, 2] == pytest.approx(1.0)
        assert table[2, 1] == 0.0  # indicator n >= k

    @pytest.mark.parametrize("name,alpha,beta,eps,delta", FAMILIES + FAMILY_EDGES)
    @pytest.mark.parametrize("gamma", [1, 2, 3, 4])
    def test_matches_bruteforce_oracle(self, name, alpha, beta, eps, delta, gamma):
        params = SingleSiteDualityParams(alpha, beta, eps, delta, gamma)
        try:
            oracle = single_site_duality_bruteforce(params)
        except DomainError:
            with pytest.raises(DomainError):
                single_site_duality(params)
            return
        npt.assert_allclose(single_site_duality(params), oracle, atol=1e-12, rtol=1e-12)

    def test_domain_error_exactly_where_oracle_raises(self):
        values, exponents = (0.0, 1.0, -1.0, 2.0, -0.5), (0.0, 1.0, -1.0, 0.5)
        mismatched = [
            params
            for alpha, beta, eps, delta, gamma in itertools.product(values, values, exponents, exponents, (1, 2, 3))
            for params in [SingleSiteDualityParams(alpha, beta, eps, delta, gamma)]
            if _raises_domain_error(single_site_duality, params)
            != _raises_domain_error(single_site_duality_bruteforce, params)
        ]
        assert mismatched == []

    def test_overflowing_power_is_domain_error(self):
        with pytest.raises(DomainError, match="1e\\+200 to the power 4.0"):
            single_site_duality(SingleSiteDualityParams(1e200, 1.0, 2.0, 1.0, 2))
        space = ConfigurationSpace.ladder(1, 1)
        with pytest.raises(DomainError, match="to the power"):
            ssep_selfduality(space, SingleSiteDualityParams(1e200, 1.0, 2.0, 0.0, 1), ladder_sep_generator(space))

    def test_overflowing_binomials_are_domain_error(self):
        with pytest.raises(DomainError, match="gamma = 2000"):
            single_site_duality(SingleSiteDualityParams(1.0, 1.0, 0.0, 1.0, 2000))

    def test_overflowing_overlap_sum_is_domain_error(self):
        # (a+b)^d = 1e300 to the power j = 2 overflows inside the sum, not in a prefactor
        with pytest.raises(DomainError, match="gamma = 2: the overlap sum"):
            single_site_duality(SingleSiteDualityParams(0.0, 1e300, 0.0, 1.0, 2))

    @pytest.mark.parametrize(
        "params,entry",
        [
            (SingleSiteDualityParams(1e150, 0.0, 1.0, 1.0, 2), "d(1, 0)"),  # a^(e gamma) (a^d)^k = 1e450 for k >= 1
            (SingleSiteDualityParams(0.0, 1e100, 1.0, 1.0, 2), "d(2, 2)"),  # top indicator: b^(e gamma) (b^d)^2 = 1e400
        ],
    )
    def test_overflowing_table_entry_is_domain_error_on_both_routes(self, params, entry):
        for fn in (single_site_duality, single_site_duality_bruteforce):
            with pytest.raises(DomainError, match=f"entry {re.escape(entry)} is inf"):
                fn(params)

    def test_non_integer_delta_positive_bases(self):
        params = SingleSiteDualityParams(2.0, 0.5, 0.0, 0.5, 3)
        npt.assert_allclose(
            single_site_duality(params),
            single_site_duality_bruteforce(params),
            atol=1e-12,
        )

    def test_non_integer_delta_negative_base_rejected(self):
        # 1 + beta/alpha < 0 makes (1 + beta/alpha)^delta undefined for real delta
        with pytest.raises(DomainError):
            single_site_duality(SingleSiteDualityParams(1.0, -3.0, 0.0, 0.5, 2))

    def test_degenerate_support_structure(self):
        top = single_site_duality(SingleSiteDualityParams(0.0, 2.0, 1.0, 1.0, 3))
        assert np.all(top[:, :3] == 0.0)
        assert np.all(top[:, 3] != 0.0)
        bottom = single_site_duality(SingleSiteDualityParams(2.0, -2.0, 1.0, 1.0, 3))
        assert np.all(bottom[:, 1:] == 0.0)
        assert np.all(bottom[:, 0] != 0.0)

    @pytest.mark.parametrize("gamma", [1, 2, 3, 4, 5])
    def test_chu_vandermonde_reduction(self, gamma):
        for k in range(gamma + 1):
            for n in range(gamma + 1):
                assert ladder_bracket_sum(k, n, gamma, 1.7, -0.3, 0.0) == pytest.approx(
                    1.0, abs=1e-12
                )

    @pytest.mark.parametrize("gamma", [1, 2, 3, 4])
    def test_bracket_depends_only_on_total(self, gamma):
        # evaluating over every xi pattern with the same total gives one value, the library's
        for k in range(gamma + 1):
            for n in range(gamma + 1):
                values = {round(ladder_bracket_sum(k, n, gamma, 1.3, 0.7, 2.0), 12)}
                for pattern in itertools.combinations(range(gamma), k):
                    xi = [1 if a in pattern else 0 for a in range(gamma)]
                    values.add(round(ladder_bracket_sum_all_patterns(k, n, gamma, 1.3, 0.7, 2.0, xi), 12))
                assert len(values) == 1


class TestFactorizedDuality:
    def test_all_ones_tables(self):
        space = ConfigurationSpace.sep(2, 2)
        gen = sep_generator(space, 1.0)
        ones = np.ones((3, 3))
        d = factorized_duality([ones, ones], space, gen)
        npt.assert_array_equal(d.matrix, np.ones((9, 9)))
        assert d.residual < 1e-12

    @pytest.mark.parametrize("name,alpha,beta,eps,delta", FAMILIES)
    def test_families_are_selfdualities(self, name, alpha, beta, eps, delta):
        gamma = 2
        space = ConfigurationSpace.sep(2, gamma)
        gen = sep_generator(space, 1.0)
        table = single_site_duality(SingleSiteDualityParams(alpha, beta, eps, delta, gamma))
        d = factorized_duality([table, table], space, gen)
        assert d.residual < 1e-10

    def test_no_vertices_single_configuration(self):
        space = ConfigurationSpace.sep(0, 2)
        d = factorized_duality([], space, sep_generator(space))
        npt.assert_array_equal(d.matrix, np.ones((1, 1)))
        assert d.rank == 1

    def test_caller_table_stays_writable_and_unshared(self):
        space = ConfigurationSpace.sep(1, 1)
        table = np.array([[1.0, 2.0], [3.0, 4.0]])
        d = factorized_duality([table], space, sep_generator(space))
        assert table.flags.writeable and not d.matrix.flags.writeable
        assert not np.shares_memory(table, d.matrix)

    def test_table_count_validated(self):
        space = ConfigurationSpace.sep(2, 1)
        gen = sep_generator(space, 1.0)
        with pytest.raises(ShapeMismatchError):
            factorized_duality([np.ones((2, 2))], space, gen)


# every SEP and ladder shape with 2 to 1024 configurations
CERTIFICATE_SHAPES = [
    (kind, v, g)
    for kind, radix in (("sep", lambda g: g + 1), ("ladder", lambda g: 2))
    for v in range(1, 11)
    for g in range(1, 32)
    if 2 <= radix(g) ** (v if kind == "sep" else v * g) <= 1024
]


def _exclusion(kind, v, g, p):
    if kind == "sep":
        space = ConfigurationSpace.sep(v, g)
        return space, sep_generator(space, p)
    space = ConfigurationSpace.ladder(v, g)
    return space, ladder_sep_generator(space, p)


def _exact_family_duality(space, l, params):
    if space.kind is SpaceKind.SEP:
        return factorized_duality([single_site_duality(params)] * space.n_vertices, space, l)
    return ssep_selfduality(space, params, l)


def _perturbed(l, row, col, by):
    """l with the rate row -> col raised by `by` (row sum kept at zero)."""
    m = np.array(l.entries)
    m[row, col] += by
    m[row, row] -= by
    return RateMatrix.from_entries(m)


class TestTwoSiteCertificate:
    """The product dualities' residual is a two-site bound on the dense max|L D - D L^T|."""

    @given(
        st.sampled_from(CERTIFICATE_SHAPES),
        st.booleans(),
        st.sampled_from(["one table", "table per site", "exact family"]),
        st.integers(0, 2**32 - 1),
    )
    def test_bounds_dense_residual(self, shape, scalar_rates, tables, seed):
        kind, v, g = shape
        rng = np.random.default_rng(seed)
        p = float(rng.uniform(0.1, 3.0)) if scalar_rates else (lambda a: a + a.T)(rng.random((v, v)))
        space, l = _exclusion(kind, v, g, p)
        if tables == "exact family":
            d = _exact_family_duality(space, l, SingleSiteDualityParams(*rng.uniform(0.5, 1.5, 2), 0.0, 1.0, g))
        else:
            count = 1 if tables == "one table" else space.n_sites
            factors = [rng.standard_normal((space.radix, space.radix)) for _ in range(count)]
            d = _product_duality(l, space, factors * (space.n_sites // count))
        lm, dm = np.abs(l.entries), np.abs(d.matrix)
        # rounding of the dense evaluation: k products per entry of L D and of D L^T, then a difference
        k = int(np.max(np.count_nonzero(l.entries, axis=1)))
        allowance = (k + 1) * EPS * np.max(lm @ dm + dm @ lm.T)
        assert residual(l, l, d.matrix) <= d.residual + allowance

    @pytest.mark.parametrize("kind,v,g", [("sep", 3, 2), ("ladder", 2, 2)])
    def test_exact_duality_certified_to_rounding(self, kind, v, g):
        space, l = _exclusion(kind, v, g, np.array([[0.0, 0.7, 1.1], [0.4, 0.0, 0.2], [0.9, 1.3, 0.0]])[:v, :v])
        d = _exact_family_duality(space, l, SingleSiteDualityParams(0.6, 0.9, 0.0, 1.0, g))
        assert d.residual < 1e-12
        assert d.pair[0] is l and d.pair[1] is l

    def _assert_push_rejects(self, d, l):
        assert d.residual > DEFAULTS.residual
        assert residual(l, l, d.matrix) <= d.residual * (1 + 1e-12)
        identity = IntertwiningOperator.from_matrix(np.eye(l.n))
        with pytest.raises(PreconditionFailedError, match="duality residual"):
            push_duality(d, identity, l, l, l)

    def _sep_family(self):
        space, l = _exclusion("sep", 3, 2, 1.0)
        return space, l, single_site_duality(SingleSiteDualityParams(0.6, 0.9, 0.0, 1.0, 2))

    def test_mutated_table_entry(self):
        space, l, table = self._sep_family()
        mutated = table.copy()
        mutated[1, 2] += 1e-6
        self._assert_push_rejects(factorized_duality([table, mutated, table], space, l), l)

    def test_mutated_rate(self):
        space, l, table = self._sep_family()
        one_hop = space.index([1, 1, 0])  # a particle hops from the second site to the third
        l = _perturbed(l, space.index([1, 2, 0]), one_hop, 1e-6)
        self._assert_push_rejects(factorized_duality([table] * 3, space, l), l)

    def test_mutated_entry_outside_hop_pattern(self):
        space, l, table = self._sep_family()
        l = _perturbed(l, space.index([2, 0, 0]), space.index([0, 1, 1]), 1e-6)  # two particles move at once
        self._assert_push_rejects(factorized_duality([table] * 3, space, l), l)

    def test_generator_shape_checked(self):
        space, l, table = self._sep_family()
        with pytest.raises(ShapeMismatchError):
            factorized_duality([table] * 3, space, sep_generator(ConfigurationSpace.sep(2, 2)))


class TestReflectedAbsorbedRW:
    def test_n3_eigenvalues(self):
        rw = rw_reflected_absorbed(3)
        expected = [0.0, 2 * (np.cos(np.pi / 4) - 1), 2 * (np.cos(3 * np.pi / 4) - 1)]
        npt.assert_allclose(sorted(rw.lambdas), sorted(expected), atol=1e-14)

    @pytest.mark.parametrize("n", [3, 8, 20])
    def test_analytic_matches_numeric_spectrum(self, n):
        rw = rw_reflected_absorbed(n)
        numeric = np.sort(decompose(rw.l).eigenvalues.real)
        npt.assert_allclose(np.sort(rw.lambdas), numeric, atol=1e-8)

    def test_boundary_rows(self):
        rw = rw_reflected_absorbed(5)
        entries = np.asarray(rw.l.entries)
        npt.assert_array_equal(entries[0], [-2.0, 2.0, 0.0, 0.0, 0.0])
        npt.assert_array_equal(entries[4], np.zeros(5))
        hat = np.asarray(rw.lhat.entries)
        npt.assert_array_equal(hat[0], np.zeros(5))
        npt.assert_array_equal(hat[4], [0.0, 0.0, 0.0, 2.0, -2.0])

    def test_duality_families(self, rng):
        rw = rw_reflected_absorbed(8)
        a = rng.standard_normal(8)
        for lhat, l, uh, u in (
            (rw.l, rw.l, rw.u, rw.u),
            (rw.lhat, rw.lhat, rw.uhat, rw.uhat),
            (rw.lhat, rw.l, rw.uhat, rw.u),
        ):
            assert chain_duality(lhat, l, list(uh.T), list(u.T), a).residual < 1e-10

    @pytest.mark.parametrize("n", [3, 6])
    def test_duality_space_dimension(self, n):
        rw = rw_reflected_absorbed(n)
        assert solve_duality_space(rw.lhat, rw.l).dimension == n


class TestBlockedAbsorbedRW:
    def test_spectra_and_monotonicity(self):
        rw = rw_blocked_absorbed(8)
        assert rw.pair.monotone
        numeric = np.sort(decompose(rw.pair.lhat).eigenvalues.real)
        npt.assert_allclose(np.sort(rw.lambdas), numeric, atol=1e-8)

    def test_blocked_matrix_symmetric(self):
        rw = rw_blocked_absorbed(6)
        hat = np.asarray(rw.pair.lhat.entries)
        npt.assert_array_equal(hat, hat.T)
        # hence eigenfunctions of both lhat and lhat^T
        for i in range(6):
            defect = hat.T @ rw.uhat[:, i] - rw.lambdas[i] * rw.uhat[:, i]
            assert np.max(np.abs(defect)) < 1e-10

    def test_eigen_residuals(self):
        rw = rw_blocked_absorbed(10)
        assert rw.u is rw.spectral.U  # the transported basis is stored once
        assert rw.spectral.residual < 1e-9
        assert rw.spectral_hat.residual < 1e-9
        # the real analytic bases are stored once, as read-only float64 arrays shared with the walk
        for sd, basis in ((rw.spectral, rw.u), (rw.spectral_hat, rw.uhat)):
            assert sd.U.dtype == sd.Uinv.dtype == np.float64
            assert not sd.U.flags.writeable and not sd.Uinv.flags.writeable
            assert np.shares_memory(sd.U, basis)
        assert np.shares_memory(rw.spectral_hat.Uinv, rw.uhat)

    def test_general_duality_form(self, rng):
        rw = rw_blocked_absorbed(7)
        a = rng.standard_normal(7)
        d = sum(a[i] * np.outer(rw.uhat[:, i], rw.u[:, i]) for i in range(7))
        assert residual(rw.pair.lhat, rw.pair.l, d) < 1e-10

    def test_counting_orthonormality(self):
        rw = rw_blocked_absorbed(9)
        npt.assert_allclose(rw.uhat.T @ rw.uhat, np.eye(9), atol=1e-10)

    @pytest.mark.parametrize("n", [2, 3, 50, 600])
    def test_closed_form_inverses_match_numerical(self, n):
        rw = rw_blocked_absorbed(n)
        for sd in (rw.spectral, rw.spectral_hat):
            npt.assert_allclose(sd.Uinv, np.linalg.inv(sd.U), rtol=0, atol=1e-11)
            assert np.max(np.abs(sd.Uinv @ sd.U - np.eye(n))) <= 1e-11

    def test_known_inverse_rows_follow_the_column_order(self, rng):
        rw = rw_blocked_absorbed(7)
        perm = rng.permutation(7)
        u, lams = rw.u[:, perm], rw.lambdas[perm]
        given_inverse = spectral_from_eigenbasis(rw.pair.l, lams, u, uinv=np.linalg.inv(u))
        inverted = spectral_from_eigenbasis(rw.pair.l, lams, u)
        npt.assert_array_equal(given_inverse.U, inverted.U)
        npt.assert_allclose(given_inverse.Uinv, inverted.Uinv, atol=1e-12)

    def test_wrong_known_inverse_fails_the_gate(self):
        rw = rw_blocked_absorbed(5)
        with pytest.raises(DecompositionFailedError):
            spectral_from_eigenbasis(rw.pair.l, rw.lambdas, rw.u, uinv=rw.u.T)

    def test_singular_basis_fails_the_gate(self):
        # a zero column leaves LU an exactly zero pivot: the gate's error, not numpy's LinAlgError
        rw = rw_blocked_absorbed(5)
        u = np.array(rw.u)
        u[:, 2] = 0.0
        with pytest.raises(DecompositionFailedError, match="singular"):
            spectral_from_eigenbasis(rw.pair.l, rw.lambdas, u)


# every (V, gamma) the suite builds, plus the larger sizes of a benchmark round
SEP_SIZES = [(1, 1), (1, 2), (2, 0), (2, 1), (2, 2), (2, 3), (2, 4), (3, 0), (3, 1), (3, 2), (3, 3), (6, 2), (3, 8)]
LADDER_SIZES = [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (2, 5)]


def _rate_arguments(m: int, rng) -> dict:
    """Scalar, symmetric, asymmetric, zero-pattern and callable rates on m vertices."""
    sym = rng.uniform(0.5, 2.0, (m, m))
    return {
        "scalar": 0.7,
        "symmetric": sym + sym.T,
        "asymmetric": rng.uniform(0.0, 2.0, (m, m)),
        "zero-pattern": 1.5 * np.eye(m, k=1),
        "callable": lambda x, y: 1.0 + 0.5 * x - 0.25 * y if abs(x - y) == 1 else 0.0,
    }


class TestReferenceRoutes:
    """The vectorized builders against the per-configuration loops in conftest."""

    @pytest.mark.parametrize("vertices,gamma", SEP_SIZES)
    def test_sep_generator_matches_loops(self, vertices, gamma, rng):
        space = ConfigurationSpace.sep(vertices, gamma)
        for name, p in _rate_arguments(vertices, rng).items():
            npt.assert_array_equal(sep_generator(space, p).entries, sep_generator_loops(space, p), err_msg=name)

    @pytest.mark.parametrize("vertices,gamma", LADDER_SIZES)
    def test_ladder_generator_matches_loops(self, vertices, gamma, rng):
        space = ConfigurationSpace.ladder(vertices, gamma)
        for name, p in _rate_arguments(vertices, rng).items():
            npt.assert_array_equal(
                ladder_sep_generator(space, p).entries, ladder_sep_generator_loops(space, p), err_msg=name
            )

    @pytest.mark.parametrize("vertices,gamma", [(2, 1), (3, 2), (2, 4), (4, 1)])
    def test_factorized_duality_matches_gather(self, vertices, gamma, rng):
        # distinct, non-symmetric tables of ranks 1, 2, ...: a reversed or transposed
        # Kronecker order changes D, and D's rank is the product of the table ranks
        space = ConfigurationSpace.sep(vertices, gamma)
        ranks = [1 + x % (gamma + 1) for x in range(vertices)]
        tables = [rng.standard_normal((gamma + 1, r)) @ rng.standard_normal((r, gamma + 1)) for r in ranks]
        d = factorized_duality(tables, space, sep_generator(space, 1.0))
        npt.assert_array_equal(d.matrix, gather_product_duality(tables, space))
        assert d.rank == numerical_rank(d.matrix) == int(np.prod(ranks))

    @pytest.mark.parametrize("name,alpha,beta,eps,delta", FAMILIES)
    def test_ssep_selfduality_matches_gather(self, name, alpha, beta, eps, delta):
        space = ConfigurationSpace.ladder(2, 2)
        site = np.array([[(alpha + beta * e) ** (eps + delta * x) for e in (0, 1)] for x in (0, 1)])
        d = ssep_selfduality(space, SingleSiteDualityParams(alpha, beta, eps, delta, 2), ladder_sep_generator(space))
        npt.assert_array_equal(d.matrix, gather_product_duality([site] * 4, space))

    @pytest.mark.parametrize("gamma", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("name,alpha,beta,eps,delta", FAMILIES)
    def test_product_rank_equals_dense_rank(self, name, alpha, beta, eps, delta, gamma):
        params = SingleSiteDualityParams(alpha, beta, eps, delta, gamma)
        sep = ConfigurationSpace.sep(3 if gamma <= 5 else 2, gamma)
        d = factorized_duality([single_site_duality(params)] * sep.n_vertices, sep, sep_generator(sep))
        assert d.rank == numerical_rank(d.matrix)
        ladder = ConfigurationSpace.ladder(2 if gamma <= 4 else 1, gamma)
        d = ssep_selfduality(ladder, params, ladder_sep_generator(ladder))
        assert d.rank == numerical_rank(d.matrix)

    @pytest.mark.parametrize("gamma", range(1, 9))
    def test_bracket_sum_matches_all_patterns(self, gamma):
        # bit for bit: the same rung patterns summed in the same order, DomainError on the same inputs
        def outcome(fn, *args):
            try:
                return fn(*args).hex()
            except DomainError:
                return "DomainError"

        bases = [(a, b, d) for _, a, b, _, d in FAMILIES + FAMILY_EDGES] + [(1.3, 0.7, 2.0), (0.4, -1.1, 0.5)]
        for (alpha, beta, delta), k, n in itertools.product(bases, range(gamma + 1), range(gamma + 1)):
            args = (k, n, gamma, alpha, beta, delta)
            assert outcome(ladder_bracket_sum, *args) == outcome(ladder_bracket_sum_all_patterns, *args), args

    @pytest.mark.parametrize("n", [2, 3, 8, 20, 50, 200, 600])
    def test_walks_match_loops(self, n):
        l, lhat, u, uhat = rw_reflected_absorbed_loops(n)
        rw = rw_reflected_absorbed(n)
        for got, want in ((rw.l.entries, l), (rw.lhat.entries, lhat), (rw.u, u), (rw.uhat, uhat)):
            npt.assert_array_equal(got, want)
        lhat, u, uhat = rw_blocked_absorbed_loops(n)
        rw = rw_blocked_absorbed(n)
        for got, want in ((rw.pair.lhat.entries, lhat), (rw.u, u), (rw.uhat, uhat)):
            npt.assert_array_equal(got, want)
