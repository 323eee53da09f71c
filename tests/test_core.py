import warnings

import numpy as np
import numpy.testing as npt
import pytest
import scipy.sparse
import scipy.sparse.csgraph
from scipy.linalg.lapack import dgesv
from hypothesis import given
from hypothesis import strategies as st

from markovdual import (
    MatrixKind,
    Measure,
    RateMatrix,
    StateSpace,
    adjoint,
    check_detailed_balance,
    classify_matrix,
    generator,
    is_irreducible,
    stationary_measure,
)
from markovdual import core
from markovdual.errors import NoPositiveSolutionError, NotIrreducibleError, ShapeMismatchError
from markovdual.scenarios import cyclic_generator

from conftest import random_birth_death, random_generator


def absorbed_rw(n):
    """Absorbed walk with a unit leak at the top boundary."""
    m = np.zeros((n, n))
    for x in range(1, n - 1):
        m[x, x - 1] = m[x, x + 1] = 1.0
        m[x, x] = -2.0
    m[n - 1, n - 2], m[n - 1, n - 1] = 1.0, -2.0
    return m


def blocked_rw(n):
    m = np.zeros((n, n))
    for x in range(1, n - 1):
        m[x, x - 1] = m[x, x + 1] = 1.0
        m[x, x] = -2.0
    m[0, 0], m[0, 1] = -1.0, 1.0
    m[n - 1, n - 2], m[n - 1, n - 1] = 1.0, -1.0
    return m


class TestClassify:
    def test_cyclic_is_generator(self):
        assert classify_matrix(cyclic_generator().entries) is MatrixKind.GENERATOR

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_zero_matrix_is_generator(self, n):
        assert classify_matrix(np.zeros((n, n))) is MatrixKind.GENERATOR

    def test_absorbed_rw_is_subgenerator(self):
        assert classify_matrix(absorbed_rw(5)) is MatrixKind.SUB_GENERATOR

    def test_negative_offdiagonal_invalid(self):
        assert classify_matrix([[-1.0, -0.5], [1.0, -1.0]]) is MatrixKind.INVALID

    def test_positive_row_sum_invalid(self):
        assert classify_matrix([[1.0, 1.0], [1.0, -1.0]]) is MatrixKind.INVALID

    def test_nonsquare_raises(self):
        with pytest.raises(ShapeMismatchError):
            classify_matrix(np.zeros((2, 3)))

    def test_overflowing_scale_is_invalid(self):
        # finite rates whose absolute row sum overflows give the thresholds no scale
        assert classify_matrix([[1e308, 1e308], [0.0, 0.0]]) is MatrixKind.INVALID

    def test_strict_generator_constructor(self):
        with pytest.raises(ValueError):
            generator(absorbed_rw(4))


class TestTypes:
    def test_state_space_requires_positive_size(self):
        with pytest.raises(ValueError):
            StateSpace(0)

    def test_labels_must_be_distinct(self):
        with pytest.raises(ValueError):
            StateSpace(2, ("a", "a"))

    def test_measure_must_be_positive(self):
        with pytest.raises(ValueError):
            Measure.from_weights([0.5, 0.0])

    def test_measure_normalized_flag(self):
        assert Measure.from_weights([0.25, 0.75]).normalized
        assert not Measure.from_weights([1.0, 2.0]).normalized

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weights_rejected(self, bad):
        with pytest.raises(ValueError, match=r"^measure weight \(0,\) is .*, not finite"):
            Measure.from_weights([bad, 1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_rejected(self, bad):
        entries = [[-1.0, 1.0], [bad, -1.0]]
        with pytest.raises(ValueError, match=r"entry \(1, 0\)"):
            RateMatrix.from_entries(entries)
        with pytest.raises(ValueError, match=r"entry \(1, 0\)"):
            RateMatrix(StateSpace(2), np.array(entries), MatrixKind.RAW)

    def test_rate_matrix_entries_read_only(self):
        l = cyclic_generator()
        with pytest.raises(ValueError):
            l.entries[0, 0] = 5.0


class TestStationary:
    def test_blocked_rw_uniform(self):
        n = 6
        mu = stationary_measure(generator(blocked_rw(n)))
        npt.assert_allclose(mu.weights, np.full(n, 1.0 / n), atol=1e-12)

    def test_cyclic_uniform(self):
        # column sums of the cyclic matrix vanish, so the kernel is uniform
        mu = stationary_measure(cyclic_generator())
        npt.assert_allclose(mu.weights, np.full(3, 1.0 / 3.0), atol=1e-12)

    def test_birth_death_product_formula(self):
        # up rates (2,3), down rates (1,1): detailed balance gives mu ~ (1, 2, 6)
        l = generator([[-2.0, 2.0, 0.0], [1.0, -4.0, 3.0], [0.0, 1.0, -1.0]])
        mu = stationary_measure(l)
        npt.assert_allclose(mu.weights, np.array([1.0, 2.0, 6.0]) / 9.0, atol=1e-12)
        assert np.max(np.abs(mu.weights @ np.asarray(l.entries))) < 1e-12

    def test_long_birth_death_product_formula(self):
        # detailed balance: mu(k+1) / mu(k) = up(k) / down(k), summed in logs
        l = random_birth_death(np.random.default_rng(0), 600)
        m = np.asarray(l.entries)
        logw = np.concatenate([[0.0], np.cumsum(np.log(np.diag(m, 1)) - np.log(np.diag(m, -1)))])
        w = np.exp(logw - logw.max())
        w /= w.sum()
        mu = stationary_measure(l)
        npt.assert_allclose(mu.weights, w, rtol=0.0, atol=1e-9 * w.max())

    def test_singular_solve_is_typed(self, monkeypatch):
        def singular(a, b, overwrite_a=0):  # dgesv's report of an exactly zero pivot U(2, 2)
            return a, np.arange(1, len(b) + 1, dtype=np.int32), b, 2

        monkeypatch.setattr(core, "dgesv", singular)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NoPositiveSolutionError, match="singular"):
                stationary_measure(cyclic_generator())

    def test_solve_factors_its_one_copy_in_place(self, monkeypatch):
        seen = []

        def recording(a, b, overwrite_a=0):
            result = dgesv(a, b, overwrite_a=overwrite_a)
            seen.append((a.flags.f_contiguous, np.shares_memory(result[0], a)))
            return result

        monkeypatch.setattr(core, "dgesv", recording)
        mu = stationary_measure(generator(blocked_rw(8)))
        npt.assert_allclose(mu.weights, np.full(8, 1.0 / 8.0), atol=1e-12)
        assert seen == [(True, True)]

    def test_reducible_raises(self):
        with pytest.raises(NotIrreducibleError):
            stationary_measure(generator([[-1.0, 1.0], [0.0, 0.0]]))

    def test_subgenerator_rejected(self):
        with pytest.raises(ValueError):
            stationary_measure(RateMatrix.from_entries(absorbed_rw(4)))

    @given(st.integers(0, 2**32 - 1), st.integers(2, 8))
    def test_random_generator_invariants(self, seed, n):
        l = random_generator(np.random.default_rng(seed), n)
        if not is_irreducible(l):
            return
        mu = stationary_measure(l)
        assert np.min(mu.weights) > 0
        assert np.max(np.abs(mu.weights @ np.asarray(l.entries))) < 1e-9


class TestComponents:
    """core._components against scipy.sparse.csgraph on the pattern of |m| + |m|^T."""

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), density=st.floats(0.0, 0.3))
    def test_against_csgraph(self, seed, n, density):
        rng = np.random.default_rng(seed)
        m = np.where(rng.random((n, n)) < density, rng.standard_normal((n, n)), 0.0)
        labels = core._components(m)
        count, reference = scipy.sparse.csgraph.connected_components(scipy.sparse.csr_matrix(m), directed=False)
        assert np.array_equal(labels[:, None] == labels, reference[:, None] == reference)
        assert len(np.unique(labels)) == count
        assert all(labels[i] == np.flatnonzero(labels == labels[i])[0] for i in range(n))  # the smallest state

    def test_exact_zeros_only(self):
        m = np.array([[0.0, 1e-300, 0.0], [0.0, -1e-300, 0.0], [0.0, 0.0, 5.0]])
        assert core._components(m).tolist() == [0, 0, 2]

    def test_one_direction_joins(self):
        assert core._components(absorbed_rw(6)).tolist() == [0] * 6  # state 0 has no outgoing rate

    def test_shuffled_chains(self, rng):
        # two long chains whose states are visited in random order: a label crosses many states per pass
        order = rng.permutation(300)
        m = np.zeros((300, 300))
        for chain in (order[:150], order[150:]):
            m[chain[:-1], chain[1:]] = 1.0
        expected = np.where(np.isin(np.arange(300), order[:150]), order[:150].min(), order[150:].min())
        assert np.array_equal(core._components(m), expected)


class TestDetailedBalance:
    def test_blocked_rw_reversible(self):
        l = generator(blocked_rw(5))
        assert check_detailed_balance(l, Measure.from_weights(np.full(5, 0.2)))

    def test_cyclic_not_reversible(self):
        assert not check_detailed_balance(cyclic_generator(), Measure.from_weights(np.full(3, 1 / 3)))

    def test_single_state(self):
        assert check_detailed_balance(generator([[0.0]]), Measure.from_weights([1.0]))


class TestAdjoint:
    def test_symmetric_self_adjoint(self):
        l = generator(blocked_rw(4))
        dag = adjoint(l, Measure.from_weights(np.full(4, 0.25)))
        npt.assert_allclose(dag.entries, l.entries)

    def test_cyclic_uniform_transpose(self):
        l = cyclic_generator()
        dag = adjoint(l, Measure.from_weights(np.full(3, 1 / 3)))
        npt.assert_allclose(dag.entries, np.asarray(l.entries).T)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 7))
    def test_involution(self, seed, n):
        rng = np.random.default_rng(seed)
        l = random_generator(rng, n)
        mu = Measure.from_weights(rng.uniform(0.2, 2.0, n))
        npt.assert_allclose(
            adjoint(adjoint(l, mu), mu).entries, l.entries, atol=1e-12, rtol=1e-12
        )

    def test_adjoint_of_generator_with_stationary_is_generator(self, rng):
        for _ in range(10):
            l = random_generator(rng, 5)
            dag = adjoint(l, stationary_measure(l))
            assert dag.kind is MatrixKind.GENERATOR
