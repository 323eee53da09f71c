import itertools

import numpy as np
import numpy.testing as npt
import pytest

from markovdual import (
    ConfigurationSpace,
    IntertwiningOperator,
    RateMatrix,
    SingleSiteDualityParams,
    factorized_duality,
    intertwining_residual,
    inverse_intertwiner,
    ladder_projection,
    ladder_sep_generator,
    lumping_operator,
    make_duality,
    push_duality,
    push_duality_left,
    sep_generator,
    single_site_duality,
    solve_duality_space,
    ssep_selfduality,
)
from markovdual import intertwining
from markovdual.duality import residual as duality_residual
from markovdual.errors import PreconditionFailedError, ShapeMismatchError
from markovdual.serialize import duality_from_json, duality_to_json

from conftest import inverse_intertwiner_loops, ladder_projection_loops, random_generator

REFERENCE_SIZES = [(v, g) for v in (1, 2, 3) for g in (1, 2, 3)] + [(2, 4), (2, 5), (4, 2)]


def sep_setup(gamma, m=2, p=1.0):
    sep_space = ConfigurationSpace.sep(m, gamma)
    ladder_space = ConfigurationSpace.ladder(m, gamma)
    return (
        sep_space,
        ladder_space,
        sep_generator(sep_space, p),
        ladder_sep_generator(ladder_space, p),
    )


def lumpable_lift(rng, small: RateMatrix, copies: int):
    """Random generator on `copies` states per state of `small` that lumps onto it, and its projection.

    Each row spreads small's rate into every other block over that block's
    states with random weights; rates inside a block are arbitrary.
    """
    k = small.n
    entries = np.asarray(small.entries)
    pi = np.repeat(np.arange(k), copies)
    big = np.zeros((k * copies, k * copies))
    for row, a in enumerate(pi):
        for b in range(k):
            w = rng.random(copies)
            big[row, b * copies : (b + 1) * copies] = (rng.random() if a == b else entries[a, b]) * w / w.sum()
    np.fill_diagonal(big, 0.0)
    np.fill_diagonal(big, -big.sum(axis=1))
    return RateMatrix.from_entries(big), pi


class TestResidual:
    def test_identity_operator(self, rng):
        l = random_generator(rng, 5)
        op = IntertwiningOperator.from_matrix(np.eye(5))
        assert intertwining_residual(l, l, op) == 0.0

    @pytest.mark.parametrize("gamma", [1, 2, 3])
    def test_lumping_exact(self, gamma):
        sep_space, ladder_space, l_sep, l_ladder = sep_setup(gamma)
        lam = lumping_operator(ladder_projection(ladder_space, sep_space), sep_space.size)
        assert intertwining_residual(l_ladder, l_sep, lam) == 0.0

    @pytest.mark.parametrize("gamma", [1, 2, 3])
    def test_inverse_exact(self, gamma):
        # gamma=3 weights 1/3 are inexact binary floats, hence the tiny slack
        sep_space, ladder_space, l_sep, l_ladder = sep_setup(gamma)
        inv = inverse_intertwiner(sep_space, ladder_space)
        assert intertwining_residual(l_sep, l_ladder, inv) < 1e-13

    def test_shape_mismatch(self, rng):
        l = random_generator(rng, 4)
        with pytest.raises(ShapeMismatchError):
            intertwining_residual(l, l, IntertwiningOperator.from_matrix(np.ones((3, 4))))


class TestLumping:
    def test_identity_projection(self):
        op = lumping_operator([0, 1, 2], 3)
        npt.assert_array_equal(op.matrix, np.eye(3))
        assert op.stochastic

    def test_constant_projection(self):
        op = lumping_operator([0, 0, 0, 0], 1)
        npt.assert_array_equal(op.matrix, np.ones((4, 1)))

    def test_ladder_projection_is_occupancy_map(self):
        sep_space = ConfigurationSpace.sep(2, 2)
        ladder_space = ConfigurationSpace.ladder(2, 2)
        pi = ladder_projection(ladder_space, sep_space)
        sep_digits = sep_space.digits()
        for tilde, target in zip(ladder_space.digits(), pi):
            npt.assert_array_equal(sep_digits[target], ladder_space.occupancy(tilde))

    @pytest.mark.parametrize("vertices,gamma", REFERENCE_SIZES)
    def test_ladder_projection_matches_loops(self, vertices, gamma):
        sep_space = ConfigurationSpace.sep(vertices, gamma)
        ladder_space = ConfigurationSpace.ladder(vertices, gamma)
        pi = ladder_projection(ladder_space, sep_space)
        npt.assert_array_equal(pi, ladder_projection_loops(ladder_space, sep_space), strict=True)
        npt.assert_array_equal(
            lumping_operator(pi, sep_space.size).matrix,
            lumping_operator(ladder_projection_loops(ladder_space, sep_space), sep_space.size).matrix,
        )

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="projection value 5"):
            lumping_operator([0, 5], 2)
        with pytest.raises(ValueError, match="projection value -1"):
            lumping_operator(np.array([1, -1, 7]), 2)

    def test_int_array_projection(self):
        op = lumping_operator(np.array([2, 0, 1, 0]), 3)
        npt.assert_array_equal(op.matrix, np.eye(3)[[2, 0, 1, 0]])
        assert op.stochastic


class TestInverse:
    def test_v1_gamma1_identity(self):
        sep_space = ConfigurationSpace.sep(1, 1)
        inv = inverse_intertwiner(sep_space)
        npt.assert_array_equal(inv.matrix, np.eye(2))
        assert inv.stochastic

    def test_v1_gamma2_uniform_weights(self):
        sep_space = ConfigurationSpace.sep(1, 2)
        ladder_space = ConfigurationSpace.ladder(1, 2)
        inv = inverse_intertwiner(sep_space, ladder_space)
        row = inv.matrix[sep_space.index((1,))]
        # configurations (0,1) and (1,0) each get weight 1/2
        expected = {(0, 1): 0.5, (1, 0): 0.5, (0, 0): 0.0, (1, 1): 0.0}
        for config, weight in expected.items():
            assert row[ladder_space.index(config)] == pytest.approx(weight)

    @pytest.mark.parametrize("gamma", [1, 2, 3])
    def test_row_sums_exactly_one(self, gamma):
        sep_space, ladder_space, _, _ = sep_setup(gamma)
        inv = inverse_intertwiner(sep_space, ladder_space)
        npt.assert_array_equal(inv.matrix.sum(axis=1), np.ones(sep_space.size))
        assert inv.stochastic

    @pytest.mark.parametrize("gamma", [1, 2, 3])
    def test_inverse_after_lumping_is_identity(self, gamma):
        sep_space, ladder_space, _, _ = sep_setup(gamma)
        lam = lumping_operator(ladder_projection(ladder_space, sep_space), sep_space.size)
        inv = inverse_intertwiner(sep_space, ladder_space)
        npt.assert_allclose(
            np.asarray(inv.matrix) @ np.asarray(lam.matrix),
            np.eye(sep_space.size),
            atol=1e-14,
        )

    @pytest.mark.parametrize("vertices,gamma", REFERENCE_SIZES)
    def test_matches_loops(self, vertices, gamma):
        sep_space = ConfigurationSpace.sep(vertices, gamma)
        ladder_space = ConfigurationSpace.ladder(vertices, gamma)
        expected = inverse_intertwiner_loops(sep_space, ladder_space)
        npt.assert_array_equal(inverse_intertwiner(sep_space, ladder_space).matrix, expected)
        npt.assert_array_equal(inverse_intertwiner(sep_space).matrix, expected)

    def test_wrong_space_kind_rejected(self):
        ladder_space = ConfigurationSpace.ladder(1, 2)
        with pytest.raises(ValueError):
            inverse_intertwiner(ladder_space)

    @pytest.mark.parametrize(
        "ladder_space",
        [ConfigurationSpace.ladder(2, 1), ConfigurationSpace.ladder(3, 2), ConfigurationSpace.ladder(("a", "b"), 2), ConfigurationSpace.sep(2, 2)],
    )
    def test_mismatched_ladder_rejected(self, ladder_space):
        with pytest.raises(ValueError, match="does not match"):
            inverse_intertwiner(ConfigurationSpace.sep(2, 2), ladder_space)


class TestPush:
    def test_identity_push_is_noop(self, rng):
        l = random_generator(rng, 4)
        mu_d = make_duality(l, l, np.ones((4, 4)))
        op = IntertwiningOperator.from_matrix(np.eye(4))
        out = push_duality(mu_d, op, l, l, l)
        npt.assert_array_equal(out.matrix, mu_d.matrix)

    def test_ssep_through_inverse(self):
        gamma = 2
        sep_space, ladder_space, l_sep, l_ladder = sep_setup(gamma)
        params = SingleSiteDualityParams(1.0, 1.0, 0.0, 1.0, gamma)
        d_tilde = ssep_selfduality(ladder_space, params, l_ladder)
        inv = inverse_intertwiner(sep_space, ladder_space)
        pushed = push_duality(d_tilde, inv, l_sep, l_ladder, l_ladder)
        assert pushed.residual < 1e-12
        assert pushed.matrix.shape == (ladder_space.size, sep_space.size)

    def test_double_push_equals_factorized(self):
        gamma = 2
        sep_space, ladder_space, l_sep, l_ladder = sep_setup(gamma)
        params = SingleSiteDualityParams(1.0, 1.0, 0.0, 1.0, gamma)
        d_tilde = ssep_selfduality(ladder_space, params, l_ladder)
        inv = inverse_intertwiner(sep_space, ladder_space)
        pushed = push_duality(d_tilde, inv, l_sep, l_ladder, l_ladder)
        both = push_duality_left(pushed, inv, l_sep, l_ladder, l_sep)
        table = single_site_duality(params)
        direct = factorized_duality([table, table], sep_space, l_sep)
        npt.assert_allclose(both.matrix, direct.matrix, atol=1e-12)

    def test_sep_selfduality_through_lumping(self):
        # the mirrored direction: a SEP self-duality pushed up to the ladder
        gamma = 2
        sep_space, ladder_space, l_sep, l_ladder = sep_setup(gamma)
        params = SingleSiteDualityParams(0.0, 1.0, 0.0, 1.0, gamma)
        table = single_site_duality(params)
        d = factorized_duality([table, table], sep_space, l_sep)
        lam = lumping_operator(ladder_projection(ladder_space, sep_space), sep_space.size)
        pushed = push_duality(d, lam, l_ladder, l_sep, l_sep)
        assert pushed.residual < 1e-12
        assert pushed.matrix.shape == (sep_space.size, ladder_space.size)

    @pytest.fixture
    def dense_residual_calls(self, monkeypatch):
        calls = []

        def counted(lhat, l, d):
            calls.append((lhat, l))
            return duality_residual(lhat, l, d)

        monkeypatch.setattr(intertwining, "duality_residual", counted)
        return calls

    def test_recorded_pair_skips_dense_residual(self, dense_residual_calls):
        sep_space, ladder_space, l_sep, l_ladder = sep_setup(2)
        d_tilde = ssep_selfduality(ladder_space, SingleSiteDualityParams(1.0, 1.0, 0.0, 1.0, 2), l_ladder)
        inv = inverse_intertwiner(sep_space, ladder_space)
        pushed = push_duality(d_tilde, inv, l_sep, l_ladder, l_ladder)
        assert pushed.pair[0] is l_ladder and pushed.pair[1] is l_sep
        both = push_duality_left(pushed, inv, l_sep, l_ladder, l_sep)
        assert dense_residual_calls == []
        assert both.pair[0] is l_sep and both.pair[1] is l_sep

    def test_equal_but_different_generator_takes_dense_residual(self, dense_residual_calls):
        sep_space, ladder_space, l_sep, l_ladder = sep_setup(2)
        d_tilde = ssep_selfduality(ladder_space, SingleSiteDualityParams(1.0, 1.0, 0.0, 1.0, 2), l_ladder)
        twin = RateMatrix.from_entries(l_ladder.entries)
        push_duality(d_tilde, inverse_intertwiner(sep_space, ladder_space), l_sep, twin, twin)
        assert dense_residual_calls == [(twin, twin)]

    def test_deserialized_duality_takes_dense_residual(self, dense_residual_calls):
        sep_space, ladder_space, l_sep, l_ladder = sep_setup(1)
        d_tilde = ssep_selfduality(ladder_space, SingleSiteDualityParams(1.0, 1.0, 0.0, 1.0, 1), l_ladder)
        loaded = duality_from_json(duality_to_json(d_tilde))
        assert loaded.pair is None
        push_duality(loaded, inverse_intertwiner(sep_space, ladder_space), l_sep, l_ladder, l_ladder)
        assert len(dense_residual_calls) == 1

    def test_broken_intertwiner_rejected(self):
        gamma = 2
        sep_space, ladder_space, l_sep, l_ladder = sep_setup(gamma)
        params = SingleSiteDualityParams(1.0, 1.0, 0.0, 1.0, gamma)
        d_tilde = ssep_selfduality(ladder_space, params, l_ladder)
        inv = inverse_intertwiner(sep_space, ladder_space)
        perturbed = np.array(inv.matrix)
        perturbed[0, 1] += 0.1  # a single off-pattern entry breaks the relation
        noisy = IntertwiningOperator.from_matrix(perturbed)
        with pytest.raises(PreconditionFailedError):
            push_duality(d_tilde, noisy, l_sep, l_ladder, l_ladder)

    def test_residual_bound_on_inexact_input(self):
        # pushing an inexact duality keeps the defect within
        # ||Lam||_inf * eps_dual + eps_intertwine * ||D||_inf
        gamma = 2
        sep_space, ladder_space, l_sep, l_ladder = sep_setup(gamma)
        params = SingleSiteDualityParams(1.0, 1.0, 0.0, 1.0, gamma)
        exact = ssep_selfduality(ladder_space, params, l_ladder)
        rng = np.random.default_rng(0)
        noisy_matrix = np.asarray(exact.matrix) + 1e-11 * rng.standard_normal(exact.matrix.shape)
        noisy = make_duality(l_ladder, l_ladder, noisy_matrix)
        assert 0.0 < noisy.residual < 1e-9
        inv = inverse_intertwiner(sep_space, ladder_space)
        pushed = push_duality(noisy, inv, l_sep, l_ladder, l_ladder, tol=1e-9)
        # defect algebra: Lhat D Lam^T - D Lam^T Ltilde^T = E Lam^T - D F^T
        op_norm = np.max(np.abs(np.asarray(inv.matrix)).sum(axis=1))
        f = np.asarray(l_sep.entries) @ np.asarray(inv.matrix) - np.asarray(inv.matrix) @ np.asarray(l_ladder.entries)
        bound = op_norm * noisy.residual + np.max(np.abs(noisy_matrix)) * np.max(np.abs(f).sum(axis=1))
        assert pushed.residual <= bound * (1.0 + 1e-9) + 1e-15
        assert pushed.residual < 1e-9

    def test_non_duality_rejected(self):
        # the lumping operator intertwines the other way round, so the ladder
        # self-duality fails the duality precondition against (ladder, sep)
        gamma = 1
        sep_space, ladder_space, l_sep, l_ladder = sep_setup(gamma, m=3)
        params = SingleSiteDualityParams(0.0, 1.0, 0.0, 1.0, gamma)
        d_tilde = ssep_selfduality(ladder_space, params, l_ladder)
        lam = lumping_operator(ladder_projection(ladder_space, sep_space), sep_space.size)
        bad = make_duality(l_ladder, l_sep, np.asarray(d_tilde.matrix) @ np.asarray(lam.matrix) + 1.0e-2 * np.arange(sep_space.size))
        with pytest.raises(PreconditionFailedError):
            push_duality(bad, lam, l_ladder, l_sep, l_ladder)

    def _double_push_setup(self):
        gamma = 2
        sep_space, ladder_space, l_sep, l_ladder = sep_setup(gamma)
        params = SingleSiteDualityParams(1.0, 1.0, 0.0, 1.0, gamma)
        d_tilde = ssep_selfduality(ladder_space, params, l_ladder)
        inv = inverse_intertwiner(sep_space, ladder_space)
        return push_duality(d_tilde, inv, l_sep, l_ladder, l_ladder), inv, l_sep, l_ladder

    def test_left_push_rejects_broken_intertwiner(self):
        pushed, inv, l_sep, l_ladder = self._double_push_setup()
        perturbed = np.array(inv.matrix)
        perturbed[0, 1] += 0.1
        noisy = IntertwiningOperator.from_matrix(perturbed)
        with pytest.raises(PreconditionFailedError, match="intertwining residual"):
            push_duality_left(pushed, noisy, l_sep, l_ladder, l_sep)

    def test_left_push_rejects_non_duality(self):
        pushed, inv, l_sep, l_ladder = self._double_push_setup()
        bad = make_duality(l_ladder, l_sep, np.asarray(pushed.matrix) + 1.0e-2 * np.arange(l_sep.n))
        assert bad.residual > 1e-9
        with pytest.raises(PreconditionFailedError, match="duality residual"):
            push_duality_left(bad, inv, l_sep, l_ladder, l_sep)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("kind", ["identity", "lumping"])
    def test_left_push_is_operator_times_duality(self, kind, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        lhat = random_generator(rng, n)
        perm = np.eye(n)[rng.permutation(n)]
        l = RateMatrix.from_entries(perm @ np.asarray(lhat.entries) @ perm.T)
        basis = solve_duality_space(lhat, l).basis
        d = make_duality(lhat, l, sum(c * b for c, b in zip(rng.standard_normal(len(basis)), basis)))
        if kind == "identity":
            ltilde, op = lhat, IntertwiningOperator.from_matrix(np.eye(n))
        else:
            ltilde, pi = lumpable_lift(rng, lhat, int(rng.integers(2, 4)))
            op = lumping_operator(pi, n)
        out = push_duality_left(d, op, ltilde, lhat, l)
        expected = np.asarray(op.matrix) @ np.asarray(d.matrix)
        assert np.max(np.abs(out.matrix - expected)) <= 1e-12 * np.max(np.abs(expected))
        assert out.residual < 1e-9


class TestProofIdentities:
    @pytest.mark.parametrize("gamma", [1, 2, 3])
    def test_counting_identity(self, gamma):
        # for every compatible ladder configuration, pairwise products count
        # particle-hole pairs exactly
        ladder_space = ConfigurationSpace.ladder(2, gamma)
        for tilde in ladder_space.digits():
            eta = ladder_space.occupancy(tilde)
            for x, y in ((0, 1), (1, 0)):
                total = sum(
                    tilde[x * gamma + a] * (1 - tilde[y * gamma + b])
                    for a in range(gamma)
                    for b in range(gamma)
                )
                assert total == eta[x] * (gamma - eta[y])

    @pytest.mark.parametrize("gamma", [1, 2, 3])
    def test_transfer_identity(self, gamma):
        sep_space = ConfigurationSpace.sep(2, gamma)
        ladder_space = ConfigurationSpace.ladder(2, gamma)
        x, y = 0, 1
        ladder_configs = [tuple(t) for t in ladder_space.digits()]
        occupancies = [tuple(ladder_space.occupancy(t)) for t in ladder_configs]
        for eta in sep_space.digits():
            eta = tuple(eta)
            if eta[x] < 1 or eta[y] >= gamma:
                continue
            moved = list(eta)
            moved[x] -= 1
            moved[y] += 1
            targets = [t for t, occ in zip(ladder_configs, occupancies) if occ == tuple(moved)]
            for target in targets:
                count = 0
                for tilde, occ in zip(ladder_configs, occupancies):
                    if occ != eta:
                        continue
                    for a in range(gamma):
                        for b in range(gamma):
                            if tilde[x * gamma + a] and not tilde[y * gamma + b]:
                                nxt = list(tilde)
                                nxt[x * gamma + a], nxt[y * gamma + b] = 0, 1
                                if tuple(nxt) == target:
                                    count += 1
                assert count == (eta[y] + 1) * (gamma - eta[x] + 1)
