import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import schur, subspace_angles

from markovdual import (
    ConfigurationSpace,
    DualityFunction,
    DualitySpace,
    Measure,
    RateMatrix,
    adjoint,
    build_from_spectra,
    chain_duality,
    cheap_duality,
    check_r_similar,
    compose_dualities,
    decompose,
    factor_check,
    generator,
    ladder_sep_generator,
    make_duality,
    match_jordan_blocks,
    max_duality_rank,
    orthogonal_selfduality,
    residual,
    reversible_eigenbasis,
    rw_blocked_absorbed,
    rw_reflected_absorbed,
    sep_generator,
    solve_duality_space,
    spectral_from_eigenbasis,
    stationary_measure,
)
from markovdual.config import DEFAULTS
from markovdual.core import StateSpace
from markovdual import duality as duality_module
from markovdual.duality import _validate_chains
from markovdual.errors import (
    ComplexResidueError,
    MarkovDualityError,
    NotChainError,
    NotEigenpairError,
    NotOrthonormalError,
    ShapeMismatchError,
)
from markovdual.linalg import EPS, max_abs
from markovdual.scenarios import cyclic_generator, jordan_block_generator

from conftest import (
    THREE_VERSUS_FIVE,
    build_from_spectra_loop,
    chain_duality_reference,
    complex_pair_duality_reference,
    direct_sum,
    jordan_assembled,
    kronecker_duality_space,
    max_duality_rank_loop,
    permuted,
    random_birth_death,
    random_generator,
    random_jordan_blocks,
    tensor_duality_reference,
    validate_eigenpairs_loop,
)

BIRTH_DEATH = [[-2.0, 2.0, 0.0], [1.0, -4.0, 3.0], [0.0, 1.0, -1.0]]


def complete_graph(n):
    return generator(np.ones((n, n)) - n * np.eye(n))


def columns(u) -> list:
    """The columns of an eigenfunction matrix as a list of 1-D eigenfunctions (chains of length 1)."""
    return list(np.asarray(u).T)


class TestResidual:
    def test_all_ones_trivial_duality(self, rng):
        lhat = random_generator(rng, 4)
        l = random_generator(rng, 6)
        assert residual(lhat, l, np.ones((4, 6))) < 1e-12

    def test_cheap_duality_against_adjoint_pair(self, rng):
        l = random_generator(rng, 5)
        mu = stationary_measure(l)
        d = cheap_duality(mu)
        assert residual(adjoint(l, mu), l, d.matrix) < 1e-12

    def test_identity_with_cyclic(self):
        # oracle: max |entry| of L - L^T computed by hand is 1
        l = cyclic_generator()
        assert residual(l, l, np.eye(3)) == pytest.approx(1.0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            residual(cyclic_generator(), cyclic_generator(), np.ones((2, 3)))


class TestDualityFunction:
    def test_writable_matrix_copied_and_frozen(self, rng):
        l = random_generator(rng, 3)
        m = np.ones((3, 3))
        d = make_duality(l, l, m)
        m[0, 0] = 5.0
        assert d.matrix[0, 0] == 1.0 and not d.matrix.flags.writeable
        assert d.pair[0] is l and d.pair[1] is l

    def test_read_only_float_matrix_kept(self):
        m = np.ones((2, 3))
        m.setflags(write=False)
        d = DualityFunction(StateSpace(2), StateSpace(3), m, 0.0, 1)
        assert d.matrix is m and d.pair is None


class TestSolveDualitySpace:
    def test_reversible_distinct_selfpair_dimension(self):
        l = generator(BIRTH_DEATH)
        assert solve_duality_space(l, l).dimension == 3

    @pytest.mark.parametrize("n", [3, 6])
    def test_rw54_pair_dimension(self, n):
        rw = rw_reflected_absorbed(n)
        assert solve_duality_space(rw.lhat, rw.l).dimension == n

    def test_single_state(self):
        l = generator([[0.0]])
        space = solve_duality_space(l, l)
        assert space.dimension == 1

    def test_basis_elements_are_dualities(self, rng):
        lhat = random_generator(rng, 3)
        l = random_generator(rng, 4)
        space = solve_duality_space(lhat, l)
        assert space.dimension >= 1
        for b in space.basis:
            assert residual(lhat, l, b) < 1e-9

    def test_basis_is_one_read_only_array(self):
        rw = rw_reflected_absorbed(5)
        space = solve_duality_space(rw.lhat, rw.l)
        assert isinstance(space.basis, np.ndarray) and space.basis.shape == (5, 5, 5)
        assert not space.basis.flags.writeable
        assert len(space.basis) == space.dimension and [b.shape for b in space.basis] == [(5, 5)] * 5
        with pytest.raises(ValueError):
            space.basis[0, 0, 0] = 1.0

    def test_basis_sequences_are_stacked_and_checked(self):
        spaces = (StateSpace(2), StateSpace(3))
        empty = DualitySpace(*spaces, ())
        assert empty.basis.shape == (0, 2, 3) and empty.dimension == 0
        assert max_duality_rank(empty) == 0
        stacked = DualitySpace(*spaces, [np.ones((2, 3)), np.eye(2, 3)])
        assert stacked.basis.shape == (2, 2, 3) and max_duality_rank(stacked) == 2
        with pytest.raises(ShapeMismatchError):
            DualitySpace(*spaces, [np.ones((3, 2))])

    def test_shared_zero_only_gives_constant(self):
        lhat = cyclic_generator()
        l = generator(BIRTH_DEATH)
        space = solve_duality_space(lhat, l)
        assert space.dimension == 1
        b = space.basis[0]
        assert np.max(np.abs(b - b[0, 0])) < 1e-9  # constant matrix



def jordan_count(hat_blocks, blocks) -> int:
    """Kernel dimension: sum over shared eigenvalues of min(block sizes), pair by pair."""
    return sum(min(mh, m) for lh, mh in hat_blocks for lam, m in blocks if lh == lam)


def ladder_sep_pair(gamma: int):
    ladder = ladder_sep_generator(ConfigurationSpace.ladder(2, gamma), 1.0)
    return ladder, sep_generator(ConfigurationSpace.sep(2, gamma), 1.0)


def near_real_cycle(n: int, drift: float) -> RateMatrix:
    """n-state cycle, rate 1 + drift forward and 1 backward: complex pairs with imaginary parts O(drift)."""
    m = np.eye(n, k=1) + np.eye(n, k=1 - n)
    m = (1.0 + drift) * m + m.T
    return RateMatrix.from_entries(m - np.diag(m.sum(axis=1)))


class TestSchurKernelAgainstOracle:
    """solve_duality_space against the Kronecker SVD: equal dimension, largest
    principal angle <= 1e-6, every kept singular value >= 1e3 * cutoff, and a
    Frobenius-orthonormal basis; max_duality_rank against its loop reference."""

    @staticmethod
    def check(lhat: RateMatrix, l: RateMatrix):
        space = solve_duality_space(lhat, l)
        oracle = kronecker_duality_space(lhat, l)
        assert space.dimension == oracle.shape[1]
        assert space.largest_discarded <= space.cutoff
        assert space.smallest_kept >= 1e3 * space.cutoff
        if space.dimension:
            ours = np.column_stack([b.reshape(-1, order="F") for b in space.basis])
            assert np.max(subspace_angles(ours, oracle)) <= 1e-6
            assert np.max(np.abs(ours.T @ ours - np.eye(space.dimension))) <= 1e-12
        assert max_duality_rank(space) == max_duality_rank_loop(space)
        return space

    @pytest.mark.parametrize("n", [3, 6, 16, 32, 48])
    def test_rw54(self, n):
        rw = rw_reflected_absorbed(n)
        assert self.check(rw.lhat, rw.l).dimension == n

    @pytest.mark.parametrize("kind", ["square", "rectangular", "permuted", "birth-death"])
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8))
    def test_random_pairs(self, kind, seed, n):
        rng = np.random.default_rng(seed)
        if kind == "birth-death":
            l = random_birth_death(rng, n)
        else:
            l = random_generator(rng, n)
        if kind == "square":
            lhat = random_generator(rng, n)
        elif kind == "rectangular":
            lhat = random_generator(rng, int(rng.integers(2, 9)))
        else:
            lhat = permuted(rng, l)
        self.check(lhat, l)

    @pytest.mark.parametrize("copies", [(1, 2), (2, 1), (2, 2), (3, 2)])
    def test_jordan_direct_sums(self, rng, copies):
        j = jordan_block_generator()
        self.check(direct_sum(rng, j, copies[0]), direct_sum(rng, j, copies[1]))

    def test_three_versus_five_regression(self, rng):
        hat_blocks, blocks = THREE_VERSUS_FIVE
        space = self.check(jordan_assembled(hat_blocks, rng), jordan_assembled(blocks, rng))
        assert space.dimension == jordan_count(hat_blocks, blocks) == 5

    @given(st.integers(0, 2**32 - 1))
    def test_assembled_defective_pairs(self, seed):
        rng = np.random.default_rng(seed)
        hat_blocks, blocks = random_jordan_blocks(rng), random_jordan_blocks(rng)
        space = self.check(jordan_assembled(hat_blocks, rng), jordan_assembled(blocks, rng))
        assert space.dimension == jordan_count(hat_blocks, blocks)

    @pytest.mark.parametrize("gamma", [2, 3])
    def test_ladder_sep_pairs(self, gamma):
        self.check(*ladder_sep_pair(gamma))

    def test_blocked_absorbed_walk_pair(self):
        pair = rw_blocked_absorbed(6).pair
        assert self.check(pair.lhat, pair.l).dimension == 6

    def test_mixed_real_and_complex_spectra(self):
        # a 2 x 2 real Schur block on one side only
        assert self.check(cyclic_generator(), generator(BIRTH_DEATH)).dimension == 1

    @pytest.mark.parametrize("n, drift", [(3, 1e-6), (4, 1e-5), (5, 1e-6), (6, 1e-7)])
    def test_near_real_complex_pairs(self, n, drift):
        # a nearly symmetric cycle: its 2 x 2 real Schur blocks have off-diagonal
        # entries near drift, far below the cluster radius tau, so they pass the
        # scalar test and only the 2 x 2 rule keeps their columns together
        l = near_real_cycle(n, drift)
        s = schur(np.asarray(l.entries).T, output="real")[0]
        assert 0 < np.max(np.abs(np.diag(s, -1))) <= 10 * drift
        assert self.check(l, l).dimension == n
        assert self.check(l, generator(BIRTH_DEATH)).dimension == 1

    # pairs whose primal generator splits into components of |L| + |L|^T

    @pytest.mark.parametrize("vertices, gamma", [(2, 2), (3, 1), (2, 3)])
    def test_permuted_sep_self_pairs(self, rng, vertices, gamma):
        # the particle-number sectors interleave in the state order
        l = sep_generator(ConfigurationSpace.sep(vertices, gamma), 1.0)
        self.check(permuted(rng, l), permuted(rng, l))

    @pytest.mark.parametrize("copies", [(1, 3), (2, 2), (3, 2)])
    def test_permuted_cyclic_sums(self, rng, copies):
        # each component holds a 2 x 2 Schur block
        c = cyclic_generator()
        space = self.check(direct_sum(rng, c, copies[0]), direct_sum(rng, c, copies[1]))
        assert space.dimension == 3 * copies[0] * copies[1]

    def test_isolated_state(self, rng):
        m = np.zeros((5, 5))
        m[:4, :4] = random_birth_death(rng, 4).entries
        l = permuted(rng, RateMatrix.from_entries(m))
        self.check(random_generator(rng, 4), l)
        self.check(l, l)

    @pytest.mark.parametrize("nh, n", [(1, 1), (2, 3), (4, 3)])
    def test_zero_pair(self, nh, n):
        space = self.check(RateMatrix.from_entries(np.zeros((nh, nh))), RateMatrix.from_entries(np.zeros((n, n))))
        assert space.dimension == nh * n

    def test_reducible_hat_irreducible_primal(self, rng):
        sep = sep_generator(ConfigurationSpace.sep(2, 2), 1.0)
        self.check(permuted(rng, sep), random_birth_death(rng, 6))


class TestPrimalComponents:
    """The kernel solves one primal component at a time: one Schur form each."""

    @staticmethod
    def cutoff_and_tau(lhat: RateMatrix, l: RateMatrix) -> tuple[float, float]:
        sigma = float(np.linalg.norm(lhat.entries, 2) + np.linalg.norm(l.entries, 2))
        cutoff = lhat.n * l.n * EPS * sigma
        return cutoff, sigma * (cutoff / sigma) ** 0.25

    @staticmethod
    def schur_shapes(monkeypatch, lhat, l) -> list:
        shapes, real_schur = [], duality_module._real_schur

        def recording(a):
            shapes.append(np.shape(a))
            return real_schur(a)

        monkeypatch.setattr(duality_module, "_real_schur", recording)
        solve_duality_space(lhat, l)
        return shapes

    def test_one_schur_form_per_component(self, monkeypatch, rng):
        l = permuted(rng, sep_generator(ConfigurationSpace.sep(2, 2), 1.0))  # sectors of 1, 2, 3, 2, 1 states
        lhat = random_generator(rng, 5)
        shapes = self.schur_shapes(monkeypatch, lhat, l)
        assert shapes[0] == (5, 5)
        assert sorted(shapes[1:]) == [(1, 1), (1, 1), (2, 2), (2, 2), (3, 3)]

    def test_two_schur_forms_when_irreducible(self, monkeypatch, rng):
        lhat = permuted(rng, sep_generator(ConfigurationSpace.sep(2, 2), 1.0))  # a reducible L_hat is not split
        assert self.schur_shapes(monkeypatch, lhat, random_birth_death(rng, 6)) == [(9, 9), (6, 6)]

    def test_single_component_output_unchanged(self, rng):
        # one component takes the unsplit path: the recursion on L^T itself
        lhat, l = random_generator(rng, 6), random_birth_death(rng, 7)
        t, q = duality_module._real_schur(np.asarray(lhat.entries))
        s, z = duality_module._real_schur(np.asarray(l.entries).T)
        space = solve_duality_space(lhat, l)
        basis, largest, smallest = duality_module._sylvester_kernel(t, q, s, z, *self.cutoff_and_tau(lhat, l))
        assert np.array_equal(space.basis, basis)
        assert (space.largest_discarded, space.smallest_kept) == (largest, smallest)

    def test_real_schur_matches_scipy(self, rng):
        for n in (1, 2, 9, 40, 150):  # 150: past the sizes where LAPACK blocks by workspace
            a = random_generator(rng, n).entries
            t, z = duality_module._real_schur(np.asarray(a).T)
            t_ref, z_ref = schur(np.asarray(a).T, output="real")
            assert np.array_equal(t, t_ref) and np.array_equal(z, z_ref)

    def test_margins_are_worst_over_components(self, rng):
        lhat = random_generator(rng, 4)
        blocks = [random_birth_death(rng, 3), random_generator(rng, 4)]
        m = np.zeros((7, 7))
        m[:3, :3], m[3:, 3:] = blocks[0].entries, blocks[1].entries
        l = RateMatrix.from_entries(m)
        space = solve_duality_space(lhat, l)
        t, q = duality_module._real_schur(np.asarray(lhat.entries))
        limits = self.cutoff_and_tau(lhat, l)
        parts = [
            duality_module._sylvester_kernel(t, q, *duality_module._real_schur(np.asarray(b.entries).T), *limits)
            for b in blocks
        ]
        assert space.dimension == sum(len(p[0]) for p in parts) == 2
        assert space.largest_discarded == max(p[1] for p in parts)
        assert space.smallest_kept == min(p[2] for p in parts)


class TestRealArithmetic:
    """The kernel runs in real arithmetic on every input, complex pairs included."""

    @pytest.mark.parametrize("case", ["rw54", "ladder-sep", "birth-death", "complex-pair", "near-real"])
    def test_every_svd_is_real(self, monkeypatch, rng, case):
        if case == "rw54":
            rw = rw_reflected_absorbed(12)
            pair = (rw.lhat, rw.l)
        elif case == "ladder-sep":
            pair = ladder_sep_pair(2)
        elif case == "birth-death":
            l = random_birth_death(rng, 9)
            pair = (permuted(rng, l), l)
        elif case == "complex-pair":
            pair = (cyclic_generator(), generator(BIRTH_DEATH))
        else:
            pair = (near_real_cycle(5, 1e-6),) * 2
        dtypes, svd = [], np.linalg.svd

        def recording_svd(a, *args, **kwargs):
            dtypes.append(np.asarray(a).dtype)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        space = solve_duality_space(*pair)
        assert all(b.dtype == np.float64 for b in space.basis)
        assert dtypes and all(d == np.float64 for d in dtypes)


class TestScaleInvariance:
    @pytest.mark.parametrize(
        "name", ["rw54", "birth-death", "jordan-sums", "three-versus-five", "partial", "ladder-sep"]
    )
    @given(exponent=st.floats(-6.0, 6.0))
    def test_dimension_and_max_rank(self, name, exponent):
        # multiplying both generators by c scales the cutoff and the cluster
        # radius with them, so no rank decision may change
        rng = np.random.default_rng(11)
        if name == "rw54":
            rw = rw_reflected_absorbed(7)
            lhat, l = rw.lhat, rw.l
        elif name == "birth-death":
            l = random_birth_death(rng, 6)
            lhat = permuted(rng, l)
        elif name == "jordan-sums":
            j = jordan_block_generator()
            lhat, l = direct_sum(rng, j, 2), j
        elif name == "three-versus-five":
            lhat, l = (jordan_assembled(b, rng) for b in THREE_VERSUS_FIVE)
        elif name == "partial":
            lhat, l = cyclic_generator(), generator(BIRTH_DEATH)
        else:
            lhat, l = ladder_sep_pair(2)
        c = 10.0**exponent
        base = solve_duality_space(lhat, l)
        scaled = solve_duality_space(
            RateMatrix.from_entries(c * np.asarray(lhat.entries)),
            RateMatrix.from_entries(c * np.asarray(l.entries)),
        )
        assert scaled.dimension == base.dimension
        assert max_duality_rank(scaled) == max_duality_rank(base) == max_duality_rank_loop(base)


class TestMaxRank:
    def test_selfduality_space_full_rank(self):
        for l in (cyclic_generator(), generator(BIRTH_DEATH), jordan_block_generator()):
            assert max_duality_rank(solve_duality_space(l, l)) == l.n

    def test_shared_zero_only(self):
        space = solve_duality_space(cyclic_generator(), generator(BIRTH_DEATH))
        assert max_duality_rank(space) == 1

    def test_cheap_duality_rank(self):
        mu = Measure.from_weights([0.5, 0.25, 0.25])
        assert cheap_duality(mu).rank == 3


class TestCheap:
    def test_uniform_probability(self):
        d = cheap_duality(Measure.from_weights(np.full(3, 1 / 3)))
        npt.assert_allclose(d.matrix, 3.0 * np.eye(3))

    def test_reciprocal_entries(self):
        d = cheap_duality(Measure.from_weights([0.5, 0.25, 0.25]))
        npt.assert_allclose(d.matrix, np.diag([2.0, 4.0, 4.0]))

    def test_selfduality_under_detailed_balance(self):
        l = generator(BIRTH_DEATH)
        mu = stationary_measure(l)
        assert residual(l, l, cheap_duality(mu).matrix) < 1e-12


class TestTensor:
    def test_constant_term_only(self):
        l = generator(BIRTH_DEATH)
        n = 3
        const = np.full((n, 1), 1.0 / np.sqrt(n))
        d = chain_duality(l, l, columns(const), columns(const), [1.0])
        npt.assert_allclose(d.matrix, np.full((n, n), 1.0 / n))
        assert d.residual < 1e-12

    def test_all_ones_recovers_cheap(self, rng):
        l = random_birth_death(rng, 6)
        mu = stationary_measure(l)
        _, u = reversible_eigenbasis(l, mu)
        d = chain_duality(l, l, columns(u), columns(u), np.ones(6))
        npt.assert_allclose(d.matrix, cheap_duality(mu).matrix, atol=1e-9)

    def test_rw54_random_coefficients(self, rng):
        rw = rw_reflected_absorbed(8)
        d = chain_duality(rw.lhat, rw.l, columns(rw.uhat), columns(rw.u), rng.standard_normal(8))
        assert d.residual < 1e-10

    def test_mismatched_eigenvalues_rejected(self):
        rw = rw_reflected_absorbed(5)
        shuffled = rw.u[:, [1, 0, 2, 3, 4]]
        with pytest.raises(NotEigenpairError):
            chain_duality(rw.lhat, rw.l, columns(rw.uhat), columns(shuffled), np.ones(5))


class TestEigenpairValidation:
    """_validate_chains on chains of length 1 (one product for all columns) against the column-by-column reference."""

    TOL = DEFAULTS.residual

    @classmethod
    def validate(cls, l, cols):
        return _validate_chains(l, cols, np.ones(cols.shape[1], dtype=int))

    @staticmethod
    def families(rng):
        """(generator, columns) pairs: real and complex eigenbases, perturbed ones, zero columns."""
        for n in (3, 6, 12, 20):
            l = random_birth_death(rng, n)
            yield l, reversible_eigenbasis(l, stationary_measure(l))[1]
            dense = random_generator(rng, n)
            yield dense, np.linalg.eig(np.asarray(dense.entries))[1]  # complex pairs, as a rule
        cyclic = cyclic_generator()
        yield cyclic, np.linalg.eig(np.asarray(cyclic.entries))[1]  # one complex-conjugate pair
        rw = rw_reflected_absorbed(10)
        yield rw.lhat, rw.uhat
        yield rw.l, rw.u

    @staticmethod
    def variants(rng, us):
        yield us
        for scale in (1e-13, 1e-6):  # far below and far above the tolerance
            bumped = us.copy()
            cols = rng.choice(us.shape[1], size=max(1, us.shape[1] // 3), replace=False)
            bumped[:, cols] += scale * rng.standard_normal((us.shape[0], cols.size))
            yield bumped
        zeroed = us.copy()
        zeroed[:, rng.integers(us.shape[1])] = 0.0
        yield zeroed
        big = 1e3 * us  # a defect above tol, below tol max|u|: the bound scales with the column
        big[:, 0] += 1e-9 * rng.standard_normal(us.shape[0])
        yield big

    def test_same_verdict_column_and_eigenvalues_as_the_loop(self, rng):
        verdicts, complex_families = [], 0
        for l, us in self.families(rng):
            complex_families += np.iscomplexobj(us)
            for cols in self.variants(rng, np.asarray(us)):
                lams, first_bad = validate_eigenpairs_loop(l, cols, self.TOL)
                if first_bad is None:
                    npt.assert_allclose(self.validate(l, cols), lams, rtol=1e-12, atol=1e-12)
                else:
                    with pytest.raises(NotEigenpairError, match=f"^column {first_bad}: "):
                        self.validate(l, cols)
                verdicts.append(first_bad is None)
        assert len(verdicts) == 55 and sum(verdicts) == 33  # the exact, 1e-13 and scaled variants pass
        assert complex_families >= 2

    def test_zero_column_named(self):
        l = cyclic_generator()
        cols = np.column_stack([np.ones(3), np.zeros(3)])
        with pytest.raises(NotEigenpairError, match="column 1: zero vector"):
            self.validate(l, cols)

    def test_product_duality_names_the_first_mismatched_column(self):
        rw = rw_reflected_absorbed(5)
        shuffled = rw.u[:, [0, 1, 3, 2, 4]]
        with pytest.raises(NotEigenpairError, match="column 2: eigenvalues"):
            chain_duality(rw.lhat, rw.l, columns(rw.uhat), columns(shuffled), np.ones(5))

    def test_chain_defect_names_its_order(self):
        l = jordan_block_generator()
        chain = TestChain().jordan_chain()
        chain = np.column_stack([chain, chain[:, 1]])  # order 3 is no chain element
        with pytest.raises(NotChainError, match="at order 3"):
            chain_duality(l, l, [chain], [chain], [1.0])

    def test_chain_failures_name_the_chain_and_order(self):
        l = jordan_block_generator()
        chain = TestChain().jordan_chain()
        zero_head = np.column_stack([np.zeros(4), chain[:, 1]])
        with pytest.raises(NotChainError, match="^chain 1: zero vector at order 1"):
            chain_duality(l, l, [chain, zero_head], [chain, chain], [1.0, 1.0])
        ones = np.ones(4)  # eigenvalue 0, against the chain's -1
        with pytest.raises(NotEigenpairError, match="^column 1: eigenvalues"):
            chain_duality(l, l, [chain, ones], [chain, chain[:, 0]], [1.0, 1.0])

    def test_chain_bounds_scale_with_the_eigenvector_and_with_the_whole_chain(self):
        # L u2 = -u2 + u1 for u1 = s b e1, u2 = b e2; e3 (eigenvalue 0) carries each perturbation
        def chain_on(s, b):
            l = RateMatrix.from_entries([[-1.0, s, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 0.0]])
            return l, np.array([[s * b, 0.0], [0.0, b], [0.0, 0.0]])

        l, chain = chain_on(100.0, 0.1)  # ||L||_inf = 101, max|u2| = 0.1, max|chain| = 10
        for defect, ok in ((5e-7, True), (5e-6, False)):  # against TOL ||L|| max|chain| = 1.01e-6
            bent = chain.copy()
            bent[2, 1] = defect
            if ok:
                npt.assert_allclose(_validate_chains(l, bent, [2]), [-1.0])
            else:
                with pytest.raises(NotChainError, match="at order 2"):
                    _validate_chains(l, bent, [2])
        l, chain = chain_on(0.01, 10.0)  # ||L||_inf = 1.01, max|u1| = 0.1, max|chain| = 10
        bent = chain.copy()
        bent[2, 0] = 5e-9  # above TOL ||L|| max|u1| = 1.01e-10, below TOL ||L|| max|chain|
        with pytest.raises(NotChainError, match="at order 1"):
            _validate_chains(l, bent, [2])

    def test_mixed_lengths_validated_by_one_product_per_side(self):
        l = jordan_block_generator()
        chain = TestChain().jordan_chain()
        ones = np.ones(4)
        cols = np.column_stack([ones, chain, ones])
        lams = _validate_chains(l, cols, [1, 2, 1])
        npt.assert_allclose(lams, [0.0, -1.0, 0.0], atol=1e-12)
        bent = np.column_stack([ones, chain[:, 0], chain[:, 1] + 0.1 * ones, ones])  # defect 0.1 at order 2
        with pytest.raises(NotChainError, match="^chain 1: chain defect 1.000e-01 at order 2"):
            _validate_chains(l, bent, [1, 2, 1])


class TestComplexPair:
    def test_cyclic_cosine_duality(self):
        l = cyclic_generator()
        x = np.arange(1, 4)
        u = np.exp(1j * 2 * np.pi / 3 * x)
        d = chain_duality(l, l, [u, u.conj()], [u, u.conj()], [0.5, 0.5])
        npt.assert_allclose(d.matrix, np.cos(2 * np.pi / 3 * (x[:, None] + x[None, :])), atol=1e-12)
        assert d.residual < 1e-12

    def test_zero_coefficient(self):
        l = cyclic_generator()
        u = np.exp(1j * 2 * np.pi / 3 * np.arange(1, 4))
        d = chain_duality(l, l, [u, u.conj()], [u, u.conj()], [0.0, 0.0])
        npt.assert_array_equal(d.matrix, np.zeros((3, 3)))

    def test_output_exactly_real(self):
        l = cyclic_generator()
        u = np.exp(1j * 2 * np.pi / 3 * np.arange(1, 4))
        d = chain_duality(l, l, [u, u.conj()], [u, u.conj()], [1.3, 1.3])
        assert np.isrealobj(np.asarray(d.matrix))

    def test_untied_conjugate_coefficients_rejected(self):
        l = cyclic_generator()
        u = np.exp(1j * 2 * np.pi / 3 * np.arange(1, 4))
        with pytest.raises(ComplexResidueError):
            chain_duality(l, l, [u, u.conj()], [u, u.conj()], [1.0, 0.5])

    def test_tied_conjugate_eigenvectors_of_a_dense_generator(self, rng):
        # complex eig columns, kept complex: each conjugate pair with one tied
        # coefficient gives a real duality; real eigenvalues ride along
        lhat, l = random_generator(rng, 6), random_generator(rng, 6)
        perm = np.eye(6)[rng.permutation(6)]
        lhat = RateMatrix.from_entries(perm @ np.asarray(l.entries) @ perm.T)
        lams, v = np.linalg.eig(np.asarray(l.entries))
        assert np.any(lams.imag != 0.0)
        c = 1.0 + np.abs(lams.imag) - 0.1 * lams.real  # equal on conjugates
        d = chain_duality(lhat, l, columns(perm @ v), columns(v), c)
        assert d.residual < 1e-10
        assert d.rank == 6
        with pytest.raises(ComplexResidueError):
            chain_duality(lhat, l, columns(perm @ v), columns(v), c * (1.0 + (lams.imag > 0)))


class TestChain:
    def jordan_chain(self):
        x = np.arange(1, 5)
        return np.column_stack([((-1.0) ** x) / 2.0, np.cos(np.pi * (x + 1) / 2)])

    def test_single_element_reduces_to_product(self):
        l = generator(BIRTH_DEATH)
        mu = stationary_measure(l)
        _, u = reversible_eigenbasis(l, mu)
        d = chain_duality(l, l, [u[:, [1]]], [u[:, [1]]], [1.0])
        npt.assert_allclose(d.matrix, np.outer(u[:, 1], u[:, 1]), atol=1e-12)

    def test_jordan4_chain(self):
        l = jordan_block_generator()
        chain = self.jordan_chain()
        d = chain_duality(l, l, [chain], [chain], [1.0])
        assert d.residual < 1e-12

    def test_non_reversed_pairing_fails(self):
        l = jordan_block_generator()
        chain = self.jordan_chain()
        bad = np.outer(chain[:, 0], chain[:, 0]) + np.outer(chain[:, 1], chain[:, 1])
        assert residual(l, l, bad) > 1e-3

    def test_invalid_chain_rejected(self):
        l = jordan_block_generator()
        chain = self.jordan_chain()[:, ::-1]  # wrong order: top first
        with pytest.raises(NotChainError):
            chain_duality(l, l, [chain], [chain], [1.0])

    def test_one_dimensional_eigenfunction(self):
        l = generator(BIRTH_DEATH)
        _, u = reversible_eigenbasis(l, stationary_measure(l))
        d = chain_duality(l, l, [u[:, 1]], [u[:, 1]], [0.7])
        npt.assert_allclose(d.matrix, 0.7 * np.outer(u[:, 1], u[:, 1]), rtol=1e-15, atol=1e-15)

    def test_chains_and_eigenfunctions_summed_with_their_coefficients(self):
        l = jordan_block_generator()
        chain = self.jordan_chain()
        ones = np.ones(4)
        d = chain_duality(l, l, [chain, ones], [chain, ones], [2.0, -0.5])
        expected = 2.0 * (np.outer(chain[:, 0], chain[:, 1]) + np.outer(chain[:, 1], chain[:, 0])) - 0.5
        npt.assert_allclose(d.matrix, expected, atol=1e-15)
        assert d.residual < 1e-12

    def test_shapes_checked(self):
        l = jordan_block_generator()
        chain = self.jordan_chain()
        for hat, primal, c in (
            ([chain], [chain[:, :1]], [1.0]),  # paired chains of unequal length
            ([chain], [chain], [1.0, 1.0]),  # a coefficient per chain
            ([chain[:3]], [chain[:3]], [1.0]),  # chains on the state space
            ([np.zeros((4, 0))], [np.zeros((4, 0))], [1.0]),  # a chain holds one vector or more
        ):
            with pytest.raises(ShapeMismatchError):
                chain_duality(l, l, hat, primal, c)


class TestFoldedConstructorsParity:
    """chain_duality against the three constructors it replaced, kept in conftest as references.

    Every input their tests, acceptance criterion 8 and the scenarios gave
    them: the matrix and the residual are bit-identical (for a conjugate pair
    only where its coefficient is a power of two or zero), and an input the
    old constructor rejected is rejected with the same error class.
    """

    @staticmethod
    def tensor_inputs(rng):
        """(lhat, l, uhats, us, coefficients) with eigenfunctions as columns."""
        l = generator(BIRTH_DEATH)
        const = np.full((3, 1), 1.0 / np.sqrt(3))
        yield l, l, const, const, [1.0]
        for n in (6, 5):
            l = random_birth_death(rng, n)
            _, u = reversible_eigenbasis(l, stationary_measure(l))
            yield l, l, u, u, np.ones(n)
            yield l, l, u[:, [2]], u[:, [2]], [0.9]
            perm = np.eye(n)[rng.permutation(n)]
            lhat = RateMatrix.from_entries(perm @ np.asarray(l.entries) @ perm.T)
            yield lhat, l, perm @ u, u, rng.standard_normal(n)
        for n, seeded in ((5, False), (6, False), (7, False), (8, False), (8, True), (20, True)):
            rw = rw_reflected_absorbed(n)
            a = np.random.default_rng(0).standard_normal(n) if seeded else rng.standard_normal(n)
            yield rw.l, rw.l, rw.u, rw.u, a
            yield rw.lhat, rw.lhat, rw.uhat, rw.uhat, a
            yield rw.lhat, rw.l, rw.uhat, rw.u, a
        rw = rw_reflected_absorbed(6)
        yield rw.lhat, rw.l, rw.uhat[:, [1]], rw.u[:, [1]], [1.7]
        rw = rw_reflected_absorbed(5)
        for order in ([1, 0, 2, 3, 4], [0, 1, 3, 2, 4]):  # rejected: mismatched eigenvalues
            yield rw.lhat, rw.l, rw.uhat, rw.u[:, order], np.ones(5)
        crit8 = np.random.default_rng(88)
        for _ in range(100):
            n = int(crit8.integers(2, 9))
            l = random_birth_death(crit8, n)
            _, u = reversible_eigenbasis(l, stationary_measure(l))
            yield l, l, u, u, np.ones(n)
            crit8.choice([-1.0, 1.0], n)  # the criterion's sign draw, so its generators follow

    @staticmethod
    def chain_inputs():
        """(l, uhat_chain, u_chain) self-duality inputs with chains as columns."""
        l = generator(BIRTH_DEATH)
        _, u = reversible_eigenbasis(l, stationary_measure(l))
        yield l, u[:, [1]], u[:, [1]]
        l = jordan_block_generator()
        chain = TestChain().jordan_chain()
        yield l, chain, chain
        yield l, chain[:, ::-1], chain[:, ::-1]  # rejected: top first
        bad = np.column_stack([chain, chain[:, 1]])
        yield l, bad, bad  # rejected: no chain element at order 3

    @staticmethod
    def same(new, reference, exact=True):
        """True if both build the same duality (bit for bit unless not exact), False if both reject the input."""
        try:
            expected = reference()
        except MarkovDualityError as exc:
            with pytest.raises(type(exc)):
                new()
            return False
        d = new()
        if exact:
            npt.assert_array_equal(d.matrix, expected.matrix)
            assert d.residual == expected.residual
        else:
            npt.assert_allclose(d.matrix, expected.matrix, rtol=0, atol=4 * EPS * max_abs(expected.matrix))
            assert abs(d.residual - expected.residual) <= 4 * EPS * max_abs(expected.matrix)
        assert d.rank == expected.rank
        return True

    def test_eigenfunction_products(self, rng):
        built = [
            self.same(
                lambda: chain_duality(lhat, l, columns(uh), columns(u), a),
                lambda: tensor_duality_reference(lhat, l, uh, u, a),
            )
            for lhat, l, uh, u, a in self.tensor_inputs(rng)
        ]
        assert len(built) == 128 and sum(built) == 126

    def test_conjugate_pairs(self):
        l = cyclic_generator()
        u = np.exp(1j * 2 * np.pi / 3 * np.arange(1, 4))
        # a (uhat (x) u) + a conj(uhat (x) u) rounds a u before the product and
        # 2a Re(uhat (x) u) after it: bit for bit only where a is a power of two (or 0)
        for a, exact in ((0.5, True), (0.0, True), (1.3, False)):
            assert self.same(
                lambda: chain_duality(l, l, [u, u.conj()], [u, u.conj()], [a, a]),
                lambda: complex_pair_duality_reference(l, l, u, u, a),
                exact,
            )

    def test_chains(self):
        built = [
            self.same(
                lambda: chain_duality(l, l, [uh], [u], [1.0]),
                lambda: chain_duality_reference(l, l, uh, u),
            )
            for l, uh, u in self.chain_inputs()
        ]
        assert built == [True, True, False, False]


class TestOrthogonalSelfduality:
    def test_identity_mixing_gives_cheap(self, rng):
        l = random_birth_death(rng, 5)
        mu = stationary_measure(l)
        _, u = reversible_eigenbasis(l, mu)
        d = orthogonal_selfduality(l, mu, u)
        npt.assert_allclose(d.matrix, cheap_duality(mu).matrix, atol=1e-9)

    def test_sign_flip_still_orthogonal(self, rng):
        l = random_birth_death(rng, 5)
        mu = stationary_measure(l)
        _, u = reversible_eigenbasis(l, mu)
        d = orthogonal_selfduality(l, mu, -u)
        npt.assert_allclose(d.matrix, -cheap_duality(mu).matrix, atol=1e-9)
        w = np.asarray(mu.weights)
        gram = (np.asarray(d.matrix) * w) @ np.asarray(d.matrix).T
        npt.assert_allclose(gram, np.diag(1.0 / w), atol=1e-9)

    def test_rotated_repeated_eigenspace(self):
        # complete-graph walk: eigenvalue -n has multiplicity n-1, so an
        # orthogonal 2x2 mixing inside that eigenspace stays admissible
        l = complete_graph(4)
        mu = stationary_measure(l)
        _, u = reversible_eigenbasis(l, mu)
        theta = 0.3
        rot = np.eye(4)
        rot[1:3, 1:3] = [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        tilde = u @ rot
        d = orthogonal_selfduality(l, mu, tilde)
        w = np.asarray(mu.weights)
        gram = (np.asarray(d.matrix) * w) @ np.asarray(d.matrix).T
        npt.assert_allclose(gram, np.diag(1.0 / w), atol=1e-10)
        assert d.residual < 1e-10

    def test_not_orthonormal_rejected(self, rng):
        l = random_birth_death(rng, 4)
        mu = stationary_measure(l)
        _, u = reversible_eigenbasis(l, mu)
        with pytest.raises(NotOrthonormalError):
            orthogonal_selfduality(l, mu, 2.0 * u)

    def test_cross_eigenvalue_mixing_rejected(self, rng):
        l = random_birth_death(rng, 4)
        mu = stationary_measure(l)
        _, u = reversible_eigenbasis(l, mu)
        theta = 0.4
        rot = np.eye(4)
        rot[0:2, 0:2] = [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        with pytest.raises(NotEigenpairError):
            orthogonal_selfduality(l, mu, u @ rot)


class TestCompose:
    def test_cheap_with_cheap(self):
        l = generator(BIRTH_DEATH)
        mu = stationary_measure(l)
        d = cheap_duality(mu)
        out = compose_dualities(d, d, mu, l)
        npt.assert_allclose(out.matrix, d.matrix, atol=1e-12)

    def test_orthogonal_selfduality_composes_to_cheap(self, rng):
        l = random_birth_death(rng, 6)
        mu = stationary_measure(l)
        _, u = reversible_eigenbasis(l, mu)
        signs = np.array([1.0, -1.0, 1.0, 1.0, -1.0, 1.0])
        d = orthogonal_selfduality(l, mu, u * signs)
        out = compose_dualities(d, d, mu, l)
        npt.assert_allclose(out.matrix, cheap_duality(mu).matrix, atol=1e-9)
        assert out.residual < 1e-9

    def test_all_ones_with_probability_measure(self):
        l = generator(BIRTH_DEATH)
        mu = stationary_measure(l)
        ones = make_duality(l, l, np.ones((3, 3)))
        out = compose_dualities(ones, ones, mu, l)
        npt.assert_allclose(out.matrix, np.ones((3, 3)), atol=1e-12)

    def test_composition_closure_random(self, rng):
        for _ in range(5):
            l = random_birth_death(rng, 5)
            mu = stationary_measure(l)
            space = solve_duality_space(l, l)
            c1 = rng.standard_normal(space.dimension)
            c2 = rng.standard_normal(space.dimension)
            d1 = make_duality(l, l, sum(c * b for c, b in zip(c1, space.basis)))
            d2 = make_duality(l, l, sum(c * b for c, b in zip(c2, space.basis)))
            out = compose_dualities(d1, d2, mu, l)
            assert out.residual < 1e-9

    def test_two_generator_composition(self, rng):
        # dualities between distinct generators compose (over the shared
        # reversible primal) into a self-duality of the dual-side generator
        l = random_birth_death(rng, 5)
        mu = stationary_measure(l)
        _, u = reversible_eigenbasis(l, mu)
        perm = np.eye(5)[rng.permutation(5)]
        lhat = RateMatrix.from_entries(perm @ np.asarray(l.entries) @ perm.T)
        uhat = perm @ u
        d1 = chain_duality(lhat, l, columns(uhat), columns(u), rng.standard_normal(5))
        d2 = chain_duality(lhat, l, columns(uhat), columns(u), rng.standard_normal(5))
        out = compose_dualities(d1, d2, mu, lhat)
        assert out.residual < 1e-9
        assert out.dual_space.n == out.primal_space.n == 5


class TestFactorCheck:
    def test_all_ones_constant_eigenfunctions(self):
        lhat = cyclic_generator()
        l = generator(BIRTH_DEATH)
        d = make_duality(lhat, l, np.ones((3, 3)))
        out = factor_check(d, lhat, l)
        assert out is not None
        f, g, lam = out
        assert lam == pytest.approx(0.0, abs=1e-10)
        assert np.max(np.abs(f - f[0])) < 1e-10
        assert np.max(np.abs(g - g[0])) < 1e-10

    def test_rw54_single_mode(self):
        rw = rw_reflected_absorbed(6)
        d = chain_duality(rw.lhat, rw.l, [rw.uhat[:, 1]], [rw.u[:, 1]], [1.7])
        out = factor_check(d, rw.lhat, rw.l)
        assert out is not None
        _, _, lam = out
        assert lam == pytest.approx(2.0 * (np.cos(rw.thetas[0]) - 1.0), abs=1e-10)

    def test_full_rank_returns_none(self):
        l = generator(BIRTH_DEATH)
        mu = stationary_measure(l)
        d = cheap_duality(mu)
        assert factor_check(d, l, l) is None

    def test_rank_one_closure(self, rng):
        # recovering the eigen-pair from a single-mode tensor duality
        l = random_birth_death(rng, 5)
        mu = stationary_measure(l)
        lams, u = reversible_eigenbasis(l, mu)
        i = 2
        d = chain_duality(l, l, [u[:, i]], [u[:, i]], [0.9])
        f, g, lam = factor_check(d, l, l)
        assert lam == pytest.approx(lams[i], abs=1e-9)
        corr = abs(f @ u[:, i]) / (np.linalg.norm(f) * np.linalg.norm(u[:, i]))
        assert corr > 1.0 - 1e-9


class TestBuildFromSpectra:
    def test_reversible_identity_matching_gives_cheap(self, rng):
        l = random_birth_death(rng, 5)
        mu = stationary_measure(l)
        lams, u = reversible_eigenbasis(l, mu)
        sd = spectral_from_eigenbasis(l, lams, u.astype(complex))
        w = check_r_similar(sd, sd, r=5)
        d = build_from_spectra(sd, sd, w, np.ones(len(w.matched)))
        npt.assert_allclose(d.matrix, cheap_duality(mu).matrix, atol=1e-9)

    def test_cyclic_conjugate_pair(self):
        l = cyclic_generator()
        sd = decompose(l)
        w = check_r_similar(sd, sd, r=3)
        # canonical block order: 0, -1.5 + i s, -1.5 - i s; zero out the constant
        d = build_from_spectra(sd, sd, w, [0.0, 1.0, 1.0])
        assert d.residual < 1e-12
        assert d.rank == 2
        assert np.isrealobj(np.asarray(d.matrix))

    def test_untied_conjugate_coefficients_rejected(self):
        sd = decompose(cyclic_generator())
        w = check_r_similar(sd, sd, r=3)
        with pytest.raises(ComplexResidueError):
            build_from_spectra(sd, sd, w, [1.0, 1.0, 0.0])

    def test_zero_coefficients(self):
        sd = decompose(cyclic_generator())
        w = check_r_similar(sd, sd, r=3)
        d = build_from_spectra(sd, sd, w, np.zeros(3))
        npt.assert_array_equal(d.matrix, np.zeros((3, 3)))
        assert d.rank == 0

    def test_jordan_block_selfduality(self):
        l = jordan_block_generator()
        sd = decompose(l)
        w = check_r_similar(sd, sd, r=4)
        d = build_from_spectra(sd, sd, w, np.ones(len(w.matched)))
        assert d.residual < 1e-9
        assert d.rank == 4

    def test_truncated_rank_duality(self):
        l = jordan_block_generator()
        sd = decompose(l)
        w = check_r_similar(sd, sd, r=2)
        d = build_from_spectra(sd, sd, w, np.ones(len(w.matched)))
        assert d.residual < 1e-9
        assert d.rank == 2

    @staticmethod
    def product_cases(rng):
        """(label, hat SpectralData, primal SpectralData, rank) for the product-vs-loop check."""
        sep = sep_generator(ConfigurationSpace.sep(3, 2), 1.0)
        jordan = jordan_block_generator()
        dense = random_generator(rng, 7)  # complex-conjugate pairs
        sides = {
            "sep": (permuted(rng, sep), sep),
            "jordan-sum": (direct_sum(rng, jordan, 3), direct_sum(rng, jordan, 2)),
            "conjugate-pairs": (permuted(rng, dense), dense),
        }
        for label, (lhat, l) in sides.items():
            hat, primal = decompose(lhat), decompose(l)
            full = min(hat.n, primal.n)
            yield label, hat, primal, full
            yield f"{label} truncated", hat, primal, full // 2

    def test_product_matches_outer_product_loop(self, rng):
        seen = set()
        for label, hat, primal, r in self.product_cases(rng):
            w = check_r_similar(hat, primal, r)
            assert w is not None, label
            # coefficients depend on (Re, |Im|) only, so conjugate pairs are tied
            c = [1.0 + abs(u.eigenvalue.imag) - 0.1 * u.eigenvalue.real + 0.01 * u.size for u in w.matched]
            loop = build_from_spectra_loop(hat, primal, w, c)
            d = build_from_spectra(hat, primal, w, c).matrix
            assert np.max(np.abs(d - loop.real)) <= 1e-12 * np.max(np.abs(loop)), label
            seen.update(u.size for u in w.matched)
            if label == "conjugate-pairs":
                assert any(u.eigenvalue.imag != 0.0 for u in w.matched)
                untied = [x * (1.5 if u.eigenvalue.imag > 0 else 1.0) for x, u in zip(c, w.matched)]
                with pytest.raises(ComplexResidueError):
                    build_from_spectra(hat, primal, w, untied)
        assert 2 in seen  # size-2 matches, summed in reversed chain order


class TestKernelTheoremConsistency:
    def test_dimension_matches_block_count_simple_spectra(self):
        rng = np.random.default_rng(7)
        checked = 0
        for _ in range(20):
            n = int(rng.integers(2, 5))
            l = random_generator(rng, n)
            if rng.random() < 0.5:
                perm = np.eye(n)[rng.permutation(n)]
                lhat = RateMatrix.from_entries(perm @ np.asarray(l.entries) @ perm.T)
            else:
                lhat = random_generator(rng, int(rng.integers(2, 5)))
            a, b = decompose(lhat), decompose(l)
            if not (a.structure.is_diagonalizable() and b.structure.is_diagonalizable()):
                continue
            matches = match_jordan_blocks(a.structure, b.structure)
            if any(u.hat_size > 1 or u.primal_size > 1 for u in matches):
                continue  # only simple shared spectrum
            dim = solve_duality_space(lhat, l).dimension
            assert dim == sum(u.size for u in matches)
            checked += 1
        assert checked >= 10


class TestCheapConverse:
    @given(st.integers(0, 2**32 - 1))
    def test_resolution_families_are_biorthogonal(self, seed):
        # any family resolving delta_xy / mu(y) is orthonormal in L^2(mu)
        rng = np.random.default_rng(seed)
        l = random_birth_death(rng, 4)
        mu = stationary_measure(l)
        _, u = reversible_eigenbasis(l, mu)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        v = u @ q  # still resolves the identity: V V^T = U U^T
        assert np.max(np.abs(v @ v.T - cheap_duality(mu).matrix)) < 1e-8
        w = np.asarray(mu.weights)
        assert np.max(np.abs((v.T * w) @ v - np.eye(4))) <= 1e-8
        v_bad = v.copy()
        v_bad[:, 0] *= 1.1
        assert np.max(np.abs((v_bad.T * w) @ v_bad - np.eye(4))) > 1e-3
