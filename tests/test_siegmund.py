import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given
from hypothesis import strategies as st

from markovdual import (
    JordanBlock,
    JordanStructure,
    MatrixKind,
    RateMatrix,
    check_monotone,
    decompose,
    cumulative_transform,
    extend_with_cemetery,
    generator,
    reconstruct_siegmund,
    residual,
    rw_blocked_absorbed,
    siegmund_dual,
    siegmund_matrix,
    siegmund_spectral,
)
from markovdual.config import DEFAULTS
from markovdual.errors import (
    AlreadyConservativeError,
    DecompositionFailedError,
    NotBiorthogonalError,
    ShapeMismatchError,
)
from markovdual.linalg import EPS
from markovdual.scenarios import cyclic_generator, jordan_block_generator
from markovdual.siegmund import _chain_reversal

from conftest import (
    cumulative_rate_sums_with_diagonal,
    random_birth_death,
    random_generator,
    siegmund_residual_product,
)


class TestSiegmundMatrix:
    def test_n1(self):
        npt.assert_array_equal(siegmund_matrix(1), [[1.0]])

    def test_n3(self):
        npt.assert_array_equal(siegmund_matrix(3), [[1, 0, 0], [1, 1, 0], [1, 1, 1]])

    def test_full_rank(self):
        assert np.linalg.matrix_rank(siegmund_matrix(7)) == 7


class TestSiegmundDual:
    def test_blocked_gives_absorbed_exactly(self):
        rw = rw_blocked_absorbed(6)
        expected = np.zeros((6, 6))
        for x in range(1, 5):
            expected[x, x - 1] = expected[x, x + 1] = 1.0
            expected[x, x] = -2.0
        expected[5, 4], expected[5, 5] = 1.0, -2.0
        npt.assert_array_equal(np.asarray(rw.pair.l.entries), expected)
        assert rw.pair.l.kind is MatrixKind.SUB_GENERATOR
        assert rw.pair.monotone

    def test_single_state(self):
        pair = siegmund_dual(generator([[0.0]]))
        npt.assert_array_equal(pair.l.entries, [[0.0]])
        assert pair.monotone

    def test_cyclic_not_monotone_dual_invalid(self):
        pair = siegmund_dual(cyclic_generator())
        assert not pair.monotone
        assert pair.l.kind is MatrixKind.RAW  # dual has a negative off-diagonal rate
        assert np.min(np.asarray(pair.l.entries) - np.diag(np.diag(pair.l.entries))) < -1e-9

    @given(st.integers(0, 2**32 - 1), st.integers(2, 8))
    def test_roundtrip_residual_always_zero(self, seed, n):
        # the entrywise construction is equivalent to the duality identity
        lhat = random_generator(np.random.default_rng(seed), n)
        pair = siegmund_dual(lhat)
        assert pair.residual < 1e-10

    @pytest.mark.parametrize("n", [2, 3, 5, 30, 250])
    def test_birth_death_dual_is_exactly_tridiagonal(self, n):
        dual = np.asarray(siegmund_dual(random_birth_death(np.random.default_rng(n), n)).l.entries)
        assert np.count_nonzero(np.triu(dual, 2)) == 0
        assert np.count_nonzero(np.tril(dual, -2)) == 0

    def test_birth_death_duals_decompose(self):
        # with the diagonal inside every tail sum, rounding filled the dual's zero entries
        # and decompose failed its residual gate on 25 of these 36 chains
        rng = np.random.default_rng(1)
        for n in range(5, 41):
            pair = siegmund_dual(random_birth_death(rng, n))
            assert decompose(pair.l).residual <= 1e-9

    @given(st.integers(0, 2**32 - 1), st.integers(2, 30), st.booleans())
    def test_entries_match_formula_with_diagonal(self, seed, n, dense):
        # entry (y, x) sums rates of rows x and x - 1: within (n + 1) eps max|row| of the reference
        rng = np.random.default_rng(seed)
        lhat = random_generator(rng, n) if dense else random_birth_death(rng, n)
        m = np.asarray(lhat.entries)
        row = np.abs(m).max(axis=1)
        scale = np.maximum(row, np.concatenate([[0.0], row[:-1]]))
        defect = np.abs(np.asarray(siegmund_dual(lhat).l.entries) - cumulative_rate_sums_with_diagonal(m))
        assert np.all(defect <= (n + 1) * EPS * scale[None, :])

    @staticmethod
    def _assert_residual_matches_products(pair):
        # each evaluation of an entry of L_hat D_s or D_s L^T is a dot product of at most n
        # terms, so both routes are within (n + 1) eps (|L_hat| D_s + D_s |L|^T) of exact
        lhat, dual = np.abs(pair.lhat.entries), np.abs(pair.l.entries)
        ds = siegmund_matrix(pair.n)
        bound = 2 * (pair.n + 1) * EPS * np.max(lhat @ ds + ds @ dual.T)
        assert abs(pair.residual - siegmund_residual_product(pair.lhat.entries, pair.l.entries)) <= bound

    @pytest.mark.parametrize("n", [5, 6, 11, 40, 97, 250, 600])
    def test_residual_matches_dense_products_birth_death(self, n):
        self._assert_residual_matches_products(siegmund_dual(random_birth_death(np.random.default_rng(n), n)))

    def test_residual_matches_dense_products_blocked_walk(self):
        self._assert_residual_matches_products(rw_blocked_absorbed(600).pair)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 8))
    def test_monotone_iff_subgenerator(self, seed, n):
        rng = np.random.default_rng(seed)
        m = np.zeros((n, n))
        up = rng.uniform(0.1, 2.0, n - 1)
        down = rng.uniform(0.1, 2.0, n - 1)
        m += np.diag(up, 1) + np.diag(down, -1)
        if rng.random() < 0.6:  # sprinkle long-range rates to break monotonicity sometimes
            for _ in range(int(rng.integers(1, n))):
                x, y = rng.integers(0, n, size=2)
                if x != y:
                    m[x, y] += rng.uniform(0.0, 2.0)
        np.fill_diagonal(m, 0.0)
        np.fill_diagonal(m, -m.sum(axis=1))
        pair = siegmund_dual(RateMatrix.from_entries(m))
        is_sub = pair.l.kind in (MatrixKind.GENERATOR, MatrixKind.SUB_GENERATOR)
        assert is_sub == pair.monotone


class TestMonotone:
    def test_blocked_rw(self):
        assert check_monotone(rw_blocked_absorbed(5).pair.lhat)

    def test_cyclic(self):
        assert not check_monotone(cyclic_generator())

    def test_single_state(self):
        assert check_monotone(generator([[0.0]]))

    def test_birth_death_always_monotone(self, rng):
        for _ in range(10):
            assert check_monotone(random_birth_death(rng, 6))


class TestCumulativeTransform:
    def test_constant_weight(self):
        n = 7
        u = cumulative_transform(np.full(n, 1.0 / np.sqrt(n)))
        x = np.arange(1, n + 1)
        npt.assert_allclose(u, (n + 1 - x) / np.sqrt(n))

    def test_delta_at_top(self):
        w = np.zeros(5)
        w[-1] = 1.0
        npt.assert_array_equal(cumulative_transform(w), np.ones(5))

    @pytest.mark.parametrize("shape", [(1, 1), (3, 2), (6, 6), (40, 7)])
    def test_matrix_matches_column_loop(self, rng, shape):
        # each column on its own, bit for bit: a matrix is never flattened
        w = rng.standard_normal(shape)
        got = cumulative_transform(w)
        assert got.shape == shape
        npt.assert_array_equal(got, np.column_stack([cumulative_transform(w[:, j]) for j in range(shape[1])]))

    def test_blocked_rw_modes(self):
        rw = rw_blocked_absorbed(9)
        for i in range(9):
            npt.assert_allclose(cumulative_transform(rw.uhat[:, i]), rw.u[:, i], atol=1e-12)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 8))
    def test_spectral_transport(self, seed, n):
        # eigenfunctions of lhat^T map to eigenfunctions of the dual
        lhat = random_generator(np.random.default_rng(seed), n)
        pair = siegmund_dual(lhat)
        lams, vecs = np.linalg.eig(np.asarray(lhat.entries).T)
        dual = np.asarray(pair.l.entries)
        for i in range(n):
            u = cumulative_transform(vecs[:, i])
            defect = np.max(np.abs(dual @ u - lams[i] * u))
            assert defect < 1e-8 * max(1.0, np.max(np.abs(u)))


class TestChainReversal:
    def test_single_block_m1(self):
        npt.assert_array_equal(_chain_reversal(JordanStructure(((-1.0, 1),))), [0])

    def test_single_block_m2(self):
        npt.assert_array_equal(_chain_reversal(JordanStructure(((-1.0, 2),))), [1, 0])

    def test_block_diagonal_assembly(self):
        npt.assert_array_equal(_chain_reversal(JordanStructure(((0.0, 1), (-1.0, 2)))), [0, 2, 1])

    @given(
        st.lists(
            st.tuples(st.integers(-5, 5), st.integers(-3, 3), st.integers(1, 4)),
            min_size=1,
            max_size=4,
        )
    )
    def test_involution_and_commutation(self, raw):
        # the index applies B_J: p[p] is the identity (B_J^2 = I) and J[:, p][p] = J^T (B_J J B_J = J^T)
        structure = JordanStructure(tuple(JordanBlock(complex(re, im), m) for re, im, m in raw))
        p = _chain_reversal(structure)
        j = structure.jordan_matrix()
        npt.assert_array_equal(p[p], np.arange(structure.n))
        npt.assert_array_equal(j[:, p][p], j.T)


def _transport_inputs():
    rng = np.random.default_rng(1)
    for n in range(5, 41):
        yield f"birth-death-{n}", random_birth_death(rng, n)
    yield "jordan4", jordan_block_generator()
    yield "cyclic3", cyclic_generator()
    yield "dense-40", random_generator(np.random.default_rng(40), 40)


class TestSiegmundSpectral:
    @staticmethod
    def _assert_matches_decompose(sd, l):
        # where decompose of the dual succeeds, the transported structure is its structure
        try:
            direct = decompose(l)
        except DecompositionFailedError:
            return False
        assert [b.size for b in sd.structure.blocks] == [b.size for b in direct.structure.blocks]
        # within the block-matching radius, DEFAULTS.residual max|lambda| (at most 2.4e-8 here)
        radius = DEFAULTS.residual * np.max(np.abs(direct.eigenvalues))
        assert np.max(np.abs(sd.eigenvalues - direct.eigenvalues)) <= radius
        return True

    def test_battery_passes_the_gate_and_matches_decompose(self):
        decomposed = 0
        for name, lhat in _transport_inputs():
            pair = siegmund_dual(lhat)
            hat = decompose(lhat)
            sd = siegmund_spectral(pair, hat)
            assert sd.residual <= DEFAULTS.residual, name
            assert sd.source is pair.l and sd.structure is hat.structure
            decomposed += self._assert_matches_decompose(sd, pair.l)
        assert decomposed >= 36

    @pytest.mark.parametrize("n", [8, 50, 200, 600])
    def test_blocked_walk(self, n):
        rw = rw_blocked_absorbed(n)
        sd = siegmund_spectral(rw.pair, rw.spectral_hat)
        assert sd.residual <= DEFAULTS.residual
        npt.assert_array_equal(sd.U, rw.u)
        npt.assert_array_equal(sd.Uinv, rw.spectral.Uinv)
        assert self._assert_matches_decompose(sd, rw.pair.l)

    def test_chain_order_is_reversed_inside_a_block(self):
        # jordan4's size-2 block: the dual's eigenvector is the transport of the hat side's chain top
        lhat = jordan_block_generator()
        hat = decompose(lhat)
        pair = siegmund_dual(lhat)
        sd = siegmund_spectral(pair, hat)
        (offset,) = [o for o, b in zip(hat.structure.offsets, hat.structure.blocks) if b.size == 2]
        l = np.asarray(pair.l.entries)
        top = cumulative_transform(hat.Uinv[offset + 1])
        npt.assert_array_equal(sd.U[:, offset], top)
        npt.assert_allclose(l @ top, -1.0 * top, atol=1e-12)

    def test_spectral_data_of_another_generator_fails_the_gate(self):
        pair = siegmund_dual(random_birth_death(np.random.default_rng(2), 6))
        other = decompose(random_birth_death(np.random.default_rng(3), 6))
        with pytest.raises(DecompositionFailedError, match="Siegmund-transported eigenbasis residual"):
            siegmund_spectral(pair, other)

    def test_size_mismatch(self):
        pair = siegmund_dual(random_birth_death(np.random.default_rng(2), 6))
        with pytest.raises(ShapeMismatchError):
            siegmund_spectral(pair, decompose(random_birth_death(np.random.default_rng(3), 5)))


class TestReconstruct:
    def test_blocked_rw_families(self):
        rw = rw_blocked_absorbed(12)
        ds = reconstruct_siegmund(rw.uhat, rw.u)
        npt.assert_allclose(ds, siegmund_matrix(12), atol=1e-10)

    def test_single_state(self):
        npt.assert_array_equal(
            reconstruct_siegmund(np.ones((1, 1)), np.ones((1, 1))), [[1.0]]
        )

    def test_scaled_family_rejected_then_deviates(self):
        rw = rw_blocked_absorbed(6)
        scaled = rw.uhat.copy()
        scaled[:, 2] *= 2.0
        with pytest.raises(NotBiorthogonalError):
            reconstruct_siegmund(scaled, rw.u)
        # the unchecked sum the check guards against
        assert np.max(np.abs(scaled @ rw.u.T - siegmund_matrix(6))) > 1e-3


class TestCemetery:
    def test_absorbed_rw_extension(self):
        rw = rw_blocked_absorbed(5)
        ext = extend_with_cemetery(rw.pair.l)
        assert ext.kind is MatrixKind.GENERATOR
        entries = np.asarray(ext.entries)
        assert entries[4, 5] == pytest.approx(1.0)  # leak only from the top state
        npt.assert_array_equal(entries[5], np.zeros(6))
        npt.assert_array_equal(entries[:5, :5], np.asarray(rw.pair.l.entries))

    def test_conservative_raises_by_default(self):
        l = cyclic_generator()
        with pytest.raises(AlreadyConservativeError):
            extend_with_cemetery(l)

    def test_extended_indicator(self):
        n = 7
        rw = rw_blocked_absorbed(n)
        u_ext = np.vstack([rw.u, np.zeros((1, n))])  # columns vanish at the cemetery
        ds_ext = rw.uhat @ u_ext.T  # (n, n+1)
        x = np.arange(1, n + 1)
        y = np.arange(1, n + 2)
        npt.assert_allclose(ds_ext, (x[:, None] >= y[None, :]).astype(float), atol=1e-10)

    def test_extension_preserves_spectrum_with_new_constant_mode(self):
        n = 6
        rw = rw_blocked_absorbed(n)
        ext = extend_with_cemetery(rw.pair.l)
        old = np.linalg.eigvals(np.asarray(rw.pair.l.entries)).real
        new = np.sort(np.linalg.eigvals(np.asarray(ext.entries)).real)
        npt.assert_allclose(new, np.sort(np.concatenate([old, [0.0]])), atol=1e-8)
        # the constant function is the new eigenfunction at zero
        npt.assert_allclose(np.asarray(ext.entries) @ np.ones(n + 1), np.zeros(n + 1), atol=1e-12)
