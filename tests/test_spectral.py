from collections import Counter

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import subspace_angles

from markovdual import (
    JordanStructure,
    ConfigurationSpace,
    Measure,
    RateMatrix,
    build_from_spectra,
    check_r_similar,
    decompose,
    generator,
    match_jordan_blocks,
    reversible_eigenbasis,
    rw_reflected_absorbed,
    sep_generator,
    solve_duality_space,
    stationary_measure,
)
from markovdual.config import DEFAULTS, Tolerances
from markovdual import spectral
from markovdual.errors import DecompositionFailedError, NotOrthonormalError
from markovdual.models import ladder_sep_generator
from markovdual.scenarios import cyclic_generator, jordan_block_generator
from markovdual.spectral import _cluster_eigenvalues, _pivoted_picks

from conftest import (
    THREE_VERSUS_FIVE,
    cluster_running_mean,
    direct_sum,
    exact_jordan_sizes,
    greedy_pick,
    integer_jordan_sum,
    jordan_assembled,
    match_jordan_blocks_anchor,
    permuted,
    random_birth_death,
    random_generator,
    random_jordan_blocks,
    svd_power_cluster_chains,
    witness_matrix,
)


class TestDecompose:
    def test_cyclic_spectrum(self):
        sd = decompose(cyclic_generator())
        assert all(b.size == 1 for b in sd.structure.blocks)
        expected = sorted(
            [0.0, -1.5 + np.sqrt(3) / 2 * 1j, -1.5 - np.sqrt(3) / 2 * 1j],
            key=lambda z: (z.real, z.imag),
        )
        got = sorted(sd.eigenvalues, key=lambda z: (z.real, z.imag))
        assert max(abs(a - b) for a, b in zip(got, expected)) < 1e-10

    def test_cyclic_conjugate_columns(self):
        sd = decompose(cyclic_generator())
        # canonical order: 0 first, then -1.5 + i, then its conjugate with conjugate column
        blocks = sd.structure.blocks
        assert blocks[1].eigenvalue.imag > 0 > blocks[2].eigenvalue.imag
        npt.assert_allclose(sd.U[:, 2], sd.U[:, 1].conj())

    def test_jordan4_block(self):
        sd = decompose(jordan_block_generator(), tol_cluster=1e-7)
        assert [(round(b.eigenvalue.real, 6), b.size) for b in sd.structure.blocks] == [
            (0.0, 1),
            (-1.0, 2),
            (-1.5, 1),
        ]

    def test_jordan4_eigenvector_direction(self):
        # the block eigenvector must be parallel to (-1)^x / 2
        sd = decompose(jordan_block_generator())
        offset = sd.structure.offsets[1]
        col = sd.U[:, offset].real
        target = np.array([-1.0, 1.0, -1.0, 1.0]) / 2.0
        cos = abs(col @ target) / (np.linalg.norm(col) * np.linalg.norm(target))
        assert cos > 1.0 - 1e-9

    def test_diagonal_matrix(self):
        sd = decompose(RateMatrix.from_entries(np.diag([3.0, 1.0, -2.0])))
        assert sd.structure.is_diagonalizable()
        npt.assert_allclose(sorted(sd.eigenvalues.real), [-2.0, 1.0, 3.0], atol=1e-12)
        # U is a signed permutation of the identity
        npt.assert_allclose(np.abs(sd.U), np.eye(3)[:, [0, 1, 2]], atol=1e-12)

    def test_repeated_eigenvalue_complete_graph(self):
        n = 5
        k = np.ones((n, n)) - n * np.eye(n)
        sd = decompose(RateMatrix.from_entries(k))
        sizes = sorted(round(b.eigenvalue.real) for b in sd.structure.blocks)
        assert sizes == [-5, -5, -5, -5, 0]
        assert sd.structure.is_diagonalizable()

    def test_impossible_tolerance_raises(self, monkeypatch):
        monkeypatch.setattr(spectral, "DEFAULTS", Tolerances(residual=1e-30))
        with pytest.raises(DecompositionFailedError, match="decomposition residual"):
            decompose(cyclic_generator())

    @pytest.mark.parametrize("seed", range(60))
    def test_deep_blocks_decompose_on_every_seed(self, seed):
        # the n x n SVD-of-powers route read null dimensions [0, 1, 2, 4] at lam ~ 0
        # on 20 of these seeds and raised; the leading Schur block reads [0, 1, 2, 3, 4]
        m = jordan_assembled([(-2.0, 2), (-1.0, 3), (0.0, 4)], np.random.default_rng(seed))
        sd = decompose(m, tol_cluster=1e-3)
        assert _block_list(sd.structure) == [(0.0, 0.0, 4), (-1.0, 0.0, 3), (-2.0, 0.0, 2)]

    def test_impossible_null_dimensions_name_the_sequence(self):
        # a nilpotent block of size 3 beside delta = 1e-3: delta and delta^2 stay above the
        # k = 1, 2 cutoffs (sqrt(eps)), delta^3 falls below the k = 3 one, so the null
        # dimensions read [0, 1, 2, 4], whose increments grow: no Jordan structure has them
        block = np.diag([1.0, 1.0], 1)
        a = np.zeros((4, 4))
        a[:3, :3] = block
        a[3, 3] = 1e-3
        with pytest.raises(
            DecompositionFailedError,
            match=r"null dimensions of the powers \[0, 1, 2, 4\] at 0\+0j are not a Jordan partition "
            r"of algebraic multiplicity 4",
        ):
            spectral._jordan_chains(a, 0j, 4, 0.0, 1.0, 4)

    def test_short_null_dimensions_are_not_forced(self):
        # a nilpotent block of size 2 beside 0.1, which stays above every cutoff: the null
        # dimensions stop at [0, 1, 2, 2], short of m_alg = 3; forcing the last one to m_alg
        # (as decompose once did) gave one chain of 3 for a block of size 2
        a = np.zeros((3, 3))
        a[0, 1] = 1.0
        a[2, 2] = 0.1
        with pytest.raises(
            DecompositionFailedError,
            match=r"null dimensions of the powers \[0, 1, 2, 2\] at 0\+0j are not a Jordan partition "
            r"of algebraic multiplicity 3",
        ):
            spectral._jordan_chains(a, 0j, 3, 0.0, 1.0, 3)

    def test_complex_cluster_with_an_odd_member_count_raises(self):
        # folded eigenvalues 0, 0.9t i, 1.5t i, 1.9t i (each nonzero one twice, from its pair)
        # chain into one cluster whose mean drifts above the real axis by more than t: its
        # seven members cannot be whole conjugate pairs; tol_cluster is relative, so the
        # radius t is tol_cluster = t / ||m||_inf
        t = 1e-3
        m = np.zeros((7, 7))
        for k, y in enumerate((0.9 * t, 1.5 * t, 1.9 * t)):
            m[1 + 2 * k, 2 + 2 * k], m[2 + 2 * k, 1 + 2 * k] = y, -y
        with pytest.raises(DecompositionFailedError, match=r"odd number \(7\) of eigenvalues"):
            decompose(m, tol_cluster=t / np.abs(m).sum(axis=1).max())

    def test_schur_selection_must_match_the_cluster(self):
        mat = np.diag([0.0, 0.0, 0.0, 1.0])
        t, z = scipy.linalg.schur(mat, output="real")
        with pytest.raises(DecompositionFailedError, match=r"needs 2 Schur positions .* holds 3"):
            spectral._cluster_chains(mat, (t, z, np.sum(mat**2, axis=0)), np.zeros(2, complex), 0j, 1e-7)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 7))
    def test_rebuild_random_generator(self, seed, n):
        l = random_generator(np.random.default_rng(seed), n)
        sd = decompose(l)
        rebuilt = sd.U @ sd.structure.jordan_matrix() @ sd.Uinv
        assert np.max(np.abs(rebuilt - np.asarray(l.entries))) < 1e-8

    @given(st.integers(0, 2**32 - 1), st.integers(2, 7))
    def test_conjugate_closure(self, seed, n):
        l = random_generator(np.random.default_rng(seed), n)
        eigs = decompose(l).eigenvalues
        conj_sorted = sorted(eigs.conj(), key=lambda z: (z.real, z.imag))
        plain_sorted = sorted(eigs, key=lambda z: (z.real, z.imag))
        assert max(abs(a - b) for a, b in zip(conj_sorted, plain_sorted)) < 1e-7


@st.composite
def candidate_sets(draw):
    """Orthonormal candidates, an avoid space inside their span (or None), and a pick count."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 12))
    k = draw(st.integers(1, n))
    p = draw(st.integers(0, k - 1))
    want = draw(st.integers(1, k - p))
    complex_entries = draw(st.booleans())

    def rand(*shape):
        out = rng.standard_normal(shape)
        return out + 1j * rng.standard_normal(shape) if complex_entries else out

    candidates = np.linalg.qr(rand(n, k))[0]
    avoid = candidates @ rand(k, p) if p else None
    return candidates, avoid, want


@st.composite
def eigenvalue_multisets(draw):
    """Eigenvalues on a tol/2 grid (ties at exactly tol), some nudged off it, with conjugates.

    Every value is dyadic and tol is a power of two, so sums and means are
    exact and both clustering routes compare the same numbers.
    """
    tol = draw(st.sampled_from([2.0**-23, 2.0**-10, 0.5]))
    base = draw(st.sampled_from([0.0, -20.0]))
    points = draw(
        st.lists(
            st.tuples(st.integers(-6, 6), st.integers(0, 3), st.sampled_from([0, 1, -1])),
            min_size=1,
            max_size=30,
        )
    )
    eigs = []
    for re, im, nudge in points:
        z = base + complex(re * (1 + nudge * 2.0**-10), im) * tol / 2
        eigs.append(z)
        if im:
            eigs.append(z.conjugate())
    return np.array(eigs), tol


SEP_COMPLETE_SPECTRA = {
    (3, 2): {0.0: 7, -12.0: 10, -20.0: 9, -24.0: 1},
    (3, 3): {0.0: 10, -18.0: 16, -32.0: 18, -42.0: 16, -48.0: 4},
    (2, 4): {0.0: 9, -16.0: 7, -28.0: 5, -36.0: 3, -40.0: 1},
}


def _block_list(structure: JordanStructure) -> list[tuple[float, float, int]]:
    return [(round(b.eigenvalue.real, 6), round(b.eigenvalue.imag, 6), b.size) for b in structure.blocks]


class TestDecomposeRoutes:
    """The eig route for simple eigenvalues, pivoted-QR chain picks and vectorized clustering
    against the reference loops in conftest and the SVD null vectors they replaced."""

    @given(candidate_sets())
    def test_pivoted_picks_match_greedy_reference(self, case):
        candidates, avoid, want = case
        tops = _pivoted_picks(candidates, avoid, want)
        ref, gaps = greedy_pick(candidates, avoid, want)
        npt.assert_allclose(tops.conj().T @ tops, np.eye(want), atol=1e-12)
        if avoid is not None:
            assert np.max(np.abs(avoid.conj().T @ tops)) <= 1e-12 * np.max(np.abs(avoid))
        for i in range(1, want + 1):
            if gaps[i - 1] < 1e-6:
                break  # a tie: either candidate follows the rule, so later prefixes may differ
            assert np.max(subspace_angles(tops[:, :i], ref[:, :i])) <= 1e-10

    def test_pivoted_picks_raise_when_candidates_run_out(self):
        with pytest.raises(DecompositionFailedError):
            _pivoted_picks(np.zeros((4, 0)), None, 1)
        with pytest.raises(DecompositionFailedError):
            _pivoted_picks(np.eye(4)[:, :2], None, 3)
        with pytest.raises(DecompositionFailedError):
            _pivoted_picks(np.eye(4)[:, :2], np.eye(4)[:, :1], 2)

    @given(eigenvalue_multisets())
    def test_clusters_match_running_mean_reference(self, case):
        eigs, tol = case
        groups, means = _cluster_eigenvalues(eigs, tol)
        as_set = lambda gs: {frozenset(int(i) for i in g) for g in gs}
        assert as_set(groups) == as_set(cluster_running_mean(eigs, tol))
        npt.assert_array_equal(means, [np.mean(eigs[g]) for g in groups])

    @given(st.integers(0, 2**32 - 1), st.integers(2, 40), st.booleans())
    def test_eig_columns_parallel_to_svd_null_vectors(self, seed, n, birth_death):
        rng = np.random.default_rng(seed)
        if birth_death:
            m = np.asarray(random_birth_death(rng, n).entries)
            perm = rng.permutation(n)
            m = m[np.ix_(perm, perm)]
        else:
            m = np.asarray(random_generator(rng, n).entries)
        sd = decompose(RateMatrix.from_entries(m))
        assert sd.structure.is_diagonalizable()
        assert len({b.eigenvalue for b in sd.structure.blocks}) == n
        for offset, block in zip(sd.structure.offsets, sd.structure.blocks):
            null = np.linalg.svd(m - block.eigenvalue * np.eye(n))[2][-1].conj()
            col = sd.U[:, offset]
            assert abs(np.vdot(null, col)) / np.linalg.norm(col) >= 1.0 - 1e-9

    @pytest.mark.parametrize("vertices,gamma", list(SEP_COMPLETE_SPECTRA))
    def test_sep_complete_graph_structure(self, vertices, gamma):
        sd = decompose(sep_generator(ConfigurationSpace.sep(vertices, gamma), 1.0))
        spectrum = SEP_COMPLETE_SPECTRA[(vertices, gamma)]
        expected = JordanStructure(tuple((ev, 1) for ev, mult in spectrum.items() for _ in range(mult)))
        assert _block_list(sd.structure) == _block_list(expected)

    @pytest.mark.parametrize("copies", range(1, 7))
    def test_jordan_sum_structure(self, copies, rng):
        m = np.kron(np.eye(copies), np.asarray(jordan_block_generator().entries))
        perm = rng.permutation(m.shape[0])
        sd = decompose(RateMatrix.from_entries(m[np.ix_(perm, perm)]))
        expected = [(0.0, 0.0, 1)] * copies + [(-1.0, 0.0, 2)] * copies + [(-1.5, 0.0, 1)] * copies
        assert _block_list(sd.structure) == expected


def _symmetric_rates(rng, vertices):
    p = rng.uniform(0.5, 2.0, (vertices, vertices))
    p = (p + p.T) / 2.0
    np.fill_diagonal(p, 0.0)
    return p


def _sep(rng, vertices, gamma, random_rates):
    p = _symmetric_rates(rng, vertices) if random_rates else 1.0
    return permuted(rng, sep_generator(ConfigurationSpace.sep(vertices, gamma), p))


# relabellings q of kron(I_20, jordan4) (the matrix K[q][:, q]) drawn by perfbench's
# spectral-build workload, on which a second, gesdd SVD per power in decompose raised
# numpy's LinAlgError "SVD did not converge"
PINNED_JORDAN_SUMS = {
    "seed 30, job 1034, L side": [
        45, 23, 52, 20, 36, 74, 2, 50, 78, 38, 17, 47, 1, 35, 67, 37, 41, 12, 77, 73, 49, 65, 58, 69, 76, 43,
        5, 24, 59, 64, 56, 75, 57, 15, 70, 71, 14, 42, 31, 7, 10, 72, 19, 29, 46, 62, 79, 48, 11, 66, 33, 22,
        25, 4, 3, 53, 9, 28, 34, 8, 26, 21, 40, 13, 30, 39, 63, 51, 6, 16, 68, 0, 18, 44, 27, 60, 32, 54, 61,
        55,
    ],
    "seed 205, job 2121, L side": [
        20, 14, 2, 11, 28, 26, 41, 36, 24, 34, 32, 27, 4, 60, 37, 51, 31, 18, 30, 48, 15, 52, 70, 8, 78, 5, 13,
        59, 69, 73, 75, 58, 46, 12, 25, 1, 17, 62, 43, 77, 38, 6, 33, 57, 50, 66, 47, 16, 49, 67, 79, 76, 29,
        35, 39, 40, 65, 42, 23, 0, 19, 10, 9, 71, 56, 72, 7, 63, 54, 68, 45, 53, 64, 21, 55, 3, 61, 22, 74, 44,
    ],
    "seed 1000, job 869, L-hat side": [
        0, 60, 50, 69, 24, 51, 57, 18, 21, 19, 13, 11, 78, 14, 29, 72, 42, 25, 22, 26, 37, 15, 65, 35, 9, 38,
        28, 39, 34, 77, 76, 73, 53, 59, 33, 30, 20, 49, 3, 56, 74, 23, 63, 66, 32, 36, 58, 70, 27, 47, 16, 17,
        44, 75, 55, 54, 67, 79, 7, 6, 71, 10, 64, 12, 52, 40, 43, 2, 45, 4, 48, 5, 1, 8, 46, 61, 62, 68, 31,
        41,
    ],
}


def _integer_blocks(rng: np.random.Generator) -> list[tuple[int, int]]:
    """[(eigenvalue, size), ...] with eigenvalues in {-2, -1, 0}, sizes 1..5, at least 8 states."""
    blocks, n = [], 0
    while n < 8:
        size = int(rng.integers(1, 6))
        blocks.append((int(rng.choice([-2, -1, 0])), size))
        n += size
    return blocks


class TestDecomposeFailures:
    """decompose returns the exact structure or raises DecompositionFailedError, never a wrong one."""

    @pytest.mark.parametrize("label", list(PINNED_JORDAN_SUMS))
    def test_pinned_jordan_sums_decompose(self, label):
        q = PINNED_JORDAN_SUMS[label]
        k = np.kron(np.eye(20), np.asarray(jordan_block_generator().entries))
        sd = decompose(k[np.ix_(q, q)])
        assert Counter(_block_list(sd.structure)) == {(0.0, 0.0, 1): 20, (-1.0, 0.0, 2): 20, (-1.5, 0.0, 1): 20}
        assert sd.residual <= 1e-13

    @pytest.mark.parametrize(
        "target", ["numpy.linalg.eig", "scipy.linalg.schur", "scipy.linalg.qr", "scipy.linalg.svd"]
    )
    def test_lapack_failures_are_typed(self, target, monkeypatch):
        def fails(*args, **kwargs):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(target, fails)
        with pytest.raises(DecompositionFailedError, match="did not converge"):
            decompose(direct_sum(np.random.default_rng(0), jordan_block_generator(), 2))

    @pytest.mark.parametrize("tol_cluster,least", [(DEFAULTS.cluster, 0), (1e-3, 5)])
    def test_integer_jordan_sums_exact_or_raise(self, tol_cluster, least):
        # exact block sizes at -2, -1 and 0 from the null dimensions of (M - lam I)^k modulo two primes
        exact_count = 0
        for seed in range(60):
            rng = np.random.default_rng(seed)
            blocks = _integer_blocks(rng)
            m = integer_jordan_sum(rng, blocks)
            exact = {lam: exact_jordan_sizes(m, lam) for lam in (-2, -1, 0)}
            assert exact == {lam: sorted((s for e, s in blocks if e == lam), reverse=True) for lam in exact}
            try:
                sd = decompose(m.astype(float), tol_cluster=tol_cluster)
            except DecompositionFailedError:
                continue
            got = {lam: [] for lam in exact}
            for b in sd.structure.blocks:
                lam = round(b.eigenvalue.real)
                assert abs(b.eigenvalue - lam) <= tol_cluster * np.abs(m).sum(axis=1).max(), seed
                got.setdefault(lam, []).append(b.size)
            assert got == exact, seed
            exact_count += 1
        assert exact_count >= least


def _complex_jordan(rng, size):
    """S J S^-1 for J = one real Jordan block of `size` 2 x 2 rotations (eigenvalues -1 +- i), beside -2."""
    n = 2 * size + 1
    j = np.kron(np.eye(size), [[-1.0, 1.0], [-1.0, -1.0]]) + np.eye(2 * size, k=2)
    j = np.block([[j, np.zeros((2 * size, 1))], [np.zeros((1, 2 * size)), -2.0 * np.eye(1)]])
    s = rng.random((n, n)) + 2.0 * np.eye(n)
    return RateMatrix.from_entries(s @ j @ np.linalg.inv(s))


# label -> (build(rng) -> RateMatrix, tol_cluster); a designed block of size m
# splits by about eps^(1/m), so sizes 3 and 4 need the looser tolerance
ROUTE_CASES = {
    "sep complete 3,2": (lambda rng: _sep(rng, 3, 2, False), 1e-7),
    "sep complete 2,4": (lambda rng: _sep(rng, 2, 4, False), 1e-7),
    "sep random 3,2": (lambda rng: _sep(rng, 3, 2, True), 1e-7),
    "sep random 4,1": (lambda rng: _sep(rng, 4, 1, True), 1e-7),
    "ladder 2,2": (lambda rng: permuted(rng, ladder_sep_generator(ConfigurationSpace.ladder(2, 2), 1.0)), 1e-7),
    "ladder random 2,3": (
        lambda rng: permuted(rng, ladder_sep_generator(ConfigurationSpace.ladder(2, 3), _symmetric_rates(rng, 2))),
        1e-7,
    ),
    "jordan sum 3": (lambda rng: direct_sum(rng, jordan_block_generator(), 3), 1e-7),
    "jordan sum 8": (lambda rng: direct_sum(rng, jordan_block_generator(), 8), 1e-7),
    "assembled defective": (
        lambda rng: jordan_assembled([(0.0, 1), (-1.0, 2), (-1.0, 1), (-1.0, 1), (-2.0, 1), (-2.0, 1)], rng),
        1e-7,
    ),
    "battery hat": (lambda rng: jordan_assembled(THREE_VERSUS_FIVE[0], rng), 1e-3),
    "battery primal": (lambda rng: jordan_assembled(THREE_VERSUS_FIVE[1], rng), 1e-3),
    "battery random 1": (lambda rng: jordan_assembled(random_jordan_blocks(rng), rng), 1e-3),
    "battery random 2": (lambda rng: jordan_assembled(random_jordan_blocks(rng, 8), rng), 1e-3),
    "cycles 3": (lambda rng: direct_sum(rng, cyclic_generator(), 3), 1e-7),
    "cycles 5": (lambda rng: direct_sum(rng, cyclic_generator(), 5), 1e-7),
    "complex jordan 2": (lambda rng: _complex_jordan(rng, 2), 1e-7),
}


def _semisimple_clusters(structure: JordanStructure):
    """Column ranges of the eigenvalues carried by two or more blocks, all of size 1."""
    out, pos = [], 0
    for ev in dict.fromkeys(b.eigenvalue for b in structure.blocks):
        sizes = [b.size for b in structure.blocks if b.eigenvalue == ev]
        if len(sizes) > 1 and max(sizes) == 1:
            out.append((ev, slice(pos, pos + len(sizes))))
        pos += sum(sizes)
    return out


class TestLeadingBlockRoute:
    """Chains from the reordered leading Schur block against the n x n SVD-of-powers reference in conftest."""

    @staticmethod
    def spy(monkeypatch):
        """Record (lam, exited at k = 1) for every _jordan_chains call."""
        calls = []
        real = spectral._jordan_chains

        def recording(a, lam, m_alg, *args):
            out = real(a, lam, m_alg, *args)
            exited = len(out) == m_alg and np.array_equal([c[0] for c in out], np.eye(m_alg))
            calls.append((round(lam.real, 6), exited))
            return out

        monkeypatch.setattr(spectral, "_jordan_chains", recording)
        return calls

    @pytest.mark.parametrize("case", list(ROUTE_CASES))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_structure_and_span_match_svd_reference(self, case, seed, monkeypatch):
        build, tol = ROUTE_CASES[case]
        l = build(np.random.default_rng(seed))
        fast = decompose(l, tol_cluster=tol)
        monkeypatch.setattr(spectral, "_cluster_chains", svd_power_cluster_chains)
        svd = decompose(l, tol_cluster=tol)
        assert fast.structure == svd.structure
        for _, cols in _semisimple_clusters(fast.structure):
            assert np.max(subspace_angles(fast.U[:, cols], svd.U[:, cols])) <= 1e-8
        assert fast.residual <= 1e-11
        upper = [ev for ev in dict.fromkeys(b.eigenvalue for b in fast.structure.blocks) if ev.imag > 0]
        for ev in upper:
            cols = [self.columns(fast.structure, e) for e in (ev, ev.conjugate())]
            npt.assert_array_equal(fast.U[:, cols[0]].conj(), fast.U[:, cols[1]])

    @staticmethod
    def columns(structure: JordanStructure, ev: complex) -> list[int]:
        return [
            offset + i
            for offset, b in zip(structure.offsets, structure.blocks)
            if b.eigenvalue == ev
            for i in range(b.size)
        ]

    @pytest.mark.parametrize("copies", [1, 2, 6, 12])
    def test_defective_clusters_never_exit_at_k1(self, copies, monkeypatch):
        calls = self.spy(monkeypatch)
        decompose(direct_sum(np.random.default_rng(copies), jordan_block_generator(), copies))
        expected = [(-1.5, True), (-1.0, False), (0.0, True)] if copies > 1 else [(-1.0, False)]
        assert sorted(calls) == expected

    @pytest.mark.parametrize("vertices,gamma", [(3, 2), (3, 3), (4, 2), (2, 8)])
    @pytest.mark.parametrize("random_rates", [False, True])
    def test_sep_clusters_always_exit_at_k1(self, vertices, gamma, random_rates, monkeypatch):
        calls = self.spy(monkeypatch)
        sd = decompose(_sep(np.random.default_rng(vertices * gamma), vertices, gamma, random_rates))
        eigenvalues = [b.eigenvalue for b in sd.structure.blocks]
        repeated = {ev for ev in eigenvalues if eigenvalues.count(ev) > 1}
        assert calls and all(ok for _, ok in calls)
        assert len(calls) == len(repeated)

    def test_no_schur_form_without_a_repeated_eigenvalue(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("schur called")

        monkeypatch.setattr(spectral.scipy.linalg, "schur", forbidden)
        decompose(random_generator(np.random.default_rng(0), 12))
        decompose(cyclic_generator())


def _sep_random_rates(rng):
    p = rng.uniform(0.5, 2.0, (3, 3))
    p = (p + p.T) / 2.0
    np.fill_diagonal(p, 0.0)
    return sep_generator(ConfigurationSpace.sep(3, 2), p)


SIMILAR_INPUTS = {
    "dense": lambda rng: random_generator(rng, 30),
    "birth-death": lambda rng: random_birth_death(rng, 40),
    "sep-complete": lambda rng: sep_generator(ConfigurationSpace.sep(3, 2), 1.0),
    "sep-random": _sep_random_rates,
    "jordan-sum": lambda rng: direct_sum(rng, jordan_block_generator(), 6),
}


class TestRSimilar:
    def test_self_similarity_full_rank(self):
        for l in (cyclic_generator(), jordan_block_generator()):
            sd = decompose(l)
            w = check_r_similar(sd, sd, r=l.n)
            assert w is not None and w.rank == l.n
            j = sd.structure.jordan_matrix()
            t = witness_matrix(sd, sd, w)
            assert np.max(np.abs(j @ t - t @ j)) < 1e-9

    def test_rw54_pair_full_rank(self):
        rw = rw_reflected_absorbed(6)
        w = check_r_similar(rw.spectral_hat, rw.spectral, r=6)
        assert w is not None
        jh = rw.spectral_hat.structure.jordan_matrix()
        j = rw.spectral.structure.jordan_matrix()
        t = witness_matrix(rw.spectral_hat, rw.spectral, w)
        assert np.max(np.abs(jh @ t - t @ j)) < 1e-12

    def test_disjoint_spectra_share_only_zero(self):
        # complex cyclic spectrum vs real birth-death spectrum: only lambda=0 is common
        a = decompose(cyclic_generator())
        b = decompose(generator([[-2.0, 2.0, 0.0], [1.0, -4.0, 3.0], [0.0, 1.0, -1.0]]))
        assert check_r_similar(a, b, r=1) is not None
        assert check_r_similar(a, b, r=2) is None
        # cross-validated by the kernel oracle
        space = solve_duality_space(cyclic_generator(), generator([[-2.0, 2.0, 0.0], [1.0, -4.0, 3.0], [0.0, 1.0, -1.0]]))
        assert space.dimension == 1

    def test_matching_count_with_multiplicity(self):
        n = 4
        k = RateMatrix.from_entries(np.ones((n, n)) - n * np.eye(n))
        sd = decompose(k)
        matches = match_jordan_blocks(sd.structure, sd.structure)
        assert sum(u.size for u in matches) == n

    def test_truncated_witness_rank(self):
        sd = decompose(jordan_block_generator())
        w = check_r_similar(sd, sd, r=2)
        assert w is not None
        assert sum(u.size for u in w.matched) == 2
        assert np.linalg.matrix_rank(witness_matrix(sd, sd, w)) == 2

    def test_out_of_range_rank(self):
        sd = decompose(cyclic_generator())
        with pytest.raises(ValueError):
            check_r_similar(sd, sd, r=4)

    @pytest.mark.parametrize("kind", list(SIMILAR_INPUTS))
    @pytest.mark.parametrize("seed", range(4))
    def test_full_rank_witness_lists_conjugate_blocks_mirrored(self, kind, seed):
        # a rank-n build ties each conjugate block's coefficient to its upper partner's:
        # that needs every block below the real axis listed after a partner whose
        # (Re, |Im|) is bit-identical, on two relabelled copies of one generator
        rng = np.random.default_rng(seed)
        l = SIMILAR_INPUTS[kind](rng)
        hat, primal = decompose(permuted(rng, l)), decompose(permuted(rng, l))
        w = check_r_similar(hat, primal, l.n)
        assert w is not None and sum(u.size for u in w.matched) == l.n
        coefficients, shared = [], {}
        for u in w.matched:
            key = (u.eigenvalue.real, abs(u.eigenvalue.imag))
            if u.eigenvalue.imag < 0:
                assert shared.get(key), f"block at {u.eigenvalue} comes before its upper partner"
                coefficients.append(shared[key].pop(0))
                continue
            coefficients.append(float(rng.uniform(0.5, 2.0)))
            if u.eigenvalue.imag > 0:
                shared.setdefault(key, []).append(coefficients[-1])
        assert not any(shared.values()), "an upper block has no conjugate partner"
        d = build_from_spectra(hat, primal, w, coefficients)
        assert d.rank == l.n
        assert d.residual <= 1e-9 * max(1.0, np.max(np.abs(d.matrix)))


class TestBlockMatchingReference:
    """match_jordan_blocks (the one grouping rule) against the anchor loop it replaced, kept in conftest."""

    @staticmethod
    def assert_same(hat, primal, tol=DEFAULTS.cluster):
        new = match_jordan_blocks(hat.structure, primal.structure)
        assert new == match_jordan_blocks_anchor(hat.structure, primal.structure, tol)

    @pytest.mark.parametrize("case", list(ROUTE_CASES))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_relabelled_self_pairs(self, case, seed):
        build, tol = ROUTE_CASES[case]
        rng = np.random.default_rng(seed)
        l = build(rng)
        self.assert_same(decompose(permuted(rng, l), tol_cluster=tol), decompose(permuted(rng, l), tol_cluster=tol))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_three_versus_five(self, seed):
        rng = np.random.default_rng(seed)
        hat, primal = (decompose(jordan_assembled(b, rng), tol_cluster=1e-3) for b in THREE_VERSUS_FIVE)
        self.assert_same(hat, primal)
        self.assert_same(primal, hat)

    def test_criterion_6_pairs(self):
        # the 50 pairs of tests/test_acceptance.py::test_criterion_6_rank_matching_cross_validation
        rng = np.random.default_rng(66)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            l = random_generator(rng, n)
            if rng.random() < 0.5:
                perm = np.eye(n)[rng.permutation(n)]
                lhat = RateMatrix.from_entries(perm @ np.asarray(l.entries) @ perm.T)
            else:
                lhat = random_generator(rng, int(rng.integers(2, 6)))
            self.assert_same(decompose(lhat), decompose(l))

    @pytest.mark.parametrize("seed", [1234, *range(20)])
    @pytest.mark.parametrize(
        "hat_blocks,tol",
        [([(-1.0, 2), (-1.0, 1), (0.0, 1)], 1e-5), ([(-1.0, 3), (0.0, 1)], 1e-4)],
        ids=["equal", "unequal"],
    )
    def test_partition_pairs_match_at_the_default_radius(self, seed, hat_blocks, tol):
        # the pairs of tests/test_cross_module.py::TestDefectivePairs, once matched at the looser tol
        rng = np.random.default_rng(seed)
        hat = decompose(jordan_assembled(hat_blocks, rng), tol_cluster=tol)
        primal = decompose(jordan_assembled([(-1.0, 2), (-1.0, 1), (0.0, 1)], rng), tol_cluster=tol)
        self.assert_same(hat, primal)
        self.assert_same(hat, primal, tol)


class TestBiorthogonal:
    @staticmethod
    def gram_defect(fs, gs, mu):
        """max|sum_x F_i(x) G_j(x) mu(x) - delta_ij| (bilinear pairing)."""
        return np.max(np.abs((fs * np.asarray(mu.weights)) @ gs.T - np.eye(len(fs))))

    def test_reversible_orthonormal_basis(self, rng):
        l = random_birth_death(rng, 6)
        mu = stationary_measure(l)
        _, u = reversible_eigenbasis(l, mu)
        assert self.gram_defect(u.T, u.T, mu) <= 1e-9

    def test_u_columns_vs_uinv_rows(self, rng):
        l = random_generator(rng, 5)
        mu = stationary_measure(l)
        sd = decompose(l)
        fs = sd.U.T
        gs = sd.Uinv / np.asarray(mu.weights)[None, :]
        assert self.gram_defect(fs, gs, mu) <= 1e-7


class TestReversibleEigenbasis:
    def test_eigen_and_orthonormality(self, rng):
        l = random_birth_death(rng, 7)
        mu = stationary_measure(l)
        lams, u = reversible_eigenbasis(l, mu)
        assert lams[0] == pytest.approx(0.0, abs=1e-10)
        assert np.all(np.diff(lams) <= 1e-12)
        for i in range(7):
            defect = np.asarray(l.entries) @ u[:, i] - lams[i] * u[:, i]
            assert np.max(np.abs(defect)) < 1e-8 * max(1.0, np.max(np.abs(u[:, i])))
        w = np.asarray(mu.weights)
        npt.assert_allclose((u.T * w) @ u, np.eye(7), atol=1e-10)

    def test_non_reversible_rejected(self):
        with pytest.raises(NotOrthonormalError):
            reversible_eigenbasis(cyclic_generator(), Measure.from_weights(np.full(3, 1 / 3)))
