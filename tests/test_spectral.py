import warnings
from collections import Counter
from itertools import groupby
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.cluster.hierarchy import linkage
from scipy.spatial.distance import squareform
from scipy.linalg import block_diag, subspace_angles

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
from markovdual import core, linalg, spectral
from markovdual.spectral import SpectralData
from markovdual.errors import DecompositionFailedError, NotOrthonormalError
from markovdual.models import ladder_sep_generator
from markovdual.scenarios import cyclic_generator, jordan_block_generator
from markovdual.linalg import EPS, scaled_tol
from markovdual.spectral import _pivoted_picks

from conftest import (
    THREE_VERSUS_FIVE,
    complex_jordan,
    direct_sum,
    greedy_pick,
    integer_sum_miss,
    jordan_assembled,
    match_jordan_blocks_anchor,
    permuted,
    random_birth_death,
    random_generator,
    random_jordan_blocks,
    svd_power_cluster_chains,
    witness_matrix,
)


def schur_route(m) -> SpectralData:
    """decompose's Schur route on any input, reversible or not: the reference for the symmetric route."""
    source = m if isinstance(m, RateMatrix) else RateMatrix.from_entries(m)
    return spectral._schur_route(source, scaled_tol(1.0, source.entries))


def assert_same_structure(sd: SpectralData, reference: SpectralData) -> None:
    """The same block sizes under each distinct eigenvalue, in canonical order, and the eigenvalues
    within DEFAULTS.residual ||M||_inf of the reference's, position by position."""

    def groups(structure):
        return [[b.size for b in blocks] for _, blocks in groupby(structure.blocks, key=lambda b: b.eigenvalue)]

    assert groups(sd.structure) == groups(reference.structure)
    bound = DEFAULTS.residual * scaled_tol(1.0, reference.source.entries)
    assert np.max(np.abs(sd.eigenvalues - reference.eigenvalues), initial=0.0) <= bound


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
        sd = decompose(jordan_block_generator())
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

    def test_zero_matrix_is_five_simple_blocks(self):
        sd = decompose(np.zeros((5, 5)))
        assert _block_list(sd.structure) == [(0.0, 0.0, 1)] * 5 and sd.residual == 0.0

    def test_impossible_tolerance_raises(self, monkeypatch):
        monkeypatch.setattr(spectral, "DEFAULTS", Tolerances(residual=1e-30))
        with pytest.raises(DecompositionFailedError, match="decomposition residual"):
            decompose(cyclic_generator())

    @pytest.mark.parametrize("seed", range(60))
    def test_deep_blocks_decompose_on_every_seed(self, seed):
        # the n x n SVD-of-powers route read null dimensions [0, 1, 2, 4] at lam ~ 0
        # on 20 of these seeds and raised; the leading Schur block reads [0, 1, 2, 3, 4]
        m = jordan_assembled([(-2.0, 2), (-1.0, 3), (0.0, 4)], np.random.default_rng(seed))
        sd = decompose(m)
        assert _block_list(sd.structure) == [(0.0, 0.0, 4), (-1.0, 0.0, 3), (-2.0, 0.0, 2)]

    def test_impossible_null_dimensions_are_rejected(self):
        # a nilpotent block of size 3 beside delta = 1e-3: the powers read null dimensions
        # [0, 1, 2, 4] (delta^3 falls below the third power's cutoff), which no Jordan
        # structure has; the staircase deflates and reads [0, 1, 2, 3], short of 4
        a = np.zeros((4, 4))
        a[:3, :3] = np.diag([1.0, 1.0], 1)
        a[3, 3] = 1e-3
        assert spectral._staircase(a, np.sqrt(EPS), 4) is None
        assert spectral._staircase(a, np.sqrt(EPS), 3)[0] == [0, 1, 2, 3]

    def test_short_null_dimensions_are_not_forced(self):
        # a nilpotent block of size 2 beside 0.1, which stays above the cutoff: the null
        # dimensions stop at [0, 1, 2], short of m_alg = 3; forcing the last one to m_alg
        # (as decompose once did) gave one chain of 3 for a block of size 2
        a = np.zeros((3, 3))
        a[0, 1] = 1.0
        a[2, 2] = 0.1
        assert spectral._staircase(a, np.sqrt(EPS), 3) is None
        assert spectral._staircase(a, np.sqrt(EPS), 2)[0] == [0, 1, 2]

    def test_pairs_near_the_real_axis_stay_simple(self):
        # folded eigenvalues 0, 0.9t i, 1.5t i and 1.9t i: a radius of t once chained them
        # into one cluster of seven members, which cannot be whole conjugate pairs; no node
        # of their tree is separated from the rest by RATIO times its spread
        t = 1e-3
        m = np.zeros((7, 7))
        for k, y in enumerate((0.9 * t, 1.5 * t, 1.9 * t)):
            m[1 + 2 * k, 2 + 2 * k], m[2 + 2 * k, 1 + 2 * k] = y, -y
        sd = decompose(m)
        assert len(sd.structure.blocks) == 7 and sd.structure.is_diagonalizable()
        assert sorted(_block_list(sd.structure)) == sorted(
            [(0.0, 0.0, 1)] + [(0.0, s * round(y, 6), 1) for y in (0.9 * t, 1.5 * t, 1.9 * t) for s in (1, -1)]
        )

    @pytest.mark.parametrize("seed", range(5))
    def test_close_eigenvalues_of_a_symmetric_matrix_stay_simple(self, seed):
        # -1 and -1 - 4e-8: their block passes the staircase as wholly null, but its Schur
        # vectors leave a defect of about 2e-8, above the gate's 1e-9 ||M||; two simple blocks
        q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((6, 6)))
        d = np.array([0.0, -1.0, -1.0 - 4e-8, -2.0, -2.5, -3.0])
        sd = schur_route(q @ np.diag(d) @ q.T)
        assert sd.structure.is_diagonalizable() and len(sd.structure.blocks) == 6
        npt.assert_allclose(sorted(sd.eigenvalues.real), sorted(d), rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_close_eigenvalues_of_a_symmetric_matrix_stay_simple_on_decompose(self, seed):
        # the twin of the test above (its negative rates keep it off the symmetric route; the
        # reversible case is TestSymmetricRoute.test_close_eigenvalues_of_a_reversible_chain_stay_simple)
        q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((6, 6)))
        d = np.array([0.0, -1.0, -1.0 - 4e-8, -2.0, -2.5, -3.0])
        sd = decompose(q @ np.diag(d) @ q.T)
        assert sd.structure.is_diagonalizable() and len(sd.structure.blocks) == 6
        npt.assert_allclose(sorted(sd.eigenvalues.real), sorted(d), rtol=0.0, atol=1e-12)

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


SEP_COMPLETE_SPECTRA = {
    (3, 2): {0.0: 7, -12.0: 10, -20.0: 9, -24.0: 1},
    (3, 3): {0.0: 10, -18.0: 16, -32.0: 18, -42.0: 16, -48.0: 4},
    (2, 4): {0.0: 9, -16.0: 7, -28.0: 5, -36.0: 3, -40.0: 1},
}


def _block_list(structure: JordanStructure) -> list[tuple[float, float, int]]:
    return [(round(b.eigenvalue.real, 6), round(b.eigenvalue.imag, 6), b.size) for b in structure.blocks]


class TestDecomposeRoutes:
    """The eig route for simple eigenvalues and pivoted-QR chain picks against the reference
    loops in conftest and the SVD null vectors they replaced."""

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

    @given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.booleans(), st.sampled_from([1.0, 3.0, 100.0]))
    def test_tried_nodes_match_scipy(self, seed, p, on_axis, ratio):
        # scipy.cluster.hierarchy.linkage (single, on the same distances) as the reference tree:
        # a node is tried when it is a merge or a pair leaf (positive width) and its parent's
        # height (norm for the root) is at least ratio max(spread, eps norm).  Clustered draws at
        # scales 1e-9..1, continuous, so no height ties and some nodes pass at every ratio
        rng = np.random.default_rng(seed)
        k = rng.integers(1, 4)
        centers = rng.standard_normal(k) + (0.0 if on_axis else 1j * rng.standard_normal(k))
        noise = rng.standard_normal(p) + (0.0 if on_axis else 1j * rng.standard_normal(p))
        points = centers[rng.integers(k, size=p)] + 10.0 ** rng.uniform(-9, 0, p) * noise
        widths = np.where(rng.random(p) < 0.5, 0.0, 10.0 ** rng.uniform(-9, 0, p))
        norm = 10.0 ** rng.uniform(-1, 1) * np.abs(points).max()
        with mock.patch.object(spectral, "RATIO", ratio):
            order, tried = spectral._tried_nodes(points, widths, norm)
        assert sorted(order.tolist()) == list(range(p))
        nodes = [frozenset(order[a:b].tolist()) for a, b in tried]
        assert [len(n) for n in nodes] == sorted((len(n) for n in nodes), reverse=True)
        ref = [(frozenset([i]), widths[i]) for i in range(p)]
        merges = linkage(squareform(np.abs(points[:, None] - points), checks=False), "single") if p > 1 else []
        for a, b, h, _ in merges:
            ref.append((ref[int(a)][0] | ref[int(b)][0], h))
        want = set()
        for i, (members, spread) in enumerate(ref):
            separation = min((h for n, h in ref[p:] if members < n), default=norm)
            if (i >= p or spread > 0.0) and separation >= ratio * max(spread, spectral.EPS * norm):
                want.add(members)
        assert set(nodes) == want and len(nodes) == len(want)

    def test_tried_nodes_at_the_ratio_bound(self):
        # the ratio test passes at equality: a pair leaf alone (separation norm) or beside a point 1
        # away (separation 1, below or above norm) is tried at width separation / RATIO, not above it
        for points, norm, separation in [([0.5], 0.25, 0.25), ([0.0, 1.0], 0.25, 1.0), ([0.0, 1.0], 4.0, 1.0)]:
            bound = separation / spectral.RATIO
            for width, tried in [(bound, [(0, 1)]), (np.nextafter(bound, 1.0), [])]:
                widths = np.array([width] + [0.0] * (len(points) - 1))
                _, got = spectral._tried_nodes(np.array(points), widths, norm)
                assert got == tried, (points, norm, width)
        # and a merge of height 1 is tried at separation RATIO, not below it: at the root (norm),
        # and beside a point RATIO away on either side
        for norm, tried in [(spectral.RATIO, [(0, 2)]), (np.nextafter(spectral.RATIO, 0.0), [])]:
            assert spectral._tried_nodes(np.array([0.0, 1.0]), np.zeros(2), norm)[1] == tried
        for far, hit in [(1.0 + spectral.RATIO, True), (np.nextafter(1.0 + spectral.RATIO, 0.0), False)]:
            assert spectral._tried_nodes(np.array([0.0, 1.0, far]), np.zeros(3), 2.0 * far)[1] == [(0, 2)] * hit
            assert spectral._tried_nodes(np.array([-far, -1.0, 0.0]), np.zeros(3), 2.0 * far)[1] == [(1, 3)] * hit

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


# perfbench spectral-build seed 4, job 2800: one 70-state birth-death chain (down and up
# rates, so m = diag(up, 1) + diag(down, -1), rows closed) and the relabellings q of each
# side (the matrix m[q][:, q]); two of its simple eigenvalues lie 6.1e-7 apart at -5.7485,
# inside the default cluster radius 8.2e-7
BIRTH_DEATH_2800 = {
    "down": [
        1.617765088410561, 0.6267610969270898, 1.5548262952062937, 0.7421215450985468, 1.6988846008332683,
        1.0734854955898157, 1.4648618736059256, 0.8509566802673614, 1.9715778211685833, 1.467265998194667,
        1.8552613718950441, 1.9006032547780878, 1.1810840154453306, 1.7908764073432502, 1.8650227837041613,
        1.3281381240321626, 1.901949224328024, 1.3248041288281214, 1.4475421561684516, 1.4592558116548204,
        1.538307655044321, 1.5660282635218874, 1.6508015027927536, 0.9021921044683242, 1.9117051862607535,
        1.443867554523968, 1.110315526441373, 1.8751059771744674, 0.5329534623250562, 0.6991229905239538,
        0.9610845879850007, 0.9317292772834223, 0.6584134655865881, 1.2423220626892935, 1.7860539400956184,
        1.5096290578714895, 1.8290048799387408, 0.936661467880733, 1.2797734305551869, 1.406650880663112,
        1.6696292041509255, 1.60900350885886, 1.6639212247345376, 1.2153649996889324, 0.8525095401188076,
        1.9962786152684888, 0.720927271047483, 1.6142905805190981, 1.122386226927745, 1.495285838603469,
        1.852762218220536, 0.6513166798953804, 1.6835326146588825, 0.9645429104423975, 1.251423886819025,
        1.6977190565601472, 0.5730934683324245, 1.659964728775548, 1.9022243187531147, 1.3738083555271023,
        1.5974092224032532, 0.7030451978349557, 1.6288562333167282, 1.6688206700588568, 1.5823319707956025,
        0.898997406138029, 1.0464870447023076, 0.5906935554929196, 1.7840258852696362,
    ],
    "up": [
        1.3983038841884607, 0.5343707833687846, 1.861387197347834, 0.6193900462381638, 1.377534203613646,
        1.115116387401521, 1.2600997416343063, 1.0411846251872603, 2.256966953834752, 1.3785982585462102,
        1.751387640078248, 1.542327035361663, 0.9943282323956854, 1.588607340370834, 2.3003071011145644,
        1.1990090899967332, 1.9613520145651264, 1.4630267668110901, 1.7356430068384785, 1.3106240896063697,
        1.808277581855064, 1.7313831690399126, 1.5218773606151164, 0.9006958920518144, 1.7069120819691574,
        1.674777409657328, 0.9113184335600963, 2.018021437875986, 0.5132968529246131, 0.5816409290521645,
        1.0826928978719825, 0.7649879197759842, 0.7480572228863173, 1.1956531994257227, 1.6800280467007935,
        1.4927644459221543, 1.8979883062015128, 1.0340780963187362, 1.2377641155793917, 1.4373483017528348,
        1.4776099587550462, 1.4467287577513106, 1.7950797097193314, 1.1921020949193577, 0.8098990556536585,
        2.3360975941444773, 0.8144811362518423, 1.4580730028772073, 1.0022666478310487, 1.7261707378360367,
        1.627850712781748, 0.8140263046914216, 1.6144831731804976, 0.7882198683965871, 1.1415166303304778,
        1.45629030512867, 0.6599692325497241, 2.0243567422159177, 2.373944135771965, 1.5885562558481525,
        1.8022138246494077, 0.7225400516628562, 1.7743805672647328, 1.6468356723288087, 1.536559111342346,
        0.729028696106534, 0.9590573846167423, 0.7023358551180942, 2.025531575796356,
    ],
    "L-hat side": [
        30, 60, 22, 15, 41, 31, 7, 13, 12, 6, 54, 55, 32, 9, 11, 50, 47, 61, 65, 63, 3, 4, 46, 16, 24, 26, 8,
        51, 68, 40, 45, 49, 64, 21, 34, 69, 38, 14, 27, 2, 28, 53, 42, 35, 58, 39, 19, 59, 17, 23, 29, 10, 56,
        5, 44, 1, 43, 37, 67, 66, 48, 33, 0, 52, 57, 25, 20, 36, 18, 62,
    ],
    "L side": [
        13, 56, 54, 18, 6, 47, 53, 31, 64, 30, 62, 20, 63, 68, 38, 51, 3, 25, 2, 55, 28, 40, 44, 0, 29, 17, 45,
        41, 39, 49, 27, 58, 50, 23, 5, 1, 66, 8, 19, 52, 7, 11, 10, 42, 57, 67, 43, 33, 60, 26, 65, 37, 15, 9,
        61, 69, 21, 46, 14, 59, 48, 16, 32, 22, 34, 24, 35, 12, 4, 36,
    ],
}


def birth_death_2800(side: str) -> np.ndarray:
    """The matrix of BIRTH_DEATH_2800 relabelled as on `side`."""
    m = np.diag(BIRTH_DEATH_2800["up"], 1) + np.diag(BIRTH_DEATH_2800["down"], -1)
    np.fill_diagonal(m, -m.sum(axis=1))
    q = BIRTH_DEATH_2800[side]
    return m[np.ix_(q, q)]


# perfbench spectral-build seed 27, job 1621, L-hat side: the relabelling q of the 81-state
# SEP(2, 8) generator (the matrix m[q][:, q]).  Its Schur form holds semisimple clusters of
# up to 17 eigenvalues, whose blocks are diagonal up to rounding; an `eig` of the whole
# form balances them with scales up to 1e16 and returned a wrong eigenvector for the
# simple eigenvalue -144 (reconstruction defect 70)
PINNED_SEP_2_8 = [
    6, 15, 2, 55, 19, 36, 51, 10, 79, 49, 72, 31, 56, 28, 45, 62, 12, 26, 42, 46, 1, 69, 64, 39, 52, 25,
    60, 32, 14, 24, 71, 57, 70, 3, 20, 34, 18, 40, 16, 75, 58, 13, 54, 0, 38, 41, 66, 53, 33, 9, 27, 47,
    23, 17, 8, 68, 4, 22, 80, 74, 44, 35, 7, 59, 50, 37, 61, 21, 78, 29, 73, 43, 11, 30, 48, 65, 76, 77,
    5, 67, 63,
]


class TestDecomposeFailures:
    """decompose returns the exact structure or raises DecompositionFailedError, never a wrong one."""

    @pytest.mark.parametrize("label", list(PINNED_JORDAN_SUMS))
    def test_pinned_jordan_sums_decompose(self, label):
        q = PINNED_JORDAN_SUMS[label]
        k = np.kron(np.eye(20), np.asarray(jordan_block_generator().entries))
        sd = decompose(k[np.ix_(q, q)])
        assert Counter(_block_list(sd.structure)) == {(0.0, 0.0, 1): 20, (-1.0, 0.0, 2): 20, (-1.5, 0.0, 1): 20}
        assert sd.residual <= 1e-13

    def test_simple_eigenvectors_come_from_a_block_without_clusters(self):
        m = np.asarray(sep_generator(ConfigurationSpace.sep(2, 8), 1.0).entries)
        sd = schur_route(m[np.ix_(PINNED_SEP_2_8, PINNED_SEP_2_8)])
        assert sd.structure.is_diagonalizable() and sd.residual <= 1e-11

    def test_pinned_sep_2_8_on_decompose(self):
        # the twin of the test above, on the symmetric route: one eigh, with no eig to go wrong
        m = np.asarray(sep_generator(ConfigurationSpace.sep(2, 8), 1.0).entries)
        sd = decompose(m[np.ix_(PINNED_SEP_2_8, PINNED_SEP_2_8)])
        assert sd.structure.is_diagonalizable() and sd.residual <= 1e-11

    @pytest.mark.parametrize("side", ["L-hat side", "L side"])
    def test_a_merge_with_no_null_vector_splits(self, side):
        # decompose once merged the two close eigenvalues into one semisimple cluster at
        # their mean, which the gate rejected (1.935e-7 against 6.276e-9); the merged
        # block has no null vector at all, so its members stay simple
        sd = schur_route(birth_death_2800(side))
        assert len(sd.structure.blocks) == 70 and sd.structure.is_diagonalizable()
        assert sd.residual <= 1e-12

    @pytest.mark.parametrize("side", ["L-hat side", "L side"])
    @pytest.mark.parametrize("c", [1e-9, 1.0, 1e7])
    def test_close_simple_eigenvalues_stay_apart_on_decompose(self, side, c):
        # the twin of the test above, on the symmetric route and at three scales: the node of
        # the two eigenvalues 6.1e-7 apart is tried, and each lies 3e-7 from its mean, beyond
        # the cutoff sqrt(eps) s
        l = RateMatrix.from_entries(c * birth_death_2800(side))
        sd = decompose(l)
        assert len(sd.structure.blocks) == 70 and sd.structure.is_diagonalizable()
        assert sd.residual <= 1e-12 * max(1.0, c)
        assert_same_structure(sd, schur_route(l))

    @pytest.mark.parametrize(
        "target", ["numpy.linalg.eig", "markovdual.spectral.dgees", "scipy.linalg.qr", "scipy.linalg.svd"]
    )
    def test_lapack_failures_are_typed(self, target, monkeypatch):
        def fails(*args, **kwargs):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(target, fails)
        with pytest.raises(DecompositionFailedError, match="did not converge"):
            decompose(jordan_block_generator())

    def test_integer_jordan_sums_are_exact(self):
        # exact block sizes at -2, -1 and 0 from the null dimensions of (M - lam I)^k modulo two primes
        for seed in range(60):
            assert integer_sum_miss(seed) is None, seed


# label -> build(rng) -> RateMatrix
ROUTE_CASES = {
    "sep complete 3,2": lambda rng: _sep(rng, 3, 2, False),
    "sep complete 2,4": lambda rng: _sep(rng, 2, 4, False),
    "sep random 3,2": lambda rng: _sep(rng, 3, 2, True),
    "sep random 4,1": lambda rng: _sep(rng, 4, 1, True),
    "ladder 2,2": lambda rng: permuted(rng, ladder_sep_generator(ConfigurationSpace.ladder(2, 2), 1.0)),
    "ladder random 2,3": lambda rng: permuted(
        rng, ladder_sep_generator(ConfigurationSpace.ladder(2, 3), _symmetric_rates(rng, 2))
    ),
    "jordan sum 3": lambda rng: direct_sum(rng, jordan_block_generator(), 3),
    "jordan sum 8": lambda rng: direct_sum(rng, jordan_block_generator(), 8),
    "assembled defective": lambda rng: jordan_assembled(
        [(0.0, 1), (-1.0, 2), (-1.0, 1), (-1.0, 1), (-2.0, 1), (-2.0, 1)], rng
    ),
    "battery hat": lambda rng: jordan_assembled(THREE_VERSUS_FIVE[0], rng),
    "battery primal": lambda rng: jordan_assembled(THREE_VERSUS_FIVE[1], rng),
    "battery random 1": lambda rng: jordan_assembled(random_jordan_blocks(rng), rng),
    "battery random 2": lambda rng: jordan_assembled(random_jordan_blocks(rng, 8), rng),
    "cycles 3": lambda rng: direct_sum(rng, cyclic_generator(), 3),
    "cycles 5": lambda rng: direct_sum(rng, cyclic_generator(), 5),
    "complex jordan 2": lambda rng: complex_jordan(rng, 2),
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
        """Record (multiplicity, levels) for every _staircase call that accepts, None for one that rejects."""
        calls = []
        real = spectral._staircase

        def recording(a, cutoff, m_alg):
            out = real(a, cutoff, m_alg)
            calls.append(None if out is None else (m_alg, len(out[1])))
            return out

        monkeypatch.setattr(spectral, "_staircase", recording)
        return calls

    @pytest.mark.parametrize("case", list(ROUTE_CASES))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_structure_and_span_match_svd_reference(self, case, seed):
        l = ROUTE_CASES[case](np.random.default_rng(seed))
        fast = decompose(l)
        mat = np.asarray(l.entries)
        semisimple = dict(_semisimple_clusters(fast.structure))
        for ev in dict.fromkeys(b.eigenvalue for b in fast.structure.blocks):
            sizes = [b.size for b in fast.structure.blocks if b.eigenvalue == ev]
            if ev.imag < 0 or sum(sizes) < 2:
                continue
            svd = svd_power_cluster_chains(mat, ev, sum(sizes))
            assert sorted((len(c) for c in svd), reverse=True) == sorted(sizes, reverse=True), ev
            if ev in semisimple:
                span = np.array([c[0] for c in svd]).T
                assert np.max(subspace_angles(fast.U[:, semisimple[ev]], span)) <= 1e-8
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
        # -1 carries `copies` blocks of size 2 (two levels); 0 and -1.5 are semisimple (one level)
        expected = [(copies, 1), (copies, 1), (2 * copies, 2)] if copies > 1 else [(2, 2)]
        assert sorted(calls) == expected

    @pytest.mark.parametrize("vertices,gamma", [(3, 2), (3, 3), (4, 2), (2, 8)])
    @pytest.mark.parametrize("random_rates", [False, True])
    def test_sep_clusters_always_exit_at_k1(self, vertices, gamma, random_rates, monkeypatch):
        calls = self.spy(monkeypatch)
        sd = schur_route(_sep(np.random.default_rng(vertices * gamma), vertices, gamma, random_rates))
        eigenvalues = [b.eigenvalue for b in sd.structure.blocks]
        repeated = {ev for ev in eigenvalues if eigenvalues.count(ev) > 1}
        assert calls and all(c is not None and c[1] == 1 for c in calls)
        assert len(calls) == len(repeated)

    @pytest.mark.parametrize("vertices,gamma", [(3, 2), (3, 3), (4, 2), (2, 8)])
    @pytest.mark.parametrize("random_rates", [False, True])
    def test_sep_clusters_take_no_staircase_on_decompose(self, vertices, gamma, random_rates, monkeypatch):
        # the twin of the test above: SEP is reversible, so decompose groups the same clusters
        # on its symmetric route, with no staircase at all
        l = _sep(np.random.default_rng(vertices * gamma), vertices, gamma, random_rates)
        reference = schur_route(l)
        calls = self.spy(monkeypatch)
        sd = decompose(l)
        assert calls == []
        assert_same_structure(sd, reference)

    def test_one_schur_form_and_no_eig_of_the_matrix(self, monkeypatch):
        schur_calls, eig_inputs = [], []
        real_gees, real_eig = spectral.dgees, np.linalg.eig

        def gees(select, a, *args, **kwargs):
            schur_calls.append(a)
            return real_gees(select, a, *args, **kwargs)

        def eig(a):
            eig_inputs.append(a)
            return real_eig(a)

        monkeypatch.setattr(spectral, "dgees", gees)
        monkeypatch.setattr(np.linalg, "eig", eig)
        inputs = [
            random_generator(np.random.default_rng(0), 12),
            cyclic_generator(),
            jordan_block_generator(),
            direct_sum(np.random.default_rng(1), cyclic_generator(), 4),
            _sep(np.random.default_rng(2), 3, 2, False),
        ]
        for l in inputs:
            schur_calls.clear()
            eig_inputs.clear()
            schur_route(l)
            assert len(schur_calls) == 1 and len(eig_inputs) <= 1
            # eig sees only the quasi-triangular T of that Schur form, never M
            assert all(np.all(np.tril(a, -2) == 0.0) for a in eig_inputs)
            assert not any(np.array_equal(a, np.asarray(l.entries)) for a in eig_inputs)

    def test_one_schur_form_or_one_eigh_on_decompose(self, monkeypatch):
        # the twin of the test above: a reversible input (SEP) takes one symmetric eigensolve
        # and no Schur form, eig or inverse; every other input one Schur form and at most one
        # eig of its T
        calls = Counter()
        for module, name in [(spectral, "dgees"), (np.linalg, "eig"), (np.linalg, "eigh"), (np.linalg, "inv")]:
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, _real=real, _name=name, **k: calls.update([_name]) or _real(*a, **k))
        inputs = [
            (random_generator(np.random.default_rng(0), 12), False),
            (cyclic_generator(), False),
            (jordan_block_generator(), False),
            (direct_sum(np.random.default_rng(1), cyclic_generator(), 4), False),
            (_sep(np.random.default_rng(2), 3, 2, False), True),
        ]
        for l, reversible in inputs:
            calls.clear()
            decompose(l)
            if reversible:
                assert calls == {"eigh": 1}
            else:
                assert calls["dgees"] == 1 and calls["eig"] <= 1 and calls["eigh"] == 0


def _routes_taken(monkeypatch) -> list[str]:
    """The decompose routes run from now on, by name, in call order."""
    taken = []
    for name in ("_schur_route", "_symmetric_route"):
        real = getattr(spectral, name)
        monkeypatch.setattr(spectral, name, lambda *a, _real=real, _name=name: taken.append(_name) or _real(*a))
    return taken


# label -> build(rng) -> RateMatrix; every one is reversible
REVERSIBLE_FAMILIES = {
    "sep": lambda rng: sep_generator(
        ConfigurationSpace.sep(v := int(rng.integers(2, 5)), int(rng.integers(1, {2: 9, 3: 4, 4: 3}[v]))),
        _symmetric_rates(rng, v),
    ),
    "ladder": lambda rng: ladder_sep_generator(
        ConfigurationSpace.ladder(v := int(rng.integers(2, 4)), int(rng.integers(1, {2: 4, 3: 3}[v]))),
        _symmetric_rates(rng, v),
    ),
    "birth-death": lambda rng: random_birth_death(rng, int(rng.integers(2, 41))),
    "reducible": lambda rng: RateMatrix.from_entries(
        block_diag(*[np.asarray(random_birth_death(rng, int(k)).entries) for k in rng.integers(2, 9, rng.integers(2, 4))])
    ),
}


@st.composite
def reversible_inputs(draw):
    """(family, c, l): a relabelled draw of a reversible family, every rate scaled by c in [1e-9, 1e7]."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    family = draw(st.sampled_from(sorted(REVERSIBLE_FAMILIES)))
    c = 10.0 ** draw(st.floats(-9.0, 7.0))
    l = REVERSIBLE_FAMILIES[family](rng)
    return family, c, permuted(rng, RateMatrix.from_entries(c * np.asarray(l.entries)))


class TestSymmetricRoute:
    """decompose's symmetric route on reversible inputs against its Schur route, the reference."""

    @settings(max_examples=60)
    @given(reversible_inputs())
    @example(("birth-death", 1.0, RateMatrix.from_entries(birth_death_2800("L-hat side"))))
    @example(("birth-death", 1.0, RateMatrix.from_entries(birth_death_2800("L side"))))
    def test_route_matches_the_schur_route(self, case):
        family, c, l = case
        assert core._symmetrization(l.entries, scaled_tol(1.0, l.entries)) is not None, family
        sd, reference = decompose(l), schur_route(l)
        assert_same_structure(sd, reference)
        assert sd.structure.is_diagonalizable()
        assert sd.residual <= 1e-11 * max(1.0, c)

    @pytest.mark.parametrize("vertices,gamma", [(3, 2), (3, 3), (4, 2), (2, 8)])
    @pytest.mark.parametrize("random_rates", [False, True])
    def test_witness_matches_the_schur_route_on_sep(self, vertices, gamma, random_rates):
        rng = np.random.default_rng(vertices * gamma)
        self.assert_same_witness(rng, _sep(rng, vertices, gamma, random_rates))

    @pytest.mark.parametrize("vertices,gamma", [(2, 2), (2, 3), (3, 2)])
    def test_witness_matches_the_schur_route_on_the_ladder(self, vertices, gamma):
        rng = np.random.default_rng(vertices * gamma)
        l = ladder_sep_generator(ConfigurationSpace.ladder(vertices, gamma), _symmetric_rates(rng, vertices))
        self.assert_same_witness(rng, l)

    @pytest.mark.parametrize("n", [10, 40, 70])
    @pytest.mark.parametrize("seed", range(3))
    def test_witness_matches_the_schur_route_on_birth_death(self, n, seed):
        rng = np.random.default_rng(seed)
        self.assert_same_witness(rng, random_birth_death(rng, n))

    @staticmethod
    def assert_same_witness(rng, l):
        """check_r_similar at full rank between two relabellings of l matches the same blocks on both routes.

        Each matched pair's offsets and sizes are equal, and its eigenvalue within
        DEFAULTS.residual ||M||_inf of the Schur route's.
        """
        copies = [permuted(rng, l) for _ in range(2)]
        witnesses = [check_r_similar(*(route(c) for c in copies), l.n) for route in (decompose, schur_route)]
        assert all(w is not None and w.rank == l.n for w in witnesses)
        new, reference = ([u[1:] for u in w.matched] for w in witnesses)  # offsets and sizes
        assert new == reference
        bound = DEFAULTS.residual * scaled_tol(1.0, l.entries)
        assert max(abs(a.eigenvalue - b.eigenvalue) for a, b in zip(*(w.matched for w in witnesses))) <= bound

    def test_weights_are_the_stationary_measure_of_an_irreducible_chain(self, rng):
        l = permuted(rng, random_birth_death(rng, 30))
        root, _ = core._symmetrization(l.entries, scaled_tol(1.0, l.entries))
        w = root**2
        npt.assert_allclose(w / w.sum(), stationary_measure(l).weights, rtol=1e-12)
        assert w.max() == 1.0

    def test_each_component_has_largest_weight_one(self, rng):
        parts = [3.0 * np.asarray(random_birth_death(rng, k, 0.5, 2.0).entries) for k in (2, 5, 7)]
        l = permuted(rng, RateMatrix.from_entries(block_diag(*parts)))
        root, _ = core._symmetrization(l.entries, scaled_tol(1.0, l.entries))
        w = root**2
        labels = core._components(l.entries)
        assert sorted(w[labels == k].max() for k in np.unique(labels)) == [1.0, 1.0, 1.0]

    @pytest.mark.parametrize("route", [schur_route, decompose], ids=["schur route", "decompose"])
    def test_close_eigenvalues_of_a_reversible_chain_stay_simple(self, route):
        # two 2-state chains with eigenvalues -1 and -1 - 1e-8: within the staircase's cutoff
        # (1.05e-8) of their mean, but their eigenvectors leave a defect of about 3.5e-9, above
        # 1e-9 ||M||; so they stay simple, while the two zeros are one eigenvalue
        m = block_diag(np.array([[-0.5, 0.5], [0.5, -0.5]]), np.array([[-0.5, 0.5], [0.5 + 1e-8, -0.5 - 1e-8]]))
        sd = route(m)
        assert [b.size for b in sd.structure.blocks] == [1] * 4
        assert len({b.eigenvalue for b in sd.structure.blocks}) == 3
        npt.assert_allclose(sd.eigenvalues.real, [0.0, 0.0, -1.0, -1.0 - 1e-8], rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("n,spread,seed", [(60, 1.5e-8, s) for s in range(3)] + [(100, 1e-8, s) for s in range(3)])
    def test_routes_agree_near_the_staircase_cutoff(self, n, spread, seed):
        # the complete graph's eigenvalue -n of multiplicity n - 1, split by symmetric rate noise
        # into a spread of 2.4e-7 to 3e-7, beside the cutoff sqrt(eps) s: 1.2e-7 at n = 60 and
        # 1.5e-7 at n = 100, where some of these clusters are one eigenvalue and some are not
        rng = np.random.default_rng(seed)
        p = 1.0 + spread * rng.uniform(-1.0, 1.0, (n, n))
        p = (p + p.T) / 2.0
        np.fill_diagonal(p, 0.0)
        np.fill_diagonal(p, -p.sum(axis=1))
        assert_same_structure(decompose(p), schur_route(p))

    @staticmethod
    def unbalanced(factor: float, x: int = 1, y: int = 2) -> np.ndarray:
        """A complete 4-state chain, symmetric but for a flux defect of `factor` times the route's bound at (x, y)."""
        m = np.array([[0.0, 1.0, 2.0, 1.5], [1.0, 0.0, 1.0, 0.5], [2.0, 1.0, 0.0, 1.0], [1.5, 0.5, 1.0, 0.0]])
        np.fill_diagonal(m, -m.sum(axis=1))
        delta = factor * DEFAULTS.residual * scaled_tol(1.0, m)
        m[x, y] += delta
        m[x, x] -= delta
        assert abs(m[x, y] - m[y, x]) / (DEFAULTS.residual * scaled_tol(1.0, m)) == pytest.approx(factor, rel=1e-6)
        return m

    @pytest.mark.parametrize("c", [1e-9, 1.0, 1e7])
    @pytest.mark.parametrize("x,y", [(1, 2), (2, 3)])  # (1, 2) is read alone before the flux pass
    def test_a_flux_defect_just_above_the_bound_takes_the_schur_route(self, c, x, y, monkeypatch):
        taken = _routes_taken(monkeypatch)
        decompose(c * self.unbalanced(1.01, x, y))
        decompose(c * self.unbalanced(0.99, x, y))
        assert taken == ["_schur_route", "_symmetric_route"]

    @staticmethod
    def light_cycle() -> tuple[np.ndarray, np.ndarray]:
        """(m, w): state 0 and, behind a rate 1e-10 from it, a 3-cycle 1 -> 2 -> 3 -> 1 at rate 1, 2 the other way.

        The cycle's rates break Kolmogorov's criterion (cycle products 1 against 8), but under
        the weights w, 1e-10 on the cycle, its flux defect is 1e-10 alone.
        """
        m = np.zeros((4, 4))
        m[0, 1], m[1, 0] = 1e-10, 1.0
        for x, y in [(1, 2), (2, 3), (3, 1)]:
            m[x, y], m[y, x] = 1.0, 2.0
        np.fill_diagonal(m, -m.sum(axis=1))
        return m, np.array([1.0, 1e-10, 1e-10, 1e-10])

    @staticmethod
    def light_end_triangle(n: int) -> tuple[np.ndarray, np.ndarray]:
        """(m, w): a birth-death chain with drift (up 0.5, down 1), unbalanced rates on a triangle at its light end.

        The chain's weights w(k) = 2^-k balance every rate but the triangle's edge between
        states n - 3 and n - 1, whose flux defect is 2^(1 - n) alone.
        """
        m = np.diag(np.full(n - 1, 0.5), 1) + np.diag(np.ones(n - 1), -1)
        m[n - 3, n - 1], m[n - 1, n - 3] = 1.0, 3.0
        np.fill_diagonal(m, -m.sum(axis=1))
        return m, 0.5 ** np.arange(n)

    @pytest.mark.parametrize("c", [1e-9, 1.0, 1e7])
    @pytest.mark.parametrize("case", ["light cycle", "light-end triangle"])
    def test_an_unbalanced_light_corner_takes_the_schur_route(self, case, c, rng, monkeypatch):
        # the flux defect alone, max|w(x) m(x,y) - w(y) m(y,x)| with max w = 1, is within the
        # bound here; the asymmetry of S = W^{1/2} M W^{-1/2}, the flux over sqrt(w(x) w(y)),
        # is of the order of the rates, and an eigh of its symmetric part would be wrong.  The
        # triangle sits where the chain's weights have fallen to 2^-31 = 4.7e-10
        m, w = self.light_cycle() if case == "light cycle" else self.light_end_triangle(32)
        m = c * m
        flux = w[:, None] * m
        norm = scaled_tol(1.0, m)
        assert np.max(np.abs(flux - flux.T)) <= DEFAULTS.residual * norm
        p = rng.permutation(len(m))
        m = m[np.ix_(p, p)]
        assert core._symmetrization(m, norm) is None
        taken = _routes_taken(monkeypatch)
        decompose(m)  # passes the gate
        assert taken == ["_schur_route"]

    def test_near_misses_take_the_schur_route_with_no_solve(self, rng, monkeypatch):
        chain = np.asarray(random_birth_death(rng, 6).entries)
        one_sided = chain.copy()
        one_sided[3, 2], one_sided[3, 3] = 0.0, one_sided[3, 3] + one_sided[3, 2]  # 2 -> 3 has no way back
        absorbing = chain.copy()
        absorbing[0] = 0.0  # state 0 has no outgoing rate
        negative = chain.copy()
        tiny = 1e-12 * scaled_tol(1.0, chain)  # within classify_matrix's slack, still negative
        negative[1, 4] = negative[4, 1] = -tiny  # a symmetric pattern
        negative[1, 1] += tiny
        negative[4, 4] += tiny
        solves = []
        real = core.dposv
        monkeypatch.setattr(core, "dposv", lambda *a, **k: solves.append(1) or real(*a, **k))
        taken = _routes_taken(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a rejection reads no logarithm of a negative rate
            for m in (one_sided, absorbing, negative):
                assert core._symmetrization(m, scaled_tol(1.0, m)) is None
                decompose(m)
        assert solves == [] and taken == ["_schur_route"] * 3
        decompose(chain)
        assert solves == [1] and taken[-1] == "_symmetric_route"

    def test_a_complete_pattern_is_decided_with_no_solve(self, monkeypatch):
        solves = []
        real = core.dposv
        monkeypatch.setattr(core, "dposv", lambda *a, **k: solves.append(1) or real(*a, **k))
        taken = _routes_taken(monkeypatch)
        decompose(random_generator(np.random.default_rng(0), 8))  # not reversible
        decompose(self.unbalanced(0.5))  # reversible up to rounding
        assert solves == [] and taken == ["_schur_route", "_symmetric_route"]

    def test_a_failed_eigh_is_typed(self, monkeypatch):
        def fails(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr("numpy.linalg.eigh", fails)
        with pytest.raises(DecompositionFailedError, match="did not converge"):
            decompose(sep_generator(ConfigurationSpace.sep(3, 2), 1.0))

    def test_one_norm_pass_per_decompose(self, monkeypatch):
        # ||M||_inf is read once and passed to the balance test, the routes and the gate, and to
        # each semisimple node test of the Schur route (repeated cyclic blocks give such nodes)
        passes = []
        real = linalg.dlange
        monkeypatch.setattr(linalg, "dlange", lambda *a: passes.append(1) or real(*a))
        inputs = [
            sep_generator(ConfigurationSpace.sep(2, 8), 1.0),
            direct_sum(np.random.default_rng(0), jordan_block_generator(), 6),
            direct_sum(np.random.default_rng(1), cyclic_generator(), 4),
        ]
        for l in inputs:
            passes.clear()
            decompose(l)
            assert len(passes) == 1


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
    """match_jordan_blocks (nearest neighbours at a residual-level radius) against the anchor loop in conftest."""

    @staticmethod
    def assert_same(hat, primal, tol=DEFAULTS.residual):
        new = match_jordan_blocks(hat.structure, primal.structure)
        assert new == match_jordan_blocks_anchor(hat.structure, primal.structure, tol)

    @pytest.mark.parametrize("case", list(ROUTE_CASES))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_relabelled_self_pairs(self, case, seed):
        rng = np.random.default_rng(seed)
        l = ROUTE_CASES[case](rng)
        self.assert_same(decompose(permuted(rng, l)), decompose(permuted(rng, l)))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_three_versus_five(self, seed):
        rng = np.random.default_rng(seed)
        hat, primal = (decompose(jordan_assembled(b, rng)) for b in THREE_VERSUS_FIVE)
        self.assert_same(hat, primal)
        self.assert_same(primal, hat)

    def test_an_eigenvalue_with_two_candidates_raises(self):
        # both hat eigenvalues lie within DEFAULTS.residual max|lambda| of the primal one,
        # so the pairing is ambiguous; it is not resolved greedily
        hat = JordanStructure(((-1.0, 2), (-1.0 - 1e-10, 1), (0.0, 1)))
        primal = JordanStructure(((-1.0, 2), (0.0, 1)))
        with pytest.raises(DecompositionFailedError, match="has 2 candidates"):
            match_jordan_blocks(hat, primal)
        with pytest.raises(DecompositionFailedError, match="has 2 candidates"):
            match_jordan_blocks(primal, hat)

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
        # the pairs of tests/test_cross_module.py::TestDefectivePairs, once decomposed and
        # matched at the looser tol
        rng = np.random.default_rng(seed)
        hat = decompose(jordan_assembled(hat_blocks, rng))
        primal = decompose(jordan_assembled([(-1.0, 2), (-1.0, 1), (0.0, 1)], rng))
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
