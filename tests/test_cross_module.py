"""Cross-module behaviors: spectral constructions fed by model data, Siegmund
transport of generalized chains, and conjugate-pair truncation edges."""

import numpy as np
import numpy.testing as npt
import pytest

from markovdual import (
    RateMatrix,
    build_from_spectra,
    chain_duality,
    check_r_similar,
    cumulative_transform,
    decompose,
    match_jordan_blocks,
    max_duality_rank,
    make_duality,
    residual,
    rw_reflected_absorbed,
    siegmund_dual,
    solve_duality_space,
)
from markovdual.config import max_states
from markovdual.errors import ComplexResidueError
from markovdual.scenarios import jordan_block_generator

from conftest import jordan_assembled


class TestBuildFromSpectraCrossGenerator:
    def test_rw54_pair_from_analytic_spectra(self, rng):
        rw = rw_reflected_absorbed(7)
        w = check_r_similar(rw.spectral_hat, rw.spectral, r=7)
        assert w is not None
        coeffs = rng.standard_normal(len(w.matched))
        d = build_from_spectra(rw.spectral_hat, rw.spectral, w, coeffs)
        assert d.residual < 1e-10
        # same span as the tensor construction: mode i of the witness pairs
        # uhat_i with u_i, so matching coefficients give the same matrix
        order = np.argsort([-u.eigenvalue.real for u in w.matched])
        a = np.empty(7)
        for pos, idx in enumerate(order):
            a[pos] = coeffs[idx]
        d_tensor = chain_duality(rw.lhat, rw.l, list(rw.uhat.T), list(rw.u.T), a)
        npt.assert_allclose(d.matrix, d_tensor.matrix, atol=1e-10)

    def test_even_grids_share_the_central_mode(self):
        # both even-sized grids carry the theta = pi/2 mode at eigenvalue -2,
        # so the walks share two eigenvalues, not one
        small = rw_reflected_absorbed(4)
        large = rw_reflected_absorbed(6)
        w = check_r_similar(small.spectral_hat, large.spectral, r=2)
        assert w is not None
        assert sorted(round(u.eigenvalue.real, 9) for u in w.matched) == [-2.0, 0.0]
        assert solve_duality_space(small.lhat, large.l).dimension == 2

    def test_partial_rank_between_different_walks(self):
        # 4(2k-1) = 3(2j-1) has no integer solutions, so the n=4 and n=5
        # grids share only the zero eigenvalue
        small = rw_reflected_absorbed(4)
        large = rw_reflected_absorbed(5)
        w = check_r_similar(small.spectral_hat, large.spectral, r=1)
        assert w is not None
        d = build_from_spectra(small.spectral_hat, large.spectral, w, [1.0])
        assert d.matrix.shape == (4, 5)
        assert d.residual < 1e-10
        assert d.rank == 1
        assert check_r_similar(small.spectral_hat, large.spectral, r=2) is None
        assert solve_duality_space(small.lhat, large.l).dimension == 1


class TestConjugateTruncation:
    def test_cut_through_conjugate_pair_is_complex(self):
        # truncating the witness between a conjugate pair cannot produce a
        # real duality matrix; the constructor reports it rather than guessing
        from markovdual.scenarios import cyclic_generator

        sd = decompose(cyclic_generator())
        w = check_r_similar(sd, sd, r=2)  # keeps lambda=0 and -1.5 + i s only
        assert len(w.matched) == 2
        with pytest.raises(ComplexResidueError):
            build_from_spectra(sd, sd, w, [1.0, 1.0])


class TestDefectivePairs:
    """Engineered Jordan structures cross-validated against the kernel oracle.

    The kernel dimension follows the classical count sum_{shared lambda}
    sum_{i,j} min(mhat_i, m_j); the maximal duality rank is the greedy
    size-sorted matching sum; witnesses support truncated chain overlaps
    even when the two sides partition a shared eigenvalue differently.
    """

    def test_equal_partitions(self, rng):
        hat = jordan_assembled([(-1.0, 2), (-1.0, 1), (0.0, 1)], rng)
        pri = jordan_assembled([(-1.0, 2), (-1.0, 1), (0.0, 1)], rng)
        space = solve_duality_space(hat, pri)
        assert space.dimension == (2 + 1 + 1 + 1) + 1
        assert max_duality_rank(space) == 4
        a = decompose(hat)
        b = decompose(pri)
        matches = match_jordan_blocks(a.structure, b.structure)
        assert sum(u.size for u in matches) == 4
        w = check_r_similar(a, b, r=4)
        d = build_from_spectra(a, b, w, np.ones(len(w.matched)))
        assert d.residual < 1e-9
        assert d.rank == 4

    def test_unequal_partitions(self, rng):
        # hat carries one size-3 block where the primal splits into 2 + 1
        hat = jordan_assembled([(-1.0, 3), (0.0, 1)], rng)
        pri = jordan_assembled([(-1.0, 2), (-1.0, 1), (0.0, 1)], rng)
        space = solve_duality_space(hat, pri)
        assert space.dimension == (min(3, 2) + min(3, 1)) + 1
        assert max_duality_rank(space) == 3
        a = decompose(hat)
        b = decompose(pri)
        w = check_r_similar(a, b, r=3)
        d = build_from_spectra(a, b, w, np.ones(len(w.matched)))
        assert d.residual < 1e-9
        assert d.rank == 3


class TestSiegmundChainTransport:
    def test_generalized_chain_transported_with_order(self):
        # order-k generalized eigenfunctions of lhat^T map to order-k ones of
        # the dual at the same eigenvalue, even for non-monotone input
        lhat = jordan_block_generator()
        pair = siegmund_dual(lhat)
        assert pair.residual < 1e-12
        sd = decompose(RateMatrix.from_entries(np.asarray(lhat.entries).T))
        block = next(i for i, b in enumerate(sd.structure.blocks) if b.size == 2)
        off = sd.structure.offsets[block]
        lam = sd.structure.blocks[block].eigenvalue.real
        w1, w2 = sd.U[:, off].real, sd.U[:, off + 1].real
        u1 = cumulative_transform(w1)
        u2 = cumulative_transform(w2)
        dual = np.asarray(pair.l.entries)
        assert np.max(np.abs(dual @ u1 - lam * u1)) < 1e-10
        assert np.max(np.abs(dual @ u2 - lam * u2 - u1)) < 1e-10


class TestConfig:
    def test_invalid_env_cap_falls_back(self, monkeypatch):
        monkeypatch.setenv("DUALITY_MAX_STATES", "not-a-number")
        assert max_states() == 20_000
        monkeypatch.setenv("DUALITY_MAX_STATES", "-5")
        assert max_states() == 20_000

    def test_rectangular_duality_roundtrip(self):
        import json

        from markovdual.serialize import duality_from_json, duality_to_json

        small = rw_reflected_absorbed(3)
        large = rw_reflected_absorbed(5)
        d = make_duality(small.lhat, large.l, np.ones((3, 5)))
        back = duality_from_json(json.loads(json.dumps(duality_to_json(d))))
        npt.assert_array_equal(back.matrix, d.matrix)
        assert (back.dual_space.n, back.primal_space.n) == (3, 5)
