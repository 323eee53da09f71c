"""Storage contract and working set of the dense transforms: dtypes, read-only sharing, peaks, bit-identical gates."""

import dataclasses
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from markovdual import (
    ConfigurationSpace,
    IntertwiningOperator,
    Measure,
    RateMatrix,
    build_from_spectra,
    check_detailed_balance,
    check_r_similar,
    check_monotone,
    decompose,
    make_duality,
    reconstruct_siegmund,
    rw_blocked_absorbed,
    rw_reflected_absorbed,
    sep_generator,
    siegmund_dual,
    solve_duality_space,
    spectral_from_eigenbasis,
    stationary_measure,
)
from markovdual import core
from markovdual.config import Tolerances
from markovdual.errors import NotBiorthogonalError
from markovdual.linalg import scaled_tol
from markovdual.scenarios import cyclic_generator, jordan_block_generator
from markovdual.siegmund import _cumulative_rate_sums
from markovdual.spectral import SpectralData

from conftest import (
    balance_defect_out_of_place,
    cumulative_rate_sums_out_of_place,
    decompose_residual_out_of_place,
    eigenbasis_residual_out_of_place,
    random_birth_death,
    random_generator,
    siegmund_residual_out_of_place,
)

MIB = 2**20


def traced_peak(fn) -> float:
    """tracemalloc peak of one call, in MiB (numpy arrays are traced; BLAS work space is not)."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / MIB
    finally:
        tracemalloc.stop()


def stored_arrays(obj, seen=None):
    """Every ndarray reachable through the fields of a (nested) dataclass."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from stored_arrays(getattr(obj, f.name), seen)
    elif isinstance(obj, tuple):
        for item in obj:
            yield from stored_arrays(item, seen)


class TestWalkStorage:
    def test_blocked_walk_peak_at_600(self):
        rw_blocked_absorbed(50)  # warm every cache and lazy import first
        assert traced_peak(lambda: rw_blocked_absorbed(600)) <= 26.0

    # distinct stored arrays: the blocked walk's u is the object spectral.U, the reflected walk's a view of it
    @pytest.mark.parametrize(
        "build,stored", [(rw_blocked_absorbed, 9), (rw_reflected_absorbed, 10)], ids=["rw_blocked_absorbed", "rw_reflected_absorbed"]
    )
    def test_bases_are_shared_and_read_only(self, build, stored):
        rw = build(9)
        assert np.shares_memory(rw.spectral.U, rw.u)
        assert np.shares_memory(rw.spectral_hat.U, rw.uhat)
        arrays = list(stored_arrays(rw))
        assert len(arrays) == stored
        assert not any(a.flags.writeable for a in arrays)
        with pytest.raises(ValueError):
            rw.u[0, 0] = 1.0

    def test_blocked_hat_inverse_is_the_transposed_view(self):
        rw = rw_blocked_absorbed(7)
        assert np.shares_memory(rw.spectral_hat.Uinv, rw.uhat)
        npt.assert_array_equal(rw.spectral_hat.Uinv, rw.uhat.T)

    @pytest.mark.parametrize("build", [rw_blocked_absorbed, rw_reflected_absorbed])
    @pytest.mark.parametrize("n", [2, 3, 10, 64, 200])
    def test_residuals_bit_identical_to_out_of_place_gates(self, build, n):
        rw = build(n)
        for sd in (rw.spectral, rw.spectral_hat):
            expected = eigenbasis_residual_out_of_place(sd.source.entries, sd.U, rw.lambdas, sd.Uinv)
            assert sd.residual == expected

    def test_reordered_basis_is_copied_and_gated_alike(self, rng):
        rw = rw_blocked_absorbed(8)
        perm = rng.permutation(8)
        sd = spectral_from_eigenbasis(rw.pair.l, rw.lambdas[perm], rw.u[:, perm])
        assert not np.shares_memory(sd.U, rw.u)
        npt.assert_array_equal(sd.U, rw.u)  # canonical order is the walk's own
        assert sd.residual == eigenbasis_residual_out_of_place(rw.pair.l.entries, sd.U, rw.lambdas, sd.Uinv)

    def test_caller_array_stays_writable(self):
        rw = rw_blocked_absorbed(5)
        u = np.array(rw.u)
        sd = spectral_from_eigenbasis(rw.pair.l, rw.lambdas, u)
        assert u.flags.writeable and not sd.U.flags.writeable
        assert np.shares_memory(sd.U, u)

    def test_complex_basis_keeps_its_dtype(self):
        rw = rw_blocked_absorbed(6)
        sd = spectral_from_eigenbasis(rw.pair.l, rw.lambdas, rw.u.astype(complex))
        assert sd.U.dtype == sd.Uinv.dtype == np.complex128


def _sep():
    return sep_generator(ConfigurationSpace.sep(3, 2), np.array([[0, 1.0, 0.5], [1.0, 0, 2.0], [0.5, 2.0, 0]]))


class TestDecomposeStorage:
    @pytest.mark.parametrize(
        "make",
        [_sep, lambda: random_birth_death(np.random.default_rng(3), 12), jordan_block_generator],
        ids=["sep", "birth-death", "jordan"],
    )
    def test_real_spectrum_gives_float64(self, make):
        sd = decompose(make())
        assert sd.U.dtype == sd.Uinv.dtype == np.float64
        assert sd.structure.jordan_matrix().dtype == np.float64
        assert not sd.U.flags.writeable and not sd.Uinv.flags.writeable

    def test_cyclic3_gives_complex128(self):
        sd = decompose(cyclic_generator())
        assert sd.U.dtype == sd.Uinv.dtype == np.complex128
        assert sd.structure.jordan_matrix().dtype == np.complex128

    @pytest.mark.parametrize(
        "make",
        [_sep, lambda: random_generator(np.random.default_rng(5), 9), jordan_block_generator, cyclic_generator],
        ids=["sep", "dense", "jordan", "cyclic3"],
    )
    def test_residual_bit_identical_to_out_of_place_gate(self, make):
        l = make()
        sd = decompose(l)
        expected = decompose_residual_out_of_place(l.entries, sd.U, sd.structure.jordan_matrix(), sd.Uinv)
        assert sd.residual == expected

    def test_real_and_complex_bases_build_the_same_duality(self):
        l = random_birth_death(np.random.default_rng(8), 7)
        real = decompose(l)
        as_complex = SpectralData(real.source, real.structure, real.U.astype(complex), real.Uinv.astype(complex), real.residual)
        witness = check_r_similar(real, real, 7)
        coefficients = np.linspace(0.5, 1.5, len(witness.matched))
        d_real = build_from_spectra(real, real, witness, coefficients)
        d_complex = build_from_spectra(as_complex, as_complex, witness, coefficients)
        npt.assert_allclose(d_real.matrix, d_complex.matrix, rtol=0, atol=1e-12)


class TestSiegmundWorkingSet:
    GENERATORS = [
        lambda rng: random_generator(rng, 9),
        lambda rng: random_birth_death(rng, 40),
        lambda rng: cyclic_generator(),
        lambda rng: rw_blocked_absorbed(30).pair.lhat,
    ]

    @pytest.mark.parametrize("make", GENERATORS, ids=["dense", "birth-death", "cyclic3", "blocked"])
    def test_sums_and_residual_bit_identical(self, rng, make):
        lhat = make(rng)
        sums = _cumulative_rate_sums(np.asarray(lhat.entries))
        reference = cumulative_rate_sums_out_of_place(lhat.entries)
        assert np.ascontiguousarray(sums).tobytes() == np.ascontiguousarray(reference).tobytes()  # signed zeros too
        pair = siegmund_dual(lhat)
        npt.assert_array_equal(pair.l.entries, reference)
        assert pair.residual == siegmund_residual_out_of_place(lhat.entries, reference)
        assert pair.monotone == check_monotone(lhat)

    def test_peaks_at_600(self):
        rw = rw_blocked_absorbed(600)
        lhat = rw.pair.lhat
        mu = Measure.from_weights(np.full(600, 1 / 600))
        buffer = 600 * 600 * 8 / MIB
        siegmund_dual(lhat)
        # the dual's buffer, its copy in the RateMatrix and one more for the sums, then the residual
        assert traced_peak(lambda: siegmund_dual(lhat)) <= 3 * buffer + 0.5
        # w and its Gram matrix, then the result
        assert traced_peak(lambda: reconstruct_siegmund(rw.uhat, rw.u)) <= 2 * buffer + 0.5
        # the flux and one block of rows (2^17 entries)
        assert traced_peak(lambda: check_detailed_balance(lhat, mu)) <= buffer + 1.5
        # the one copy of the entries
        assert traced_peak(lambda: RateMatrix.from_entries(lhat.entries)) <= buffer + 0.5

    def test_reconstruction_gram_gate_is_exact(self):
        rw = rw_blocked_absorbed(12)
        scaled = np.array(rw.uhat)
        scaled[:, 2] *= 1.0 + 2e-8  # a defect of 2e-8 against DEFAULTS.residual = 1e-9
        with pytest.raises(NotBiorthogonalError):
            reconstruct_siegmund(scaled, rw.u)
        reconstruct_siegmund(rw.uhat, rw.u)


class TestDetailedBalanceGate:
    @pytest.mark.parametrize("n", [1, 3, 40, 400])
    def test_decision_matches_the_out_of_place_defect_exactly(self, rng, n, monkeypatch):
        l = random_generator(rng, n) if n > 1 else RateMatrix.from_entries([[0.0]])
        mu = stationary_measure(l) if n > 1 else Measure.from_weights([1.0])
        defect = balance_defect_out_of_place(l, mu)
        weight = mu.weights.max()
        # the smallest relative factor whose bound, factor ||L||_inf max mu, reaches the defect
        factor = defect / scaled_tol(1.0, l.entries, weight) if defect else 0.0
        while scaled_tol(factor, l.entries, weight) < defect:
            factor = np.nextafter(factor, np.inf)
        while factor > 0 and scaled_tol(np.nextafter(factor, 0.0), l.entries, weight) >= defect:
            factor = np.nextafter(factor, 0.0)
        monkeypatch.setattr(core, "DEFAULTS", Tolerances(residual=factor))
        assert check_detailed_balance(l, mu)
        if defect > 0:
            monkeypatch.setattr(core, "DEFAULTS", Tolerances(residual=np.nextafter(factor, 0.0)))
            assert not check_detailed_balance(l, mu)


class TestIdentityEquality:
    def equal_pairs(self):
        rw = rw_blocked_absorbed(4)
        l = rw.pair.lhat
        yield RateMatrix.from_entries(l.entries), RateMatrix.from_entries(l.entries)
        yield Measure.from_weights(np.full(4, 0.25)), Measure.from_weights(np.full(4, 0.25))
        yield spectral_from_eigenbasis(l, rw.lambdas, rw.uhat), spectral_from_eigenbasis(l, rw.lambdas, rw.uhat)
        yield make_duality(l, l, np.eye(4)), make_duality(l, l, np.eye(4))
        yield solve_duality_space(l, l), solve_duality_space(l, l)
        yield IntertwiningOperator.from_matrix(np.eye(4)), IntertwiningOperator.from_matrix(np.eye(4))
        yield rw_reflected_absorbed(4), rw_reflected_absorbed(4)
        yield rw, rw_blocked_absorbed(4)

    def test_equal_arrays_compare_and_hash_by_identity(self):
        for a, b in self.equal_pairs():
            assert a == a and not (a != a)
            assert a != b and not (a == b)
            assert hash(a) == hash(a)
            assert len({a, b}) == 2
