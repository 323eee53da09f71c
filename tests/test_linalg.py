import numpy as np
import pytest

from markovdual.linalg import inverse_defect, max_abs, off_diagonal


class TestMaxAbs:
    @pytest.mark.parametrize("position", [0, 7, -1])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_nan_anywhere_gives_nan(self, position, dtype):
        a = np.linspace(-3.0, 2.0, 12, dtype=dtype)
        a[position] = np.nan
        assert np.isnan(max_abs(a))
        assert np.isnan(max_abs(a.reshape(3, 4)))

    def test_nan_beside_infinity_gives_nan(self):
        assert np.isnan(max_abs([np.inf, np.nan, -np.inf]))
        assert np.isnan(max_abs([1.0 + 0j, complex(np.nan, 0.0)]))

    @pytest.mark.parametrize("values", [[1.0, np.inf], [-np.inf, 2.0], [-np.inf], [np.inf, -np.inf]])
    def test_infinities(self, values):
        assert max_abs(values) == np.inf

    @pytest.mark.parametrize("shape", [(0,), (0, 3), (4, 0)])
    def test_empty_gives_zero(self, shape):
        assert max_abs(np.empty(shape)) == 0.0
        assert max_abs(np.empty(shape, dtype=complex)) == 0.0

    def test_complex_modulus(self):
        assert max_abs([3 + 4j, -1j]) == 5.0
        assert max_abs(np.array([[0.0, -6.0 + 8.0j]])) == 10.0

    def test_negative_extreme_wins(self):
        assert max_abs([-5.0, 3.0]) == 5.0
        assert max_abs([-0.0]) == 0.0

    @pytest.mark.parametrize(
        "values, dtype, expected",
        [
            ([-128, 5], np.int8, 128.0),  # np.abs(int8 -128) wraps to -128
            ([3, 200], np.uint8, 200.0),
            ([0, 1], np.uint8, 1.0),
            ([2**64 - 1, 1], np.uint64, float(2**64 - 1)),
            ([-(2**63), 7], np.int64, float(2**63)),
            ([-7, 3], np.int32, 7.0),
            ([False, True], np.bool_, 1.0),
        ],
    )
    def test_integer_and_unsigned_extremes_do_not_wrap(self, values, dtype, expected):
        out = max_abs(np.array(values, dtype=dtype))
        assert out == expected and type(out) is float

    @pytest.mark.parametrize(
        "dtype",
        [np.float64, np.float32, np.float16, np.int64, np.int32, np.int16, np.uint8, np.uint32, np.complex128, np.complex64],
    )
    def test_equals_max_of_abs_bit_for_bit(self, rng, dtype):
        for trial in range(40):
            shape = tuple(rng.integers(1, 9, size=rng.integers(1, 4)))
            if np.issubdtype(dtype, np.integer):
                info = np.iinfo(dtype)
                a = rng.integers(max(info.min + 1, -(10**6)), min(info.max, 10**6), size=shape).astype(dtype)
            else:
                a = (rng.standard_normal(shape) * 10.0 ** rng.integers(-5, 5)).astype(dtype)
                if np.issubdtype(dtype, np.complexfloating):
                    a = a + 1j * rng.standard_normal(shape).astype(dtype)
            if trial % 2:
                a = a.T  # a non-contiguous view
            expected = float(np.max(np.abs(a)))
            assert np.float64(max_abs(a)).tobytes() == np.float64(expected).tobytes()


class TestOffDiagonal:
    @pytest.mark.parametrize("n", [0, 1, 2, 5])
    def test_holds_exactly_the_off_diagonal_entries(self, n):
        a = np.arange(n * n, dtype=float).reshape(n, n)
        mask = ~np.eye(n, dtype=bool)
        for view in (a, a.T, a[::-1], np.asfortranarray(a)):
            assert sorted(off_diagonal(view).ravel()) == sorted(view[mask])

    def test_contiguous_input_is_not_copied(self):
        a = np.arange(16.0).reshape(4, 4)
        assert np.shares_memory(off_diagonal(a), a)
        assert np.shares_memory(off_diagonal(a.T), a)


class TestInverseDefect:
    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_equals_the_out_of_place_formula(self, rng, complex_entries):
        for n in (1, 2, 7, 40):
            a = rng.standard_normal((n, n))
            if complex_entries:
                a = a + 1j * rng.standard_normal((n, n))
            b = np.linalg.inv(a)
            expected = float(np.max(np.abs(b @ a - np.eye(n))))
            assert inverse_defect(b, a) == expected
            assert inverse_defect(a.T, a) == float(np.max(np.abs(a.T @ a - np.eye(n))))
