import json

import numpy as np
import numpy.testing as npt
import pytest

from markovdual import Measure, cheap_duality, make_duality
from markovdual.errors import ParseError
from markovdual.scenarios import cyclic_generator
from markovdual.serialize import (
    duality_from_json,
    duality_to_json,
    load_matrix,
    matrix_from_json,
    matrix_to_json,
    measure_from_json,
    measure_to_json,
)


class TestMatrix:
    def test_roundtrip_exact_floats(self):
        # shortest-repr decimal serialization round-trips awkward binary floats
        entries = np.array([[-0.1 - 1e-17, 0.1 + 1e-17], [1 / 3, -1 / 3]])
        m = matrix_from_json({"n": 2, "entries": entries.tolist()})
        doc = json.loads(json.dumps(matrix_to_json(m)))
        back = matrix_from_json(doc)
        npt.assert_array_equal(back.entries, entries)

    def test_labels_roundtrip(self):
        doc = {"n": 2, "labels": ["a", "b"], "entries": [[-1.0, 1.0], [2.0, -2.0]]}
        m = matrix_from_json(doc)
        assert m.space.labels == ("a", "b")
        assert matrix_to_json(m)["labels"] == ["a", "b"]

    def test_missing_key(self):
        with pytest.raises(ParseError):
            matrix_from_json({"entries": [[0.0]]})

    def test_shape_mismatch(self):
        with pytest.raises(ParseError):
            matrix_from_json({"n": 3, "entries": [[0.0, 0.0], [0.0, 0.0]]})

    def test_overflowing_row_sum_names_the_row(self):
        # each entry is finite and row 1 sums to 0, but its absolute row sum is 2e308
        with pytest.raises(ParseError, match="^row 1: its absolute row sum overflows"):
            matrix_from_json({"n": 2, "entries": [[-1.0, 1.0], [1e308, -1e308]]})

    def test_non_object(self):
        with pytest.raises(ParseError):
            matrix_from_json([[0.0]])

    def test_load_matrix_bad_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_matrix(path)


class TestMeasure:
    def test_roundtrip(self):
        mu = Measure.from_weights([0.5, 0.25, 0.25])
        back = measure_from_json(json.loads(json.dumps(measure_to_json(mu))))
        npt.assert_array_equal(back.weights, mu.weights)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ParseError, match=r"measure weight \(0,\)"):
            measure_from_json(json.loads(json.dumps({"n": 2, "weights": [bad, 1.0]})))

    def test_nonpositive_rejected(self):
        with pytest.raises(ParseError):
            measure_from_json({"n": 2, "weights": [1.0, 0.0]})


class TestDuality:
    def test_roundtrip(self):
        d = cheap_duality(Measure.from_weights([0.5, 0.25, 0.25]))
        back = duality_from_json(json.loads(json.dumps(duality_to_json(d))))
        npt.assert_array_equal(back.matrix, d.matrix)
        assert back.rank == d.rank
        assert back.residual == d.residual

    def test_rectangular(self):
        l3 = cyclic_generator()
        m = np.ones((3, 3))
        d = make_duality(l3, l3, m)
        doc = duality_to_json(d)
        assert doc["nhat"] == 3 and doc["n"] == 3

    def test_shape_mismatch(self):
        with pytest.raises(ParseError):
            duality_from_json({"nhat": 2, "n": 2, "D": [[1.0]]})
