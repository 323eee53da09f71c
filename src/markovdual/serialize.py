"""JSON schemas shared by the library and the CLI.

Matrix: {"n": int, "labels": [str]?, "entries": [[row-major floats]]}
Measure: {"n": int, "weights": [floats]}
DualityFunction: {"nhat", "n", "D", "residual", "rank"}

Floats round-trip exactly: json emits the shortest decimal representation.
A matrix read from JSON must have finite entries and finite absolute row
sums, so that its products stay finite.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .core import Measure, RateMatrix, StateSpace
from .duality import DualityFunction
from .errors import ParseError


def _require(obj: dict, key: str):
    if key not in obj:
        raise ParseError(f"missing key {key!r}")
    return obj[key]


def matrix_to_json(m: RateMatrix) -> dict:
    out = {"n": m.n, "entries": np.asarray(m.entries).tolist()}
    if m.space.labels is not None:
        out["labels"] = list(m.space.labels)
    return out


def matrix_from_json(obj: dict) -> RateMatrix:
    if not isinstance(obj, dict):
        raise ParseError("matrix document must be a JSON object")
    n = _require(obj, "n")
    try:
        entries = np.asarray(_require(obj, "entries"), dtype=float)
    except (ValueError, TypeError) as exc:  # ragged or non-numeric rows
        raise ParseError(f"entries are not a numeric matrix: {exc}") from exc
    if entries.ndim != 2 or entries.shape != (n, n):
        raise ParseError(f"entries shape {entries.shape} does not match n={n}")
    labels = obj.get("labels")
    matrix = RateMatrix.from_entries(entries, labels=labels)  # names a NaN or infinite entry first
    with np.errstate(over="ignore"):
        row_norms = np.abs(entries).sum(axis=1)
    overflow = np.flatnonzero(~np.isfinite(row_norms))
    if overflow.size:
        raise ParseError(
            f"row {overflow[0]}: its absolute row sum overflows a float, so products with the matrix are not finite"
        )
    return matrix


def measure_to_json(mu: Measure) -> dict:
    return {"n": mu.space.n, "weights": np.asarray(mu.weights).tolist()}


def measure_from_json(obj: dict) -> Measure:
    if not isinstance(obj, dict):
        raise ParseError("measure document must be a JSON object")
    n = _require(obj, "n")
    try:
        weights = np.asarray(_require(obj, "weights"), dtype=float)
        if weights.shape != (n,):
            raise ParseError(f"weights shape {weights.shape} does not match n={n}")
        return Measure.from_weights(weights)
    except (ValueError, TypeError) as exc:  # ragged, non-numeric or not a measure
        raise ParseError(str(exc)) from exc


def duality_to_json(d: DualityFunction) -> dict:
    return {
        "nhat": d.dual_space.n,
        "n": d.primal_space.n,
        "D": np.asarray(d.matrix).tolist(),
        "residual": d.residual,
        "rank": d.rank,
    }


def duality_from_json(obj: dict) -> DualityFunction:
    nhat = _require(obj, "nhat")
    n = _require(obj, "n")
    matrix = np.asarray(_require(obj, "D"), dtype=float)
    if matrix.shape != (nhat, n):
        raise ParseError(f"D shape {matrix.shape} does not match ({nhat}, {n})")
    return DualityFunction(
        StateSpace(nhat), StateSpace(n), matrix, float(obj.get("residual", 0.0)), int(obj.get("rank", 0))
    )


def load_json(path) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read JSON from {path}: {exc}") from exc


def save_json(obj: dict, path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")
    return path


def load_matrix(path) -> RateMatrix:
    return matrix_from_json(load_json(path))
