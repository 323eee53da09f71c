"""The option surface: every defaulted parameter of the exported callables, each with the caller that sets it.

A threshold that no caller sets is not a parameter: the function reads it
from config.DEFAULTS where it applies it.  Adding a defaulted parameter to an
exported callable fails this test until the parameter is listed here with
the caller that sets it to a value other than the default.
"""

import enum
import inspect

import markovdual
from markovdual import ConfigurationSpace, RateMatrix
from markovdual.config import DEFAULTS

KEPT = {
    # thresholds: set to a value other than the default by the named caller
    "classify_matrix(row_tol)": "RateMatrix.from_entries passes its own row_tol",
    "RateMatrix.from_entries(row_tol)": "siegmund.extend_with_cemetery classifies at max(DEFAULTS.row, 1e-9)",
    "check_detailed_balance(tol)": "cli inspect --tol",
    "decompose(tol_residual)": "cli inspect --tol",
    "decompose(tol_cluster)": "deep Jordan blocks (tests/test_cross_module.py, tests/test_spectral.py)",
    "match_jordan_blocks(tol)": "check_r_similar; tests/test_cross_module.py with a loose tol_cluster",
    "check_r_similar(tol)": "tests/test_cross_module.py with a loose tol_cluster",
    "push_duality(tol)": "push_duality_left; perfbench's size-scaled residual bound",
    "push_duality_left(tol)": "perfbench's size-scaled residual bound",
    "check_biorthogonal(tol)": "tests/test_duality.py, tests/test_spectral.py",
    # the default bundle itself: config.DEFAULTS = Tolerances()
    "Tolerances(row)": "config.DEFAULTS",
    "Tolerances(residual)": "config.DEFAULTS",
    "Tolerances(cluster)": "config.DEFAULTS",
    # inputs, not thresholds
    "StateSpace(labels)": "RateMatrix.from_entries, Measure.from_weights",
    "RateMatrix.from_entries(labels)": "serialize.load_matrix, adjoint",
    "RateMatrix.from_entries(kind)": "generator, rw_blocked_absorbed, extend_with_cemetery",
    "DualityFunction(pair)": "make_duality, product dualities of models",
    "DualitySpace(cutoff)": "solve_duality_space",
    "DualitySpace(largest_discarded)": "solve_duality_space",
    "DualitySpace(smallest_kept)": "solve_duality_space",
    "max_duality_rank(seed)": "cli duality basis --seed, scenarios",
    "spectral_from_eigenbasis(uinv)": "rw_blocked_absorbed (closed-form inverses)",
    "sep_generator(p)": "cli model sep (vertex file), scenarios, perfbench",
    "ladder_sep_generator(p)": "scenarios, perfbench",
    "inverse_intertwiner(ladder_space)": "scenarios sep-intertwine, perfbench",
    "ladder_bracket_sum(xi_pattern)": "tests/test_models.py (the value depends on the pattern's total only)",
}


def _exported():
    for name in dir(markovdual):
        obj = getattr(markovdual, name)
        if name.startswith("_") or inspect.ismodule(obj) or not callable(obj):
            continue
        if isinstance(obj, type) and issubclass(obj, enum.Enum):
            continue
        yield name, obj
    yield "RateMatrix.from_entries", RateMatrix.from_entries
    yield "ConfigurationSpace.sep", ConfigurationSpace.sep
    yield "ConfigurationSpace.ladder", ConfigurationSpace.ladder


def _defaulted():
    return {
        f"{name}({p.name})": p.default
        for name, obj in _exported()
        for p in inspect.signature(obj).parameters.values()
        if p.default is not inspect.Parameter.empty
    }


def test_every_defaulted_parameter_is_listed_with_its_caller():
    found = set(_defaulted())
    assert sorted(found - KEPT.keys()) == [], "new option: list it in KEPT with the caller that sets it"
    assert sorted(KEPT.keys() - found) == [], "option gone: remove it from KEPT"


def test_threshold_defaults_come_from_config():
    thresholds = {"row_tol", "tol", "tol_residual", "tol_cluster"}
    values = {DEFAULTS.row, DEFAULTS.residual, DEFAULTS.cluster}
    for key, default in _defaulted().items():
        if key.split("(")[1].rstrip(")") in thresholds:
            assert default in values, key
