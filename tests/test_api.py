"""The public surface: every export of markovdual with its caller, and every defaulted parameter with the caller that sets it.

A threshold that no caller sets is not a parameter: the function reads it
from config.DEFAULTS where it applies it.  Adding a defaulted parameter to an
exported callable fails this test until the parameter is listed here with
the caller that sets it to a value other than the default.  Likewise a new
export, or an export whose listed caller no longer uses it, fails until
EXPORTS names a file that does.
"""

import ast
import enum
import inspect
from pathlib import Path

import markovdual
from markovdual import ConfigurationSpace, RateMatrix
from markovdual.config import DEFAULTS

KEPT = {
    # thresholds: set to a value other than the default by the named caller
    "push_duality(tol)": "push_duality_left; perfbench's size-scaled residual bound",
    "push_duality_left(tol)": "perfbench's size-scaled residual bound",
    # the default bundle itself: config.DEFAULTS = Tolerances()
    "Tolerances(row)": "config.DEFAULTS",
    "Tolerances(residual)": "config.DEFAULTS",
    # inputs, not thresholds
    "StateSpace(labels)": "RateMatrix.from_entries, Measure.from_weights",
    "RateMatrix.from_entries(labels)": "serialize.load_matrix, adjoint",
    "RateMatrix.from_entries(kind)": "generator, rw_blocked_absorbed, extend_with_cemetery",
    "DualityFunction(pair)": "make_duality, product dualities of models",
    "DualitySpace(cutoff)": "solve_duality_space",
    "DualitySpace(largest_discarded)": "solve_duality_space",
    "DualitySpace(smallest_kept)": "solve_duality_space",
    "max_duality_rank(seed)": "cli duality basis --seed, scenarios",
    "spectral_from_eigenbasis(uinv)": "rw_blocked_absorbed (the closed-form inverse uhat^T)",
    "sep_generator(p)": "cli model sep (vertex file), scenarios, perfbench",
    "ladder_sep_generator(p)": "scenarios, perfbench",
    "inverse_intertwiner(ladder_space)": "scenarios sep-intertwine, perfbench",
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
    thresholds = {"row_tol", "tol", "tol_residual"}
    values = {DEFAULTS.row, DEFAULTS.residual}
    for key, default in _defaulted().items():
        if key.split("(")[1].rstrip(")") in thresholds:
            assert default in values, key


# every public name of markovdual, with a file that uses it: a library module
# (the defining one counts when a public function there uses the name), the
# CLI, the scenarios, perfbench or an acceptance criterion
EXPORTS = {
    "BlockedAbsorbedRW": "src/markovdual/models.py",  # returned by rw_blocked_absorbed
    "ConfigurationSpace": "src/markovdual/cli.py",
    "DEFAULTS": "src/markovdual/spectral.py",
    "DualityFunction": "src/markovdual/intertwining.py",
    "DualitySpace": "src/markovdual/duality.py",  # returned by solve_duality_space
    "IntertwiningOperator": "src/markovdual/intertwining.py",  # returned by lumping_operator
    "JordanBlock": "src/markovdual/spectral.py",  # the blocks of decompose's JordanStructure
    "JordanStructure": "perfbench/workloads.py",
    "MatrixKind": "src/markovdual/cli.py",
    "Measure": "src/markovdual/serialize.py",
    "RateMatrix": "src/markovdual/serialize.py",
    "ReflectedAbsorbedRW": "src/markovdual/models.py",  # returned by rw_reflected_absorbed
    "SiegmundPair": "src/markovdual/models.py",
    "SingleSiteDualityParams": "src/markovdual/cli.py",
    "SpaceKind": "src/markovdual/intertwining.py",
    "SpectralData": "src/markovdual/models.py",
    "StateSpace": "src/markovdual/serialize.py",
    "Tolerances": "src/markovdual/config.py",  # the class of DEFAULTS
    "Witness": "src/markovdual/duality.py",
    "build_from_spectra": "perfbench/workloads.py",
    "chain_duality": "src/markovdual/scenarios.py",
    "cheap_duality": "tests/test_acceptance.py",
    "check_detailed_balance": "src/markovdual/cli.py",
    "check_monotone": "perfbench/workloads.py",
    "check_r_similar": "perfbench/workloads.py",
    "classify_matrix": "src/markovdual/core.py",  # RateMatrix.from_entries
    "classify_regime": "src/markovdual/cli.py",
    "compose_dualities": "tests/test_acceptance.py",
    "cumulative_transform": "src/markovdual/siegmund.py",  # siegmund_spectral
    "decompose": "src/markovdual/cli.py",
    "extend_with_cemetery": "src/markovdual/scenarios.py",
    "factorized_duality": "src/markovdual/scenarios.py",
    "generator": "perfbench/workloads.py",
    "intertwining_residual": "src/markovdual/scenarios.py",
    "inverse_intertwiner": "src/markovdual/scenarios.py",
    "is_irreducible": "src/markovdual/cli.py",
    "ladder_bracket_sum": "src/markovdual/scenarios.py",
    "ladder_projection": "src/markovdual/intertwining.py",
    "ladder_sep_generator": "src/markovdual/scenarios.py",
    "lumping_operator": "src/markovdual/scenarios.py",
    "make_duality": "src/markovdual/intertwining.py",
    "match_jordan_blocks": "tests/test_acceptance.py",
    "max_duality_rank": "src/markovdual/cli.py",
    "max_states": "src/markovdual/models.py",
    "orthogonal_selfduality": "tests/test_acceptance.py",
    "push_duality": "src/markovdual/scenarios.py",
    "push_duality_left": "src/markovdual/scenarios.py",
    "reconstruct_siegmund": "src/markovdual/scenarios.py",
    "residual": "src/markovdual/scenarios.py",
    "reversible_eigenbasis": "src/markovdual/duality.py",
    "rw_blocked_absorbed": "src/markovdual/cli.py",
    "rw_reflected_absorbed": "src/markovdual/cli.py",
    "sep_generator": "src/markovdual/cli.py",
    "siegmund_dual": "src/markovdual/cli.py",
    "siegmund_matrix": "src/markovdual/scenarios.py",
    "siegmund_spectral": "src/markovdual/models.py",
    "single_site_duality": "src/markovdual/cli.py",
    "single_site_duality_bruteforce": "src/markovdual/scenarios.py",
    "solve_duality_space": "src/markovdual/cli.py",
    "spectral_from_eigenbasis": "src/markovdual/models.py",
    "ssep_selfduality": "src/markovdual/scenarios.py",
    "stationary_measure": "src/markovdual/cli.py",
    # exported with the unit tests as their only callers
    "adjoint": "tests/test_core.py",
    "factor_check": "tests/test_duality.py",
}
TESTS_ONLY = {"adjoint", "factor_check"}
ROOT = Path(__file__).resolve().parents[1]


def _uses(path: Path) -> set:
    """Names the file uses in code: bound by a package import or a top-level definition, or as markovdual.name."""
    tree = ast.parse(path.read_text())
    bound, aliases = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("markovdual")):
            bound.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Import):
            aliases.update(a.asname or a.name for a in node.names if a.name == "markovdual")
    bound.update(n.name for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef)))
    bound.update(t.id for n in tree.body if isinstance(n, ast.Assign) for t in n.targets if isinstance(t, ast.Name))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and n.id in bound}
    used.update(
        n.attr for n in ast.walk(tree)
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id in aliases
    )
    return used


def test_every_export_is_listed_with_a_caller():
    public = {n for n in dir(markovdual) if not n.startswith("_") and not inspect.ismodule(getattr(markovdual, n))}
    assert sorted(public - EXPORTS.keys()) == [], "new export: list it in EXPORTS with a file that uses it"
    assert sorted(EXPORTS.keys() - public) == [], "export gone: remove it from EXPORTS"
    uses = {f: _uses(ROOT / f) for f in set(EXPORTS.values())}
    assert sorted(n for n, f in EXPORTS.items() if n not in uses[f]) == [], "the listed file no longer uses it"
    assert {n for n, f in EXPORTS.items() if f.startswith("tests/test_") and "acceptance" not in f} == TESTS_ONLY
