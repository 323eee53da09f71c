import functools
import json
import warnings

import numpy as np
import pytest

from markovdual import cli
from markovdual.cli import build_parser, main
from markovdual.models import (
    SingleSiteDualityParams,
    rw_reflected_absorbed,
    single_site_duality,
    single_site_duality_bruteforce,
)
from markovdual import ConfigurationSpace, sep_generator
from markovdual.scenarios import FAMILY_PARAMS, cyclic_generator, jordan_block_generator
from markovdual.serialize import matrix_to_json, save_json


@pytest.fixture
def cyclic_file(tmp_path):
    return save_json(matrix_to_json(cyclic_generator()), tmp_path / "cyclic.json")


@pytest.fixture
def blocked_file(tmp_path):
    n = 5
    m = np.zeros((n, n))
    for x in range(1, n - 1):
        m[x, x - 1] = m[x, x + 1] = 1.0
        m[x, x] = -2.0
    m[0, 0], m[0, 1] = -1.0, 1.0
    m[n - 1, n - 2], m[n - 1, n - 1] = 1.0, -1.0
    return save_json({"n": n, "entries": m.tolist()}, tmp_path / "blocked.json")


class TestInspect:
    def test_cyclic_summary(self, cyclic_file, capsys):
        assert main(["inspect", str(cyclic_file)]) == 0
        out = capsys.readouterr().out
        assert "generator" in out
        assert "irreducible" in out
        assert "non-reversible" in out
        assert "-1.5" in out and "0.866" in out

    def test_json_output(self, cyclic_file, capsys):
        assert main(["inspect", str(cyclic_file), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kind"] == "generator"
        assert doc["irreducible"] is True
        assert doc["reversible"] is False

    def test_slow_cycle_keeps_its_complex_pair(self, tmp_path, capsys):
        m = 1e-13 * np.asarray(cyclic_generator().entries)
        path = save_json({"n": 3, "entries": m.tolist()}, tmp_path / "slow.json")
        assert main(["inspect", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "irreducible" in lines
        eigenvalues = next(line for line in lines if line.startswith("eigenvalues: ")).split(", ")
        assert len(eigenvalues) == 3
        assert eigenvalues[1:] == ["-1.5e-13 + 8.66025e-14i", "-1.5e-13 - 8.66025e-14i"]

    @pytest.mark.parametrize("name", ["cyclic", "blocked", "jordan4", "sep"])
    def test_json_report_is_the_same_at_every_scale(self, name, blocked_file, tmp_path, capsys):
        m = {
            "cyclic": cyclic_generator().entries,
            "blocked": json.loads(blocked_file.read_text())["entries"],
            "jordan4": jordan_block_generator().entries,
            "sep": sep_generator(ConfigurationSpace.sep(2, 2)).entries,
        }[name]
        m = np.asarray(m)
        found = {}
        for k in range(-12, 13):
            path = save_json({"n": len(m), "entries": (10.0**k * m).tolist()}, tmp_path / f"{name}{k}.json")
            assert main(["inspect", str(path), "--json"]) == 0
            doc = json.loads(capsys.readouterr().out)
            multiplicities = [e["m"] for e in doc["eigenvalues"]]
            found[k] = (doc["kind"], doc["irreducible"], doc.get("reversible"), multiplicities)
        assert all(report == found[0] for report in found.values()), found

    def test_zero_matrix_reducible(self, tmp_path, capsys):
        path = save_json({"n": 3, "entries": np.zeros((3, 3)).tolist()}, tmp_path / "zero.json")
        assert main(["inspect", str(path)]) == 0
        out = capsys.readouterr().out
        assert "generator" in out
        assert "reducible" in out

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n": 2, "entries": [[0.0, 0.0]]}))
        assert main(["inspect", str(bad)]) == 2

    def test_nan_entry_exit_code(self, tmp_path, capsys):
        path = save_json({"n": 2, "entries": [[-1.0, 1.0], [float("nan"), -1.0]]}, tmp_path / "nan.json")
        assert "NaN" in path.read_text()
        assert main(["inspect", str(path)]) == 2
        assert "(1, 0)" in capsys.readouterr().err

    def test_missing_subcommand_prints_help(self, capsys):
        assert main([]) == 2


class TestSiegmundCommand:
    def test_blocked_walk(self, blocked_file, capsys):
        assert main(["siegmund", str(blocked_file)]) == 0
        out = capsys.readouterr().out
        assert "sub-generator" in out
        assert "monotone input: True" in out

    def test_json(self, blocked_file, capsys):
        assert main(["siegmund", str(blocked_file), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["monotone"] is True
        assert doc["residual"] <= 1e-12


class TestDualityCommands:
    def test_basis_on_rw54_pair(self, tmp_path, capsys):
        rw = rw_reflected_absorbed(4)
        lhat = save_json(matrix_to_json(rw.lhat), tmp_path / "lhat.json")
        l = save_json(matrix_to_json(rw.l), tmp_path / "l.json")
        assert main(["duality", "basis", str(lhat), str(l), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["dimension"] == 4
        assert doc["max_rank"] == 4
        assert doc["full_rank_duality_exists"] is True
        assert 0.0 <= doc["largest_discarded"] <= doc["cutoff"] < 1e3 * doc["cutoff"] <= doc["smallest_kept"]

    def test_sep_table_csv(self, tmp_path, capsys):
        csv = tmp_path / "table.csv"
        code = main(
            [
                "duality", "sep",
                "--alpha", "0", "--beta", "1", "--eps", "0", "--delta", "1",
                "--gamma", "2", "--csv", str(csv),
            ]
        )
        assert code == 0
        assert "classical" in capsys.readouterr().out
        table = np.loadtxt(csv, delimiter=",")
        assert table[1, 2] == pytest.approx(1.0)

    def test_sep_bottom_indicator_table_is_the_oracle(self, capsys):
        argv = ["duality", "sep", "--alpha", "2", "--beta", "-2", "--eps", "0", "--delta", "1", "--gamma", "2", "--json"]
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["regime"] == "bottom-indicator"
        oracle = single_site_duality_bruteforce(SingleSiteDualityParams(2.0, -2.0, 0.0, 1.0, 2))
        np.testing.assert_allclose(doc["table"], oracle, rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(oracle, [[1, 1, 1], [2, 1, 0], [4, 0, 0]])


class TestModelCommands:
    def test_rw54_artifacts(self, tmp_path, capsys):
        assert main(["model", "rw54", "--n", "5", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "rw54_L.json").exists()
        assert (tmp_path / "rw54_Lhat.json").exists()

    def test_rw6_json(self, capsys):
        assert main(["model", "rw6", "--n", "6", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["monotone"] is True

    def test_sep_vertex_count(self, capsys):
        assert main(["model", "sep", "--V", "2", "--gamma", "1", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["states"] == 4

    def test_sep_vertex_file(self, tmp_path, capsys):
        vf = tmp_path / "v.json"
        vf.write_text(json.dumps({"vertices": ["a", "b"], "p": [[0.0, 1.0], [1.0, 0.0]]}))
        assert main(["model", "sep", "--V", str(vf), "--gamma", "2", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["states"] == 9

    def test_bad_vertex_arg(self, capsys):
        assert main(["model", "sep", "--V", "nope.json", "--gamma", "1"]) == 2


class TestScenarioCommand:
    @pytest.mark.parametrize("name", ["cyclic3", "jordan4"])
    def test_single_scenario_passes(self, name, capsys):
        assert main(["scenario", name]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_all_scenarios_json(self, capsys):
        assert main(["scenario", "all", "--json"]) == 0
        docs = json.loads(capsys.readouterr().out)
        assert len(docs) == 6
        assert all(doc["pass"] for doc in docs)

    def test_unknown_scenario(self, capsys):
        assert main(["scenario", "does-not-exist"]) == 2

    @pytest.mark.parametrize("gamma", [1, 2, 3, 5, 6])
    def test_sep_intertwine_pushed_bound_scales_with_the_ladder(self, gamma, capsys):
        # the pushed residual is rounding that grows with the ladder: 2.2e-12 and 1.2e-11 on the
        # 1024- and 4096-state ladders of gamma = 5 and 6, beyond an absolute 1e-12.  Its bound,
        # 4 eps max(|L_hat||P| + |P||L|^T), holds there and stays within 1e-12 for gamma <= 3
        assert main(["scenario", "sep-intertwine", "--gamma", str(gamma), "--json"]) == 0
        (doc,) = json.loads(capsys.readouterr().out)
        (check,) = [c for c in doc["checks"] if c["name"].startswith("pushed duality residual")]
        assert check["observed"] <= check["tolerance"]
        assert gamma > 3 or check["tolerance"] <= 1e-12

    def test_artifacts_written(self, tmp_path, capsys):
        assert main(["scenario", "cyclic3", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "cyclic3_duality.json").exists()

    def test_sep_families_tables(self, tmp_path, capsys):
        assert main(["scenario", "sep-families", "--gamma", "3", "--out", str(tmp_path)]) == 0
        assert len(list(tmp_path.glob("*.csv"))) == len(FAMILY_PARAMS) == 6
        for name, kw in FAMILY_PARAMS:
            params = SingleSiteDualityParams(gamma=3, **kw)
            path = tmp_path / f"single_site_{name}.csv"
            np.testing.assert_array_equal(np.loadtxt(path, delimiter=","), single_site_duality(params))
            first = path.read_text().splitlines()[0]
            assert first.startswith(
                f"# family={name} alpha={params.alpha} beta={params.beta} "
                f"epsilon={params.epsilon} delta={params.delta} gamma=3"
            )


def _subparsers(parser):
    """Leaf subcommand parsers by their space-joined command path."""
    for action in parser._subparsers._group_actions if parser._subparsers else []:
        for name, sub in action.choices.items():
            if sub._subparsers:
                yield from ((f"{name} {leaf}", p) for leaf, p in _subparsers(sub))
            else:
                yield name, sub


class TestFlags:
    READS = {
        "inspect": {"--json"},
        "siegmund": {"--json", "--out"},
        "duality basis": {"--seed", "--json", "--out"},
        "duality sep": {"--json", "--out"},
        "model rw54": {"--json", "--out"},
        "model rw6": {"--json", "--out"},
        "model sep": {"--json", "--out"},
        "scenario": {"--seed", "--json", "--out"},
    }

    def test_each_command_has_exactly_the_shared_flags_it_reads(self):
        shared = {"--seed", "--json", "--out"}
        found = {
            name: {o for a in p._actions for o in a.option_strings} & shared
            for name, p in _subparsers(build_parser())
        }
        assert found == self.READS
        assert sum(map(len, found.values())) == 17

    @pytest.mark.parametrize("argv", [["inspect", "FILE", "--tol", "1"], ["model", "sep", "--V", "2", "--seed", "3"]])
    def test_unread_flag_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestInProcessCalls:
    def test_repeated_calls_share_one_parser(self, capsys):
        build_parser.cache_clear()
        assert main(["model", "rw54", "--n", "3", "--json"]) == 0
        assert main(["model", "rw6", "--n", "3", "--json"]) == 0
        assert build_parser() is build_parser()
        info = build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 3)

    def test_usage_error_after_a_successful_call(self, capsys):
        assert main(["model", "rw54", "--n", "3", "--json"]) == 0
        first = capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            main(["model", "rw54", "--n", "three"])
        assert exc.value.code == 2
        assert "invalid int value" in capsys.readouterr().err
        assert main([]) == 2
        capsys.readouterr()
        assert main(["model", "rw54", "--n", "3", "--json"]) == 0
        assert capsys.readouterr().out == first


@pytest.mark.parametrize(
    "argv",
    [
        ["inspect", "{dir}/cyclic.json", "--json"],
        ["siegmund", "{dir}/blocked.json", "--json"],
        ["duality", "basis", "{dir}/blocked.json", "{dir}/blocked.json", "--json"],
        ["duality", "sep", "--alpha", "1", "--beta", "1", "--eps", "0", "--delta", "1", "--gamma", "3", "--json"],
        ["model", "rw54", "--n", "5", "--json"],
        ["model", "rw6", "--n", "5", "--json"],
        ["model", "sep", "--V", "2", "--gamma", "2", "--json"],
        ["scenario", "all", "--n", "4", "--json"],
    ],
)
def test_json_is_one_line_with_the_indented_document(argv, cyclic_file, blocked_file, capsys, monkeypatch):
    argv = [a.format(dir=cyclic_file.parent) for a in argv]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 1 and out.endswith("\n")
    monkeypatch.setattr(json, "dumps", functools.partial(json.dumps, indent=2))
    assert main(argv) == 0
    indented = capsys.readouterr().out
    assert indented.count("\n") > 1
    assert json.loads(out) == json.loads(indented)


@pytest.fixture
def bad_input_files(tmp_path):
    sub = np.array([[-2.0, 1.0], [1.0, -1.0]])  # row 0 leaks: a sub-generator
    save_json({"n": 2, "entries": sub.tolist()}, tmp_path / "sub.json")
    save_json({"n": 2, "entries": [[-1e308, 1e308], [1e308, -1e308]]}, tmp_path / "overflow.json")
    save_json({"n": 2, "entries": [[0.0, 0.0], [0.0]]}, tmp_path / "ragged.json")
    save_json({"n": 2, "entries": [[0.0, "x"], [0.0, 0.0]]}, tmp_path / "text.json")
    save_json({"p": 1.0}, tmp_path / "novertices.json")
    return tmp_path


@pytest.mark.parametrize(
    "argv",
    [
        ["model", "rw54", "--n", "1"],
        ["model", "sep", "--V", "2", "--gamma", "-1"],
        ["duality", "sep", "--alpha", "1", "--beta", "1", "--eps", "0", "--delta", "1", "--gamma", "0"],
        ["siegmund", "{dir}/sub.json"],
        ["inspect", "{dir}/ragged.json"],
        ["inspect", "{dir}/text.json"],
        ["inspect", "{dir}/overflow.json"],
        ["duality", "basis", "{dir}/overflow.json", "{dir}/overflow.json"],
        ["model", "sep", "--V", "{dir}/novertices.json"],
        ["scenario", "rw54", "--n", "0"],
        ["scenario", "sep-intertwine", "--gamma", "0"],
    ],
)
def test_bad_input_exits_2_with_error_line(argv, bad_input_files, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([a.format(dir=bad_input_files) for a in argv]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("exc", [MemoryError(), MemoryError("Unable to allocate 74.5 GiB for an array")])
def test_memory_error_exits_2_with_error_line(monkeypatch, capsys, exc):
    # a builder that cannot allocate, as `model rw54 --n 100000` cannot; nothing is allocated here
    def failing(n):
        raise exc

    monkeypatch.setattr(cli, "rw_reflected_absorbed", failing)
    assert main(["model", "rw54", "--n", "100000"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory") and err.count("\n") == 1


@pytest.mark.parametrize(
    "doc,named",
    [
        ({"vertices": 2, "p": {"a": 1}}, "2 x 2 numeric matrix"),
        ({"vertices": 2, "p": [[0, 1, 2]]}, "2 x 2 numeric matrix"),
        ({"vertices": 2, "p": None}, "2 x 2 numeric matrix"),
        ({"vertices": 2, "p": 10**400}, "2 x 2 numeric matrix"),
        ({"vertices": None}, "vertices must be a count or a list"),
        ({"vertices": ["a", "a"]}, "vertex labels must be distinct"),
        (-3, "vertex count must be >= 0"),
    ],
)
def test_malformed_vertex_argument_exits_2_with_one_error_line(doc, named, tmp_path, capsys):
    raw = str(doc)
    if not isinstance(doc, int):
        raw = str(tmp_path / "v.json")
        (tmp_path / "v.json").write_text(json.dumps(doc))
    assert main(["model", "sep", "--V", raw, "--gamma", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and named in captured.err
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv,named",
    [
        (["--alpha", "1e200", "--beta", "1", "--eps", "2", "--delta", "1"], "1e+200 to the power"),
        (["--alpha", "1", "--beta", "1", "--eps", "0", "--delta", "1", "--gamma", "2000"], "gamma = 2000"),
        (["--alpha", "0", "--beta", "1", "--eps", "-1", "--delta", "1"], "0 raised to a negative power"),
        (["--alpha", "1e150", "--beta", "0", "--eps", "1", "--delta", "1", "--json"], "d(1, 0) is inf"),
    ],
)
def test_domain_error_exits_2_with_one_error_line(argv, named, capsys):
    assert main(["duality", "sep", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_space_over_the_cap_exits_2_with_one_error_line(capsys, monkeypatch):
    # 3^10 = 59049 configurations against the default cap of 20000: an argument outside the domain, not a failed check
    monkeypatch.delenv("DUALITY_MAX_STATES", raising=False)
    assert main(["model", "sep", "--V", "10", "--gamma", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "exceeds cap" in captured.err
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
