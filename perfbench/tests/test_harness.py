"""Tests of the benchmark's own code: statistics, span arithmetic, inputs and checks.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import markovdual as md
from perfbench import inputs, run, workloads
from perfbench.runner import Tally, run_round
from perfbench.stats import nearest_rank, tail_percentile, timing_summary
from perfbench.tracing import JOB_SPAN, NullTracer, Tracer, layer_metrics, self_times

ROOT = Path(__file__).resolve().parents[2]


# --- percentile rule --------------------------------------------------------


@pytest.mark.parametrize("n, expected", [(1000, 90), (100, 90), (99, 89), (50, 80), (20, 50), (11, 9), (10, None), (3, None)])
def test_tail_percentile_examples(n, expected):
    assert tail_percentile(n) == expected


def test_tail_percentile_is_highest_with_ten_beyond():
    for n in range(11, 400):
        p = tail_percentile(n)
        assert n - math.ceil(p * n / 100) >= 10
        assert p == 90 or n - math.ceil((p + 1) * n / 100) < 10


def test_timing_summary_counts_samples_beyond_the_tail():
    times = [float(i) for i in range(1, 151)]
    summary = timing_summary(times)
    assert summary["tail_percentile"] == 90
    assert summary["tail_s"] == nearest_rank(times, 90) == 135.0
    assert summary["beyond_tail"] == 15
    assert summary["p50_s"] == 75.5


# --- spans --------------------------------------------------------------------


def _span(name, start, end, parent, job=0):
    return [name, start, end, parent, job]


def test_self_time_subtracts_covered_child_intervals():
    spans = [
        _span(JOB_SPAN, 0.0, 10.0, -1),
        _span("duality.kernel", 1.0, 4.0, 0),
        _span("spectral.decompose", 2.0, 3.0, 1),
        _span("duality.residual", 5.0, 9.0, 0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_counts_overlapping_children_once():
    spans = [_span("a", 0.0, 10.0, -1), _span("b", 1.0, 6.0, 0), _span("c", 4.0, 8.0, 0)]
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_layer_metrics_report_calls_busy_share_and_unattributed():
    spans = [
        _span(JOB_SPAN, 0.0, 10.0, -1, 0),
        _span("duality.kernel", 1.0, 4.0, 0, 0),
        _span("spectral.decompose", 2.0, 3.0, 1, 0),
        _span(JOB_SPAN, 10.0, 20.0, -1, 1),
        _span("duality.kernel", 10.0, 18.0, 3, 1),
    ]
    m = layer_metrics(spans, ("duality.kernel", "spectral.decompose"))
    assert m["duality.kernel.calls"] == 2
    assert m["duality.kernel.busy_s"] == pytest.approx(2.0 + 8.0)
    assert m["duality.kernel.share"] == pytest.approx(10.0 / 20.0)
    assert m["spectral.decompose.busy_s"] == pytest.approx(1.0)
    assert m["bench.unattributed_s"] == pytest.approx(7.0 + 2.0)


def test_layer_metrics_reject_undeclared_span():
    with pytest.raises(ValueError):
        layer_metrics([_span(JOB_SPAN, 0.0, 1.0, -1), _span("x.y", 0.0, 1.0, 0)], ("duality.kernel",))


def test_tracer_links_nested_spans_to_parent_and_job():
    tr = Tracer()
    with tr.job(7):
        with tr.span("outer"):
            with tr.span("inner"):
                pass
    names = [(s[0], s[3], s[4]) for s in tr.spans]
    assert names == [(JOB_SPAN, -1, 7), ("outer", 0, 7), ("inner", 1, 7)]
    assert all(s[2] >= s[1] for s in tr.spans)


# --- inputs -------------------------------------------------------------------


def _fingerprint(jobs):
    """Kinds, sizes and every array or number a round's jobs close over."""
    out = []
    for job in jobs:
        cells = []
        for cell in job.run.__closure__ or ():
            value = cell.cell_contents
            if isinstance(value, np.ndarray):
                cells.append(value.tobytes())
            elif isinstance(value, (int, float, str, md.SingleSiteDualityParams)):
                cells.append(repr(value))
            elif isinstance(value, Path):
                cells.append(value.name)
        out.append((job.kind, job.size, tuple(cells)))
    return out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_inputs(name, tmp_path):
    make = workloads.WORKLOADS[name]
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    a = make(np.random.default_rng(11), tmp_path / "a")
    b = make(np.random.default_rng(11), tmp_path / "b")
    for _ in range(2):
        assert _fingerprint(a.round()) == _fingerprint(b.round())
    c = make(np.random.default_rng(12), tmp_path / "b")
    assert _fingerprint(c.round()) != _fingerprint(a.round())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_round_asks_for_the_same_jobs(name, tmp_path):
    wl = workloads.WORKLOADS[name](np.random.default_rng(3), tmp_path)
    sizes = [sorted((j.kind, j.size) for j in wl.round()) for _ in range(3)]
    assert sizes[0] == sizes[1] == sizes[2]
    assert len(sizes[0]) == 15


def test_benchmark_assembly_matches_library_generators():
    rng = np.random.default_rng(0)
    for v, g in ((2, 2), (3, 2), (2, 3)):
        p = inputs.symmetric_rates(rng, v)
        sep = md.sep_generator(md.ConfigurationSpace.sep(v, g), p)
        ladder = md.ladder_sep_generator(md.ConfigurationSpace.ladder(v, g), p)
        assert np.allclose(sep.entries, inputs.sep_matrix(v, g, p), rtol=0, atol=1e-12)
        assert np.allclose(ladder.entries, inputs.ladder_matrix(v, g, p), rtol=0, atol=1e-12)


# --- verification ---------------------------------------------------------------


def _spectral_job(seed=0, n=12):
    rng = np.random.default_rng(seed)
    m = inputs.dense_generator(rng, n)
    return workloads.spectral_job("dense", inputs.permuted(rng, m), inputs.permuted(rng, m), rng.uniform(0.5, 2.0, n))


def test_correct_job_passes():
    tally = Tally()
    run_round([_spectral_job()], NullTracer(), tally)
    assert (tally.attempted, tally.failed) == (1, 0)


def test_perturbed_duality_is_counted_as_failed(monkeypatch):
    build = md.build_from_spectra

    def perturbed(*args, **kwargs):
        d = build(*args, **kwargs)
        m = np.array(d.matrix)
        m[0, 0] += 1e-6 * np.abs(m).max()
        return md.DualityFunction(d.dual_space, d.primal_space, m, d.residual, d.rank)

    monkeypatch.setattr(md, "build_from_spectra", perturbed)
    tally = Tally()
    run_round([_spectral_job(seed) for seed in range(3)], NullTracer(), tally)
    assert (tally.attempted, tally.failed) == (3, 3)
    assert all("duality residual" in f[3] for f in tally.failures)


def test_missing_basis_element_is_counted_as_failed(monkeypatch):
    solve = md.solve_duality_space

    def short(lhat, l, *args, **kwargs):
        space = solve(lhat, l, *args, **kwargs)
        return md.DualitySpace(space.dual_space, space.primal_space, space.basis[1:])

    monkeypatch.setattr(md, "solve_duality_space", short)
    tally = Tally()
    run_round([workloads.kernel_job("rw54", *inputs.rw54_pair(8), 8)], NullTracer(), tally)
    assert tally.failed == 1 and "dimension 7, expected 8" in tally.failures[0][3]


def test_library_error_is_counted_as_failed(monkeypatch):
    def fail(*args, **kwargs):
        raise md.errors.DecompositionFailedError("forced")

    monkeypatch.setattr(md, "decompose", fail)
    tally = Tally()
    run_round([_spectral_job()], NullTracer(), tally)
    assert tally.failed == 1 and "DecompositionFailedError: forced" in tally.failures[0][3]


def test_wrong_single_site_table_is_counted_as_failed(monkeypatch):
    table = md.single_site_duality
    monkeypatch.setattr(md, "single_site_duality", lambda params: table(params) * (1 + 1e-9))
    params = md.SingleSiteDualityParams(0.7, 0.6, 0.0, 1.0, 3)
    job = workloads.site_table_job(2, 3, params, inputs.symmetric_rates(np.random.default_rng(0), 2))
    tally = Tally()
    run_round([job], NullTracer(), tally)
    assert tally.failed == 1 and "brute force" in tally.failures[0][3]


# --- entry point and BENCHMARK.json ------------------------------------------------


def test_benchmark_json_lists_what_the_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    per_layer = {f"{s}.{k}" for s in workloads.SPANS for k in ("calls", "busy_s", "share")}
    per_layer |= {*workloads.COUNTERS, "bench.unattributed_s", "bench.jobs_per_s", "setup.import_s", "setup.scipy_sparse_s"}
    assert {m["name"] for m in spec["per_layer"]} == per_layer
    assert all(m["unit"] == run.per_layer_unit(m["name"]) for m in spec["per_layer"])


def test_run_outside_a_checkout_fails_without_a_result(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "cli-sweep", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
