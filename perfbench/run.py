"""Run one markovdual benchmark workload and print its metrics.

    python3 perfbench/run.py --workload kernel-oracle --seed 1 --seconds 20 --trace 0

Run it from the root of a markovdual checkout; the package is imported from
that checkout's `src/`.  With --trace 0 the last line of stdout is a JSON
object with the end-to-end metrics; with --trace 1 it holds the per-layer
metrics of a traced run.  The full record (machine, inputs, timings, failures)
goes to perfbench/out/<workload>-seed<seed>-trace<t>.json, and a traced run
also writes its spans next to it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOAD_NAMES = ("kernel-oracle", "spectral-build", "exclusion-transforms", "cli-sweep")
END_TO_END = {
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_p90_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
SETUP_LAUNCHES = 5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Two BLAS threads at most: the benchmark is one client, and the machines it
# was sized on have two cores.
MAX_BLAS_THREADS = 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured loop time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(src: Path, traced: bool) -> dict:
    """Wall time of fresh interpreters running `import markovdual`, after one unmeasured launch.

    A traced run launches with -X importtime and records the cumulative import
    time of markovdual and of scipy.sparse instead.
    """
    env = dict(os.environ, PYTHONPATH=str(src))
    cmd = [sys.executable, *(["-X", "importtime"] if traced else []), "-c", "import markovdual"]
    launches = []
    for i in range(SETUP_LAUNCHES + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120, check=True)
        wall = time.perf_counter() - t0
        if i == 0:
            continue
        launch = {"wall_s": wall}
        if traced:
            for line in proc.stderr.splitlines():
                fields = line.split("|")
                if len(fields) == 3 and fields[2].strip() in ("markovdual", "scipy.sparse"):
                    launch[fields[2].strip()] = int(fields[1]) * 1e-6
        launches.append(launch)
    return {"launches": launches, "median_s": statistics.median(x["wall_s"] for x in launches)}


def blas_threads_reported():
    """Thread count the loaded OpenBLAS reports, or None where it cannot be asked."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else ():
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def machine_block(root: Path, threads: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "markovdual").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent)),
        ).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "threads_set": threads,
            "threads_reported": blas_threads_reported(),
        },
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def size_histogram(sizes) -> dict:
    out: dict = {}
    for (kind, size), count in sorted(sizes.items()):
        out.setdefault(kind, {})[str(size)] = count
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "markovdual" / "__init__.py").is_file():
        print(f"error: no src/markovdual under {root}; run from a markovdual checkout", file=sys.stderr)
        return 2
    threads = min(MAX_BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    sys.path[:0] = [str(src), str(root)]

    setup = measure_setup(src, bool(args.trace))
    import numpy as np

    import markovdual

    if Path(markovdual.__file__).resolve().parent != (src / "markovdual").resolve():
        print(f"error: imported markovdual from {markovdual.__file__}, not {src}", file=sys.stderr)
        return 2

    from perfbench import stats
    from perfbench.runner import run_for
    from perfbench.tracing import NullTracer, Tracer, layer_metrics
    from perfbench.workloads import COUNTERS, SPANS, WORKLOADS

    outdir = root / "perfbench" / "out"
    workdir = outdir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else NullTracer()
    try:
        workload = WORKLOADS[args.workload](np.random.default_rng(args.seed), workdir)
        tally = run_for(workload, tracer, args.seconds, NullTracer())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    timing = stats.timing_summary(tally.times)
    jobs_per_s = len(tally.times) / tally.elapsed
    if args.trace:
        metrics = layer_metrics(tracer.spans, SPANS)
        metrics.update({name: tracer.counts[name] for name in COUNTERS})
        metrics["bench.jobs_per_s"] = jobs_per_s
        metrics["setup.import_s"] = statistics.median(x["markovdual"] for x in setup["launches"])
        metrics["setup.scipy_sparse_s"] = statistics.median(x["scipy.sparse"] for x in setup["launches"])
        units = {name: per_layer_unit(name) for name in metrics}
    else:
        metrics = {
            "jobs_per_s": jobs_per_s,
            "job_p50_s": timing["p50_s"],
            "job_p90_s": timing["tail_s"],
            "peak_rss_mb": peak_rss_mb,
            "setup_s": setup["median_s"],
        }
        units = END_TO_END

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_block(root, threads),
        "inputs": {"rounds": tally.rounds, "jobs_by_kind_and_size": size_histogram(tally.sizes)},
        "timing": {**timing, "loop_s": tally.elapsed, "jobs_per_s": jobs_per_s},
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": [dict(zip(("job", "kind", "size", "error"), f)) for f in tally.failures],
        "peak_rss_mb": peak_rss_mb,
        "setup": setup,
        "metrics": metrics,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (outdir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        origin = tracer.spans[0][1] if tracer.spans else 0.0
        spans = [[name, start - origin, end - origin, parent, job] for name, start, end, parent, job in tracer.spans]
        (outdir / f"{stem}-spans.json").write_text(
            json.dumps({"fields": ["name", "start_s", "end_s", "parent", "job"], "spans": spans}) + "\n"
        )

    n = timing["samples"]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{tally.rounds} rounds, {n} measured jobs in {tally.elapsed:.2f} s of loop time")
    print(f"failed_fraction {tally.failed / tally.attempted:.4g} ratio ({tally.failed} of {tally.attempted} jobs, warm-up round included)")
    for job_id, kind, size, error in tally.failures[:5]:
        print(f"  failed job {job_id} ({kind}, size {size}): {error}")
    print(f"job_p90_s is the p{timing['tail_percentile']} of {n} jobs, {timing['beyond_tail']} beyond it; "
          f"setup_s is the median of {SETUP_LAUNCHES} launches")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"record: {(outdir / stem).relative_to(root)}.json")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def per_layer_unit(name: str) -> str:
    if name.endswith((".calls", ".states", ".clusters")):
        return "count"
    if name.endswith(".share"):
        return "ratio"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("_flops"):
        return "flop"
    if name.endswith("jobs_per_s"):
        return "1/s"
    return "s"


if __name__ == "__main__":
    sys.exit(main())
