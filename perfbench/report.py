"""Run every workload untraced and traced, and print one summary.

    python3 perfbench/report.py --seed 1 [--seconds 20]

Prints the end-to-end metrics of each workload with units, setup_s, the
tracing overhead (untraced minus traced jobs_per_s), and the span with the
most self time on each workload next to the span the benchmark predicts.
Run it from the root of a markovdual checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.run import END_TO_END, WORKLOAD_NAMES  # noqa: E402

# The span expected to hold the largest self time on each workload, written
# down before measuring; a name ending in a dot stands for a whole layer.
DOMINANT_SPAN = {
    "kernel-oracle": ("duality.kernel",),
    "spectral-build": ("spectral.decompose",),
    "exclusion-transforms": ("models.", "intertwining."),
    "cli-sweep": ("cli.",),
}


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / "perfbench" / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return {"result": result, "record": record}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    args = parser.parse_args(argv)
    seconds = args.seconds or json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    rows = {w: (run_one(w, args.seed, seconds, 0), run_one(w, args.seed, seconds, 1)) for w in WORKLOAD_NAMES}
    ok = True
    print(f"seed {args.seed}, {seconds} s of measured loop time per run")
    for workload, (plain, traced) in rows.items():
        metrics = plain["result"]["metrics"]
        record = plain["record"]
        timing = record["timing"]
        print(f"\n{workload}: {timing['samples']} measured jobs, {record['inputs']['rounds']} rounds")
        for name in END_TO_END:
            if name != "setup_s":
                print(f"  {name:16s} {metrics[name]['value']:.6g} {metrics[name]['unit']}")
        print(f"  {'failed_fraction':16s} {record['failed'] / record['attempted']:.6g} ratio "
              f"({record['failed']} of {record['attempted']} jobs)")
        print(f"  job_p90_s is p{timing['tail_percentile']}, {timing['beyond_tail']} jobs beyond it")
        layer = traced["result"]["metrics"]
        plain_rate, traced_rate = metrics["jobs_per_s"]["value"], layer["bench.jobs_per_s"]["value"]
        print(f"  tracing overhead {plain_rate - traced_rate:+.4g} jobs/s "
              f"({(plain_rate - traced_rate) / plain_rate:+.2%} of {plain_rate:.4g} untraced)")
        spans = {k[: -len(".busy_s")]: v["value"] for k, v in layer.items() if k.endswith(".busy_s")}
        top = max(spans, key=spans.get)
        share = layer[f"{top}.share"]["value"]
        met = top.startswith(DOMINANT_SPAN[workload])
        ok &= met and plain["result"]["correct"] and traced["result"]["correct"]
        print(f"  largest self time: {top} ({share:.1%} of job time); predicted {' or '.join(DOMINANT_SPAN[workload])}: "
              f"{'met' if met else 'NOT met'}")
    setup = [plain["result"]["metrics"]["setup_s"]["value"] for plain, _ in rows.values()]
    print(f"\nsetup_s {statistics.median(setup):.6g} s (median over the {len(setup)} untraced runs)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
