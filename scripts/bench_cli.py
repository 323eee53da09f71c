#!/usr/bin/env python3
"""Time the in-process CLI calls of one cli-sweep round, one call at a time.

Usage:
  PYTHONPATH=src:. python scripts/bench_cli.py [--seed 0] [--repeats 15]
  python scripts/bench_cli.py --before <checkout> [--seed 0] [--repeats 15] [--out BENCH_cli.json]

The calls are the ones perfbench's cli-sweep workload makes
(`perfbench.workloads.CliSweep`), on the files its set-up writes: `scenario
all --n 4/12/20`, `inspect` (birth-death n = 4, 7, 10), `siegmund` (5, 10),
`duality basis` (rw54 pairs n = 6, 10 and a birth-death self-pair n = 8),
`model sep` (V = 3, gamma = 2 and V = 2, gamma = 4) and `duality sep`
(gamma = 3, 6), all with --json, plus `model rw54` and `model rw6` at n = 20.
Each call goes through `markovdual.cli.main` with stdout captured, once
untimed (which also builds whatever the first call builds) and then
--repeats times.  Per call it reports the min and median wall time, the
bytes printed and a digest of the parsed output: a canonical re-encoding of
the document, so the layout of the printed JSON does not enter.  The files
are written to a temporary directory that is the working directory while the
calls run, so paths in the output read the same on both sides.

Without --before it prints one JSON object for the markovdual on the path.
With --before it runs itself twice in fresh interpreters, first on the
checkout given (importing its `src/`), then on this one, each with the
repository root of this script on the path for `perfbench`, and writes
{machine, command, summary, before, after} to --out: per subcommand the sum
of the medians on both sides and their ratio, and whether every parsed
output matched.  BLAS threads follow the environment.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

from bench_models import compare, machine, run_checkout

ROOT = Path(__file__).resolve().parent.parent


def round_calls(rng: np.random.Generator) -> list[tuple[str, str, list[str]]]:
    """(subcommand, input label, argv) of one cli-sweep round, written into the working directory."""
    from perfbench.workloads import CliSweep as C

    sweep = C(rng, Path("."))
    calls = [("scenario", f"n={n}", ["scenario", "all", "--n", str(n), "--seed", str(rng.integers(1000))]) for n in C.SCENARIO_N]
    calls += [("inspect", f"bd n={n}", ["inspect", str(sweep._bd(n)[0])]) for n in C.INSPECT_N]
    calls += [("siegmund", f"bd n={n}", ["siegmund", str(sweep._bd(n)[0])]) for n in C.SIEGMUND_N]
    for n in C.RW54_BASIS_N:
        (hat, _), = sweep.files[("rw54-hat", n)]
        (path, _), = sweep.files[("rw54", n)]
        calls.append(("duality basis", f"rw54 n={n}", ["duality", "basis", str(hat), str(path)]))
    path = sweep._bd(C.BIRTH_DEATH_BASIS_N)[0]
    calls.append(("duality basis", f"bd n={C.BIRTH_DEATH_BASIS_N}", ["duality", "basis", str(path), str(path)]))
    calls += [("model sep", f"V={v},gamma={g}", ["model", "sep", "--V", str(v), "--gamma", str(g)]) for v, g in C.MODEL_SEP]
    for g in C.DUALITY_SEP_GAMMA:
        alpha, beta = (float(x) for x in rng.uniform(0.5, 1.0, 2))
        argv = ["duality", "sep", "--alpha", repr(alpha), "--beta", repr(beta), "--eps", "0.0", "--delta", "1.0", "--gamma", str(g)]
        calls.append(("duality sep", f"gamma={g}", argv))
    calls += [(f"model {name}", "n=20", ["model", name, "--n", "20"]) for name in ("rw54", "rw6")]
    return [(command, label, [*argv, "--json"]) for command, label, argv in calls]


def run(argv: list[str]) -> str:
    from markovdual.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"markovdual {' '.join(argv)} exited {code}")
    return out.getvalue()


def time_calls(seed: int, repeats: int) -> list[dict]:
    rows = []
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        for command, label, argv in round_calls(np.random.default_rng(seed)):
            printed = run(argv)
            walls = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                run(argv)
                walls.append(time.perf_counter() - t0)
            canonical = json.dumps(json.loads(printed), sort_keys=True).encode()
            rows.append({
                "call": " ".join(argv),
                "group": command,
                "input": label,
                "min_s": min(walls),
                "median_s": statistics.median(walls),
                "repeats": repeats,
                "bytes": len(printed.encode()),
                "digest": hashlib.sha256(canonical).hexdigest()[:16],
            })
        os.chdir(ROOT)
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=15)
    parser.add_argument("--before", type=Path, help="checkout to compare against (runs both sides)")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_cli.json")
    args = parser.parse_args()
    if args.before is None:
        print(json.dumps({"machine": machine(), "seed": args.seed, "calls": time_calls(args.seed, args.repeats)}))
        return
    argv = ["--seed", str(args.seed), "--repeats", str(args.repeats)]
    before = run_checkout(__file__, args.before.resolve(), argv)["calls"]
    after = run_checkout(__file__, ROOT, argv)["calls"]
    summary = compare(before, after)
    for b, a in zip(before, after):
        s = summary[b["group"]]
        s["before_bytes"] = s.get("before_bytes", 0) + b["bytes"]
        s["after_bytes"] = s.get("after_bytes", 0) + a["bytes"]
    record = {
        "what": "in-process wall time per markovdual.cli.main call of one cli-sweep round "
        "(perfbench.workloads.CliSweep) plus model rw54/rw6 at n = 20, before = --before checkout, "
        "after = this checkout; the digest of each parsed output must match between the sides",
        "command": " ".join(["python3", "scripts/bench_cli.py", "--before", "<parent checkout>",
                             "--seed", str(args.seed), "--repeats", str(args.repeats)]),
        "machine": machine(),
        "seed": args.seed,
        "summary": summary,
        "before": before,
        "after": after,
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record["summary"], indent=2))


if __name__ == "__main__":
    main()
