#!/usr/bin/env python3
"""Replay perfbench rounds in one process and report every job that fails its check.

Usage:
  python scripts/replay_jobs.py
  python scripts/replay_jobs.py --workload spectral-build --seeds $(seq 0 39) --rounds 250

With no arguments it runs the standing sweep: every workload, seeds 0-9,
and DEFAULT_ROUNDS rounds per seed (spectral-build 60, kernel-oracle 30,
exclusion-transforms 20, cli-sweep 60), about 3 minutes on 2 cores.
--workload picks one workload, --seeds and --rounds override the defaults.

For each seed it builds the workload from `np.random.default_rng(seed)`, as
`perfbench/run.py --seed` does, and runs `--rounds` rounds back to back
through perfbench's own round runner, the unmeasured warm-up round included,
so job numbers are the ones a perfbench run gives (the warm-up round holds
jobs 0-14).  Every job runs with its own check.  A timed perfbench run
reaches a late job only when it is long or fast enough; this replays every
round whatever the speed, untimed.  Each failed job is printed as one line,
(seed, job, kind, size, error); one line per workload counts jobs and failures.
Exits 1 when any job failed.  Run it from the repository root or anywhere:
it puts the root (for `perfbench`) and `src/` on the path.  BLAS threads
follow the environment.
"""

import argparse
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402

from perfbench.runner import Tally, run_round  # noqa: E402
from perfbench.tracing import NullTracer  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

DEFAULT_ROUNDS = {"spectral-build": 60, "kernel-oracle": 30, "exclusion-transforms": 20, "cli-sweep": 60}


def replay(workload: str, seed: int, rounds: int) -> Tally:
    """Run `rounds` rounds of one seeded workload, recording every failure."""
    tally = Tally()
    with tempfile.TemporaryDirectory() as workdir:
        jobs = WORKLOADS[workload](np.random.default_rng(seed), Path(workdir))
        for _ in range(rounds):
            run_round(jobs.round(), NullTracer(), tally, measured=False)
    return tally


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="one workload (default: all four)")
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(10)))
    parser.add_argument("--rounds", type=int, help="rounds per seed (default: DEFAULT_ROUNDS)")
    args = parser.parse_args(argv)
    failed = 0
    for workload in [args.workload] if args.workload else list(DEFAULT_ROUNDS):
        rounds = args.rounds or DEFAULT_ROUNDS[workload]
        attempted = workload_failed = 0
        for seed in args.seeds:
            tally = replay(workload, seed, rounds)
            attempted += tally.attempted
            workload_failed += tally.failed
            for job, kind, size, error in tally.failures:
                print(f"{workload}: seed {seed}, job {job}, {kind}, size {size}: {error}", flush=True)
        print(f"{workload}: {attempted} jobs over {len(args.seeds)} seeds x {rounds} rounds, {workload_failed} failed", flush=True)
        failed += workload_failed
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
