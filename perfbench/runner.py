"""Closed-loop job execution with one client: the next job starts when the last one ends."""

from __future__ import annotations

import time
import traceback
from collections import Counter
from dataclasses import dataclass, field


@dataclass
class Tally:
    """Outcome of the jobs of one run.

    Every job counts in `attempted` and, if it fails, in `failures`; only jobs
    of measured rounds contribute times, sizes and loop time.
    """

    attempted: int = 0
    failures: list = field(default_factory=list)  # (job id, kind, size, message)
    times: list = field(default_factory=list)
    sizes: Counter = field(default_factory=Counter)  # (kind, size) -> measured jobs
    elapsed: float = 0.0  # closed-loop wall time of the measured rounds
    rounds: int = 0

    @property
    def failed(self) -> int:
        return len(self.failures)


def run_round(jobs, tracer, tally: Tally, measured: bool = True) -> None:
    """Run one round of jobs back to back, recording the outcome of each.

    A job that fails its check or raises anything counts as failed, with the
    last line of its traceback kept; the loop goes on with the next job.
    """
    start = time.perf_counter()
    for job in jobs:
        job_id = tally.attempted
        tally.attempted += 1
        t0 = time.perf_counter()
        try:
            with tracer.job(job_id):
                job.run(tracer)
        except Exception:
            message = traceback.format_exc().strip().splitlines()[-1]
            tally.failures.append((job_id, job.kind, job.size, message))
        if measured:
            tally.times.append(time.perf_counter() - t0)
            tally.sizes[(job.kind, job.size)] += 1
    if measured:
        tally.elapsed += time.perf_counter() - start
        tally.rounds += 1


def run_for(workload, tracer, seconds: float, warmup_tracer) -> Tally:
    """One unmeasured warm-up round, then whole rounds until `seconds` of loop time have passed.

    Size counters are kept for the first measured round only, so they repeat
    exactly for a seed whatever the machine's speed.
    """
    tally = Tally()
    run_round(workload.round(), warmup_tracer, tally, measured=False)
    while tally.elapsed < seconds:
        tracer.counting = tally.rounds == 0
        run_round(workload.round(), tracer, tally)
    return tally
