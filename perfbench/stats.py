"""Summary statistics for job timings."""

from __future__ import annotations

import math
import statistics

MIN_BEYOND = 10


def tail_percentile(n: int, target: int = 90, min_beyond: int = MIN_BEYOND) -> int | None:
    """Highest whole percentile <= target with at least `min_beyond` samples above it.

    Uses the nearest-rank definition: percentile p of n sorted samples is
    sample number ceil(p n / 100), leaving n - ceil(p n / 100) samples beyond.
    Returns None when no percentile leaves that many.
    """
    if n <= min_beyond:
        return None
    for p in range(target, 0, -1):
        if n - math.ceil(p * n / 100) >= min_beyond:
            return p
    return None


def nearest_rank(values, p: int) -> float:
    """Nearest-rank percentile p (1..100) of the values."""
    ordered = sorted(values)
    return ordered[max(math.ceil(p * len(ordered) / 100), 1) - 1]


def timing_summary(times) -> dict:
    """Median and tail percentile of job times, with the sample counts behind them."""
    n = len(times)
    p = tail_percentile(n)
    summary = {"samples": n, "p50_s": statistics.median(times), "tail_percentile": p}
    if p is not None:
        summary["tail_s"] = nearest_rank(times, p)
        summary["beyond_tail"] = n - math.ceil(p * n / 100)
    return summary
