#!/usr/bin/env python3
"""Time solve_duality_space on the reflected/absorbed walk pair and on ladder x SEP pairs.

Usage: PYTHONPATH=src python scripts/bench_kernel.py [--sizes 8 16 32] [--repeats 3]

Prints one JSON object with two families.  rw54: per size n, the walk pair
(rw.lhat, rw.l), n_hat = n, whose dimension and max duality rank must both
be n.  ladder_sep: per gamma in LADDER_GAMMAS, the V = 2 ladder generator
(4^gamma states) against the SEP(gamma) generator ((gamma + 1)^2 states),
unit rates; SEP conserves particle number, so its generator splits into
2 gamma + 1 sectors.  Each row holds the min and median wall time of
`solve_duality_space` over the repeats (after one untimed call), the
dimension and max duality rank it found, and the worst basis residual
relative to 100 eps max(n_hat, n) (||L_hat||_inf + ||L||_inf) max|D|; the top
level has a machine block (nproc, BLAS, numpy, scipy).  Run it on two
checkouts of the same machine to compare them; BLAS threads follow the
environment.
"""

import argparse
import json
import statistics
import time

import numpy as np

from bench_models import machine

from markovdual import (
    ConfigurationSpace,
    ladder_sep_generator,
    max_duality_rank,
    residual,
    rw_reflected_absorbed,
    sep_generator,
    solve_duality_space,
)

LADDER_GAMMAS = (2, 3, 4)  # 16 x 9, 64 x 16 and 256 x 25 pairs


def time_pair(lhat, l, repeats: int) -> dict:
    space = solve_duality_space(lhat, l)
    walls = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        solve_duality_space(lhat, l)
        walls.append(time.perf_counter() - t0)
    norms = sum(np.abs(np.asarray(m.entries)).sum(axis=1).max() for m in (lhat, l))
    bound = 100.0 * np.finfo(float).eps * max(lhat.n, l.n) * norms
    worst = max((residual(lhat, l, b) / (bound * np.abs(b).max()) for b in space.basis), default=0.0)
    return {
        "min_s": min(walls),
        "median_s": statistics.median(walls),
        "repeats": repeats,
        "dimension": space.dimension,
        "max_rank": max_duality_rank(space),
        "worst_residual_over_bound": float(worst),
    }


def rw54_row(n: int, repeats: int) -> dict:
    rw = rw_reflected_absorbed(n)
    return {"n": n, **time_pair(rw.lhat, rw.l, repeats)}


def ladder_sep_row(gamma: int, repeats: int) -> dict:
    lhat = ladder_sep_generator(ConfigurationSpace.ladder(2, gamma), 1.0)
    l = sep_generator(ConfigurationSpace.sep(2, gamma), 1.0)
    return {"gamma": gamma, "n_hat": lhat.n, "n": l.n, **time_pair(lhat, l, repeats)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[8, 16, 24, 32, 48, 64, 96])
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    report = {
        "machine": machine(),
        "rw54": [rw54_row(n, args.repeats) for n in args.sizes],
        "ladder_sep": [ladder_sep_row(g, args.repeats) for g in LADDER_GAMMAS],
    }
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
