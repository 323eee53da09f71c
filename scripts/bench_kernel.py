#!/usr/bin/env python3
"""Time solve_duality_space on the reflected/absorbed walk pair over a ladder of sizes.

Usage: PYTHONPATH=src python scripts/bench_kernel.py [--sizes 8 16 32] [--repeats 3]

Prints one JSON object: per size n, the min and median wall time of
`solve_duality_space(rw.lhat, rw.l)` over the repeats (after one untimed
call), the dimension and max duality rank it found (both must be n), the
worst basis residual relative to 100 eps n (||L_hat||_inf + ||L||_inf) max|D|,
and a machine block (nproc, BLAS, numpy, scipy).  Run it on two checkouts of
the same machine to compare them; BLAS threads follow the environment.
"""

import argparse
import json
import statistics
import time

import numpy as np

from bench_models import machine

from markovdual import max_duality_rank, residual, rw_reflected_absorbed, solve_duality_space


def time_size(n: int, repeats: int) -> dict:
    rw = rw_reflected_absorbed(n)
    space = solve_duality_space(rw.lhat, rw.l)
    walls = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        solve_duality_space(rw.lhat, rw.l)
        walls.append(time.perf_counter() - t0)
    norms = sum(np.abs(np.asarray(m.entries)).sum(axis=1).max() for m in (rw.lhat, rw.l))
    bound = 100.0 * np.finfo(float).eps * n * norms
    worst = max(residual(rw.lhat, rw.l, b) / (bound * np.abs(b).max()) for b in space.basis)
    return {
        "n": n,
        "min_s": min(walls),
        "median_s": statistics.median(walls),
        "repeats": repeats,
        "dimension": space.dimension,
        "max_rank": max_duality_rank(space),
        "worst_residual_over_bound": float(worst),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[8, 16, 24, 32, 48, 64, 96])
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    print(json.dumps({"machine": machine(), "rw54": [time_size(n, args.repeats) for n in args.sizes]}, indent=2))


if __name__ == "__main__":
    main()
