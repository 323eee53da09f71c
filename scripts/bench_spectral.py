#!/usr/bin/env python3
"""Time decompose on the input classes of a spectral-build round and on a dense size ladder.

Usage: PYTHONPATH=src:. python scripts/bench_spectral.py [--seed 0] [--sizes 60 120 240] [--repeats 3]

The round inputs are the ones perfbench's spectral-build workload draws
(dense, birth-death, complete-graph SEP and Jordan-sum generators, each
randomly relabelled), built with `perfbench.inputs`, hence the repository
root on the path.  Prints one JSON object: per input, the min and median
wall time of `decompose` over the repeats (after one untimed call), the
number of Jordan blocks and distinct eigenvalues, the largest block, the
structure as [Re, Im, size] triples (eigenvalues rounded to 9 digits, so two
checkouts can be compared block by block) and the residual; per class the sum of the medians; for the dense ladder the fitted
exponent log(t_b / t_a) / log(n_b / n_a) between neighbouring sizes; and a
machine block (nproc, BLAS and its thread setting, numpy, scipy).  Run it on
two checkouts of the same machine to compare them; BLAS threads follow the
environment.
"""

import argparse
import json
import math
import os
import platform
import statistics
import time

import numpy as np
import scipy

from markovdual import decompose, generator
from markovdual.scenarios import jordan_block_generator
from perfbench import inputs
from perfbench.workloads import SpectralBuild


def round_inputs(rng: np.random.Generator) -> list[tuple[str, str, np.ndarray]]:
    """(class, label, matrix) for every input class of one spectral-build round."""
    out = [("dense", f"n={n}", inputs.dense_generator(rng, n)) for n in SpectralBuild.DENSE]
    out += [("birth-death", f"n={n}", inputs.birth_death(rng, n)) for n in SpectralBuild.BIRTH_DEATH]
    out += [
        ("sep", f"V={v},gamma={g}", inputs.sep_matrix(v, g, inputs.complete_rates(v)))
        for v, g in SpectralBuild.SEP
    ]
    block = np.asarray(jordan_block_generator().entries)
    out += [
        ("jordan-sum", f"copies={k}", inputs.jordan_sum(rng, block, k))
        for k in SpectralBuild.JORDAN_COPIES
    ]
    return [(kind, label, inputs.permuted(rng, m)) for kind, label, m in out]


def time_input(kind: str, label: str, m: np.ndarray, repeats: int) -> dict:
    l = generator(m)
    sd = decompose(l)
    walls = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        decompose(l)
        walls.append(time.perf_counter() - t0)
    return {
        "class": kind,
        "input": label,
        "n": l.n,
        "min_s": min(walls),
        "median_s": statistics.median(walls),
        "repeats": repeats,
        "blocks": len(sd.structure.blocks),
        "distinct_eigenvalues": len({b.eigenvalue for b in sd.structure.blocks}),
        "largest_block": max(b.size for b in sd.structure.blocks),
        "structure": [
            [round(b.eigenvalue.real, 9) + 0.0, round(b.eigenvalue.imag, 9) + 0.0, b.size]
            for b in sd.structure.blocks
        ],
        "residual": sd.residual,
    }


def fitted_exponents(ladder: list[dict]) -> list[dict]:
    return [
        {
            "from_n": a["n"],
            "to_n": b["n"],
            "exponent": math.log(b["median_s"] / a["median_s"]) / math.log(b["n"] / a["n"]),
        }
        for a, b in zip(ladder, ladder[1:])
    ]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--sizes", type=int, nargs="+", default=[60, 120, 240])
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    rng = np.random.default_rng(args.seed)
    rows = [time_input(*spec, args.repeats) for spec in round_inputs(rng)]
    classes = {}
    for row in rows:
        classes[row["class"]] = classes.get(row["class"], 0.0) + row["median_s"]
    ladder = [time_input("dense", f"n={n}", inputs.dense_generator(rng, n), args.repeats) for n in args.sizes]
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    machine = {
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    print(
        json.dumps(
            {
                "machine": machine,
                "seed": args.seed,
                "round": rows,
                "round_class_median_sum_s": classes,
                "round_median_sum_s": sum(classes.values()),
                "dense_ladder": ladder,
                "dense_ladder_exponents": fitted_exponents(ladder),
            },
            indent=2,
        )
    )


if __name__ == "__main__":
    main()
