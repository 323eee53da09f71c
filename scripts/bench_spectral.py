#!/usr/bin/env python3
"""Time decompose on the input classes of a spectral-build round and on a dense size ladder.

Usage:
  PYTHONPATH=src:. python scripts/bench_spectral.py [--seed 0 ...] [--sizes 60 120 240] [--repeats 3]
  python scripts/bench_spectral.py --before <checkout> [--seed 0 ...] [--sizes 60 120 240] [--repeats 3] [--out BENCH_spectral.json]

The round inputs are the ones perfbench's spectral-build workload draws
(dense, birth-death, complete-graph SEP and Jordan-sum generators, each
randomly relabelled), built with `perfbench.inputs`, hence the repository
root on the path.  Per input it reports the min and median wall time of
`decompose` over the repeats (after one untimed call), the number of Jordan
blocks and distinct eigenvalues, the largest block, a digest of the
structure as [Re, Im, size] triples (eigenvalues rounded to 9 digits), an
exact digest of the same triples (every eigenvalue and the residual as
float.hex, so it changes with any bit), a witness digest (the matched
eigenvalue as float.hex, both offsets and the size of every block that
`check_r_similar` matches at full rank between two relabelled copies of the
input, drawn from a generator of their own so the round inputs stay the
ones perfbench draws), and the residual; the dense ladder rows (class
"dense-ladder") report the same, plus the fitted exponent
log(t_b / t_a) / log(n_b / n_a) between neighbouring sizes.  With several
seeds, each seed gives one round and one ladder, and every row names its seed.

Without --before it prints one JSON object for the markovdual on the path.
With --before it runs itself twice in fresh interpreters, first on the
checkout given (importing its `src/`), then on this one, each with the
repository root of this script on the path for `perfbench`, and writes
{machine, command, summary, before, after} to --out: per class the sum of
the medians on both sides and their ratio, and whether every input's
structure, exact and witness digests matched.  It exits 1 when any input's
digests differ, naming the inputs.  BLAS threads follow the environment.
"""

import argparse
import hashlib
import json
import math
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from bench_models import compare, machine, run_checkout

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ("digest", "exact_digest", "witness_digest")


def round_inputs(rng: np.random.Generator) -> list[tuple[str, str, np.ndarray]]:
    """(class, label, matrix) for every input class of one spectral-build round."""
    from markovdual.scenarios import jordan_block_generator
    from perfbench import inputs
    from perfbench.workloads import SpectralBuild

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


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()[:16]


def witness_digest(m: np.ndarray, rng: np.random.Generator) -> str:
    """Digest of the full-rank check_r_similar witness between two relabelled copies of m."""
    from markovdual import check_r_similar, decompose, generator
    from perfbench import inputs

    hat, primal = (decompose(generator(inputs.permuted(rng, m))) for _ in range(2))
    witness = check_r_similar(hat, primal, hat.n)
    matched = [
        [u.eigenvalue.real.hex(), u.eigenvalue.imag.hex(), u.hat_offset, u.offset, u.size]
        for u in (witness.matched if witness is not None else ())
    ]
    return _digest(matched)


def time_input(kind: str, label: str, m: np.ndarray, repeats: int, witness_rng: np.random.Generator) -> dict:
    from markovdual import decompose, generator

    l = generator(m)
    sd = decompose(l)
    walls = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        decompose(l)
        walls.append(time.perf_counter() - t0)
    structure = [
        [round(b.eigenvalue.real, 9) + 0.0, round(b.eigenvalue.imag, 9) + 0.0, b.size]
        for b in sd.structure.blocks
    ]
    exact = [[b.eigenvalue.real.hex(), b.eigenvalue.imag.hex(), b.size] for b in sd.structure.blocks]
    return {
        "group": kind,
        "input": label,
        "n": l.n,
        "min_s": min(walls),
        "median_s": statistics.median(walls),
        "repeats": repeats,
        "blocks": len(sd.structure.blocks),
        "distinct_eigenvalues": len({b.eigenvalue for b in sd.structure.blocks}),
        "largest_block": max(b.size for b in sd.structure.blocks),
        "digest": _digest(structure),
        "exact_digest": _digest([exact, sd.residual.hex()]),
        "witness_digest": witness_digest(m, witness_rng),
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


def time_calls(seed: int, sizes: list[int], repeats: int) -> list[dict]:
    from perfbench import inputs

    rng, witness_rng = np.random.default_rng(seed), np.random.default_rng([seed, 1])
    rows = [time_input(*spec, repeats, witness_rng) for spec in round_inputs(rng)]
    rows += [
        time_input("dense-ladder", f"n={n}", inputs.dense_generator(rng, n), repeats, witness_rng) for n in sizes
    ]
    return [{"seed": seed, **row} for row in rows]


def ladder_exponents(rows: list[dict]) -> list[dict]:
    """fitted_exponents of each seed's dense ladder."""
    seeds = dict.fromkeys(r["seed"] for r in rows)
    return [
        {"seed": s, **e}
        for s in seeds
        for e in fitted_exponents([r for r in rows if r["seed"] == s and r["group"] == "dense-ladder"])
    ]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, nargs="+", default=[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[60, 120, 240])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--before", type=Path, help="checkout to compare against (runs both sides)")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_spectral.json")
    args = parser.parse_args()
    if args.before is None:
        rows = [row for seed in args.seed for row in time_calls(seed, args.sizes, args.repeats)]
        record = {"machine": machine(), "seeds": args.seed, "calls": rows, "dense_ladder_exponents": ladder_exponents(rows)}
        print(json.dumps(record))
        return
    argv = ["--seed", *map(str, args.seed), "--repeats", str(args.repeats), "--sizes", *map(str, args.sizes)]
    before = run_checkout(__file__, args.before.resolve(), argv)
    after = run_checkout(__file__, ROOT, argv)
    summary = compare(before["calls"], after["calls"], exact=DIGESTS)
    rounds = [sum(r["median_s"] for r in side["calls"] if r["group"] != "dense-ladder") for side in (before, after)]
    record = {
        "what": "wall time of decompose(l) on the inputs of one spectral-build round "
        "(perfbench.workloads.SpectralBuild: dense, birth-death, complete-graph SEP and Jordan-sum "
        "generators, randomly relabelled; the round decomposes each twice) and on a dense ladder, "
        "before = --before checkout, after = this checkout; the structure, exact and witness "
        "digests of every input must match between the sides",
        "command": " ".join(["python3", "scripts/bench_spectral.py", "--before", "<parent checkout>", *argv]),
        "machine": machine(),
        "seeds": args.seed,
        "summary": {
            "round_median_sum_s": {"before": rounds[0], "after": rounds[1], "speedup": rounds[0] / rounds[1]},
            "classes": summary,
            "dense_ladder_exponents": {"before": before["dense_ladder_exponents"], "after": after["dense_ladder_exponents"]},
        },
        "before": before["calls"],
        "after": after["calls"],
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record["summary"], indent=2))
    differ = [
        f"seed {b['seed']} {b['group']} {b['input']}: {', '.join(k for k in DIGESTS if a[k] != b[k])}"
        for b, a in zip(before["calls"], after["calls"])
        if any(a[k] != b[k] for k in DIGESTS)
    ]
    if differ:
        sys.exit("digests differ:\n" + "\n".join(differ))


if __name__ == "__main__":
    main()
