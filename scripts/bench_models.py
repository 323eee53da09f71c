#!/usr/bin/env python3
"""Time the exclusion-model builders at the sizes of one exclusion-transforms round.

Usage:
  PYTHONPATH=src:. python scripts/bench_models.py [--seed 0] [--repeats 5]
  python scripts/bench_models.py --before <checkout> [--seed 0] [--repeats 5] [--out BENCH_models.json]

The inputs are the ones perfbench's exclusion-transforms workload builds
(`perfbench.workloads.ExclusionTransforms`): `sep_generator`,
`ladder_sep_generator`, `ssep_selfduality` and `factorized_duality` on the
ladder/SEP sizes and the site-table SEP sizes with symmetric random rates,
`ladder_projection`, `lumping_operator` and `inverse_intertwiner` on the
ladder/SEP sizes, `rw_blocked_absorbed` at the blocked-walk sizes,
`siegmund_dual` of birth-death chains (n = 100, 300) and of the blocked walk
(n = 600), and `single_site_duality` at gamma = 2, 4, 8 with classical and
orthogonal parameters.  Two rows lie beyond one round and are summarized on
their own: `sep_generator` and `factorized_duality` on SEP V = 8, gamma = 2
(6,561 states, three timed calls each).  Per call and size it reports the min
and median wall time over the repeats (after one untimed call), the
tracemalloc peak of one more call in MiB (`peak_mib`: numpy arrays and
Python objects, not BLAS or LAPACK work space), and the output's
fingerprint: a digest of the generator, duality, Siegmund dual,
projection or operator matrix, the duality's rank, its recorded residual
and, as its own field, the dense max|L D - D L^T| (taken by blocks of rows,
untimed), the Siegmund pair's residual, the walk's digests of uhat,
spectral.Uinv and the dual generator with its two spectral residuals (the
dual's, `dual_residual`, is recorded but not compared), and a digest of the
site table rounded to 10 significant digits.

Without --before it prints one JSON object for the markovdual on the path.
With --before it runs itself twice in fresh interpreters, first on the
checkout given (importing its `src/`), then on this one, each with the
repository root of this script on the path for `perfbench`, and writes
{machine, command, summary, before, after} to --out: per call the sum of
the medians on both sides and their ratio, the largest `peak_mib` on each
side, and whether every fingerprint field (digest, rank, residual,
dense_residual) matched exactly.  BLAS threads follow the environment.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent


def digest(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a, dtype=float).tobytes()).hexdigest()[:16]


def timed(fn, repeats: int) -> tuple[object, dict]:
    out = fn()
    walls = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        walls.append(time.perf_counter() - t0)
    return out, {"min_s": min(walls), "median_s": statistics.median(walls), "repeats": repeats}


def traced_peak_mib(fn) -> float:
    """tracemalloc peak of one call of fn, in MiB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def dense_residual(l, d) -> float:
    """max|L D - D L^T| by blocks of rows, so no N x N temporary beyond L and D."""
    l, d = np.asarray(l.entries), np.asarray(d.matrix)
    step = max(1, 2**22 // len(l))
    return max(float(np.abs(l[a : a + step] @ d - d[a : a + step] @ l.T).max()) for a in range(0, len(l), step))


def time_calls(seed: int, repeats: int) -> list[dict]:
    import markovdual as md
    from perfbench import inputs
    from perfbench.workloads import ExclusionTransforms as X

    rng = np.random.default_rng(seed)
    rows = []

    def row(call, label, states, fn, fingerprint, times=repeats, group=None):
        out, walls = timed(fn, times)
        peak = traced_peak_mib(fn)
        rows.append({"call": call, "group": group or call, "input": label, "states": states, **walls, "peak_mib": peak, **fingerprint(out)})

    def duality(l):
        return lambda d: {"digest": digest(d.matrix), "rank": d.rank, "residual": d.residual, "dense_residual": dense_residual(l, d)}

    generator = lambda l: {"digest": digest(l.entries)}
    operator = lambda op: {"digest": digest(op.matrix)}
    for sizes, with_ladder in ((X.LADDER_SEP, True), (X.SITE_TABLES, False)):
        for v, g in sizes:
            sep = md.ConfigurationSpace.sep(v, g)
            p = inputs.symmetric_rates(rng, v)
            label = f"V={v},gamma={g}"
            row("sep_generator", label, sep.size, lambda: md.sep_generator(sep, p), generator)
            l_sep = md.sep_generator(sep, p)
            alpha, beta = rng.uniform(0.5, 1.0, 2)
            params = md.SingleSiteDualityParams(alpha, beta, 0.0, 1.0, g)
            tables = [md.single_site_duality(params)] * v
            row("factorized_duality", label, sep.size, lambda: md.factorized_duality(tables, sep, l_sep), duality(l_sep))
            if not with_ladder:
                continue
            ladder = md.ConfigurationSpace.ladder(v, g)
            row("ladder_sep_generator", label, ladder.size, lambda: md.ladder_sep_generator(ladder, p), generator)
            l_ladder = md.ladder_sep_generator(ladder, p)
            row("ssep_selfduality", label, ladder.size, lambda: md.ssep_selfduality(ladder, params, l_ladder), duality(l_ladder))
            row("ladder_projection", label, ladder.size, lambda: md.ladder_projection(ladder, sep), lambda pi: {"digest": digest(pi)})
            pi = md.ladder_projection(ladder, sep)
            row("lumping_operator", label, ladder.size, lambda: md.lumping_operator(pi, sep.size), operator)
            row("inverse_intertwiner", label, ladder.size, lambda: md.inverse_intertwiner(sep, ladder), operator)
    for n in X.BLOCKED:
        row(
            "rw_blocked_absorbed",
            f"n={n}",
            n,
            lambda: md.rw_blocked_absorbed(n),
            lambda rw: {
                "digest": "/".join(digest(a) for a in (rw.uhat, rw.spectral.Uinv, rw.pair.l.entries)),
                "residual": rw.spectral_hat.residual,
                "dual_residual": rw.spectral.residual,
            },
        )
    siegmund = lambda pair: {"digest": digest(pair.l.entries), "residual": pair.residual}
    for label, m in (
        *((f"birth-death,n={n}", inputs.birth_death(rng, n)) for n in X.BIRTH_DEATH),
        (f"blocked-walk,n={X.BLOCKED[-1]}", inputs.blocked_walk(X.BLOCKED[-1])),
    ):
        lhat = md.generator(m)
        row("siegmund_dual", label, len(m), lambda: md.siegmund_dual(lhat), siegmund)
    # beyond one round: a product duality on 6,561 states, where a dense residual costs two N^3 products
    sep = md.ConfigurationSpace.sep(8, 2)
    p = inputs.symmetric_rates(rng, 8)
    label = "V=8,gamma=2"
    row("sep_generator", label, sep.size, lambda: md.sep_generator(sep, p), generator, 3, f"sep_generator {label}")
    l_sep = md.sep_generator(sep, p)
    tables = [md.single_site_duality(md.SingleSiteDualityParams(*rng.uniform(0.5, 1.0, 2), 0.0, 1.0, 2))] * 8
    fn = lambda: md.factorized_duality(tables, sep, l_sep)
    row("factorized_duality", label, sep.size, fn, duality(l_sep), 3, f"factorized_duality {label}")
    del l_sep, fn  # frees the 344 MB generator
    rounded = lambda table: {"digest": digest([float(f"{x:.10g}") for x in table.ravel()])}
    for family, (alpha, beta, eps, delta) in (("classical", (0.0, 1.0, 0.0, 1.0)), ("orthogonal", (1.0, 1.0, 0.0, 1.0))):
        for g in (2, 4, 8):
            params = md.SingleSiteDualityParams(alpha, beta, eps, delta, g)
            row("single_site_duality", f"{family},gamma={g}", g + 1, lambda: md.single_site_duality(params), rounded)
    return rows


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def run_checkout(script: str, checkout: Path, argv: list[str]) -> dict:
    """The JSON object `script` prints in a fresh interpreter that imports `checkout`'s src/.

    The repository root of this script is on the path too, for `perfbench`.
    """
    env = dict(os.environ, PYTHONPATH=f"{checkout / 'src'}{os.pathsep}{ROOT}")
    out = subprocess.run([sys.executable, script, *argv], env=env, check=True, capture_output=True, text=True)
    return json.loads(out.stdout)


FINGERPRINT = ("digest", "rank", "residual", "dense_residual")


def compare(before: list[dict], after: list[dict], exact=FINGERPRINT) -> dict:
    """Per group: summed medians, their ratio, the largest peak_mib (where recorded) and whether the `exact` fields match."""
    summary = {}
    for b, a in zip(before, after):
        s = summary.setdefault(b["group"], {"before_s": 0.0, "after_s": 0.0, "same_output": True})
        s["before_s"] += b["median_s"]
        s["after_s"] += a["median_s"]
        if "peak_mib" in b and "peak_mib" in a:
            s["before_peak_mib"] = max(s.get("before_peak_mib", 0.0), b["peak_mib"])
            s["after_peak_mib"] = max(s.get("after_peak_mib", 0.0), a["peak_mib"])
        s["same_output"] &= all(a[k] == b[k] for k in exact if k in b)
    for s in summary.values():
        s["speedup"] = s["before_s"] / s["after_s"]
    return summary


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--before", type=Path, help="checkout to compare against (runs both sides)")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_models.json")
    args = parser.parse_args()
    if args.before is None:
        print(json.dumps({"machine": machine(), "seed": args.seed, "calls": time_calls(args.seed, args.repeats)}))
        return
    argv = ["--seed", str(args.seed), "--repeats", str(args.repeats)]
    before = run_checkout(__file__, args.before.resolve(), argv)["calls"]
    after = run_checkout(__file__, ROOT, argv)["calls"]
    record = {
        "what": "wall time per call of the exclusion-model builders on the inputs of one "
        "exclusion-transforms round (perfbench.workloads.ExclusionTransforms), before = --before "
        "checkout, after = this checkout; peak_mib = tracemalloc peak of one call; digest, rank, residual and "
        "dense_residual must match exactly between the sides",
        "command": " ".join(["python3", "scripts/bench_models.py", "--before", "<parent checkout>",
                             "--seed", str(args.seed), "--repeats", str(args.repeats)]),
        "machine": machine(),
        "seed": args.seed,
        "summary": compare(before, after),
        "before": before,
        "after": after,
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(record["summary"], indent=2))


if __name__ == "__main__":
    main()
