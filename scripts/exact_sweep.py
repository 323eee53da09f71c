#!/usr/bin/env python3
"""Check decompose and the duality kernel against exact oracles on integer and complex Jordan inputs.

Usage:
  python scripts/exact_sweep.py

Integer Jordan sums (tests/conftest.py: `integer_sum`; eigenvalues -2, -1
and 0, blocks of sizes 1-5, at least 8 states) for seeds 0 .. INTEGER_SEEDS - 1:
`integer_sum_miss`, the check the test suite runs on seeds 0-59, must pass
(at each of -2, -1 and 0 exactly the block sizes of `exact_jordan_sizes`,
every block eigenvalue within DEFAULTS.residual ||M||_inf of its integer),
and `solve_duality_space(M, M)` must have the dimension of
`exact_duality_dimension`.  Complex Jordan inputs (`complex_jordan`: one real
Jordan block of k rotations at -1 +- i beside -2) for k = 2, 3, 4 and seeds
0 .. COMPLEX_SEEDS - 1: `decompose` must give one block of size k at each of
-1 +- i and one of size 1 at -2.  A raised error counts as a miss.  Each
miss is printed as one line; the last lines count the exact inputs per
sweep.  Exits 1 on any miss.  Slow (a few minutes): it is not part of the
test suite.  Run it from anywhere: it puts `src/` and `tests/` on the path.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

from conftest import complex_jordan, exact_duality_dimension, integer_sum, integer_sum_miss  # noqa: E402
from markovdual import RateMatrix, decompose, solve_duality_space  # noqa: E402
from markovdual.errors import MarkovDualityError  # noqa: E402

INTEGER_SEEDS = 260
COMPLEX_SEEDS = 30


def integer_miss(seed: int) -> str | None:
    """Why decompose or the kernel misses integer Jordan sum `seed`, or None when both are exact."""
    why = integer_sum_miss(seed)
    if why is not None:
        return why
    m = integer_sum(seed)[0]
    l = RateMatrix.from_entries(m.astype(float))
    try:
        dimension = solve_duality_space(l, l).dimension
    except MarkovDualityError as exc:
        return f"raised {type(exc).__name__}: {exc}"
    exact = exact_duality_dimension(m, m)
    return None if dimension == exact else f"kernel dimension {dimension}, exact {exact}"


def complex_miss(size: int, seed: int) -> str | None:
    """Why decompose misses complex_jordan(size) for `seed`, or None when it is exact."""
    try:
        sd = decompose(complex_jordan(np.random.default_rng(seed), size))
    except MarkovDualityError as exc:
        return f"raised {type(exc).__name__}: {exc}"
    got = sorted((round(b.eigenvalue.real, 6), round(b.eigenvalue.imag, 6), b.size) for b in sd.structure.blocks)
    want = sorted([(-1.0, 1.0, size), (-1.0, -1.0, size), (-2.0, 0.0, 1)])
    return None if got == want else f"blocks {got}, want {want}"


def main() -> int:
    misses = 0
    sweeps = [("integer sums", [(seed,) for seed in range(INTEGER_SEEDS)], integer_miss)]
    sweeps += [(f"complex size {k}", [(k, seed) for seed in range(COMPLEX_SEEDS)], complex_miss) for k in (2, 3, 4)]
    for name, cases, miss in sweeps:
        exact = 0
        for case in cases:
            why = miss(*case)
            if why is None:
                exact += 1
            else:
                misses += 1
                print(f"{name} {case}: {why}", flush=True)
        print(f"{name}: {exact} of {len(cases)} exact", flush=True)
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
