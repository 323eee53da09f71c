"""Acceptance suite: worked-example reproduction at pinned tolerances.

Each criterion prints one PASS/FAIL line (run with `pytest -s` to see them all)
and enforces both its numeric tolerances and its runtime budget.
"""

import time

import numpy as np

from markovdual import (
    MatrixKind,
    RateMatrix,
    chain_duality,
    cheap_duality,
    compose_dualities,
    decompose,
    match_jordan_blocks,
    max_duality_rank,
    orthogonal_selfduality,
    reversible_eigenbasis,
    siegmund_dual,
    solve_duality_space,
    stationary_measure,
)
from markovdual.scenarios import run_scenario

from conftest import random_birth_death, random_generator


class Criterion:
    def __init__(self, number, label, budget):
        self.number = number
        self.label = label
        self.budget = budget
        self.failures = []
        self.t0 = time.perf_counter()

    def check(self, condition, message):
        if not condition:
            self.failures.append(message)

    def finish(self):
        elapsed = time.perf_counter() - self.t0
        ok = not self.failures and elapsed < self.budget
        status = "PASS" if ok else "FAIL"
        print(f"ACCEPTANCE {self.number} [{self.label}]: {status} ({elapsed:.3f}s, budget {self.budget}s)")
        assert not self.failures, self.failures
        assert elapsed < self.budget, f"runtime {elapsed:.3f}s exceeds {self.budget}s"


def check_scenario(c: Criterion, name: str, **size) -> None:
    """Run one packaged scenario and feed each of its checks into the criterion."""
    (report,) = run_scenario(name, **size)
    where = " ".join([name, *(f"{k}={v}" for k, v in size.items())])
    for chk in report.checks:
        c.check(chk.passed, f"{where}: {chk.name}: observed {chk.observed!r}")


def test_criterion_1_cyclic_example():
    c = Criterion(1, "3-state cycle: complex spectrum and conjugate-pair duality", 0.1)
    check_scenario(c, "cyclic3")
    c.finish()


def test_criterion_2_jordan_example():
    c = Criterion(2, "4-state defective generator: Jordan block and chain duality", 0.1)
    check_scenario(c, "jordan4")
    c.finish()


def test_criterion_3_reflected_absorbed_walks():
    c = Criterion(3, "reflected/absorbed walks: spectra, duality families, dimension", 1.0)
    for n in (3, 8, 20):
        check_scenario(c, "rw54", n=n)
    c.finish()


def test_criterion_4_siegmund_example():
    c = Criterion(4, "blocked/absorbed walks: Siegmund dual and indicator reconstruction", 1.0)
    for n in (3, 8, 20):
        check_scenario(c, "rw6-siegmund", n=n)
    c.finish()


def test_criterion_5_monotone_iff_subgenerator():
    c = Criterion(5, "monotonicity equals sub-generator classification, 200 random inputs", 2.0)
    rng = np.random.default_rng(5150)
    agreements = 0
    for i in range(200):
        n = int(rng.integers(3, 9))
        m = np.diag(rng.uniform(0.1, 2.0, n - 1), 1) + np.diag(rng.uniform(0.1, 2.0, n - 1), -1)
        if i % 2:
            for _ in range(int(rng.integers(1, n))):
                x, y = rng.integers(0, n, size=2)
                if x != y:
                    m[x, y] += rng.uniform(0.0, 2.0)
        np.fill_diagonal(m, 0.0)
        np.fill_diagonal(m, -m.sum(axis=1))
        pair = siegmund_dual(RateMatrix.from_entries(m))
        is_sub = pair.l.kind in (MatrixKind.GENERATOR, MatrixKind.SUB_GENERATOR)
        agreements += is_sub == pair.monotone
    c.check(agreements == 200, f"classification agreed in {agreements}/200 cases")
    c.finish()


def test_criterion_6_rank_matching_cross_validation():
    c = Criterion(6, "duality-space rank agrees with Jordan block matching, 50 pairs", 5.0)
    rng = np.random.default_rng(66)
    qualifying = 0
    for _ in range(50):
        n = int(rng.integers(2, 6))
        l = random_generator(rng, n)
        if rng.random() < 0.5:
            perm = np.eye(n)[rng.permutation(n)]
            lhat = RateMatrix.from_entries(perm @ np.asarray(l.entries) @ perm.T)
        else:
            lhat = random_generator(rng, int(rng.integers(2, 6)))
        space = solve_duality_space(lhat, l)
        c.check(space.dimension >= 1, "duality space lost the constant duality")
        a, b = decompose(lhat), decompose(l)
        if not (a.structure.is_diagonalizable() and b.structure.is_diagonalizable()):
            continue
        matches = match_jordan_blocks(a.structure, b.structure)
        if any(u.hat_size > 1 or u.primal_size > 1 for u in matches):
            continue
        qualifying += 1
        expected = sum(u.size for u in matches)
        got = max_duality_rank(space)
        c.check(got == expected, f"max rank {got} != matching count {expected}")
    c.check(qualifying >= 25, f"only {qualifying} qualifying pairs")
    c.finish()


def test_criterion_7_sep_machinery():
    c = Criterion(7, "exclusion processes: intertwining and factorized families", 10.0)
    for gamma in (1, 2, 3):
        check_scenario(c, "sep-intertwine", gamma=gamma)
        check_scenario(c, "sep-families", gamma=gamma)
    c.finish()


def test_criterion_8_reversible_constructions():
    c = Criterion(8, "reversible constructions: cheap, orthogonal, composed dualities", 3.0)
    rng = np.random.default_rng(88)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        l = random_birth_death(rng, n)
        mu = stationary_measure(l)
        _, u = reversible_eigenbasis(l, mu)
        cheap = np.asarray(cheap_duality(mu).matrix)
        d_tensor = chain_duality(l, l, list(u.T), list(u.T), np.ones(n))
        gap = np.max(np.abs(np.asarray(d_tensor.matrix) - cheap))
        c.check(gap < 1e-9, f"tensor all-ones differs from cheap by {gap:.3e}")
        signs = rng.choice([-1.0, 1.0], n)
        d_orth = orthogonal_selfduality(l, mu, u * signs)
        w = np.asarray(mu.weights)
        gram = (np.asarray(d_orth.matrix) * w) @ np.asarray(d_orth.matrix).T
        gap = np.max(np.abs(gram - np.diag(1.0 / w)))
        c.check(gap < 1e-9, f"orthogonality identity off by {gap:.3e}")
        composed = compose_dualities(d_orth, d_orth, mu, l)
        gap = np.max(np.abs(np.asarray(composed.matrix) - cheap))
        c.check(gap < 1e-9, f"composed duality differs from cheap by {gap:.3e}")
    c.finish()
