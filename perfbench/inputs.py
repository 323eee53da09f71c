"""Seeded input generators.

Everything here is plain numpy written for the benchmark, so the library only
ever receives finished matrices.  The exclusion-process builders double as an
independent route against which the library's own assembly is checked.
"""

from __future__ import annotations

import itertools

import numpy as np


def _close_rows(m: np.ndarray) -> np.ndarray:
    np.fill_diagonal(m, 0.0)
    np.fill_diagonal(m, -m.sum(axis=1))
    return m


def dense_generator(rng: np.random.Generator, n: int) -> np.ndarray:
    """Uniform random rates: a non-reversible generator with complex eigenvalue pairs."""
    return _close_rows(rng.random((n, n)))


def birth_death(rng: np.random.Generator, n: int) -> np.ndarray:
    """Birth-death generator with death rates in [0.5, 2] and birth/death ratios in [0.8, 1.25].

    The ratio range keeps the stationary measure within a few orders of
    magnitude at n = 600, so its kernel vector stays strictly positive.
    """
    down = rng.uniform(0.5, 2.0, n - 1)
    up = down * np.exp(rng.uniform(np.log(0.8), np.log(1.25), n - 1))
    return _close_rows(np.diag(up, 1) + np.diag(down, -1))


def birth_death_stationary(m: np.ndarray) -> np.ndarray:
    """Closed-form stationary law of a birth-death generator (detailed balance)."""
    ratios = np.diag(m, 1) / np.diag(m, -1)
    log_w = np.concatenate([[0.0], np.cumsum(np.log(ratios))])
    w = np.exp(log_w - log_w.max())
    return w / w.sum()


def permuted(rng: np.random.Generator, m: np.ndarray) -> np.ndarray:
    """Relabel the states: P m P^T for a random permutation P."""
    p = rng.permutation(m.shape[0])
    return m[np.ix_(p, p)]


def jordan_sum(rng: np.random.Generator, block: np.ndarray, copies: int) -> np.ndarray:
    """Randomly relabelled direct sum of `copies` copies of one generator."""
    return permuted(rng, np.kron(np.eye(copies), block))


def _walk(n: int) -> np.ndarray:
    m = np.zeros((n, n))
    for x in range(1, n - 1):
        m[x, x - 1] = m[x, x + 1] = 1.0
        m[x, x] = -2.0
    return m


def rw54_pair(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(L_hat, L): walk reflected right/absorbed left and its mirror image."""
    lhat, l = _walk(n), _walk(n)
    l[0, 0], l[0, 1] = -2.0, 2.0
    lhat[n - 1, n - 2], lhat[n - 1, n - 1] = 2.0, -2.0
    return lhat, l


def blocked_walk(n: int) -> np.ndarray:
    """Symmetric walk on {0..n-1} whose boundary moves are blocked."""
    m = _walk(n)
    m[0, 0], m[0, 1] = -1.0, 1.0
    m[n - 1, n - 2], m[n - 1, n - 1] = 1.0, -1.0
    return m


def absorbed_walk(n: int) -> np.ndarray:
    """Siegmund dual of blocked_walk(n): absorbed at 0, leaking at n-1."""
    m = _walk(n)
    m[n - 1, n - 2], m[n - 1, n - 1] = 1.0, -2.0
    return m


def symmetric_rates(rng: np.random.Generator, vertices: int) -> np.ndarray:
    p = rng.uniform(0.5, 2.0, (vertices, vertices))
    p = (p + p.T) / 2.0
    np.fill_diagonal(p, 0.0)
    return p


def _moves(occupancy: np.ndarray, radix: int, capacity: int, hop_rates: np.ndarray) -> np.ndarray:
    """Generator over lexicographically ordered configurations.

    A particle moves from site s to site t at rate hop_rates[s, t] *
    occupancy[s] * (capacity - occupancy[t]).
    """
    size, sites = occupancy.shape
    weights = radix ** np.arange(sites - 1, -1, -1)
    rows = np.arange(size)
    m = np.zeros((size, size))
    for s, t in itertools.permutations(range(sites), 2):
        if hop_rates[s, t] == 0.0:
            continue
        rate = hop_rates[s, t] * occupancy[:, s] * (capacity - occupancy[:, t])
        live = rate > 0
        m[rows[live], rows[live] - weights[s] + weights[t]] += rate[live]
    return _close_rows(m)


def sep_configs(vertices: int, gamma: int) -> np.ndarray:
    return np.array(list(itertools.product(range(gamma + 1), repeat=vertices)), dtype=np.int64)


def sep_matrix(vertices: int, gamma: int, p: np.ndarray) -> np.ndarray:
    """SEP(gamma) generator; each unordered vertex pair carries rate p(x,y) + p(y,x)."""
    return _moves(sep_configs(vertices, gamma), gamma + 1, gamma, p + p.T)


def ladder_matrix(vertices: int, gamma: int, p: np.ndarray) -> np.ndarray:
    """Exclusion on the gamma-rung ladder over the vertices, rung-blind rates p(x,y) + p(y,x)."""
    sites = vertices * gamma
    bits = np.array(list(itertools.product((0, 1), repeat=sites)), dtype=np.int64)
    hop = np.kron(p + p.T, np.ones((gamma, gamma)))
    return _moves(bits, 2, 1, hop)


def complete_rates(vertices: int) -> np.ndarray:
    """Unit rate on every ordered pair of distinct vertices."""
    return 1.0 - np.eye(vertices)
