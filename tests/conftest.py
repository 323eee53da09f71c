import hypothesis
import numpy as np
import pytest

from markovdual import RateMatrix
from markovdual.linalg import rank_threshold

hypothesis.settings.register_profile(
    "default", max_examples=25, deadline=None, derandomize=True
)
hypothesis.settings.load_profile("default")


def random_generator(rng: np.random.Generator, n: int) -> RateMatrix:
    """Dense random generator with uniform rates."""
    m = rng.random((n, n))
    np.fill_diagonal(m, 0.0)
    np.fill_diagonal(m, -m.sum(axis=1))
    return RateMatrix.from_entries(m)


def random_birth_death(rng: np.random.Generator, n: int, lo: float = 0.5, hi: float = 2.0) -> RateMatrix:
    """Random tridiagonal (birth-death) generator with rates in [lo, hi]."""
    up = rng.uniform(lo, hi, n - 1)
    down = rng.uniform(lo, hi, n - 1)
    m = np.diag(up, 1) + np.diag(down, -1)
    np.fill_diagonal(m, -m.sum(axis=1))
    return RateMatrix.from_entries(m)


def jordan_assembled(blocks, rng: np.random.Generator) -> RateMatrix:
    """S J S^-1 for the Jordan matrix J of [(eigenvalue, size), ...] and a random, well-conditioned S."""
    n = sum(m for _, m in blocks)
    j = np.zeros((n, n))
    pos = 0
    for lam, m in blocks:
        for i in range(m):
            j[pos + i, pos + i] = lam
            if i + 1 < m:
                j[pos + i, pos + i + 1] = 1.0
        pos += m
    s = rng.random((n, n)) + 2.0 * np.eye(n)
    return RateMatrix.from_entries(s @ j @ np.linalg.inv(s))


def kronecker_duality_space(lhat: RateMatrix, l: RateMatrix) -> np.ndarray:
    """Brute-force oracle: orthonormal columns spanning {vec D : L_hat D = D L^T}.

    vec is column-stacked, so the map is I (x) L_hat - L (x) I; its kernel is
    read off one full SVD at the cutoff n_hat n eps sigma_max.  The cost is
    O((n_hat n)^3) time and O((n_hat n)^2) memory: small inputs only.
    """
    nh, n = lhat.n, l.n
    k = np.kron(np.eye(n), np.asarray(lhat.entries)) - np.kron(np.asarray(l.entries), np.eye(nh))
    _, s, vh = np.linalg.svd(k)
    dim = int(np.sum(s <= rank_threshold(s, k.shape)))
    return vh[len(s) - dim :].T


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
