import itertools
import math

import hypothesis
import numpy as np
import pytest

from markovdual import RateMatrix, SpaceKind, make_duality
from markovdual.config import DEFAULTS
from markovdual.errors import DecompositionFailedError, NotChainError, NotEigenpairError, ShapeMismatchError
from markovdual.linalg import EPS, max_abs, numerical_rank, rank_threshold
from markovdual.models import _power, _rate_table
from markovdual.spectral import MatchedBlock, _pivoted_picks

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


def permuted(rng: np.random.Generator, l: RateMatrix) -> RateMatrix:
    """The same chain with its states relabelled by a random permutation."""
    p = rng.permutation(l.n)
    return RateMatrix.from_entries(np.asarray(l.entries)[np.ix_(p, p)])


def direct_sum(rng: np.random.Generator, l: RateMatrix, copies: int) -> RateMatrix:
    """Randomly relabelled direct sum of `copies` copies of l."""
    return permuted(rng, RateMatrix.from_entries(np.kron(np.eye(copies), np.asarray(l.entries))))


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


# Jordan structures [(eigenvalue, size), ...] on the two sides; column-by-column
# recursion without blocking finds dimension 3 here instead of 5
THREE_VERSUS_FIVE = ([(-2.0, 2), (-1.0, 2), (0.0, 1)], [(-1.0, 3), (-1.0, 2), (0.0, 1)])


def random_jordan_blocks(rng: np.random.Generator, total: int = 6) -> list[tuple[float, int]]:
    """Random [(eigenvalue, size), ...] with eigenvalues in {-2, -1, 0}, sizes 1..4, at least `total` states."""
    blocks, n = [], 0
    while n < total:
        size = int(rng.integers(1, 5))
        blocks.append((float(rng.choice([-2.0, -1.0, 0.0])), size))
        n += size
    return blocks


def build_from_spectra_loop(hat_data, primal_data, witness, coefficients) -> np.ndarray:
    """Reference for duality.build_from_spectra: one complex outer product per matched chain position.

    Returns the complex sum c_u * sum_{i<k} uhat_i (x) u_{k-1-i} over the matched
    pairs, before the realness check.
    """
    d = np.zeros((hat_data.n, primal_data.n), dtype=complex)
    for c, unit in zip(np.asarray(coefficients, dtype=float), witness.matched):
        if c == 0.0:
            continue
        k = unit.size
        uh = hat_data.U[:, unit.hat_offset : unit.hat_offset + k]
        up = primal_data.U[:, unit.offset : unit.offset + k]
        for i in range(k):
            d += c * np.outer(uh[:, i], up[:, k - 1 - i])
    return d


def witness_matrix(hat_data, primal_data, witness) -> np.ndarray:
    """The T of a Witness: ones mapping the first `size` chain positions of each matched hat block
    onto the last `size` positions of its primal block, so Jhat T = T J."""
    t = np.zeros((hat_data.n, primal_data.n))
    for u in witness.matched:
        for i in range(u.size):
            t[u.hat_offset + i, u.offset + u.primal_size - u.size + i] = 1.0
    return t


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


# two primes below 2^31; a prime can only lower the rank over Q, so the larger rank is taken
EXACT_PRIMES = (2_147_483_647, 2_147_483_629)


def _mulmod(f: np.ndarray, r: np.ndarray, p: int) -> np.ndarray:
    """f r mod p for int64 residues below p < 2^31, with f split into 16-bit halves so no product tops 2^48."""
    hi, lo = f >> 16, f & 0xFFFF
    return (((hi * r) % p << 16) + lo * r) % p


def rank_mod_p(a: np.ndarray, p: int) -> int:
    """Rank of an integer matrix modulo the prime p, by Gaussian elimination in numpy int64."""
    a = np.mod(np.asarray(a, dtype=np.int64), p)
    rank = 0
    for col in range(a.shape[1]):
        nonzero = np.flatnonzero(a[rank:, col])
        if not nonzero.size:
            continue
        a[[rank, rank + nonzero[0]]] = a[[rank + nonzero[0], rank]]
        a[rank, col:] = _mulmod(np.int64(pow(int(a[rank, col]), p - 2, p)), a[rank, col:], p)
        rows = rank + 1 + np.flatnonzero(a[rank + 1 :, col])  # only rows with a nonzero entry change
        a[rows, col:] = (a[rows, col:] - _mulmod(a[rows, col][:, None], a[rank, col:], p)) % p
        rank += 1
        if rank == a.shape[0]:
            break
    return rank


def exact_duality_dimension(lhat, l) -> int:
    """dim {D : L_hat D = D L^T} for integer-rate generators, exactly: n_hat n - rank(I (x) L_hat - L (x) I) over Q.

    The rank over Q is the larger rank modulo EXACT_PRIMES (multi-modular rank;
    Dumas-Giorgi-Pernet, ACM TOMS 2008).  Integer entries only.
    """
    mh, m = (np.asarray(x.entries if isinstance(x, RateMatrix) else x) for x in (lhat, l))
    assert np.array_equal(mh, np.round(mh)) and np.array_equal(m, np.round(m)), "integer rates only"
    k = np.kron(np.eye(len(m)), mh) - np.kron(m, np.eye(len(mh)))
    return k.shape[1] - max(rank_mod_p(k.astype(np.int64), p) for p in EXACT_PRIMES)


def exact_jordan_sizes(m: np.ndarray, lam: int) -> list[int]:
    """Jordan block sizes at the integer eigenvalue lam of the integer matrix m, descending, exactly over Q.

    The null dimensions d_k of (m - lam I)^k are n minus the larger rank
    modulo EXACT_PRIMES (each power reduced modulo its prime, in Python
    integers); d_k - d_{k-1} blocks have size at least k.
    """
    n = len(m)
    ranks = []
    for p in EXACT_PRIMES:
        a = np.mod(np.asarray(m, dtype=np.int64) - lam * np.eye(n, dtype=np.int64), p).astype(object)
        power, rank = np.eye(n, dtype=np.int64).astype(object), [n]
        for _ in range(n):
            power = (power @ a) % p
            rank.append(rank_mod_p(power.astype(np.int64), p))
        ranks.append(rank)
    at_least = np.diff([n - max(r) for r in zip(*ranks)]).tolist() + [0]
    return [k for k in range(n, 0, -1) for _ in range(at_least[k - 1] - at_least[k])]


def integer_jordan_sum(rng: np.random.Generator, blocks) -> np.ndarray:
    """P J P^-1 in int64 for the Jordan matrix J of [(integer eigenvalue, size), ...] and a random unimodular P.

    P = L U with unit triangular L and U whose other entries are drawn from
    {-1, 0, 1}, so P^-1 is an integer matrix too (checked exactly).
    """
    n = sum(m for _, m in blocks)
    j = np.zeros((n, n), dtype=np.int64)
    pos = 0
    for lam, m in blocks:
        j[range(pos, pos + m), range(pos, pos + m)] = lam
        j[range(pos, pos + m - 1), range(pos + 1, pos + m)] = 1
        pos += m
    unit = np.eye(n, dtype=np.int64)
    p = (np.tril(rng.integers(-1, 2, (n, n)), -1) + unit) @ (np.triu(rng.integers(-1, 2, (n, n)), 1) + unit)
    p_inv = np.round(np.linalg.inv(p)).astype(np.int64)
    assert np.array_equal(p @ p_inv, unit), "P is not unimodular"
    return p @ j @ p_inv


def max_duality_rank_loop(space, samples: int = 8, seed: int = 0, rank_rtol: float = 1e-8) -> int:
    """Reference for duality.max_duality_rank: one draw, one combination and one SVD per sample."""
    if space.dimension == 0:
        return 0
    rng = np.random.default_rng(seed)
    best = 0
    for _ in range(samples):
        coeffs = rng.standard_normal(space.dimension)
        combo = sum(c * b for c, b in zip(coeffs, space.basis))
        best = max(best, numerical_rank(combo, rank_rtol))
    return best


def row_sum_norm(m) -> float:
    """||m||_inf, the largest absolute row sum, the plain numpy way."""
    return float(np.abs(np.asarray(m)).sum(axis=1).max())


def validate_eigenpairs_loop(l: RateMatrix, us: np.ndarray, tol: float):
    """Reference for duality._validate_chains on chains of length 1: the one-column check, column by column.

    Each column u gets lam = <u, Lu> / <u, u> from two mat-vecs and fails if it
    is zero or if max|Lu - lam u| > tol ||L||_inf max|u|.  Returns the
    eigenvalues of the columns before the first failing one and that column's
    index (None if every column passes).
    """
    m = np.asarray(l.entries)
    lams = []
    for i in range(us.shape[1]):
        u = us[:, i]
        norm2 = np.vdot(u, u)
        if norm2 == 0:
            return np.array(lams), i
        lam = complex(np.vdot(u, m @ u) / norm2)
        if max_abs(m @ u - lam * u) > tol * row_sum_norm(m) * max_abs(u):
            return np.array(lams), i
        lams.append(lam)
    return np.array(lams), None


def _eigenvalues_checked(l: RateMatrix, us: np.ndarray, tol: float) -> np.ndarray:
    """validate_eigenpairs_loop as a check: the column eigenvalues, or NotEigenpairError for the first failing column."""
    lams, bad = validate_eigenpairs_loop(l, us, tol)
    if bad is not None:
        raise NotEigenpairError(f"column {bad}: not an eigenfunction")
    return lams.astype(complex)


def _chain_eigenvalue_checked(l: RateMatrix, chain: np.ndarray, tol: float) -> complex:
    """The eigenvalue of a Jordan chain (columns, eigenvector first), checked order by order, or NotChainError."""
    try:
        lam = _eigenvalues_checked(l, chain[:, :1], tol)[0]
    except NotEigenpairError as exc:
        raise NotChainError(f"first chain element is not an eigenfunction: {exc}") from exc
    m = np.asarray(l.entries)
    for k in range(1, chain.shape[1]):
        if max_abs(m @ chain[:, k] - lam * chain[:, k] - chain[:, k - 1]) > tol * row_sum_norm(m) * max_abs(chain):
            raise NotChainError(f"chain defect at order {k + 1}")
    return lam


def _matched(lhat, l, lam_hat, lam, tol: float, error) -> None:
    if np.any(np.abs(lam_hat - lam) > tol * max(row_sum_norm(lhat.entries), row_sum_norm(l.entries))):
        raise error("eigenvalues do not match")


def tensor_duality_reference(lhat, l, uhats, us, coefficients):
    """Reference for duality.chain_duality on eigenfunctions: the former tensor_duality.

    D = (uhats * a) @ us^T from eigenfunction columns cast to float, each
    side checked by validate_eigenpairs_loop at DEFAULTS.residual.
    """
    tol = DEFAULTS.residual
    uhats = np.atleast_2d(np.asarray(uhats, dtype=float))
    us = np.atleast_2d(np.asarray(us, dtype=float))
    a = np.asarray(coefficients, dtype=float)
    if uhats.shape != (lhat.n, a.size) or us.shape != (l.n, a.size):
        raise ShapeMismatchError("eigenfunction columns must match spaces and coefficient count")
    _matched(lhat, l, _eigenvalues_checked(lhat, uhats, tol), _eigenvalues_checked(l, us, tol), tol, NotEigenpairError)
    return make_duality(lhat, l, (uhats * a) @ us.T)


def complex_pair_duality_reference(lhat, l, uhat, u, a):
    """Reference for duality.chain_duality on a tied conjugate pair: the former complex_pair_duality.

    D = 2a Re(uhat (x) u).  The former function also rejected a real
    eigenvalue; a real eigenvector is now one more chain, so that check is not
    reproduced.
    """
    tol = DEFAULTS.residual
    uhat, u = np.asarray(uhat, dtype=complex), np.asarray(u, dtype=complex)
    lam_hat = _eigenvalues_checked(lhat, uhat[:, None], tol)[0]
    _matched(lhat, l, lam_hat, _eigenvalues_checked(l, u[:, None], tol)[0], tol, NotEigenpairError)
    return make_duality(lhat, l, 2.0 * a * np.real(np.outer(uhat, u)))


def chain_duality_reference(lhat, l, uhat_chain, u_chain):
    """Reference for duality.chain_duality on one chain pair: the former chain_duality.

    D = sum_k uhat^(k) (x) u^(m+1-k), one outer product per chain position.
    """
    tol = DEFAULTS.residual
    uhat_chain = np.atleast_2d(np.asarray(uhat_chain, dtype=float))
    u_chain = np.atleast_2d(np.asarray(u_chain, dtype=float))
    if uhat_chain.shape[1] != u_chain.shape[1]:
        raise ShapeMismatchError("chains must have the same length")
    lam_hat = _chain_eigenvalue_checked(lhat, uhat_chain, tol)
    _matched(lhat, l, lam_hat, _chain_eigenvalue_checked(l, u_chain, tol), tol, NotChainError)
    m = uhat_chain.shape[1]
    return make_duality(lhat, l, sum(np.outer(uhat_chain[:, k], u_chain[:, m - 1 - k]) for k in range(m)))


def greedy_pick(candidates: np.ndarray, avoid: np.ndarray | None, want: int):
    """Reference for spectral._pivoted_picks: the per-vector greedy loop.

    Projects each candidate off span(avoid) and the earlier picks and takes the
    one of largest norm, `want` times.  Returns the picks as columns and, per
    pick, the relative gap (best - runner-up) / best between the two largest
    norms (inf with one candidate), which says whether the pick was a tie.
    """
    q = None if avoid is None else np.linalg.qr(avoid)[0]
    picked, gaps = [], []
    for _ in range(want):
        norms, vectors = [], []
        for j in range(candidates.shape[1]):
            v = candidates[:, j].copy()
            if q is not None:
                v -= q @ (q.conj().T @ v)
            for w in picked:
                v -= w * (w.conj() @ v)
            norms.append(float(np.linalg.norm(v)))
            vectors.append(v)
        j = int(np.argmax(norms))
        rest = norms[:j] + norms[j + 1 :]
        gaps.append((norms[j] - max(rest)) / norms[j] if rest else np.inf)
        picked.append(vectors[j] / norms[j])
    return np.array(picked).T, gaps


def svd_power_null_bases(a: np.ndarray, m_alg: int, spread: float):
    """Reference for spectral._null_basis_sequence: null dims and bases of the n x n powers of a = M - lam I.

    One full SVD per power; the k-th cutoff is max(n eps s_k, sqrt(eps) s_k,
    20 k spread max(1, ||a||_2)^(k-1)) with s_k the largest singular value of
    a^k, and the terminal null dimension is pinned to m_alg.
    """
    n = a.shape[0]
    opnorm = 0.0
    dims, bases = [0], []
    ak = np.eye(n, dtype=a.dtype)
    for k in range(1, m_alg + 1):
        ak = ak @ a
        _, s, vh = np.linalg.svd(ak)
        if k == 1:
            opnorm = float(s[0])
        smax = float(s[0]) if s[0] > 0 else 1.0
        cutoff = max(n * EPS * smax, np.sqrt(EPS) * smax, 20.0 * k * spread * max(1.0, opnorm) ** (k - 1))
        d = min(max(int(np.sum(s <= cutoff)), dims[-1]), m_alg)
        if k == m_alg and d < m_alg:
            d = m_alg
        bases.append(vh[len(s) - d :].conj().T)
        dims.append(d)
        if d == m_alg:
            break
    return dims, bases


def svd_power_chains(mat: np.ndarray, lam: complex, m_alg: int, spread: float) -> list[list[np.ndarray]]:
    """Reference for spectral._jordan_chains: chains picked from the null spaces of the n x n powers of M - lam I.

    Tops are picked per level (descending) by spectral._pivoted_picks, as in
    the library; raises DecompositionFailedError when the chains do not hold
    m_alg vectors.
    """
    n = mat.shape[0]
    a = mat - lam.real * np.eye(n) if lam.imag == 0.0 else mat.astype(complex) - lam * np.eye(n)
    dims, bases = svd_power_null_bases(a, m_alg, spread)
    chains: list[list[np.ndarray]] = []
    for level in range(len(bases), 0, -1):
        want = (dims[level] - dims[level - 1]) - sum(1 for c in chains if len(c) >= level)
        if want <= 0:
            continue
        avoid = [bases[level - 2]] if level >= 2 else []
        members = [c[level - 1] for c in chains if len(c) >= level]
        if members:
            avoid.append(np.array(members).T)
        tops = _pivoted_picks(bases[level - 1], np.hstack(avoid) if avoid else None, want)
        for top in tops.T:
            chain = [top]
            for _ in range(level - 1):
                chain.append(a @ chain[-1])
            chains.append(chain[::-1])
    if sum(len(c) for c in chains) != m_alg:
        raise DecompositionFailedError(f"Jordan chains at {lam:.6g} do not hold {m_alg} vectors (dims {dims})")
    return chains


def svd_power_cluster_chains(mat, schur_form, members, lam, tol):
    """Reference for spectral._cluster_chains (same signature; schur_form and tol unused).

    Every cluster of two or more folded eigenvalues `members`, semisimple or
    not, real or complex, takes svd_power_chains on the n x n matrix: the
    route decompose took for defective and complex clusters before its chains
    came from the reordered leading Schur block.
    """
    m_alg = len(members) if lam.imag == 0.0 else len(members) // 2
    spread = float(np.max(np.abs(members - lam)))
    return svd_power_chains(mat, lam, m_alg, spread)


def cluster_running_mean(eigs: np.ndarray, tol: float) -> list[list[int]]:
    """Reference for spectral._cluster_eigenvalues: lone values first, then the per-group loop over np.mean.

    A value with no other within tol is a group of its own; the rest join the
    first group whose np.mean is within tol, in (real, imag) order.
    """
    lone = [i for i in range(len(eigs)) if sum(abs(eigs[i] - e) <= tol for e in eigs) == 1]
    groups: list[list[int]] = [[i] for i in lone]
    merged: list[list[int]] = []
    for idx in np.lexsort((eigs.imag, eigs.real)):
        if idx in lone:
            continue
        for g in merged:
            if abs(eigs[idx] - np.mean(eigs[g])) <= tol:
                g.append(idx)
                break
        else:
            merged.append([idx])
    return merged + groups


def match_jordan_blocks_anchor(hat, primal, tol: float = DEFAULTS.cluster) -> list[MatchedBlock]:
    """Reference for spectral.match_jordan_blocks: the anchor loop it replaced.

    Each unused hat block, in block order, anchors a group: every unused hat
    and primal block within tol times the largest |eigenvalue| of the two
    structures of the anchor's eigenvalue.  Each group's blocks are paired
    by descending size (ties in block order).
    """
    radius = tol * max((abs(b.eigenvalue) for b in hat.blocks + primal.blocks), default=0.0)
    hat_used = [False] * len(hat.blocks)
    primal_used = [False] * len(primal.blocks)
    matches = []
    for hi, hb in enumerate(hat.blocks):
        if hat_used[hi]:
            continue
        near = [abs(b.eigenvalue - hb.eigenvalue) <= radius for b in hat.blocks + primal.blocks]
        hat_group = [k for k in range(len(hat.blocks)) if not hat_used[k] and near[k]]
        primal_group = [k for k in range(len(primal.blocks)) if not primal_used[k] and near[len(hat.blocks) + k]]
        for k in hat_group:
            hat_used[k] = True
        for k in primal_group:
            primal_used[k] = True
        hat_group.sort(key=lambda k: -hat.blocks[k].size)
        primal_group.sort(key=lambda k: -primal.blocks[k].size)
        for hk, pk in zip(hat_group, primal_group):
            h, p = hat.blocks[hk], primal.blocks[pk]
            size = min(h.size, p.size)
            matches.append(MatchedBlock(h.eigenvalue, hat.offsets[hk], h.size, primal.offsets[pk], p.size, size))
    matches.sort(key=lambda u: (-u.eigenvalue.real, -u.eigenvalue.imag, -u.size, u.hat_offset))
    return matches


def enumerate_configs(space):
    """Reference enumeration of a ConfigurationSpace: every configuration as a tuple, and the dict back to its index.

    SEP configurations are (gamma+1)-ary vectors over the vertices, ladder ones
    0/1 vectors over the V*gamma rungs, both listed by itertools.product, i.e.
    lexicographically with the first site most significant.
    """
    if space.kind is SpaceKind.SEP:
        configs = tuple(itertools.product(range(space.gamma + 1), repeat=len(space.vertices)))
    else:
        configs = tuple(itertools.product((0, 1), repeat=space.gamma * len(space.vertices)))
    return configs, {c: i for i, c in enumerate(configs)}


def occupancy_tuple(ladder_space, config) -> tuple[int, ...]:
    """Reference lumping map: per-vertex sums of a ladder configuration's gamma rungs."""
    g = ladder_space.gamma
    return tuple(sum(config[x * g : (x + 1) * g]) for x in range(len(ladder_space.vertices)))


def sep_generator_loops(space, p=1.0) -> np.ndarray:
    """Reference for models.sep_generator: a loop over configurations and ordered vertex pairs."""
    m = space.n_vertices
    rates = _rate_table(p, m)
    gamma = space.gamma
    configs, index = enumerate_configs(space)
    gen = np.zeros((len(configs), len(configs)))
    for i, eta in enumerate(configs):
        for x in range(m):
            for y in range(m):
                if x == y:
                    continue
                for (src, dst) in ((x, y), (y, x)):
                    rate = rates[x, y] * eta[src] * (gamma - eta[dst])
                    if rate:
                        nxt = list(eta)
                        nxt[src] -= 1
                        nxt[dst] += 1
                        gen[i, index[tuple(nxt)]] += rate
    np.fill_diagonal(gen, gen.diagonal() - gen.sum(axis=1))
    return gen


def ladder_sep_generator_loops(space, p=1.0) -> np.ndarray:
    """Reference for models.ladder_sep_generator: a loop over configurations, vertex pairs and rungs."""
    m = space.n_vertices
    rates = _rate_table(p, m)
    gamma = space.gamma
    configs, index = enumerate_configs(space)
    gen = np.zeros((len(configs), len(configs)))
    flat = lambda x, a: x * gamma + a
    for i, eta in enumerate(configs):
        for x in range(m):
            for y in range(m):
                if x == y or rates[x, y] == 0.0:
                    continue
                for a in range(gamma):
                    for b in range(gamma):
                        for (src, dst) in ((flat(x, a), flat(y, b)), (flat(y, b), flat(x, a))):
                            if eta[src] and not eta[dst]:
                                nxt = list(eta)
                                nxt[src], nxt[dst] = 0, 1
                                gen[i, index[tuple(nxt)]] += rates[x, y]
    np.fill_diagonal(gen, gen.diagonal() - gen.sum(axis=1))
    return gen


def gather_product_duality(factors, space) -> np.ndarray:
    """Reference for the product dualities: D(xi, eta) = prod_s factors[s][xi_s, eta_s], gathered per site."""
    configs = np.array(enumerate_configs(space)[0])
    d = np.ones((len(configs), len(configs)))
    for s, f in enumerate(factors):
        d *= f[configs[:, s][:, None], configs[:, s][None, :]]
    return d


def ladder_projection_loops(ladder_space, sep_space) -> list[int]:
    """Reference for models.ladder_projection: the SEP index of each ladder configuration's occupancy."""
    _, sep_index = enumerate_configs(sep_space)
    return [sep_index[occupancy_tuple(ladder_space, c)] for c in enumerate_configs(ladder_space)[0]]


def inverse_intertwiner_loops(sep_space, ladder_space) -> np.ndarray:
    """Reference for intertwining.inverse_intertwiner: weight 1 / prod_x C(gamma, eta_x), column by column."""
    gamma = sep_space.gamma
    sep_configs, sep_index = enumerate_configs(sep_space)
    ladder_configs, _ = enumerate_configs(ladder_space)
    m = np.zeros((len(sep_configs), len(ladder_configs)))
    weights = {eta: 1.0 / math.prod(math.comb(gamma, k) for k in eta) for eta in sep_configs}
    for col, tilde in enumerate(ladder_configs):
        eta = occupancy_tuple(ladder_space, tilde)
        m[sep_index[eta], col] = weights[eta]
    return m


def ladder_bracket_sum_all_patterns(k, n, gamma, alpha, beta, delta, xi_pattern=None) -> float:
    """models.ladder_bracket_sum as all 2^gamma rung patterns filtered to the C(gamma, n) with n occupied rungs."""
    if xi_pattern is None:
        xi_pattern = [1] * k + [0] * (gamma - k)
    total = 0.0
    for eta in itertools.product((0, 1), repeat=gamma):
        if sum(eta) != n:
            continue
        value = 1.0
        for site_xi, site_eta in zip(xi_pattern, eta):
            value *= _power(alpha + beta * site_eta, delta * site_xi)
        total += value
    return total / math.comb(gamma, n)


def rw_reflected_absorbed_loops(n: int):
    """Reference for models.rw_reflected_absorbed: (l, lhat, u, uhat) built row by row and column by column."""
    l = np.zeros((n, n))
    lhat = np.zeros((n, n))
    for x in range(1, n - 1):
        for mat in (l, lhat):
            mat[x, x - 1] = mat[x, x + 1] = 1.0
            mat[x, x] = -2.0
    l[0, 1] = 2.0
    l[0, 0] = -2.0
    lhat[n - 1, n - 2] = 2.0
    lhat[n - 1, n - 1] = -2.0
    thetas = (np.arange(1, n) - 0.5) * np.pi / (n - 1)
    x = np.arange(1, n + 1)
    u = np.empty((n, n))
    uhat = np.empty((n, n))
    u[:, 0] = 1.0 / np.sqrt(n)
    uhat[:, 0] = 1.0 / np.sqrt(n)
    for i, theta in enumerate(thetas, start=1):
        u[:, i] = np.cos(theta * (x - 1)) / np.sqrt(n)
        uhat[:, i] = np.sin(theta * (x - 1)) / np.sqrt(n)
    return l, lhat, u, uhat


def rw_blocked_absorbed_loops(n: int):
    """Reference for models.rw_blocked_absorbed: (lhat, u, uhat) built row by row and column by column.

    u is the tail sums of uhat, added bottom-up one row at a time, as the
    Siegmund transport forms them.
    """
    lhat = np.zeros((n, n))
    for x in range(1, n - 1):
        lhat[x, x - 1] = lhat[x, x + 1] = 1.0
        lhat[x, x] = -2.0
    lhat[0, 0], lhat[0, 1] = -1.0, 1.0
    lhat[n - 1, n - 2], lhat[n - 1, n - 1] = 1.0, -1.0
    thetas = (np.arange(2, n + 1) - 1) * np.pi / n
    x = np.arange(1, n + 1)
    uhat = np.empty((n, n))
    uhat[:, 0] = 1.0 / np.sqrt(n)
    for i, theta in enumerate(thetas, start=1):
        norm = 1.0 / np.sqrt(n * (1.0 - np.cos(theta)))
        uhat[:, i] = norm * (
            -np.sin(theta) * np.cos(theta * (x - 1))
            + (1.0 - np.cos(theta)) * np.sin(theta * (x - 1))
        )
    u = np.empty((n, n))
    u[n - 1] = uhat[n - 1]
    for row in range(n - 2, -1, -1):
        u[row] = u[row + 1] + uhat[row]
    return lhat, u, uhat


def cumulative_rate_sums_with_diagonal(lhat) -> np.ndarray:
    """Reference for siegmund._cumulative_rate_sums: S[y, x] = sum_{x'>=y} lhat[x, x'] - lhat[x-1, x'].

    Row differences first, then one tail cumsum per row, diagonal included, so
    entries that should vanish come out as rounding.
    """
    lhat = np.asarray(lhat)
    padded = np.vstack([np.zeros((1, lhat.shape[0])), lhat])
    diff = padded[1:] - padded[:-1]
    return np.cumsum(diff[:, ::-1], axis=1)[:, ::-1].T


def siegmund_residual_product(lhat, dual) -> float:
    """Reference for siegmund_dual's residual: max|L_hat D_s - D_s L^T| by two dense products with D_s."""
    lhat, dual = np.asarray(lhat), np.asarray(dual)
    ds = np.tril(np.ones(lhat.shape))
    return float(np.max(np.abs(lhat @ ds - ds @ dual.T)))


def cumulative_rate_sums_out_of_place(lhat) -> np.ndarray:
    """Reference for siegmund._cumulative_rate_sums: the same sums with a fresh array per step.

    Off-diagonal prefix sums, tail sums t in an (n + 1) x n array whose row 0
    is row -1, and np.diff for the row differences.
    """
    lhat = np.asarray(lhat)
    n = lhat.shape[0]
    prefix = lhat.copy()
    np.fill_diagonal(prefix, 0.0)
    np.cumsum(prefix, axis=1, out=prefix)
    tails = np.zeros((n + 1, n))
    np.multiply(np.arange(n) > np.arange(n)[:, None], prefix[:, -1:], out=tails[1:])
    tails[1:, 1:] -= prefix[:, :-1]
    return np.diff(tails, axis=0).T


def siegmund_residual_out_of_place(lhat, dual) -> float:
    """Reference for siegmund_dual's residual: the tail-sum and prefix-sum formula with out-of-place steps."""
    lhat, dual = np.asarray(lhat), np.asarray(dual)
    return float(np.max(np.abs(np.cumsum(lhat[:, ::-1], axis=1)[:, ::-1] - np.cumsum(dual, axis=1).T)))


def eigenbasis_residual_out_of_place(m, u, lams, uinv) -> float:
    """Reference for spectral_from_eigenbasis's residual: max of |M U - U diag(lam)| and |Uinv U - I|."""
    m = np.asarray(m)
    return max(
        float(np.max(np.abs(m @ u - u * lams))),
        float(np.max(np.abs(uinv @ u - np.eye(m.shape[0])))),
    )


def decompose_residual_out_of_place(m, u, j, uinv) -> float:
    """Reference for decompose's residual: max of |M U - U J| and |Uinv U - I|."""
    m = np.asarray(m)
    return max(
        float(np.max(np.abs(m @ u - u @ j))),
        float(np.max(np.abs(uinv @ u - np.eye(m.shape[0])))),
    )


def balance_defect_out_of_place(l, mu) -> float:
    """Reference for check_detailed_balance: max|F - F^T| of the flux F = diag(mu) L."""
    flux = np.asarray(mu.weights)[:, None] * np.asarray(l.entries)
    return float(np.max(np.abs(flux - flux.T)))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
