"""The four workloads: seeded rounds of verified jobs against markovdual's public API.

A round is a fixed multiset of (kind, size) jobs whose contents and order the
seeded generator draws, so every round, whatever the seed, asks for the same
amount of work.  Every job checks its result against an independent route and
raises VerificationError when the check fails.  The 15 jobs of a round put
the median and the 90th percentile in the middle of one job class rather than
on the boundary between two, which keeps both steady from run to run.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import markovdual as md
from markovdual.cli import main as cli_main
from markovdual.scenarios import jordan_block_generator

from . import inputs

EPS = float(np.finfo(float).eps)
RESIDUAL_FACTOR = 100.0
TABLE_RTOL = 1e-12
CLOSE_RTOL = 1e-10


class VerificationError(Exception):
    """A job's output disagrees with its independent check."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise VerificationError(message)


@dataclass(frozen=True)
class Job:
    kind: str
    size: int  # states, or n_hat * n for a kernel pair
    run: Callable  # run(tracer); raises on a wrong result


def residual_bound(lhat: np.ndarray, l: np.ndarray, d: np.ndarray) -> float:
    """Size-scaled bound on max|L_hat D - D L^T|: factor * eps * n * (|L_hat| + |L|) * max|D|."""
    norms = np.abs(lhat).sum(axis=1).max() + np.abs(l).sum(axis=1).max()
    return RESIDUAL_FACTOR * EPS * max(d.shape) * norms * max(np.abs(d).max(), 1e-300)


def require_close(observed, expected, rtol: float, what: str) -> None:
    observed, expected = np.asarray(observed), np.asarray(expected)
    require(observed.shape == expected.shape, f"{what}: shape {observed.shape} != {expected.shape}")
    gap = float(np.abs(observed - expected).max())
    scale = max(1.0, float(np.abs(expected).max()))
    require(gap <= rtol * scale, f"{what}: differs by {gap:.3e} (scale {scale:.3e})")


def verify_duality(tr, lhat: md.RateMatrix, l: md.RateMatrix, d, rank: int | None) -> None:
    """Residual of L_hat D = D L^T within the size-scaled bound, and the expected rank."""
    d = np.asarray(d)
    with tr.span("duality.residual"):
        res = md.residual(lhat, l, d)
    bound = residual_bound(np.asarray(lhat.entries), np.asarray(l.entries), d)
    require(res <= bound, f"duality residual {res:.3e} exceeds {bound:.3e}")
    if rank is not None:
        found = int(np.linalg.matrix_rank(d))
        require(found == rank, f"duality rank {found}, expected {rank}")


def _count_spectra(tr, *decompositions) -> None:
    for sd in decompositions:
        tr.count("spectral.states", sd.n)
        tr.count("spectral.clusters", len({b.eigenvalue for b in sd.structure.blocks}))


def multiplicity_counts(hat: md.JordanStructure, primal: md.JordanStructure, tol: float = 1e-6):
    """(sum m_hat * m, sum min(m_hat, m)) over shared eigenvalues of two diagonalizable structures.

    These are the dimension of {D : L_hat D = D L^T} and the largest rank in it.
    """

    def grouped(structure):
        groups: list[list] = []
        for b in structure.blocks:
            for g in groups:
                if abs(g[0] - b.eigenvalue) <= tol:
                    g[1] += b.size
                    break
            else:
                groups.append([b.eigenvalue, b.size])
        return groups

    dim = rank = 0
    primal_groups = grouped(primal)
    for ev, m_hat in grouped(hat):
        for ev2, m in primal_groups:
            if abs(ev - ev2) <= tol:
                dim += m_hat * m
                rank += min(m_hat, m)
    return dim, rank


def _shuffled(rng: np.random.Generator, jobs: list[Job]) -> list[Job]:
    return [jobs[i] for i in rng.permutation(len(jobs))]


# ---------------------------------------------------------------------------
# kernel-oracle: solve_duality_space + max_duality_rank
# ---------------------------------------------------------------------------


def kernel_job(kind: str, lhat_m: np.ndarray, l_m: np.ndarray, closed_form: int | None) -> Job:
    """Duality-space job; closed_form is the known dimension (= max rank), or None
    to take both from the spectral multiplicities of a diagonalizable pair."""

    def run(tr):
        with tr.span("core.rate_matrix"):
            lhat = md.RateMatrix.from_entries(lhat_m)
            l = md.RateMatrix.from_entries(l_m)
        nn = lhat.n * l.n
        tr.count("duality.kernel_bytes", 8 * nn * nn)
        tr.count("duality.kernel_flops", nn**3)
        with tr.span("duality.kernel"):
            space = md.solve_duality_space(lhat, l)
        with tr.span("duality.max_rank"):
            rank = md.max_duality_rank(space)
        if closed_form is None:
            with tr.span("spectral.decompose"):
                hat, primal = md.decompose(lhat), md.decompose(l)
            _count_spectra(tr, hat, primal)
            require(
                hat.structure.is_diagonalizable() and primal.structure.is_diagonalizable(),
                "multiplicity count needs diagonalizable generators",
            )
            dim, max_rank = multiplicity_counts(hat.structure, primal.structure)
        else:
            dim = max_rank = closed_form
        require(space.dimension == dim, f"duality space dimension {space.dimension}, expected {dim}")
        require(rank == max_rank, f"max duality rank {rank}, expected {max_rank}")
        with tr.span("duality.residual"):
            residuals = [md.residual(lhat, l, b) for b in space.basis]
        for res, b in zip(residuals, space.basis):
            bound = residual_bound(lhat_m, l_m, b)
            require(res <= bound, f"basis residual {res:.3e} exceeds {bound:.3e}")

    return Job(kind, lhat_m.shape[0] * l_m.shape[0], run)


class KernelOracle:
    """The Kronecker SVD in solve_duality_space dominates: its cost grows as (n n_hat)^3."""

    RW54 = (8, 16, 20, 24, 28, 32)
    BIRTH_DEATH = (6, 10, 14, 18, 22)
    LADDER_SEP_GAMMAS = (2, 2, 2, 3)  # V = 2: 16 x 9 and 64 x 16 pairs

    def __init__(self, rng: np.random.Generator, workdir: Path):
        self.rng = rng
        rates = inputs.complete_rates(2)
        self.ladder_sep = {
            g: (inputs.ladder_matrix(2, g, rates), inputs.sep_matrix(2, g, rates))
            for g in set(self.LADDER_SEP_GAMMAS)
        }

    def round(self) -> list[Job]:
        jobs = [kernel_job("rw54", *inputs.rw54_pair(n), n) for n in self.RW54]
        for n in self.BIRTH_DEATH:
            m = inputs.birth_death(self.rng, n)
            jobs.append(kernel_job("birth-death", m, m, n))
        for g in self.LADDER_SEP_GAMMAS:
            jobs.append(kernel_job("ladder-sep", *self.ladder_sep[g], None))
        return _shuffled(self.rng, jobs)


# ---------------------------------------------------------------------------
# spectral-build: decompose, check_r_similar, build_from_spectra
# ---------------------------------------------------------------------------


def tied_coefficients(matched, draws: np.ndarray) -> list[float]:
    """One coefficient per matched block; conjugate blocks share theirs so D is real."""
    out, shared, pos = [], {}, 0
    for block in matched:
        ev = block.eigenvalue
        key = (ev.real, abs(ev.imag))
        if ev.imag < 0:
            out.append(shared[key].pop(0))
            continue
        out.append(float(draws[pos]))
        pos += 1
        if ev.imag > 0:
            shared.setdefault(key, []).append(out[-1])
    return out


def spectral_job(kind: str, lhat_m: np.ndarray, l_m: np.ndarray, draws: np.ndarray) -> Job:
    def run(tr):
        with tr.span("core.rate_matrix"):
            lhat = md.generator(lhat_m)
            l = md.generator(l_m)
        with tr.span("spectral.decompose"):
            hat, primal = md.decompose(lhat), md.decompose(l)
        _count_spectra(tr, hat, primal)
        with tr.span("spectral.witness"):
            witness = md.check_r_similar(hat, primal, l.n)
        require(witness is not None, f"no rank-{l.n} witness for a similar pair")
        coefficients = tied_coefficients(witness.matched, draws)
        with tr.span("duality.build"):
            d = md.build_from_spectra(hat, primal, witness, coefficients)
        verify_duality(tr, lhat, l, d.matrix, l.n)

    return Job(kind, l_m.shape[0], run)


class SpectralBuild:
    """decompose dominates; inputs mix simple spectra with clustered and defective ones."""

    DENSE = (8, 30, 60, 90)
    BIRTH_DEATH = (10, 40, 70)
    SEP = ((3, 2), (3, 3), (4, 2), (2, 8))  # (vertices, gamma): 27, 64, 81, 81 states
    JORDAN_COPIES = (2, 6, 12, 20)  # 8 to 80 states

    def __init__(self, rng: np.random.Generator, workdir: Path):
        self.rng = rng
        self.sep = {vg: inputs.sep_matrix(*vg, inputs.complete_rates(vg[0])) for vg in self.SEP}
        self.jordan_block = np.asarray(jordan_block_generator().entries)

    def _pair(self, kind: str, m: np.ndarray) -> Job:
        rng = self.rng
        lhat, l = inputs.permuted(rng, m), inputs.permuted(rng, m)
        return spectral_job(kind, lhat, l, rng.uniform(0.5, 2.0, m.shape[0]))

    def round(self) -> list[Job]:
        rng = self.rng
        jobs = [self._pair("dense", inputs.dense_generator(rng, n)) for n in self.DENSE]
        jobs += [self._pair("birth-death", inputs.birth_death(rng, n)) for n in self.BIRTH_DEATH]
        jobs += [self._pair("sep", self.sep[vg]) for vg in self.SEP]
        jobs += [
            self._pair("jordan-sum", inputs.jordan_sum(rng, self.jordan_block, k))
            for k in self.JORDAN_COPIES
        ]
        return _shuffled(rng, jobs)


# ---------------------------------------------------------------------------
# exclusion-transforms: models, intertwining, siegmund
# ---------------------------------------------------------------------------


def ladder_sep_job(vertices: int, gamma: int, p: np.ndarray, alpha: float, beta: float) -> Job:
    """Enumerate, assemble, intertwine and push the ladder self-duality down to SEP."""

    def run(tr):
        with tr.span("models.space"):
            sep = md.ConfigurationSpace.sep(vertices, gamma)
            ladder = md.ConfigurationSpace.ladder(vertices, gamma)
        tr.count("models.states", sep.size + ladder.size)
        with tr.span("models.generator"):
            l_sep = md.sep_generator(sep, p)
            l_ladder = md.ladder_sep_generator(ladder, p)
        tr.count("models.dense_bytes", 8 * (sep.size**2 + ladder.size**2))
        require_close(l_sep.entries, inputs.sep_matrix(vertices, gamma, p), CLOSE_RTOL, "SEP generator")
        require_close(
            l_ladder.entries, inputs.ladder_matrix(vertices, gamma, p), CLOSE_RTOL, "ladder generator"
        )
        with tr.span("models.space"):
            projection = md.ladder_projection(ladder, sep)
        with tr.span("intertwining.operator"):
            lump = md.lumping_operator(projection, sep.size)
            inverse = md.inverse_intertwiner(sep, ladder)
        with tr.span("intertwining.residual"):
            r_lump = md.intertwining_residual(l_ladder, l_sep, lump)
            r_inverse = md.intertwining_residual(l_sep, l_ladder, inverse)
        for name, res, op in (("lumping", r_lump, lump), ("inverse", r_inverse, inverse)):
            bound = residual_bound(np.asarray(l_ladder.entries), np.asarray(l_sep.entries), op.matrix)
            require(res <= bound, f"{name} intertwining residual {res:.3e} exceeds {bound:.3e}")
        require(inverse.stochastic, "inverse intertwiner is not stochastic")
        require_close(inverse.matrix @ lump.matrix, np.eye(sep.size), CLOSE_RTOL, "inverse after lumping")

        params = md.SingleSiteDualityParams(alpha=alpha, beta=beta, epsilon=0.0, delta=1.0, gamma=gamma)
        with tr.span("models.product_duality"):
            d_ladder = md.ssep_selfduality(ladder, params, l_ladder)
        tr.count("models.dense_bytes", 8 * ladder.size**2)
        tol = residual_bound(np.asarray(l_ladder.entries), np.asarray(l_ladder.entries), d_ladder.matrix)
        with tr.span("intertwining.push"):
            pushed = md.push_duality(d_ladder, inverse, l_sep, l_ladder, l_ladder, tol=tol)
            both = md.push_duality_left(pushed, inverse, l_sep, l_ladder, l_sep, tol=tol)
        with tr.span("models.site_tables"):
            table = md.single_site_duality(params)
        with tr.span("models.product_duality"):
            closed = md.factorized_duality([table] * vertices, sep, l_sep)
        tr.count("models.dense_bytes", 8 * sep.size**2)
        require_close(both.matrix, closed.matrix, CLOSE_RTOL, "double push vs factorized closed form")
        verify_duality(tr, l_sep, l_sep, closed.matrix, None)

    return Job("ladder-sep", 2 ** (vertices * gamma), run)


def site_table_job(vertices: int, gamma: int, params: md.SingleSiteDualityParams, p: np.ndarray) -> Job:
    """Closed-form single-site table against its brute-force oracle, then the SEP product duality."""

    def run(tr):
        with tr.span("models.site_tables"):
            table = md.single_site_duality(params)
            oracle = md.single_site_duality_bruteforce(params)
        require_close(table, oracle, TABLE_RTOL, "single-site table vs brute force")
        with tr.span("models.space"):
            sep = md.ConfigurationSpace.sep(vertices, gamma)
        tr.count("models.states", sep.size)
        with tr.span("models.generator"):
            l_sep = md.sep_generator(sep, p)
        with tr.span("models.product_duality"):
            d = md.factorized_duality([table] * vertices, sep, l_sep)
        tr.count("models.dense_bytes", 2 * 8 * sep.size**2)  # generator and product duality
        verify_duality(tr, l_sep, l_sep, d.matrix, None)

    return Job("site-table", (gamma + 1) ** vertices, run)


def _siegmund_common(tr, m: np.ndarray):
    """Generator, irreducibility, Siegmund dual and cemetery closure of a monotone chain."""
    n = m.shape[0]
    with tr.span("core.rate_matrix"):
        lhat = md.generator(m)
    with tr.span("core.irreducible"):
        irreducible = md.is_irreducible(lhat)
    require(irreducible, "input chain is not irreducible")
    with tr.span("siegmund.dual"):
        pair = md.siegmund_dual(lhat)
        monotone = md.check_monotone(lhat)
    require(monotone and pair.monotone, "monotone chain reported as not monotone")
    require(pair.l.kind is md.MatrixKind.SUB_GENERATOR, f"dual classifies as {pair.l.kind.value}")
    dual = np.asarray(pair.l.entries)
    ds = np.tril(np.ones((n, n)))
    defect = float(np.abs(m @ ds - ds @ dual.T).max())
    bound = residual_bound(m, dual, ds)
    require(defect <= bound, f"Siegmund duality defect {defect:.3e} exceeds {bound:.3e}")
    with tr.span("siegmund.dual"):
        closed = md.extend_with_cemetery(pair.l)
    ext = np.asarray(closed.entries)
    require(closed.kind is md.MatrixKind.GENERATOR, "cemetery extension is not a generator")
    require_close(ext[:n, n], np.clip(-dual.sum(axis=1), 0.0, None), CLOSE_RTOL, "cemetery rates")
    return lhat, pair


def _check_stationary(tr, lhat: md.RateMatrix, expected: np.ndarray) -> None:
    with tr.span("core.stationary"):
        mu = md.stationary_measure(lhat)
        balanced = md.check_detailed_balance(lhat, mu)
    require_close(np.asarray(mu.weights) / expected.max(), expected / expected.max(), 1e-8, "stationary law")
    require(balanced, "reversible chain fails detailed balance")


def blocked_walk_job(n: int) -> Job:
    """Siegmund dual of the blocked walk against the absorbed walk, and the eigenbasis reconstruction."""

    def run(tr):
        m = inputs.blocked_walk(n)
        lhat, pair = _siegmund_common(tr, m)
        require(np.array_equal(pair.l.entries, inputs.absorbed_walk(n)), "dual is not the absorbed walk")
        with tr.span("models.walks"):
            walk = md.rw_blocked_absorbed(n)
        tr.count("models.states", n)
        tr.count("models.dense_bytes", 4 * 8 * n * n)  # both generators and both eigenbases
        with tr.span("siegmund.reconstruct"):
            ds = md.reconstruct_siegmund(walk.uhat, walk.u)
        require_close(ds, np.tril(np.ones((n, n))), 1e-8, "reconstruction of 1{x >= y}")
        _check_stationary(tr, lhat, np.full(n, 1.0 / n))

    return Job("blocked-walk", n, run)


def monotone_birth_death_job(m: np.ndarray) -> Job:
    def run(tr):
        lhat, _ = _siegmund_common(tr, m)
        _check_stationary(tr, lhat, inputs.birth_death_stationary(m))

    return Job("birth-death", m.shape[0], run)


class ExclusionTransforms:
    """Dense O(N^3) model assembly, products and residuals; no kernel solve, no decompose."""

    LADDER_SEP = ((2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (2, 5))  # ladder 16 .. 1024 states
    BLOCKED = (50, 200, 600)
    BIRTH_DEATH = (100, 300)
    SITE_TABLES = ((6, 2), (2, 5), (3, 8), (4, 2))  # (vertices, gamma): SEP 729, 36, 729, 81 states

    def __init__(self, rng: np.random.Generator, workdir: Path):
        self.rng = rng

    def _site_params(self, gamma: int) -> md.SingleSiteDualityParams:
        rng = self.rng
        if rng.random() < 0.5:  # classical family: alpha = 0
            return md.SingleSiteDualityParams(0.0, rng.uniform(0.5, 1.5), 0.0, 1.0, gamma)
        alpha, beta = rng.uniform(0.5, 1.0, 2)
        return md.SingleSiteDualityParams(alpha, beta, 0.0, 1.0, gamma)

    def round(self) -> list[Job]:
        rng = self.rng
        jobs = []
        for v, g in self.LADDER_SEP:
            alpha, beta = rng.uniform(0.5, 1.0, 2)
            jobs.append(ladder_sep_job(v, g, inputs.symmetric_rates(rng, v), alpha, beta))
        jobs += [blocked_walk_job(n) for n in self.BLOCKED]
        jobs += [monotone_birth_death_job(inputs.birth_death(rng, n)) for n in self.BIRTH_DEATH]
        for v, g in self.SITE_TABLES:
            jobs.append(site_table_job(v, g, self._site_params(g), inputs.symmetric_rates(rng, v)))
        return _shuffled(rng, jobs)


# ---------------------------------------------------------------------------
# cli-sweep: many small in-process markovdual.cli.main calls
# ---------------------------------------------------------------------------


def run_cli(tr, span: str, argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with tr.span(span), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    require(code == 0, f"markovdual {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


def cli_scenario_job(n: int, seed: int) -> Job:
    def run(tr):
        reports = json.loads(run_cli(tr, "cli.scenario", ["scenario", "all", "--n", str(n), "--seed", str(seed), "--json"]))
        require(len(reports) == 6, f"{len(reports)} scenario reports, expected 6")
        failed = [r["scenario"] for r in reports if not r["pass"]]
        require(not failed, f"scenarios failed: {failed}")

    return Job("scenario", n, run)


def cli_inspect_job(path: Path, m: np.ndarray) -> Job:
    def run(tr):
        report = json.loads(run_cli(tr, "cli.inspect", ["inspect", str(path), "--json"]))
        n = m.shape[0]
        require(report["n"] == n and report["kind"] == "generator", "inspect: wrong size or kind")
        require(report["irreducible"] and report["reversible"], "inspect: birth-death chain not irreducible and reversible")
        weights = np.asarray(report["stationary"]["weights"])
        require_close(weights, inputs.birth_death_stationary(m), 1e-8, "inspect: stationary law")
        require(sum(e["m"] for e in report["eigenvalues"]) == n, "inspect: eigenvalue multiplicities do not sum to n")

    return Job("inspect", m.shape[0], run)


def cli_siegmund_job(path: Path, m: np.ndarray) -> Job:
    def run(tr):
        payload = json.loads(run_cli(tr, "cli.siegmund", ["siegmund", str(path), "--json"]))
        require(payload["monotone"] and payload["kind"] == "sub-generator", "siegmund: wrong verdict")
        dual = np.asarray(payload["dual"]["entries"])
        ds = np.tril(np.ones(m.shape))
        defect = float(np.abs(m @ ds - ds @ dual.T).max())
        bound = residual_bound(m, dual, ds)
        require(defect <= bound, f"siegmund: duality defect {defect:.3e} exceeds {bound:.3e}")

    return Job("siegmund", m.shape[0], run)


def cli_basis_job(lhat_path: Path, l_path: Path, lhat: np.ndarray, l: np.ndarray) -> Job:
    def run(tr):
        payload = json.loads(run_cli(tr, "cli.duality_basis", ["duality", "basis", str(lhat_path), str(l_path), "--json"]))
        n = l.shape[0]
        require(payload["dimension"] == n and payload["max_rank"] == n, "duality basis: wrong dimension or rank")
        require(payload["full_rank_duality_exists"], "duality basis: no full-rank duality reported")
        for b in payload["basis"]:
            b = np.asarray(b)
            defect = float(np.abs(lhat @ b - b @ l.T).max())
            require(defect <= residual_bound(lhat, l, b), f"duality basis: residual {defect:.3e}")

    return Job("duality-basis", lhat.shape[0] * l.shape[0], run)


def cli_model_sep_job(vertices: int, gamma: int) -> Job:
    def run(tr):
        payload = json.loads(run_cli(tr, "cli.model", ["model", "sep", "--V", str(vertices), "--gamma", str(gamma), "--json"]))
        require(payload["states"] == (gamma + 1) ** vertices, "model sep: wrong state count")
        expected = inputs.sep_matrix(vertices, gamma, inputs.complete_rates(vertices))
        require_close(payload["sep_generator"]["entries"], expected, CLOSE_RTOL, "model sep: generator")

    return Job("model-sep", (gamma + 1) ** vertices, run)


def cli_duality_sep_job(params: md.SingleSiteDualityParams) -> Job:
    def run(tr):
        argv = ["duality", "sep", "--alpha", repr(params.alpha), "--beta", repr(params.beta),
                "--eps", repr(params.epsilon), "--delta", repr(params.delta), "--gamma", str(params.gamma), "--json"]
        payload = json.loads(run_cli(tr, "cli.duality_sep", argv))
        with tr.span("models.site_tables"):
            oracle = md.single_site_duality_bruteforce(params)
        require_close(payload["table"], oracle, TABLE_RTOL, "duality sep: table vs brute force")

    return Job("duality-sep", params.gamma + 1, run)


class CliSweep:
    """Tiny inputs through the command line, where per-call overhead dominates."""

    SCENARIO_N = (4, 12, 20)
    INSPECT_N = (4, 7, 10)
    SIEGMUND_N = (5, 10)
    RW54_BASIS_N = (6, 10)
    BIRTH_DEATH_BASIS_N = 8
    MODEL_SEP = ((3, 2), (2, 4))
    DUALITY_SEP_GAMMA = (3, 6)
    VARIANTS = 4  # random birth-death files written per size during set-up

    def __init__(self, rng: np.random.Generator, workdir: Path):
        self.rng = rng
        self.files: dict[tuple[str, int], list[tuple[Path, np.ndarray]]] = {}
        sizes = {*self.INSPECT_N, *self.SIEGMUND_N, self.BIRTH_DEATH_BASIS_N}
        for n in sorted(sizes):
            for k in range(self.VARIANTS):
                self._write(workdir / f"bd{n}_{k}.json", ("bd", n), inputs.birth_death(rng, n))
        for n in self.RW54_BASIS_N:
            lhat, l = inputs.rw54_pair(n)
            self._write(workdir / f"rw54_{n}_Lhat.json", ("rw54-hat", n), lhat)
            self._write(workdir / f"rw54_{n}_L.json", ("rw54", n), l)

    def _write(self, path: Path, key, m: np.ndarray) -> None:
        path.write_text(json.dumps({"n": m.shape[0], "entries": m.tolist()}))
        self.files.setdefault(key, []).append((path, m))

    def _bd(self, n: int):
        variants = self.files[("bd", n)]
        return variants[int(self.rng.integers(len(variants)))]

    def round(self) -> list[Job]:
        rng = self.rng
        jobs = [cli_scenario_job(n, int(rng.integers(1000))) for n in self.SCENARIO_N]
        jobs += [cli_inspect_job(*self._bd(n)) for n in self.INSPECT_N]
        jobs += [cli_siegmund_job(*self._bd(n)) for n in self.SIEGMUND_N]
        for n in self.RW54_BASIS_N:
            (hat_path, lhat), = self.files[("rw54-hat", n)]
            (path, l), = self.files[("rw54", n)]
            jobs.append(cli_basis_job(hat_path, path, lhat, l))
        path, m = self._bd(self.BIRTH_DEATH_BASIS_N)
        jobs.append(cli_basis_job(path, path, m, m))
        jobs += [cli_model_sep_job(v, g) for v, g in self.MODEL_SEP]
        for g in self.DUALITY_SEP_GAMMA:
            alpha, beta = rng.uniform(0.5, 1.0, 2)
            jobs.append(cli_duality_sep_job(md.SingleSiteDualityParams(float(alpha), float(beta), 0.0, 1.0, g)))
        return _shuffled(rng, jobs)


WORKLOADS = {
    "kernel-oracle": KernelOracle,
    "spectral-build": SpectralBuild,
    "exclusion-transforms": ExclusionTransforms,
    "cli-sweep": CliSweep,
}

SPANS = (
    "core.rate_matrix",
    "core.stationary",
    "core.irreducible",
    "spectral.decompose",
    "spectral.witness",
    "duality.kernel",
    "duality.max_rank",
    "duality.build",
    "duality.residual",
    "models.space",
    "models.generator",
    "models.product_duality",
    "models.site_tables",
    "models.walks",
    "intertwining.operator",
    "intertwining.residual",
    "intertwining.push",
    "siegmund.dual",
    "siegmund.reconstruct",
    "cli.scenario",
    "cli.inspect",
    "cli.siegmund",
    "cli.duality_basis",
    "cli.duality_sep",
    "cli.model",
)
COUNTERS = (
    "duality.kernel_bytes",
    "duality.kernel_flops",
    "spectral.states",
    "spectral.clusters",
    "models.states",
    "models.dense_bytes",
)
