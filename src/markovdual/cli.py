"""Command-line interface.

Subcommands: inspect, siegmund, duality (basis | sep), model (rw54 | rw6 | sep),
scenario.  Exit codes: 0 success, 1 check failure, 2 usage or parse error
(an argument outside a function's domain, or a configuration space over the
cap, included) and a request too large for memory: a MemoryError, such as
numpy's failed allocation for `model rw54 --n 100000`, prints one `error:`
line, not a traceback.  All file I/O uses the JSON schemas in
markovdual.serialize; the configuration space cap honors the
DUALITY_MAX_STATES environment variable.  --json prints one compact JSON
document on one line.  `main` may be called repeatedly in one process: the
parser is built once and reused.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .core import (
    MatrixKind,
    check_detailed_balance,
    is_irreducible,
    stationary_measure,
)
from .duality import max_duality_rank, solve_duality_space
from .errors import (
    DecompositionFailedError,
    DomainError,
    MarkovDualityError,
    NoPositiveSolutionError,
    NotIrreducibleError,
    ParseError,
    SpaceTooLargeError,
    UnknownScenarioError,
)
from .models import (
    ConfigurationSpace,
    SingleSiteDualityParams,
    classify_regime,
    rw_blocked_absorbed,
    rw_reflected_absorbed,
    sep_generator,
    single_site_duality,
)
from .scenarios import run_scenario
from .serialize import (
    duality_to_json,
    load_json,
    load_matrix,
    matrix_to_json,
    measure_to_json,
    save_json,
)
from .siegmund import siegmund_dual
from .spectral import decompose


def _fmt_eig(z: complex) -> str:
    if z.imag == 0.0:  # decompose gives every real cluster an imaginary part of exactly 0.0
        return f"{z.real:.6g}"
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real:.6g} {sign} {abs(z.imag):.6g}i"


def _emit(payload) -> None:
    # no indent: json.dumps then runs its C encoder, and the document is one line
    print(json.dumps(payload))


def cmd_inspect(args) -> int:
    l = load_matrix(args.matrix)
    report = {"file": str(args.matrix), "n": l.n, "kind": l.kind.value}
    lines = [f"{l.kind.value}, n = {l.n}"]
    irreducible = is_irreducible(l)
    report["irreducible"] = irreducible
    lines.append("irreducible" if irreducible else "reducible")
    if l.kind is MatrixKind.GENERATOR and irreducible:
        try:
            mu = stationary_measure(l)
            reversible = check_detailed_balance(l, mu)
            report["stationary"] = measure_to_json(mu)
            report["reversible"] = reversible
            lines.append(("reversible" if reversible else "non-reversible") + f" w.r.t. stationary measure")
            lines.append("stationary measure: " + np.array2string(np.asarray(mu.weights), precision=6))
        except (NotIrreducibleError, NoPositiveSolutionError) as exc:
            lines.append(f"stationary measure unavailable: {exc}")
    try:
        sd = decompose(l)
        eigs = [_fmt_eig(b.eigenvalue) for b in sd.structure.blocks]
        sizes = [b.size for b in sd.structure.blocks]
        report["eigenvalues"] = [
            {"re": b.eigenvalue.real, "im": b.eigenvalue.imag, "m": b.size}
            for b in sd.structure.blocks
        ]
        blocks = ", ".join(
            e if m == 1 else f"{e} (block size {m})" for e, m in zip(eigs, sizes)
        )
        lines.append(f"eigenvalues: {blocks}")
        lines.append(f"decomposition residual: {sd.residual:.3e}")
    except DecompositionFailedError as exc:
        lines.append(f"spectral summary unavailable: {exc}")
    if args.json:
        _emit(report)
    else:
        print("\n".join(lines))
    return 0


def cmd_siegmund(args) -> int:
    lhat = load_matrix(args.matrix)
    pair = siegmund_dual(lhat)
    payload = {
        "dual": matrix_to_json(pair.l),
        "kind": pair.l.kind.value,
        "monotone": pair.monotone,
        "residual": pair.residual,
    }
    if args.out:
        save_json(payload["dual"], Path(args.out) / "siegmund_dual.json")
    if args.json:
        _emit(payload)
    else:
        print(f"dual kind: {pair.l.kind.value}")
        print(f"monotone input: {pair.monotone}")
        print(f"indicator duality residual: {pair.residual:.3e}")
        print(np.array2string(np.asarray(pair.l.entries), precision=6))
    return 0


def cmd_duality_basis(args) -> int:
    lhat = load_matrix(args.lhat)
    l = load_matrix(args.l)
    space = solve_duality_space(lhat, l)
    rank = max_duality_rank(space, seed=args.seed)
    full = rank == min(lhat.n, l.n)
    payload = {
        "nhat": lhat.n,
        "n": l.n,
        "dimension": space.dimension,
        "max_rank": rank,
        "full_rank_duality_exists": full,
        "cutoff": space.cutoff,
        "largest_discarded": space.largest_discarded,
        # inf (nothing kept) has no JSON spelling
        "smallest_kept": space.smallest_kept if np.isfinite(space.smallest_kept) else None,
        "basis": [b.tolist() for b in space.basis],
    }
    if args.out:
        save_json(payload, Path(args.out) / "duality_basis.json")
    if args.json:
        _emit(payload)
    else:
        print(f"duality space dimension: {space.dimension}")
        print(f"max duality rank: {rank}")
        print(
            "a full-rank duality exists" if full else "no full-rank duality (shared spectrum is partial)"
        )
    return 0


def cmd_duality_sep(args) -> int:
    params = SingleSiteDualityParams(
        alpha=args.alpha, beta=args.beta, epsilon=args.eps, delta=args.delta, gamma=args.gamma
    )
    table = single_site_duality(params)
    payload = {
        "regime": classify_regime(params),
        "gamma": args.gamma,
        "table": table.tolist(),
    }
    if args.csv:
        np.savetxt(args.csv, table, delimiter=",")
    if args.out:
        save_json(payload, Path(args.out) / "single_site_table.json")
    if args.json:
        _emit(payload)
    else:
        print(f"regime: {payload['regime']}")
        print(np.array2string(table, precision=8))
    return 0


def _write_model(args, matrices: dict, extra: dict | None = None) -> int:
    payload = {name: matrix_to_json(m) for name, m in matrices.items()}
    if extra:
        payload.update(extra)
    if args.out:
        for name, m in matrices.items():
            save_json(matrix_to_json(m), Path(args.out) / f"{name}.json")
    if args.json:
        _emit(payload)
    else:
        for name, m in matrices.items():
            print(f"{name}: {m.kind.value}, n = {m.n}")
        if extra:
            for key, value in extra.items():
                print(f"{key}: {value}")
    return 0


def cmd_model_rw54(args) -> int:
    rw = rw_reflected_absorbed(args.n)
    return _write_model(
        args,
        {"rw54_L": rw.l, "rw54_Lhat": rw.lhat},
        {"eigenvalues": [float(v) for v in rw.lambdas]},
    )


def cmd_model_rw6(args) -> int:
    rw = rw_blocked_absorbed(args.n)
    return _write_model(
        args,
        {"rw6_blocked": rw.pair.lhat, "rw6_absorbed": rw.pair.l},
        {
            "eigenvalues": [float(v) for v in rw.lambdas],
            "monotone": rw.pair.monotone,
            "residual": rw.pair.residual,
        },
    )


def _vertices_from_arg(raw: str):
    path = Path(raw)
    if path.exists():
        doc = load_json(path)
        if isinstance(doc, list):
            return doc, 1.0
        if isinstance(doc, dict) and ("vertices" in doc or "V" in doc):
            vertices = doc.get("vertices", doc.get("V"))
            if isinstance(vertices, bool) or not isinstance(vertices, (int, list)):
                raise ParseError(f"vertex file {raw}: vertices must be a count or a list, got {vertices!r}")
            return vertices, doc.get("p", 1.0)
        raise ParseError(f"cannot interpret vertex file {raw}")
    try:
        return int(raw), 1.0
    except ValueError as exc:
        raise ParseError(f"--V must be an integer or a JSON file, got {raw!r}") from exc


def _rates_from_doc(p, v: int):
    """The rate argument of a vertex file: a number, or a V x V numeric matrix (ParseError otherwise)."""
    number = isinstance(p, (int, float)) and not isinstance(p, bool)
    try:
        table = np.array(p, dtype=float)
    except (TypeError, ValueError, OverflowError):
        table = None
    if table is None or table.shape != (() if number else (v, v)):
        raise ParseError(f"vertex file rates p must be a number or a {v} x {v} numeric matrix, got {p!r}")
    return float(table) if number else table


def cmd_model_sep(args) -> int:
    vertices, p = _vertices_from_arg(args.V)
    space = ConfigurationSpace.sep(vertices, args.gamma)
    l = sep_generator(space, _rates_from_doc(p, space.n_vertices))
    return _write_model(
        args,
        {"sep_generator": l},
        {"states": space.size, "gamma": args.gamma, "vertices": list(space.vertices)},
    )


def cmd_scenario(args) -> int:
    reports = run_scenario(args.name, n=args.n, gamma=args.gamma, seed=args.seed, out=args.out)
    if args.json:
        _emit([r.to_dict() for r in reports])
    else:
        for rep in reports:
            print(f"scenario {rep.scenario}: {'PASS' if rep.passed else 'FAIL'}")
            for c in rep.checks:
                status = "ok " if c.passed else "FAIL"
                if c.tolerance is not None and isinstance(c.observed, float):
                    detail = f"observed {c.observed:.3e} (tolerance {c.tolerance:g})"
                else:
                    detail = f"expected {c.expected}, observed {c.observed}"
                print(f"  [{status}] {c.name}: {detail}")
            for art in rep.artifacts:
                print(f"  wrote {art}")
    return 0 if all(r.passed for r in reports) else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every later `main` call.

    parse_args leaves the parser unchanged and returns a fresh namespace, and
    prog is fixed, so reuse changes no output and no exit code.
    """
    parser = argparse.ArgumentParser(prog="markovdual", description=__doc__.splitlines()[0])
    parser.set_defaults(func=None)
    sub = parser.add_subparsers(dest="command")

    shared = {
        "--seed": dict(type=int, default=0, help="seed for randomized steps"),
        "--json": dict(action="store_true", help="machine-readable output"),
        "--out": dict(type=str, default=None, help="directory for emitted artifacts"),
    }

    def common(p, *flags):  # --json everywhere, the other shared flags where the command reads them
        for flag in ("--json", *flags):
            p.add_argument(flag, **shared[flag])

    p = sub.add_parser("inspect", help="classify a rate matrix and summarize its spectrum")
    p.add_argument("matrix", type=Path)
    common(p)
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("siegmund", help="build the Siegmund dual of a generator")
    p.add_argument("matrix", type=Path)
    common(p, "--out")
    p.set_defaults(func=cmd_siegmund)

    p = sub.add_parser("duality", help="duality computations")
    dsub = p.add_subparsers(dest="duality_command")
    pb = dsub.add_parser("basis", help="basis of the duality space of a generator pair")
    pb.add_argument("lhat", type=Path)
    pb.add_argument("l", type=Path)
    common(pb, "--seed", "--out")
    pb.set_defaults(func=cmd_duality_basis)
    ps = dsub.add_parser("sep", help="single-site self-duality table for SEP(gamma)")
    ps.add_argument("--alpha", type=float, required=True)
    ps.add_argument("--beta", type=float, required=True)
    ps.add_argument("--eps", type=float, required=True)
    ps.add_argument("--delta", type=float, required=True)
    ps.add_argument("--gamma", type=int, default=2)
    ps.add_argument("--csv", type=str, default=None, help="write the table as CSV")
    common(ps, "--out")
    ps.set_defaults(func=cmd_duality_sep)

    p = sub.add_parser("model", help="construct the packaged example processes")
    msub = p.add_subparsers(dest="model_command")
    pm = msub.add_parser("rw54", help="reflected/absorbed random walk pair")
    pm.add_argument("--n", type=int, default=8)
    common(pm, "--out")
    pm.set_defaults(func=cmd_model_rw54)
    pm = msub.add_parser("rw6", help="blocked walk and its Siegmund dual")
    pm.add_argument("--n", type=int, default=8)
    common(pm, "--out")
    pm.set_defaults(func=cmd_model_rw6)
    pm = msub.add_parser("sep", help="SEP(gamma) generator over its mixed-radix configuration space")
    pm.add_argument("--V", type=str, required=True, help="vertex count or JSON file")
    pm.add_argument("--gamma", type=int, default=1)
    common(pm, "--out")
    pm.set_defaults(func=cmd_model_sep)

    p = sub.add_parser("scenario", help="run a named end-to-end check list")
    p.add_argument("name", type=str)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--gamma", type=int, default=None)
    common(p, "--seed", "--out")
    p.set_defaults(func=cmd_scenario)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.func is None:
        parser.print_help()
        return 2
    try:
        return args.func(args)
    # an argument outside the domain, a configuration space over the cap included
    except (ParseError, UnknownScenarioError, DomainError, SpaceTooLargeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MarkovDualityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a size no guard caught: the request, not a check, failed
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
