"""Command-line front end.

Subcommands: gen, analyze, solve, verify, oracle, audit.
Exit codes: 0 success, 1 input/validation error, 2 unsupported instance class,
3 EFX violation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Optional

from .allocation import is_efx
from .audit import FAMILIES, audit_trace
from .errors import GraphEfxError, InputError, UnsupportedClassError
from .generators import VALUATION_KINDS, generate
from .jsonio import (
    load_allocation,
    load_instance,
    load_json,
    load_trace,
    save_allocation,
    save_instance,
    save_trace,
)
from .multigraph import Coloring
from .oracle import brute_force_efx
from .solvers import Instance, classify, components, smallest_coloring, solve
from .trace import check_trace

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_UNSUPPORTED = 2
EXIT_NOT_EFX = 3

SEED_ENV_VAR = "GRAPHEFX_SEED"


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR, "0")
    try:
        return int(raw)
    except ValueError as exc:
        raise InputError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from exc


def _load_coloring(path: str, names: list[str]) -> Coloring:
    obj = load_json(path)
    try:
        index = {name: i for i, name in enumerate(names)}
        colors = {index[name]: int(c) for name, c in obj["colors"].items()}
        return Coloring(colors=colors, t=int(obj["t"]))
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise InputError(f"malformed coloring file {path}: {exc}") from exc


def _parse_prob(text: str) -> tuple[int, int]:
    try:
        p, q = text.split("/")
        return int(p), int(q)
    except ValueError as exc:
        raise InputError(f"edge probability must look like P/Q, got {text!r}") from exc


def cmd_gen(args: argparse.Namespace) -> int:
    params = {}
    if args.family == "bipartite":
        params = {
            "n_left": args.n_left,
            "n_right": args.n_right,
            "edge_prob": _parse_prob(args.edge_prob),
            "max_parallel": args.max_parallel,
            "value_max": args.value_max,
        }
    elif args.family == "multitree":
        params = {"n": args.agents, "max_parallel": args.max_parallel, "value_max": args.value_max}
    elif args.family == "multicycle":
        params = {"length": args.length, "max_parallel": args.max_parallel, "value_max": args.value_max}
    elif args.family == "petersen":
        params = {"parallel_copies": args.parallel_copies, "value_max": args.value_max}
    seed = args.seed if args.seed is not None else _default_seed()
    inst, names = generate(args.family, seed=seed, valuation_kind=args.valuations, **params)
    save_instance(inst, names, args.out)
    print(f"wrote {args.out}: {inst.graph.vertex_count} agents, {inst.graph.edge_count} goods")
    return EXIT_OK


def _analysis(inst: Instance) -> dict:
    """Class facts of the whole instance, and per component its chromatic number
    and the solvers ``classify`` accepts."""
    g = inst.graph
    girth, _ = g.shortest_cycle()
    parts = [sub for sub, _, _ in components(inst)]
    colorings = [smallest_coloring(sub.graph)[0] for sub in parts]
    return {
        "agents": g.vertex_count,
        "goods": g.edge_count,
        "multitree": g.is_multitree(),
        "bipartite": g.bipartition() is not None,
        "girth": None if girth == float("inf") else int(girth),
        "chromatic_number": [None if col is None else col.t for col in colorings],
        "eligible": [[v.solver for v in classify(sub) if v.applies] for sub in parts],
    }


def _per_component(items: list) -> str:
    """One item as itself; one item per component as componentwise(a; b; ...)."""
    return str(items[0]) if len(items) == 1 else f"componentwise({'; '.join(map(str, items))})"


def cmd_analyze(args: argparse.Namespace) -> int:
    inst, _ = load_instance(args.instance)
    report = _analysis(inst)
    for key in ("agents", "goods", "multitree", "bipartite", "girth"):
        print(f"{key}: {report[key]}")
    print("chromatic_number: " + _per_component(report["chromatic_number"]))
    lists = [", ".join(solvers) or "none" for solvers in report["eligible"]]
    print("eligible: " + _per_component(lists))
    return EXIT_OK


def _solve_one(
    instance_path: str,
    coloring_path: Optional[str],
    out_path: Optional[str],
    trace_path: Optional[str],
) -> tuple[dict, int]:
    inst, names = load_instance(instance_path)
    hint = _load_coloring(coloring_path, names) if coloring_path else None
    start = time.monotonic_ns()
    verdicts: list = []
    alloc, method, trace = solve(inst, hint, verdicts)
    elapsed_ms = (time.monotonic_ns() - start) // 1_000_000
    verdict = is_efx(inst, alloc)
    audit = audit_trace(inst, trace)
    report = {
        "instance": instance_path,
        "method_used": method,
        "efx": verdict.ok,
        "complete": alloc.is_complete(inst),
        "wall_time_ms": elapsed_ms,
        "dispatch": [
            [{"solver": v.solver, "result": v.reason or "applied"} for v in tried]
            for tried in verdicts
        ],
        "audit": {family: audit.status(family) for family in audit.results},
    }
    if out_path:
        save_allocation(alloc, names, out_path)
    if trace_path:
        save_trace(trace, trace_path)
    code = EXIT_OK if verdict.ok else EXIT_NOT_EFX
    return report, code


def cmd_solve(args: argparse.Namespace) -> int:
    if args.batch:
        if args.jobs < 1:
            raise InputError(f"--jobs must be at least 1, got {args.jobs}")
        paths = sorted(Path(args.batch).glob("*.instance.json"))
        if not paths:
            raise InputError(f"no *.instance.json files in {args.batch}")

        def run(path: Path):
            stem = path.name[: -len(".instance.json")]
            out = path.with_name(stem + ".alloc.json")
            trace = path.with_name(stem + ".trace.jsonl") if args.trace else None
            return _solve_one(str(path), args.coloring, str(out), str(trace) if trace else None)

        worst = EXIT_OK
        with ThreadPoolExecutor(max_workers=args.jobs) as pool:
            for report, code in pool.map(run, paths):
                print(json.dumps(report, sort_keys=True))
                worst = max(worst, code)
        return worst

    report, code = _solve_one(args.instance, args.coloring, args.out, args.trace)
    print(json.dumps(report, indent=2, sort_keys=True))
    return code


def cmd_verify(args: argparse.Namespace) -> int:
    inst, names = load_instance(args.instance)
    alloc = load_allocation(args.allocation, names)
    verdict = is_efx(inst, alloc)
    if verdict.ok:
        print("EFX: ok")
        return EXIT_OK
    u, w, x = verdict.witness
    print(f"EFX: violated; agent {names[u]} envies {names[w]} even after removing good {x}")
    return EXIT_NOT_EFX


def cmd_oracle(args: argparse.Namespace) -> int:
    inst, names = load_instance(args.instance)
    report = brute_force_efx(inst)
    print(f"searched: {report.searched}")
    print(f"efx_count: {report.efx_count}")
    if report.sample is not None:
        sample = {names[u]: sorted(b) for u, b in sorted(report.sample.bundles.items())}
        print(f"sample: {json.dumps(sample, sort_keys=True)}")
    return EXIT_OK


def cmd_audit(args: argparse.Namespace) -> int:
    inst, _ = load_instance(args.instance)
    trace = load_trace(args.trace)
    check_trace(trace, inst.graph)
    report = audit_trace(inst, trace)
    for family in FAMILIES:
        print(f"{family}: {report.status(family)}")
        for msg in report.results[family][1]:
            print(f"  {msg}")
    return EXIT_OK if report.ok else EXIT_NOT_EFX


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphefx", description="EFX allocation toolkit for multi-graph fair division"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a benchmark instance")
    p_gen.add_argument("family", choices=["bipartite", "multitree", "multicycle", "petersen"])
    p_gen.add_argument("--seed", type=int, default=None,
                       help=f"64-bit seed (default: ${SEED_ENV_VAR} or 0)")
    p_gen.add_argument("--valuations", default="additive", choices=VALUATION_KINDS)
    p_gen.add_argument("--n-left", type=int, default=3)
    p_gen.add_argument("--n-right", type=int, default=3)
    p_gen.add_argument("--edge-prob", default="1/2", help="integer rational P/Q")
    p_gen.add_argument("--agents", type=int, default=5)
    p_gen.add_argument("--length", type=int, default=5)
    p_gen.add_argument("--parallel-copies", type=int, default=2)
    p_gen.add_argument("--max-parallel", type=int, default=3)
    p_gen.add_argument("--value-max", type=int, default=100)
    p_gen.add_argument("-o", "--out", required=True)
    p_gen.set_defaults(func=cmd_gen)

    p_an = sub.add_parser("analyze", help="report instance class and eligible solvers")
    p_an.add_argument("instance")
    p_an.set_defaults(func=cmd_analyze)

    p_solve = sub.add_parser("solve", help="solve an instance and verify the result")
    p_solve.add_argument("instance", nargs="?")
    p_solve.add_argument("--coloring", default=None, help="optional coloring hint (JSON)")
    p_solve.add_argument("-o", "--out", default=None, help="allocation output path")
    p_solve.add_argument("--trace", default=None, help="trace output path (JSON-lines)")
    p_solve.add_argument("--batch", default=None, help="solve every *.instance.json in a directory")
    p_solve.add_argument("--jobs", type=int, default=4)
    p_solve.set_defaults(func=cmd_solve)

    p_ver = sub.add_parser("verify", help="check an allocation file for EFX")
    p_ver.add_argument("instance")
    p_ver.add_argument("allocation")
    p_ver.set_defaults(func=cmd_verify)

    p_or = sub.add_parser("oracle", help="exhaustive EFX census of a tiny instance")
    p_or.add_argument("instance")
    p_or.set_defaults(func=cmd_oracle)

    p_aud = sub.add_parser("audit", help="replay a trace against the solver invariants")
    p_aud.add_argument("instance")
    p_aud.add_argument("trace")
    p_aud.set_defaults(func=cmd_audit)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "solve" and not args.batch and not args.instance:
        parser.error("solve needs an instance path or --batch")
    if args.command == "solve" and args.trace and args.batch:
        args.trace = True  # batch mode derives per-instance trace paths
    try:
        return args.func(args)
    except UnsupportedClassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except GraphEfxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
