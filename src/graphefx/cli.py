"""Command-line front end.

Subcommands: gen, analyze, solve, verify, oracle, audit.
``solve --batch DIR --jobs J`` solves every instance of a directory on up to
J processes: the calling process and J - 1 forked children.
Exit codes: 0 success, 1 usage, input or validation error, 2 unsupported
instance class, 3 EFX violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Optional

from .allocation import is_efx
from .audit import FAMILIES, audit_trace
from .errors import GraphEfxError, InputError, UnsupportedClassError
from .jsonio import (
    load_allocation,
    load_coloring,
    load_instance,
    load_trace,
    save_allocation,
    save_instance,
    save_trace,
)
from .oracle import brute_force_efx
from .solvers import Instance, classify, smallest_coloring, solve
from .valuation import KINDS

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_UNSUPPORTED = 2
EXIT_NOT_EFX = 3

SEED_ENV_VAR = "GRAPHEFX_SEED"


def _exit_code(exc: GraphEfxError) -> int:
    return EXIT_UNSUPPORTED if isinstance(exc, UnsupportedClassError) else EXIT_INPUT


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR, "0")
    try:
        return int(raw)
    except ValueError as exc:
        raise InputError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from exc


def _parse_prob(text: str) -> tuple[int, int]:
    try:
        p, q = text.split("/")
        return int(p), int(q)
    except ValueError as exc:
        raise InputError(f"edge probability must look like P/Q, got {text!r}") from exc


def cmd_gen(args: argparse.Namespace) -> int:
    from .generators import generate  # only gen generates: solving never imports it

    # the family's own options, and --value-max, are its generator's parameters
    params = {k: v for k, v in vars(args).items()
              if k not in ("command", "family", "seed", "valuations", "out")}
    seed = args.seed if args.seed is not None else _default_seed()
    if not 0 <= seed < 2 ** 64:
        source = SEED_ENV_VAR if args.seed is None else "--seed"
        raise InputError(f"{source} must be in 0..2**64-1, got {seed}")
    inst, names = generate(args.family, seed=seed, valuation_kind=args.valuations, **params)
    save_instance(inst, names, args.out)
    print(f"wrote {args.out}: {inst.graph.vertex_count} agents, {inst.graph.edge_count} goods")
    return EXIT_OK


def _analysis(inst: Instance) -> dict:
    """Class facts of the whole instance, and per component its chromatic number
    and the solvers ``classify`` accepts."""
    g = inst.graph
    girth = g.girth()
    comps = g.connected_components() or [None]  # a graph without vertices is one part
    colorings = [smallest_coloring(g, comp)[0] for comp in comps]
    return {
        "agents": g.vertex_count,
        "goods": g.edge_count,
        "multitree": g.is_multitree(),
        "bipartite": g.bipartition() is not None,
        "girth": None if girth == float("inf") else int(girth),
        "chromatic_number": [None if col is None else col.t for col in colorings],
        "eligible": [[v.solver for v in classify(inst, None, comp) if v.applies] for comp in comps],
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
    hint = load_coloring(coloring_path, names) if coloring_path else None
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


def _solve_batch_instance(path: Path, coloring_path: Optional[str],
                          trace: bool) -> tuple[str, int, bool]:
    """Solve one instance of a batch, writing its outputs beside it.

    Returns its line, its exit code and whether the line is an error line.
    An instance that fails gets an error line; the others still run.
    """
    stem = path.name[: -len(".instance.json")]
    out = path.with_name(stem + ".alloc.json")
    trace_path = str(path.with_name(stem + ".trace.jsonl")) if trace else None
    try:
        report, code = _solve_one(str(path), coloring_path, str(out), trace_path)
    except GraphEfxError as exc:
        return f"error: {path}: {exc}", _exit_code(exc), True
    return json.dumps(report, sort_keys=True), code, False


def _solve_share(paths: list[Path], coloring_path: Optional[str],
                 trace: bool) -> list[tuple[str, int, bool]]:
    return [_solve_batch_instance(path, coloring_path, trace) for path in paths]


def _fork_job(share: list[Path], coloring_path: Optional[str], trace: bool) -> tuple[int, int]:
    """Fork a child that solves ``share`` and pickles its results, or the
    exception that stopped it, into a pipe.  Returns (child pid, read end).

    The child ends with ``os._exit``, so it runs no atexit handler and does
    not flush the stdio buffers it inherited.
    """
    import pickle  # only a forked job pickles

    read, write = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write)
        return pid, read
    try:
        os.close(read)
        try:
            payload = pickle.dumps((True, _solve_share(share, coloring_path, trace)))
        except BaseException as exc:  # raised again in the parent
            payload = pickle.dumps((False, exc))
        with open(write, "wb") as pipe:
            pipe.write(payload)
    finally:
        os._exit(0)


def _job_result(job: int, payload: bytes, status: int) -> list[tuple[str, int, bool]]:
    """The results that forked job ``job`` pickled; the exception it pickled,
    or a RuntimeError when it pickled nothing, is raised."""
    import pickle  # only a forked job pickles

    if not payload:
        raise RuntimeError(f"solve --batch job {job} ended without its results"
                           f" (exit code {os.waitstatus_to_exitcode(status)})")
    done, result = pickle.loads(payload)
    if not done:
        raise result
    return result


def _solve_batch(paths: list[Path], jobs: int, coloring_path: Optional[str],
                 trace: bool) -> list[tuple[str, int, bool]]:
    """Solve ``paths`` on up to ``jobs`` jobs and return their results in path order.

    Instance i goes to job i % J, for J = min(jobs, len(paths)).  Job 0 runs
    in this process and each other job in a forked child.  J is 1 when this
    process cannot fork safely: without ``os.fork``, or with other threads
    running.  Every child is reaped, even when job 0 raises.  An exception
    other than a GraphEfxError in any job is raised here with its type.
    """
    if not hasattr(os, "fork") or threading.active_count() > 1:
        jobs = 1
    jobs = min(jobs, len(paths))
    shares = [paths[j::jobs] for j in range(jobs)]
    children = []
    try:
        for share in shares[1:]:
            children.append(_fork_job(share, coloring_path, trace))
        results = [_solve_share(shares[0], coloring_path, trace)]
    finally:
        # Read every pipe to its end first: a child blocks on a full pipe.
        payloads = []
        for _, read in children:
            with open(read, "rb") as pipe:
                payloads.append(pipe.read())
        statuses = [os.waitpid(pid, 0)[1] for pid, _ in children]
    results += map(_job_result, range(1, jobs), payloads, statuses)
    return [results[i % jobs][i // jobs] for i in range(len(paths))]


def _file_key(path: str) -> object:
    """Equal for any two paths to one file: the file's device and inode, or for
    a file not made yet, those of its directory and its name."""
    head, name = os.path.split(path)
    for target, rest in ((path, ()), (head or ".", (name,))):
        try:
            st = os.stat(target)
            return (st.st_dev, st.st_ino, *rest)
        except OSError:
            pass
    return path  # in a missing directory, which writing reports


def _refuse_clashes(paths: dict[str, Optional[str]]) -> None:
    """Raise InputError when an output, -o or --trace, names the same file as
    a path given before it in ``paths``."""
    seen: dict = {}
    for option, path in paths.items():
        if path:
            first = seen.setdefault(_file_key(path), option)
            if first != option and option in ("-o", "--trace"):
                raise InputError(f"{first} and {option} name the same file: {path}")


def cmd_solve(args: argparse.Namespace) -> int:
    if not args.batch:
        if not args.instance:
            raise InputError("solve needs an instance path or --batch")
        _refuse_clashes({"the instance": args.instance, "--coloring": args.coloring,
                         "-o": args.out, "--trace": args.trace})
        report, code = _solve_one(args.instance, args.coloring, args.out, args.trace)
        print(json.dumps(report, indent=2, sort_keys=True))
        return code
    if args.instance:
        raise InputError(f"solve --batch takes no instance path, got {args.instance}")
    if args.out:
        raise InputError("solve --batch takes no -o: it writes each allocation beside its instance")
    if args.jobs < 1:
        raise InputError(f"--jobs must be at least 1, got {args.jobs}")
    paths = sorted(Path(args.batch).glob("*.instance.json"))
    if not paths:
        raise InputError(f"no *.instance.json files in {args.batch}")
    # --trace is a flag here: each trace goes beside its instance.
    results = _solve_batch(paths, args.jobs, args.coloring, bool(args.trace))
    worst = EXIT_OK
    for line, code, failed in results:
        print(line, file=sys.stderr if failed else sys.stdout)
        worst = max(worst, code)
    return worst


def cmd_verify(args: argparse.Namespace) -> int:
    inst, names = load_instance(args.instance)
    alloc = load_allocation(args.allocation, names, inst.graph.edge_count)
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
    trace = load_trace(args.trace, inst.graph)
    report = audit_trace(inst, trace)
    for family in FAMILIES:
        print(f"{family}: {report.status(family)}")
        for msg in report.results[family][1]:
            print(f"  {msg}")
    return EXIT_OK if report.ok else EXIT_NOT_EFX


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors raise InputError, which ``main`` reports
    in one line with exit code 1.

    The top-level parser and ``gen`` set ``order``, their usage with the
    command or the family first: their options all belong to the commands
    or the families, so an option given before the word in capitals is
    named as misplaced, rather than its value as an invalid choice.
    """

    order: Optional[str] = None

    def parse_known_args(self, args=None, namespace=None):
        args = sys.argv[1:] if args is None else args
        if self.order and args and args[0].startswith("-") and args[0] not in ("-h", "--help"):
            word = next(w for w in self.order.split() if w.isupper()).lower()
            raise InputError(f"{self.prog}: option {args[0].partition('=')[0]} comes before"
                             f" the {word}; the order is {self.order}")
        return super().parse_known_args(args, namespace)

    def error(self, message: str):
        raise InputError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, and ``main`` looks each command's function up when it runs it."""
    parser = _Parser(
        prog="graphefx", description="EFX allocation toolkit for multi-graph fair division"
    )
    parser.order = "graphefx COMMAND [options]"
    sub = parser.add_subparsers(dest="command", required=True)

    shared = argparse.ArgumentParser(add_help=False)  # the options of every family
    shared.add_argument("--seed", type=int, default=None,
                        help=f"seed in 0..2**64-1 (default: ${SEED_ENV_VAR} or 0)")
    shared.add_argument("--valuations", default="additive", choices=tuple(KINDS))
    shared.add_argument("--value-max", type=int, default=100)
    shared.add_argument("-o", "--out", required=True)
    p_gen = sub.add_parser("gen", help="generate a benchmark instance")
    p_gen.order = "graphefx gen FAMILY [options]"
    families = p_gen.add_subparsers(dest="family", required=True)
    p_fam = families.add_parser("bipartite", parents=[shared])
    p_fam.add_argument("--n-left", type=int, default=3)
    p_fam.add_argument("--n-right", type=int, default=3)
    p_fam.add_argument("--edge-prob", type=_parse_prob, default=(1, 2),
                       help="integer rational P/Q (default: 1/2)")
    p_fam.add_argument("--max-parallel", type=int, default=3)
    p_fam = families.add_parser("multitree", parents=[shared])
    p_fam.add_argument("--agents", dest="n", type=int, default=5)
    p_fam.add_argument("--max-parallel", type=int, default=3)
    p_fam = families.add_parser("multicycle", parents=[shared])
    p_fam.add_argument("--length", type=int, default=5)
    p_fam.add_argument("--max-parallel", type=int, default=3)
    p_fam = families.add_parser("petersen", parents=[shared])
    p_fam.add_argument("--parallel-copies", type=int, default=2)

    p_an = sub.add_parser("analyze", help="report instance class and eligible solvers")
    p_an.add_argument("instance")

    p_solve = sub.add_parser("solve", help="solve an instance and verify the result")
    p_solve.add_argument("instance", nargs="?")
    p_solve.add_argument("--coloring", default=None, help="optional coloring hint (JSON)")
    p_solve.add_argument("-o", "--out", default=None, help="allocation output path")
    p_solve.add_argument("--trace", default=None, help="trace output path (JSON-lines)")
    p_solve.add_argument("--batch", default=None, help="solve every *.instance.json in a directory")
    p_solve.add_argument("--jobs", type=int, default=4,
                         help="processes that solve a --batch (default: 4)")

    p_ver = sub.add_parser("verify", help="check an allocation file for EFX")
    p_ver.add_argument("instance")
    p_ver.add_argument("allocation")

    p_or = sub.add_parser("oracle", help="exhaustive EFX census of a tiny instance")
    p_or.add_argument("instance")

    p_aud = sub.add_parser("audit", help="replay a trace against the solver invariants")
    p_aud.add_argument("instance")
    p_aud.add_argument("trace")

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        command = {"gen": cmd_gen, "analyze": cmd_analyze, "solve": cmd_solve,
                   "verify": cmd_verify, "oracle": cmd_oracle, "audit": cmd_audit}[args.command]
        return command(args)
    except GraphEfxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
