#!/usr/bin/env python3
"""Benchmark for ``graphefx solve``: seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload tree --seed 3 --seconds 25 --trace 0

``--trace 0`` drives ``graphefx.cli.main(["solve", ...])`` in-process with
tracing off, checks every output and prints the end-to-end metrics.
``--trace 1`` makes one untraced round, then one traced round over the same
instances, and prints the per-layer metrics.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.  The
metric names and units are the ones declared in BENCHMARK.json.

``--write-manifest`` records the output digests of one round at the default
seed in manifest.json; every later run at that seed must reproduce them.
README.md gives the rationale of each workload and metric.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import checks
import tracing
from metrics import error_rate, scaled, speed_probe, tail_percentile

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
MANIFEST = Path(__file__).resolve().parent / "manifest.json"
DEFAULT_SEED = 0
BATCH_JOBS = 2  # nproc of the reference machine
SETUP_LAUNCHES = 9
OP_CAP_S = 10.0  # an operation slower than this fails; a batch op gets this per instance
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import graphefx.cli; "
    "print(repr(time.perf_counter() - t))"
)


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    """Import graphefx from this checkout's src/, never from anywhere else."""
    if not (SRC / "graphefx" / "cli.py").is_file():
        _fail(f"no program source at {SRC}/graphefx; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import graphefx.cli as cli

    if Path(cli.__file__).resolve().parent != (SRC / "graphefx").resolve():
        _fail(f"imported graphefx from {cli.__file__}, not from {SRC}")
    return cli


@dataclass
class Op:
    key: str  # the case, or the batch directory, this operation solved
    seconds: float  # wall time
    probe: float  # speed probe seconds, mean of one run right before and one right after
    instances: int
    problem: Optional[str] = None  # None: the operation succeeded and passed every check
    known_defect: bool = False  # the failure is the documented audit KeyError

    @property
    def scaled_ms(self) -> float:
        return scaled(self.seconds, self.probe) * 1000


def _is_known_defect(exc: BaseException) -> bool:
    """A KeyError raised inside audit.audit_trace: the multi-phase union crash."""
    frames = traceback.extract_tb(exc.__traceback__)
    return (isinstance(exc, KeyError) and bool(frames) and frames[-1].name == "audit_trace"
            and frames[-1].filename.endswith("audit.py"))


def _report_problem(report: dict) -> Optional[str]:
    if report.get("efx") is not True:
        return "report says efx is false"
    if report.get("complete") is not True:
        return "report says the allocation is incomplete"
    failing = sorted(f for f, status in report.get("audit", {}).items() if status == "fail")
    if failing:
        return f"audit families failed: {failing}"
    return None


def _outputs(case) -> tuple[Path, Path]:
    """Where ``solve`` writes a case's allocation and trace: beside the instance."""
    stem = case.path.name[: -len(".instance.json")]
    return case.path.with_name(stem + ".alloc.json"), case.path.with_name(stem + ".trace.jsonl")


class Harness:
    """Runs operations in a closed loop and checks every output they write."""

    def __init__(self, cli, manifest: Optional[dict]):
        self.cli = cli
        self.manifest = manifest or {}  # case key -> digests, at the default seed only
        self.reference: dict[str, tuple[str, str]] = {}  # first outputs seen per case
        self.ops: list[Op] = []
        self.problems: list[str] = []  # unexpected: these make the run incorrect

    def check_instances(self, cases) -> None:
        for case in cases:
            want = self.manifest.get(case.key, {}).get("instance")
            if want is not None and want != checks.digest(case.path):
                self.problems.append(f"{case.key}: instance bytes differ from the manifest")

    def _call(self, argv: list[str]):
        out, err = io.StringIO(), io.StringIO()
        code = exc = None
        gc.collect()
        before = speed_probe()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except (Exception, SystemExit) as e:  # SystemExit: argparse refused argv
            exc = e
        seconds = time.perf_counter() - start
        probe = (before + speed_probe()) / 2
        return seconds, probe, code, out.getvalue(), err.getvalue(), exc

    def _check_outputs(self, case) -> Optional[str]:
        alloc, trace = _outputs(case)
        if not (alloc.is_file() and trace.is_file()):
            return "allocation or trace file missing"
        digests = (checks.digest(alloc), checks.digest(trace))
        if case.key in self.reference:
            if digests != self.reference[case.key]:
                return "outputs differ from the first solve of this instance"
            return None
        self.reference[case.key] = digests
        problem = checks.efx_problem(checks.load(case.path), checks.load(alloc))
        want = self.manifest.get(case.key, {})
        if problem is None and "alloc" in want:  # cases that crash at the seed have no digests
            if (want["alloc"], want["trace"]) != digests:
                problem = "outputs differ from the manifest digests"
        return problem

    def _record(self, op: Op, label: str) -> Op:
        if op.problem is not None and not op.known_defect:
            self.problems.append(f"{label}: {op.problem}")
        self.ops.append(op)
        return op

    def solve(self, case) -> Op:
        alloc, trace = _outputs(case)
        for path in (alloc, trace):
            path.unlink(missing_ok=True)
        argv = ["solve", str(case.path), "-o", str(alloc), "--trace", str(trace)]
        seconds, probe, code, out, err, exc = self._call(argv)
        op = Op(case.key, seconds, probe, 1)
        if exc is not None:
            op.problem = f"raised {type(exc).__name__}: {exc}"
            op.known_defect = case.known_defect and _is_known_defect(exc)
        elif code != case.expect_exit:
            op.problem = f"exit code {code}, expected {case.expect_exit}: {err.strip()[:200]}"
        elif code == 2:
            if "no solver applies" not in err or alloc.exists() or trace.exists():
                op.problem = f"exit 2 without the expected reason: {err.strip()[:200]}"
        else:
            op.problem = _report_problem(json.loads(out)) or self._check_outputs(case)
        if op.problem is None and seconds > OP_CAP_S:
            op.problem = f"took {seconds:.1f} s, over the {OP_CAP_S} s cap"
        return self._record(op, case.key)

    def solve_batch(self, cases) -> Op:
        for case in cases:
            for path in _outputs(case):
                path.unlink(missing_ok=True)
        directory = cases[0].path.parent
        argv = ["solve", "--batch", str(directory), "--trace", "yes", "--jobs", str(BATCH_JOBS)]
        seconds, probe, code, out, err, exc = self._call(argv)
        op = Op(directory.name, seconds, probe, len(cases))
        if exc is not None:
            op.problem = f"raised {type(exc).__name__}: {exc}"
        elif code != 0:
            op.problem = f"exit code {code}: {err.strip()[:200]}"
        else:
            reports = [json.loads(line) for line in out.splitlines() if line.strip()]
            names = [Path(r["instance"]).name for r in reports]
            if names != [case.path.name for case in cases]:
                op.problem = f"batch reported {names}"
            for case, report in zip(cases, reports):
                op.problem = op.problem or _report_problem(report) or self._check_outputs(case)
        if op.problem is None and seconds > OP_CAP_S * len(cases):
            op.problem = f"took {seconds:.1f} s, over the {OP_CAP_S * len(cases)} s cap"
        return self._record(op, directory.name)

    def run_round(self, groups, batch: bool, tracer=None) -> list[Op]:
        """Solve every group once: one batch call per group, or each case alone."""
        ops = []
        for cases in groups:
            if batch:
                if tracer is not None:
                    tracer.instance = cases[0].path.parent.name
                ops.append(self.solve_batch(cases))
                continue
            for case in cases:
                if tracer is not None:
                    tracer.instance = case.key
                ops.append(self.solve(case))
        return ops


def measure_setup() -> float:
    """Median time for a fresh interpreter to import graphefx.cli, speed-scaled."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for i in range(SETUP_LAUNCHES + 1):  # the first launch fills __pycache__
        before = speed_probe()
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=60, check=True,
        )
        probe = (before + speed_probe()) / 2
        if i:
            samples.append(scaled(float(done.stdout.strip()), probe))
    return statistics.median(samples)


def declared_metrics(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def emit(correct: bool, ops: list[Op], values: dict[str, float], kind: str) -> None:
    units = declared_metrics(kind)
    missing = sorted(set(units) - set(values))
    if missing:
        _fail(f"metrics declared in BENCHMARK.json were not measured: {missing}")
    result = {
        "correct": correct,
        "attempted": len(ops),
        "failed": sum(op.problem is not None for op in ops),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))


def end_to_end(harness: Harness, wl, groups: list) -> tuple[dict, list[Op]]:
    """Solve every group once, one operation after another, and score the run."""
    limit = min(3 * len(groups) * wl.group_seconds, 150)
    start = time.perf_counter()
    for i, cases in enumerate(groups):
        harness.run_round([cases], wl.batch)
        if i + 1 < len(groups) and time.perf_counter() - start > limit:
            print(f"warning: stopped after {i + 1} of {len(groups)} groups at {limit:.0f} s")
            break
    ops = harness.ops
    lat = [op.scaled_ms for op in ops]
    if not wl.batch:
        for stem in dict.fromkeys(case.key.split("/", 1)[1] for case in groups[0]):
            ms = [op.scaled_ms for op in ops if op.key.endswith("/" + stem)]
            print(f"  {stem}: median {statistics.median(ms):.3f} ms over {len(ms)} instances")
    failed = sum(op.problem is not None for op in ops)
    known = sum(op.known_defect for op in ops)
    completed = sum(op.instances for op in ops if op.problem is None)
    rate = error_rate(failed, len(ops))
    p, tail, beyond = tail_percentile(lat)
    setup = measure_setup()
    values = {
        "latency_ms_p50": statistics.median(lat),
        "latency_ms_tail": tail,
        "instances_per_s": completed / sum(lat) * 1000,
        "success_rate": 1 - rate,
        "setup_s": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    wall = sum(op.seconds for op in ops)
    print(f"operations: {len(ops)} in {wall:.1f} s of wall time; the machine ran at"
          f" {sum(lat) / 1000 / wall:.2f} of nominal speed, and times below are scaled to it")
    print(f"latency_ms_p50: {values['latency_ms_p50']:.3f} ms (n={len(lat)};"
          f" unscaled {statistics.median(op.seconds * 1000 for op in ops):.3f} ms)")
    print(f"latency_ms_tail: {tail:.3f} ms (p{p}, n={len(lat)}, {beyond} samples beyond)")
    print(f"instances_per_s: {values['instances_per_s']:.4f} 1/s ({completed} instances completed)")
    print(f"error_rate: {rate:.4f} ({failed} failed / {len(ops)} attempted;"
          f" {known} are the known audit KeyError on multi-phase unions)")
    print(f"setup_s: {setup:.4f} s (median of {SETUP_LAUNCHES} fresh imports of graphefx.cli)")
    print(f"peak_rss_mb: {values['peak_rss_mb']:.1f} MB")
    return values, ops


def per_layer(harness: Harness, wl, groups: list, work: Path) -> tuple[dict, list[Op]]:
    """One untraced round, then the same round traced; per-layer metrics of the latter."""
    speedup = 0.0  # only batch calls the worker pool
    if wl.batch:
        # Each instance alone first: the batch's outputs must match these.
        singles = harness.run_round(groups, batch=False)
        untraced = harness.run_round(groups, batch=True)
        speedup = sum(op.seconds for op in singles) / sum(op.seconds for op in untraced)
    else:
        untraced = harness.run_round(groups, batch=False)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = harness.run_round(groups, wl.batch, tracer)
    finally:
        tracer.uninstall()
    values, seen = tracing.layer_metrics(tracer)
    values["cli.batch.parallel_speedup"] = speedup

    # Only dispatch has instances small enough for the brute-force oracle.
    expected = set(tracing.LAYERS) - (set() if wl.name == "dispatch" else {"oracle"})
    for layer in sorted(expected - seen):
        harness.problems.append(f"traced run recorded no {layer} spans")
    with open(work / "spans.jsonl", "w", encoding="utf-8") as fh:
        for s in tracer.spans:
            fh.write(json.dumps(s.__dict__) + "\n")

    untraced_ms = statistics.median(op.seconds * 1000 for op in untraced)
    traced_ms = statistics.median(op.seconds * 1000 for op in traced)
    total_ms = sum(op.seconds * 1000 for op in traced)
    audit_ms = sum(s.end_ns - s.start_ns for s in tracer.spans if s.name == "audit.audit_trace") / 1e6
    print(f"tracing overhead: {traced_ms - untraced_ms:.3f} ms per operation"
          f" (median traced {traced_ms:.3f} ms, untraced {untraced_ms:.3f} ms)")
    print(f"traced round: {total_ms:.1f} ms in {len(traced)} operations;"
          f" audit_trace including its children: {100 * audit_ms / total_ms:.1f}%")
    by_self = sorted(tracing.self_times_ms(tracer.spans).items(), key=lambda kv: -kv[1])
    for name, ms in by_self[:6]:
        print(f"  self time {name}: {ms:.1f} ms ({100 * ms / total_ms:.1f}%)")
    for name, value in sorted(values.items()):
        print(f"{name}: {value:.6g}")
    return values, harness.ops


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true",
                        help="record one round's output digests at the default seed")
    args = parser.parse_args(argv)

    cli = _import_program()
    import workloads  # imports graphefx, so only once src/ is on the path

    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; expected one of {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    if args.write_manifest and args.seed != DEFAULT_SEED:
        _fail(f"the manifest is kept for the default seed {DEFAULT_SEED} only")
    work = WORK / wl.name
    shutil.rmtree(work, ignore_errors=True)
    count = wl.trace_groups if args.trace else max(wl.min_groups, round(args.seconds / wl.group_seconds))
    groups = workloads.build(wl.name, args.seed, work, count)
    manifest = None
    if args.seed == DEFAULT_SEED and not args.write_manifest:
        manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))["workloads"][wl.name]
    harness = Harness(cli, manifest)
    for cases in groups:
        harness.check_instances(cases)
    print(f"workload {wl.name}, seed {args.seed}: {count} groups of {len(groups[0])} instances")

    if args.write_manifest:
        harness.run_round(groups, wl.batch)
        if harness.problems:
            _fail("not writing a manifest for a failing run: " + "; ".join(harness.problems))
        doc = json.loads(MANIFEST.read_text(encoding="utf-8"))
        doc["workloads"][wl.name] = {
            case.key: dict(
                {"instance": checks.digest(case.path)},
                **dict(zip(("alloc", "trace"), harness.reference.get(case.key, ()))),
            )
            for cases in groups
            for case in cases
        }
        MANIFEST.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {MANIFEST.name} for {wl.name}")
        return 0

    if args.trace:
        values, ops = per_layer(harness, wl, groups, work)
        kind = "per_layer"
    else:
        values, ops = end_to_end(harness, wl, groups)
        kind = "end_to_end"
    for problem in harness.problems:
        print(f"INCORRECT: {problem}")
    emit(not harness.problems, ops, values, kind)
    return 0


if __name__ == "__main__":
    sys.exit(main())
