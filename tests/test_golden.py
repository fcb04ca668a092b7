"""A golden corpus: ``graphefx solve`` on 61 seeded instances, byte for byte.

Each case is solved in process with ``-o`` and ``--trace``.  The test pins
the exit code and the sha256 of the report (without ``wall_time_ms``, and
with ``instance`` set to the case's name), of the allocation file and of the
trace file, or of the error line of a case that exits with one.  Six cases,
``scale-*``, are large: four 1,600-agent multi-trees, a 120x120 bipartite
graph and a 1,601-cycle.  A change that alters pinned outputs on purpose
says so, and records every pin again in about 10 s with

    PYTHONPATH=src python -m tests.test_golden

It rewrites this corpus, then ``perfbench/manifest.json`` through
``perfbench/run.py --write-manifest`` for each workload, and prints how many
digests of each kind changed.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from graphefx import Instance, MultiGraph, Table
from graphefx.cli import EXIT_UNSUPPORTED, main
from graphefx.generators import generate
from graphefx.jsonio import save_instance

from .conftest import replace

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden_corpus.json"
MANIFEST = ROOT / "perfbench" / "manifest.json"
PER_GOOD = ("additive", "unit_demand", "budget_additive")


def _shifted(val, offset: int):
    """``val`` with every good id raised by ``offset``."""
    if isinstance(val, Table):
        return Table(entries={frozenset(g + offset for g in s): v for s, v in val.entries.items()})
    return replace(val, values={g + offset: v for g, v in val.values.items()})


def _union(first: tuple, second: tuple) -> tuple:
    """The disjoint union of two generated instances, the second renumbered after the first."""
    (a, names_a), (b, names_b) = first, second
    n, m = a.graph.vertex_count, a.graph.edge_count
    graph = MultiGraph(n + b.graph.vertex_count,
                       [*a.graph.edges, *((u + n, w + n) for u, w in b.graph.edges)])
    vals = {**a.valuations, **{u + n: _shifted(v, m) for u, v in b.valuations.items()}}
    names = [f"x{name}" for name in names_a] + [f"y{name}" for name in names_b]
    return Instance(graph=graph, valuations=vals), names


def _cases() -> dict:
    """Case name -> (instance, agent names)."""
    cases = {}
    for kind in (*PER_GOOD, "table"):
        for seed, n in ((1, 8), (2, 20), (3, 40)):
            cases[f"multitree-{kind}-{seed}"] = generate("multitree", seed, kind, n=n)
        cases[f"scale-multitree-{kind}"] = generate("multitree", 3, kind, n=1600)
    for kind in PER_GOOD:
        for seed, left, right in ((1, 3, 3), (2, 5, 6), (3, 8, 8)):
            cases[f"bipartite-{kind}-{seed}"] = generate("bipartite", seed, kind,
                                                         n_left=left, n_right=right)
        for seed, length in ((1, 4), (2, 5), (3, 9)):  # one even cycle, two odd ones
            cases[f"multicycle-{kind}-{seed}"] = generate("multicycle", seed, kind, length=length)
        for seed in (1, 2):
            cases[f"petersen-{kind}-{seed}"] = generate("petersen", seed, kind)
            # a multi-triangle goes to brute force when it is small enough, else exits 2
            cases[f"triangle-{kind}-{seed}"] = generate("multicycle", seed, kind, length=3,
                                                        max_parallel=2)
        cases[f"big-triangle-{kind}"] = generate("multicycle", 9, kind, length=3, max_parallel=4)
        cases[f"union-{kind}"] = _union(generate("multitree", 4, kind, n=5),
                                        generate("multicycle", 4, kind, length=5))
        cases[f"union-cycle4-cycle5-{kind}"] = _union(generate("multicycle", 6, kind, length=4),
                                                      generate("multicycle", 6, kind, length=5))
        cases[f"union-cycle5-tree-{kind}"] = _union(generate("multicycle", 7, kind, length=5),
                                                    generate("multitree", 7, kind, n=5))
    cases["union-table-additive"] = _union(generate("multitree", 5, "table", n=4),
                                           generate("bipartite", 5, "additive",
                                                    n_left=2, n_right=3))
    cases["scale-bipartite"] = generate("bipartite", 3, "additive", n_left=120, n_right=120)
    cases["scale-multicycle"] = generate("multicycle", 3, "additive", length=1601)
    return cases


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _outputs(name: str, inst: Instance, names: list[str], work: Path) -> dict:
    """Exit code and digests of ``solve`` on one case."""
    path = work / f"{name}.instance.json"
    alloc, trace = work / f"{name}.alloc.json", work / f"{name}.trace.jsonl"
    save_instance(inst, names, path)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["solve", str(path), "-o", str(alloc), "--trace", str(trace)])
    if err.getvalue():
        return {"exit": code, "error": _digest(err.getvalue().replace(str(work), "").encode())}
    report = json.loads(out.getvalue())
    del report["wall_time_ms"]
    report["instance"] = name
    return {"exit": code, "method": report["method_used"],
            "report": _digest(json.dumps(report, sort_keys=True).encode()),
            "allocation": _digest(alloc.read_bytes()), "trace": _digest(trace.read_bytes())}


def corpus(work: Path) -> dict:
    return {name: _outputs(name, inst, names, work) for name, (inst, names) in _cases().items()}


def test_the_corpus_solves_to_the_pinned_bytes(tmp_path):
    pinned = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = corpus(tmp_path)
    assert sorted(got) == sorted(pinned)
    assert sorted({(name, kind) for name in got
                   for kind, _ in got[name].items() ^ pinned[name].items()}) == []


def test_the_corpus_reaches_every_solver_and_a_refusal():
    cases = json.loads(GOLDEN.read_text(encoding="utf-8")).values()
    methods = {case["method"] for case in cases if "method" in case}
    assert {"tree", "bipartite", "chromatic", "brute_force"} <= methods
    assert {"componentwise(tree,chromatic)", "componentwise(bipartite,chromatic)",
            "componentwise(chromatic,tree)"} <= methods
    assert any(case["exit"] == EXIT_UNSUPPORTED for case in cases)


def _tally(old: dict, new: dict) -> str:
    """How many digests of each kind changed, were added or were removed from ``old`` to ``new``."""
    counts = Counter()
    for case in old.keys() | new.keys():
        was, now = old.get(case, {}), new.get(case, {})
        for key in (was.keys() | now.keys()) - {"exit", "method"}:  # the rest are digests
            if was.get(key) != now.get(key):
                what = "removed" if key not in now else "added" if key not in was else "changed"
                counts[f"{'allocation' if key == 'alloc' else key} {what}"] += 1
    return ", ".join(f"{n} {kind}" for kind, n in sorted(counts.items())) or "no digest changed"


if __name__ == "__main__":
    import subprocess
    import tempfile

    def pins() -> dict:
        workloads = json.loads(MANIFEST.read_text(encoding="utf-8"))["workloads"].items()
        return {GOLDEN: json.loads(GOLDEN.read_text(encoding="utf-8")),
                MANIFEST: {(w, key): case for w, cases in workloads for key, case in cases.items()}}

    before = pins()
    with tempfile.TemporaryDirectory() as work:
        GOLDEN.write_text(json.dumps(corpus(Path(work)), indent=1, sort_keys=True) + "\n",
                          encoding="utf-8")
    for workload in ("tree", "bipartite", "dispatch", "batch"):
        subprocess.run([sys.executable, MANIFEST.with_name("run.py"), "--workload", workload,
                        "--write-manifest"], check=True)
    for path, digests in pins().items():
        print(f"{path.relative_to(ROOT)}: {_tally(before[path], digests)}")
    sys.exit(0)
