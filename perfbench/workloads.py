"""Seeded, byte-reproducible instance files for the four benchmark workloads.

The workload seed is the only input: every instance gets its own sub-seed
derived from (seed, workload, group, position), and files are written with the
program's own instance encoder, so the same seed gives the same bytes.  A
group is one of each of the workload's shapes; a run has several groups of
fresh instances, which averages out cost differences between instances of
one shape.  Shapes the generators cannot make (Mycielski-5, K4 with two parallel edges,
the doubled triangle, disjoint unions) are built here.  README.md says why
each workload exists.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path

from graphefx.generators import generate
from graphefx.jsonio import save_instance
from graphefx.multigraph import MultiGraph
from graphefx.solvers import Instance
from graphefx.valuation import Additive

VALUE_MAX = 100
CANCELLABLE_KINDS = ("additive", "unit_demand", "budget_additive")


@dataclass(frozen=True)
class Case:
    """One instance file and the outcome ``graphefx solve`` must give on it."""

    key: str  # g<group>/<stem>, the manifest key
    path: Path  # <stem>.instance.json
    expect_exit: int = 0
    # Two or more phase-based components: when this benchmark was written,
    # audit_trace read only the first ColoringUsed event and raised KeyError.
    # Counted as a failed operation, never as a wrong output.
    known_defect: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    # Nominal seconds one solve of one group took on the 2-CPU reference
    # machine when this benchmark was written.  A run solves round(seconds / group_seconds)
    # groups, at least min_groups: the instances, and so the sample count and
    # the tail percentile, depend on --seconds and --seed only.
    group_seconds: float
    min_groups: int  # enough for 20 latency samples, the tail's minimum
    trace_groups: int  # groups in a traced run: its first ones, about 10 s untraced
    batch: bool = False  # a group is one solve --batch directory


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload("tree", group_seconds=0.7, min_groups=7, trace_groups=12),
        Workload("bipartite", group_seconds=1.6, min_groups=7, trace_groups=6),
        Workload("dispatch", group_seconds=2.8, min_groups=2, trace_groups=3),
        Workload("batch", group_seconds=0.6, min_groups=20, trace_groups=6, batch=True),
    )
}


def subseed(seed: int, *where) -> int:
    digest = hashlib.sha256("/".join(map(str, (seed,) + where)).encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _additive(rng: random.Random, n: int, pairs: list[tuple[int, int]]) -> Instance:
    graph = MultiGraph(n, pairs)
    vals = {
        u: Additive(values={g: rng.randint(0, VALUE_MAX) for g in sorted(graph.incident_edges(u))})
        for u in range(n)
    }
    return Instance(graph=graph, valuations=vals)


def mycielski5(rng: random.Random) -> Instance:
    """Mycielski's graph M5: 23 vertices, triangle-free, chromatic number 5.

    No solver applies, so ``solve`` must exit 2 with the reason.
    """
    pairs, n = [(0, 1)], 2
    for _ in range(3):
        step = list(pairs)
        for a, b in pairs:
            step += [(a, n + b), (b, n + a)]
        step += [(n + i, 2 * n) for i in range(n)]
        pairs, n = step, 2 * n + 1
    return _additive(rng, n, pairs)


def k4_plus_two(rng: random.Random) -> Instance:
    """K4 with one extra parallel copy of two opposite edges: 4 agents, 8 goods."""
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 1), (2, 3)]
    return _additive(rng, 4, pairs)


def doubled_triangle(rng: random.Random) -> Instance:
    return _additive(rng, 3, [(0, 1), (1, 2), (0, 2)] * 2)


def disjoint_union(parts: list[Instance]) -> Instance:
    """Place the parts side by side, offsetting vertex and edge ids."""
    pairs: list[tuple[int, int]] = []
    vals = {}
    v_off = e_off = 0
    for part in parts:
        pairs += [(a + v_off, b + v_off) for a, b in part.graph.edges]
        for u, val in part.valuations.items():
            if not isinstance(val, Additive):
                raise TypeError("unions are built from additive parts only")
            vals[u + v_off] = Additive(values={g + e_off: x for g, x in val.values.items()})
        v_off += part.graph.vertex_count
        e_off += part.graph.edge_count
    return Instance(graph=MultiGraph(v_off, pairs), valuations=vals)


def _gen(family: str, seed: int, kind: str = "additive", **params) -> Instance:
    return generate(family, seed=seed, valuation_kind=kind, **params)[0]


# Each builder yields (file stem, expected outcome, instance) for one group.
OK, DEFECT, UNSUPPORTED = {}, {"known_defect": True}, {"expect_exit": 2}


def _tree_cases(seed: int):
    for i, kind in enumerate(("additive", "additive", "table")):
        yield f"{i}-tree60-{kind}", OK, _gen("multitree", subseed(seed, i), kind, n=60)


def _bipartite_cases(seed: int):
    for i, kind in enumerate(CANCELLABLE_KINDS):
        inst = _gen("bipartite", subseed(seed, i), kind, n_left=24, n_right=24, edge_prob=(1, 2))
        yield f"{i}-bip24x24-{kind}", OK, inst


def _dispatch_cases(seed: int):
    def rng(i: int) -> random.Random:
        return random.Random(subseed(seed, i))

    def sub(i: int, j: int) -> int:
        return subseed(seed, i, j)

    shapes = [
        ("cycle41", lambda i: _gen("multicycle", sub(i, 0), length=41), OK),
        # Single edges: the cycle61 solves set the tail, so their cost must
        # not swing with the seed's random multiplicities.
        ("cycle61", lambda i: _gen("multicycle", sub(i, 0), length=61, max_parallel=1), OK),
        ("petersen1", lambda i: _gen("petersen", sub(i, 0), "additive", parallel_copies=1), OK),
        ("petersen2", lambda i: _gen("petersen", sub(i, 0), "unit_demand", parallel_copies=2), OK),
        ("petersen3", lambda i: _gen("petersen", sub(i, 0), "budget_additive", parallel_copies=3), OK),
        ("k4plus2", lambda i: k4_plus_two(rng(i)), OK),
        ("triangle2", lambda i: doubled_triangle(rng(i)), OK),
        ("tree4+cycle5", lambda i: disjoint_union([
            _gen("multitree", sub(i, 0), n=4), _gen("multicycle", sub(i, 1), length=5)]), OK),
        ("tree10+petersen1", lambda i: disjoint_union([
            _gen("multitree", sub(i, 0), n=10), _gen("petersen", sub(i, 1), parallel_copies=1)]), OK),
        # Complete 4x4: one bipartite component on every seed.  At edge
        # probability 1/2 some seeds split it into two phase-based
        # components, which is the known crash, not this shape.
        ("tree10+bip4x4+triangle2", lambda i: disjoint_union([
            _gen("multitree", sub(i, 0), n=10),
            _gen("bipartite", sub(i, 1), n_left=4, n_right=4, edge_prob=(1, 1)),
            doubled_triangle(rng(i))]), OK),
        ("cycle4+cycle4", lambda i: disjoint_union([
            _gen("multicycle", sub(i, 0), length=4), _gen("multicycle", sub(i, 1), length=4)]),
         DEFECT),
        ("cycle5+cycle5", lambda i: disjoint_union([
            _gen("multicycle", sub(i, 0), length=5), _gen("multicycle", sub(i, 1), length=5)]),
         DEFECT),
        ("cycle4+cycle5", lambda i: disjoint_union([
            _gen("multicycle", sub(i, 0), length=4), _gen("multicycle", sub(i, 1), length=5)]),
         DEFECT),
        ("mycielski5", lambda i: mycielski5(rng(i)), UNSUPPORTED),
    ]
    for i, (label, make, expect) in enumerate(shapes):
        yield f"{i:02d}-{label}", expect, make(i)


def _batch_cases(seed: int):
    for i, kind in enumerate(("additive", "additive", "table")):
        yield f"{i}-tree40-{kind}", OK, _gen("multitree", subseed(seed, i), kind, n=40)
    for i, kind in enumerate(CANCELLABLE_KINDS, start=3):
        inst = _gen("bipartite", subseed(seed, i), kind, n_left=16, n_right=16)
        yield f"{i}-bip16x16-{kind}", OK, inst


_BUILDERS = {
    "tree": _tree_cases,
    "bipartite": _bipartite_cases,
    "dispatch": _dispatch_cases,
    "batch": _batch_cases,
}


def build(workload: str, seed: int, directory: Path, groups: int) -> list[list[Case]]:
    """Write each group's instance files into ``directory``/g<group>."""
    out = []
    for g in range(groups):
        group_dir = directory / f"g{g:02d}"
        group_dir.mkdir(parents=True)
        cases = []
        for stem, expect, inst in _BUILDERS[workload](subseed(seed, workload, g)):
            path = group_dir / f"{stem}.instance.json"
            save_instance(inst, [f"a{i}" for i in range(inst.graph.vertex_count)], path)
            cases.append(Case(f"g{g:02d}/{stem}", path, **expect))
        out.append(cases)
    return out
