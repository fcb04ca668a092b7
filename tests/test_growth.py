"""Growth laws: the counts that measure a solve's cost grow linearly in n + m.

Each ladder doubles an instance family's n + m about twice.  From one rung to
the next, every count may grow by at most ``LAW`` times the growth of n + m.
So a layer that turns superlinear fails here on a count, on any host, without
reading a clock.  The counts are the valuation queries of ``solve``,
``is_efx`` and ``audit_trace``, counted on the four valuation classes so that
each keeps its own code paths, the number of trace events, and the goods
that the step events' moves name.

Beside the generators' families, two hub shapes: a star multi-tree, whose
hub takes every leaf's leftover, and K_{2,n}, whose two roots each resolve a
structure of n right neighbours.

Left out, because they grow faster today (ROADMAP item 15): the bytes of a
trace file and the queries of a cut on a loop of many goods.
"""

import random

import pytest

from graphefx import Additive, Instance, MultiGraph, is_efx, solve
from graphefx.audit import audit_trace
from graphefx.generators import gen_bipartite, gen_multicycle, gen_multitree
from graphefx.trace import ColoringUsed
from graphefx.valuation import KINDS

LAW = 1.15
SEEDS = (1, 3, 7)


def _additive(rng, pairs, n):
    """The multi-graph of ``pairs`` on n agents, with additive values 0..100."""
    graph = MultiGraph(n, pairs)
    return Instance(graph=graph, valuations={u: Additive(values={
        g: rng.randint(0, 100) for g in sorted(graph.incident_edges(u))}) for u in range(n)}), None


def star(seed, n):
    """The star multi-tree on n agents with hub 0, 1-3 parallel goods per edge."""
    rng = random.Random(seed)
    return _additive(rng, [(0, v) for v in range(1, n) for _ in range(rng.randint(1, 3))], n)


def k2n(seed, n):
    """K_{2,n}: agents 0 and 1 joined to each of agents 2..n+1 by 1-2 parallel goods."""
    rng = random.Random(seed)
    return _additive(rng, [(a, b) for b in range(2, n + 2) for a in (0, 1)
                           for _ in range(rng.randint(1, 2))], n + 2)


# ladder -> (instance of a seed and a rung, the rungs)
LADDERS = {
    **{f"multitree-{kind}": (lambda seed, n, kind=kind: gen_multitree(
        seed=seed, n=n, valuation_kind=kind), (200, 400, 800)) for kind in KINDS},
    "multicycle": (lambda seed, length: gen_multicycle(seed=seed, length=length),
                   (201, 401, 801)),
    **{f"bipartite-{kind}": (lambda seed, k, kind=kind: gen_bipartite(
        seed=seed, n_left=k, n_right=k, valuation_kind=kind), (15, 30, 60))
       for kind in ("additive", "budget_additive", "unit_demand")},
    "star": (star, (500, 1000, 2000)),
    "k2n": (k2n, (250, 500, 1000)),
}


@pytest.fixture
def queries(monkeypatch):
    """A one-item list counting every ``value`` call of the valuation classes."""
    count = [0]

    def counted(value):
        def counting(self, bundle):
            count[0] += 1
            return value(self, bundle)
        return counting

    for cls in KINDS.values():
        monkeypatch.setattr(cls, "value", counted(cls.value))
    return count


def _counts(inst, queries) -> dict[str, int]:
    """The counts of one solve of ``inst``, its EFX check and its audit."""
    counts = {}
    queries[0] = 0
    alloc, _, trace = solve(inst)
    counts["solve"], queries[0] = queries[0], 0
    assert is_efx(inst, alloc).ok
    counts["is_efx"], queries[0] = queries[0], 0
    assert audit_trace(inst, trace).ok
    counts["audit_trace"] = queries[0]
    counts["trace events"] = len(trace)
    counts["moved goods"] = sum(len(ev.moves) for ev in trace if not isinstance(ev, ColoringUsed))
    return counts


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("ladder", LADDERS)
def test_counts_grow_linearly_in_the_instance(queries, ladder, seed):
    make, rungs = LADDERS[ladder]
    sizes, counts = [], []
    for rung in rungs:
        inst, _ = make(seed, rung)
        sizes.append(inst.graph.vertex_count + inst.graph.edge_count)
        counts.append(_counts(inst, queries))
    for count in counts[0]:
        if not counts[0][count]:  # a tree's audit makes no queries
            continue
        for i in range(1, len(rungs)):
            growth = counts[i][count] / counts[i - 1][count]
            assert growth <= LAW * sizes[i] / sizes[i - 1], (
                f"{count}: {counts[i - 1][count]} -> {counts[i][count]} queries, events or goods"
                f" while n + m went {sizes[i - 1]} -> {sizes[i]}")
