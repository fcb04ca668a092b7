"""Growth laws: the counts that measure a solve's cost grow linearly in n + m.

Each ladder doubles an instance family's n + m about twice.  From one rung to
the next, every count may grow by at most ``LAW`` times the growth of n + m.
So a layer that turns superlinear fails here on a count, on any host, without
reading a clock.  The counts are the valuation queries of ``solve``,
``is_efx`` and ``audit_trace``, counted on the four valuation classes so that
each keeps its own code paths, and the number of trace events.

Left out, because they grow faster today (ROADMAP item 15): the bytes of a
trace file and the queries of a cut on a loop of many goods.
"""

import pytest

from graphefx import is_efx, solve
from graphefx.audit import audit_trace
from graphefx.generators import gen_bipartite, gen_multicycle, gen_multitree
from graphefx.valuation import KINDS

LAW = 1.15
SEEDS = (1, 3, 7)

# ladder -> (instance of a seed and a rung, the rungs)
LADDERS = {
    **{f"multitree-{kind}": (lambda seed, n, kind=kind: gen_multitree(
        seed=seed, n=n, valuation_kind=kind), (200, 400, 800)) for kind in KINDS},
    "multicycle": (lambda seed, length: gen_multicycle(seed=seed, length=length),
                   (201, 401, 801)),
    **{f"bipartite-{kind}": (lambda seed, k, kind=kind: gen_bipartite(
        seed=seed, n_left=k, n_right=k, valuation_kind=kind), (15, 30, 60))
       for kind in ("additive", "budget_additive", "unit_demand")},
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
                f"{count}: {counts[i - 1][count]} -> {counts[i][count]} queries or events"
                f" while n + m went {sizes[i - 1]} -> {sizes[i]}")
