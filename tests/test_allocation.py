import random

import pytest

from graphefx import (
    Additive,
    Allocation,
    InputError,
    Instance,
    MultiGraph,
    envy_graph,
    is_efx,
    resolve_cycle,
)
from graphefx.allocation import find_envy_cycle, find_source_with_path
from graphefx.allocation import EnvyGraph
from graphefx.solvers import tree_efx
from graphefx.valuation import Valuation

from .conftest import (
    naive_is_efx,
    random_allocation,
    random_instance,
    random_mixed_instance,
    reference_efx_witness,
    reference_envy_edges,
)


def _two_agent_instance(v0, v1):
    g = MultiGraph(2, [(0, 1)] * max(len(v0), len(v1), 1))
    return Instance(
        graph=g,
        valuations={0: Additive(values=v0), 1: Additive(values=v1)},
    )


def test_envy_graph_basics():
    inst = _two_agent_instance({0: 5}, {0: 1})
    assert envy_graph(inst, Allocation.empty()).edges == ()
    eg = envy_graph(inst, Allocation(bundles={1: frozenset({0})}))
    assert eg.edges == ((0, 1),)


def test_envy_graph_rejects_unknown_edges():
    inst = _two_agent_instance({0: 5}, {0: 1})
    with pytest.raises(InputError):
        envy_graph(inst, Allocation(bundles={0: frozenset({9})}))


def test_is_efx_singleton_removal():
    inst = _two_agent_instance({0: 5}, {0: 1})
    verdict = is_efx(inst, Allocation(bundles={1: frozenset({0})}))
    assert verdict.ok and verdict.witness is None


def test_is_efx_witness():
    inst = _two_agent_instance({0: 5, 1: 5}, {0: 1, 1: 1})
    verdict = is_efx(inst, Allocation(bundles={1: frozenset({0, 1})}))
    assert not verdict.ok
    assert verdict.witness == (0, 1, 0)


def test_is_efx_b1_worked_allocation(b1_instance):
    alloc = Allocation(bundles={0: frozenset({0, 3}), 1: frozenset({1}), 2: frozenset({2})})
    assert is_efx(b1_instance, alloc).ok


def test_resolve_cycle_shift():
    alloc = Allocation(bundles={0: frozenset({0}), 1: frozenset({1}), 2: frozenset({2}),
                                3: frozenset({3})})
    out = resolve_cycle(alloc, [0, 1, 2])
    assert out.bundle(0) == {1}
    assert out.bundle(1) == {2}
    assert out.bundle(2) == {0}
    assert out.bundle(3) == {3}
    swapped = resolve_cycle(alloc, [0, 1])
    assert swapped.bundle(0) == {1} and swapped.bundle(1) == {0}


def test_resolve_cycle_validation():
    alloc = Allocation(bundles={0: frozenset({0})})
    with pytest.raises(InputError):
        resolve_cycle(alloc, [0])
    with pytest.raises(InputError):
        resolve_cycle(alloc, [0, 1, 0])


def test_resolve_cycle_preserves_partition():
    rng = random.Random(3)
    for _ in range(50):
        inst = random_instance(rng)
        n, m = inst.graph.vertex_count, inst.graph.edge_count
        bundles = {}
        for g in range(m):
            bundles.setdefault(rng.randrange(n), set()).add(g)
        alloc = Allocation(bundles={u: frozenset(b) for u, b in bundles.items()})
        cycle = rng.sample(range(n), rng.randint(2, n))
        out = resolve_cycle(alloc, cycle)
        assert out.assigned_edges == alloc.assigned_edges


def test_resolve_genuine_cycle_weakly_improves():
    rng = random.Random(29)
    improved_runs = 0
    for _ in range(400):
        inst = random_instance(rng)
        n, m = inst.graph.vertex_count, inst.graph.edge_count
        bundles = {}
        for g in range(m):
            bundles.setdefault(rng.randrange(n), set()).add(g)
        alloc = Allocation(bundles={u: frozenset(b) for u, b in bundles.items()})
        cycle = find_envy_cycle(envy_graph(inst, alloc))
        if cycle is None:
            continue
        out = resolve_cycle(alloc, cycle)
        gains = [
            inst.valuations[u].value(out.bundle(u)) - inst.valuations[u].value(alloc.bundle(u))
            for u in cycle
        ]
        assert all(gain >= 0 for gain in gains)
        assert any(gain > 0 for gain in gains)
        improved_runs += 1
    assert improved_runs > 10  # the sample must actually contain envy cycles


def test_is_efx_agrees_with_naive_reimplementation():
    rng = random.Random(59)
    for _ in range(1000):
        inst = random_instance(rng)
        alloc = random_allocation(rng, inst)
        assert is_efx(inst, alloc).ok == naive_is_efx(inst, alloc)


def test_ef_implies_efx():
    rng = random.Random(83)
    for _ in range(200):
        inst = random_instance(rng)
        n, m = inst.graph.vertex_count, inst.graph.edge_count
        bundles = {}
        for g in range(m):
            bundles.setdefault(rng.randrange(n), set()).add(g)
        alloc = Allocation(bundles={u: frozenset(b) for u, b in bundles.items()})
        if not envy_graph(inst, alloc).edges:
            assert is_efx(inst, alloc).ok


def test_find_source_with_path():
    edgeless = EnvyGraph(vertex_count=3, edges=())
    assert find_source_with_path(edgeless, 1) is None
    single = EnvyGraph(vertex_count=3, edges=((0, 2),))
    assert find_source_with_path(single, 2) == (0, [0, 2])
    chain = EnvyGraph(vertex_count=3, edges=((0, 1), (1, 2)))
    assert find_source_with_path(chain, 2) == (0, [0, 1, 2])


def test_local_checks_match_all_pairs_reference():
    rng = random.Random(17)
    families = set()
    partial = empty_bundle = witnesses = 0
    for _ in range(1200):
        inst = random_mixed_instance(rng)
        alloc = random_allocation(rng, inst)
        n = inst.graph.vertex_count
        families |= {type(v).__name__ for v in inst.valuations.values()}
        partial += not alloc.is_complete(inst)
        empty_bundle += len(alloc.bundles) < n
        eg = envy_graph(inst, alloc)
        assert eg.edges == reference_envy_edges(inst, alloc)
        for v in range(n):
            assert eg.out_neighbours(v) == [w for a, w in eg.edges if a == v]
            assert eg.in_neighbours(v) == [a for a, w in eg.edges if w == v]
        witness = reference_efx_witness(inst, alloc)
        verdict = is_efx(inst, alloc)
        assert (verdict.ok, verdict.witness) == (witness is None, witness)
        assert is_efx(inst, alloc, eg) == verdict
        witnesses += witness is not None
    assert families == {"Additive", "UnitDemand", "BudgetAdditive", "Table"}
    assert partial > 100 and empty_bundle > 100 and witnesses > 100


class CountingValuation(Valuation):
    """Delegates to ``inner`` and counts every value query in ``counter[0]``."""

    def __init__(self, inner: Valuation, counter: list[int]):
        self.inner = inner
        self.counter = counter

    def value(self, bundle):
        self.counter[0] += 1
        return self.inner.value(bundle)

    @property
    def support(self):
        return self.inner.support


def test_local_checks_query_count_is_linear():
    # A 300-vertex path with 1-3 parallel goods per link and an EFX allocation,
    # so is_efx scans every agent instead of stopping at a witness.
    c = 4
    rng = random.Random(7)
    n = 300
    pairs = [p for i in range(n - 1) for p in [(i, i + 1)] * rng.randint(1, 3)]
    g = MultiGraph(n, pairs)
    counter = [0]
    inst = Instance(
        graph=g,
        valuations={
            u: CountingValuation(
                Additive(values={e: rng.randint(0, 100) for e in g.incident_edges(u)}), counter
            )
            for u in range(n)
        },
    )
    alloc, _ = tree_efx(inst)
    assert alloc.is_complete(inst)
    counter[0] = 0
    envy_graph(inst, alloc)
    assert is_efx(inst, alloc).ok
    assert 0 < counter[0] <= c * (n + g.edge_count)
