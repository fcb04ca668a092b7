import random

import pytest

from graphefx import Additive, Allocation, BudgetAdditive, Instance, MultiGraph, Table, UnitDemand
from graphefx.generators import VALUATION_KINDS, _make_valuation


@pytest.fixture
def b1_instance():
    """Bipartite fixture B1: root a with two right neighbours b, c."""
    g = MultiGraph(3, [(0, 1), (0, 1), (0, 2), (0, 2)])
    return Instance(
        graph=g,
        valuations={
            0: Additive(values={0: 8, 1: 1, 2: 5, 3: 4}),
            1: Additive(values={0: 3, 1: 3}),
            2: Additive(values={2: 6, 3: 1}),
        },
    )


@pytest.fixture
def noncancellable_table():
    return Table(
        entries={
            frozenset(): 0,
            frozenset({0}): 3,
            frozenset({1}): 2,
            frozenset({0, 1}): 3,
            frozenset({2}): 1,
            frozenset({0, 2}): 3,
            frozenset({1, 2}): 5,
            frozenset({0, 1, 2}): 5,
        }
    )


def random_family_valuation(rng: random.Random, kind: str, goods, value_max=20):
    values = {g: rng.randint(0, value_max) for g in goods}
    if kind == "additive":
        return Additive(values=values)
    if kind == "unit_demand":
        return UnitDemand(values=values)
    if kind == "budget_additive":
        return BudgetAdditive(values=values, cap=rng.randint(1, max(1, sum(values.values()))))
    raise ValueError(kind)


def random_instance(rng: random.Random, n_max=4, m_max=6, value_max=10):
    """Small random instance with additive valuations, for oracle-style tests."""
    n = rng.randint(2, n_max)
    m = rng.randint(0, m_max)
    pairs = []
    for _ in range(m):
        u = rng.randrange(n)
        w = rng.randrange(n)
        while w == u:
            w = rng.randrange(n)
        pairs.append((u, w))
    g = MultiGraph(n, pairs)
    vals = {
        u: Additive(
            values={e: rng.randint(0, value_max) for e in g.incident_edges(u)}
        )
        for u in range(n)
    }
    return Instance(graph=g, valuations=vals)


def tamper_trace(inst, trace, family):
    """A copy of ``trace`` with one event edited so ``family`` must fail.

    Returns None when no edit of this trace can demonstrably break the family
    (callers then try another instance).
    """
    import dataclasses

    from graphefx.audit import audit_trace
    from graphefx.trace import StructureResolved

    def fails(candidate):
        applicable, msgs = audit_trace(inst, candidate).results[family]
        return applicable and msgs

    indices = [i for i, ev in enumerate(trace) if isinstance(ev, StructureResolved)]
    for i in indices:
        ev = trace[i]
        if family == "good_movement":
            bad = dataclasses.replace(ev, transfers=((0, ev.root, ev.root),))
            candidate = trace[:i] + [bad] + trace[i + 1:]
            if fails(candidate):
                return candidate
            continue
        holders = sorted(ev.snapshot)
        for holder in holders:
            for g in sorted(ev.snapshot[holder]):
                for target in range(inst.graph.vertex_count):
                    if target == holder:
                        continue
                    snap = {u: set(b) for u, b in ev.snapshot.items()}
                    snap[holder].discard(g)
                    snap.setdefault(target, set()).add(g)
                    bad = dataclasses.replace(
                        ev, snapshot={u: frozenset(b) for u, b in snap.items() if b}
                    )
                    candidate = trace[:i] + [bad] + trace[i + 1:]
                    if fails(candidate):
                        return candidate
    return None


def naive_is_efx(inst, alloc):
    """Independent EFX predicate: plain double loop, no early exits, no sharing."""
    n = inst.graph.vertex_count
    violations = []
    for u in range(n):
        for w in range(n):
            if u == w:
                continue
            own = inst.valuations[u].value(alloc.bundle(u))
            other = alloc.bundle(w)
            if not other:
                continue
            for x in other:
                if own < inst.valuations[u].value(other - {x}):
                    violations.append((u, w, x))
    return len(violations) == 0


def reference_envy_edges(inst, alloc):
    """All-pairs envy relation: every (u, w) with u != w, in lexicographic order."""
    n = inst.graph.vertex_count
    edges = []
    for u in range(n):
        own = inst.valuations[u].value(alloc.bundle(u))
        for w in range(n):
            if w != u and own < inst.valuations[u].value(alloc.bundle(w)):
                edges.append((u, w))
    return tuple(edges)


def reference_efx_witness(inst, alloc):
    """All-pairs EFX check: the first (envier, envied, good) violation, or None."""
    n = inst.graph.vertex_count
    for u in range(n):
        val = inst.valuations[u]
        own = val.value(alloc.bundle(u))
        for w in range(n):
            if w == u:
                continue
            other = alloc.bundle(w)
            if own >= val.value(other):
                continue
            for x in sorted(other):
                if own < val.value(other - {x}):
                    return (u, w, x)
    return None


def random_mixed_instance(rng: random.Random, n_max=5, m_max=7, value_max=10):
    """Small random instance mixing all four valuation families.

    Each agent values a random subset of its incident goods, so some incident
    goods are worth nothing to it; tables fall back to additive above four goods.
    """
    n = rng.randint(2, n_max)
    pairs = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, m_max))]
    g = MultiGraph(n, pairs)
    vals = {}
    for u in range(n):
        goods = [e for e in sorted(g.incident_edges(u)) if rng.random() < 0.8]
        vals[u] = _make_valuation(rng, rng.choice(VALUATION_KINDS), goods, value_max)
    return Instance(graph=g, valuations=vals)


def random_allocation(rng: random.Random, inst):
    """Random partial allocation: any agent may hold any good, some stay unassigned."""
    n = inst.graph.vertex_count
    bundles = {}
    for g in range(inst.graph.edge_count):
        holder = rng.randrange(n + 1)  # n leaves the good unassigned
        if holder < n:
            bundles.setdefault(holder, set()).add(g)
    return Allocation(bundles={u: frozenset(b) for u, b in bundles.items()})


def reference_chromatic(graph):
    """The dispatcher's chromatic rule before girth-first classification.

    The smallest coloring with t <= 4 by exact search, accepted only when the
    girth is at least 2t-1.  Returns that coloring, or None.
    """
    col = graph.find_coloring(4)
    if col is not None and graph.girth() >= 2 * col.t - 1:
        return col
    return None


def mycielski_graph(steps):
    """Mycielski's construction applied ``steps`` times to K2 (steps=3 gives M5)."""
    pairs, n = [(0, 1)], 2
    for _ in range(steps):
        step = list(pairs)
        for a, b in pairs:
            step += [(a, n + b), (b, n + a)]
        step += [(n + i, 2 * n) for i in range(n)]
        pairs, n = step, 2 * n + 1
    return MultiGraph(n, pairs)


def gnp_graph(rng: random.Random, n, p, max_parallel=1):
    """Erdos-Renyi G(n, p) on vertices 0..n-1; each chosen pair gets 1..max_parallel goods."""
    pairs = []
    for u in range(n):
        for w in range(u + 1, n):
            if rng.random() < p:
                pairs += [(u, w)] * rng.randint(1, max_parallel)
    return MultiGraph(n, pairs)


def zero_instance(graph):
    """The graph with additive valuations worth nothing: for structural tests."""
    return Instance(graph=graph, valuations={u: Additive(values={}) for u in range(graph.vertex_count)})
