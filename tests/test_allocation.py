import pickle
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from graphefx.allocation import EnvyGraph
from graphefx.errors import PreconditionError
from graphefx.generators import VALUATION_KINDS, gen_multitree
from graphefx.solvers import _attach_order, tree_efx

from .conftest import (
    CountingValuation,
    Digraph,
    folded,
    naive_is_efx,
    random_allocation,
    random_instance,
    random_mixed_instance,
    reference_efx_witness,
    reference_envy_edges,
    reference_find_envy_cycle,
    reference_tree_efx,
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
    empties = Counter()  # whether the cycle runs through an agent that holds nothing
    for _ in range(200):
        inst = random_instance(rng)
        n, m = inst.graph.vertex_count, inst.graph.edge_count
        bundles = {}
        for g in range(m):
            bundles.setdefault(rng.randrange(n), set()).add(g)
        alloc = Allocation(bundles={u: frozenset(b) for u, b in bundles.items()})
        cycle = rng.sample(range(n), rng.randint(2, n))
        out = resolve_cycle(alloc, cycle)
        assert out.assigned_edges == alloc.assigned_edges
        shifted = {u: alloc.bundle(w) for u, w in zip(cycle, cycle[1:] + cycle[:1])}
        want = Allocation(bundles={**alloc.bundles, **shifted})
        assert out == want and list(out.bundles.items()) == list(want.bundles.items())
        empties[sum(not alloc.bundle(u) for u in cycle) > 0] += 1
    assert empties[True] > 10 and empties[False] > 10, empties


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
        cycle = reference_find_envy_cycle(envy_graph(inst, alloc), n)
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
        witnesses += witness is not None
    assert families == {"Additive", "UnitDemand", "BudgetAdditive", "Table"}
    assert partial > 100 and empty_bundle > 100 and witnesses > 100


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
    # Building the envy graph values each agent's own bundle once and each
    # rival's bundle once, and skips agents without rivals.
    holder = {x: w for w, b in alloc.bundles.items() for x in b}
    rivals = [{holder[x] for x in g.incident_edges(u)} - {u} for u in range(n)]
    counter[0] = 0
    envy_graph(inst, alloc)
    assert counter[0] == sum(1 + len(r) for r in rivals if r)
    assert is_efx(inst, alloc).ok
    assert 0 < counter[0] <= c * (n + g.edge_count)


def test_allocation_bundles_are_read_only():
    alloc = Allocation(bundles={0: {1}, 1: frozenset(), 2: [0, 2]})
    assert alloc == Allocation(bundles={0: frozenset({1}), 2: frozenset({0, 2})})
    assert alloc != Allocation(bundles={0: frozenset({1})})
    assert dict(alloc.bundles) == {0: {1}, 2: {0, 2}}
    with pytest.raises(TypeError):
        alloc.bundles[1] = frozenset({1})
    with pytest.raises(TypeError):
        del alloc.bundles[0]
    with pytest.raises(InputError, match="not disjoint at agent 2"):
        Allocation(bundles={0: {1}, 1: {2}, 2: {3, 1}})


def test_allocation_pickle_round_trip():
    alloc = Allocation(bundles={0: frozenset({1}), 3: frozenset({0, 2})})
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(alloc, protocol))
        assert copy == alloc and copy.bundles is not alloc.bundles
        with pytest.raises(TypeError):
            copy.bundles[0] = frozenset()


def _random_update(rng, inst, alloc):
    """One bundle change of a kind the tree solver makes, or a harder one.

    Returns (kind, new allocation, the agents whose bundles changed).
    """
    n, m = inst.graph.vertex_count, inst.graph.edge_count
    holder = {g: w for w, b in alloc.bundles.items() for g in b}
    kind = rng.choice(("leaf", "cycle", "hand", "withdraw"))
    bundles = dict(alloc.bundles)
    if kind == "leaf" or not holder:
        # up to two agents take unallocated goods incident to them
        kind, changed = "leaf", rng.sample(range(n), min(n, 2))
        for u in changed:
            free = sorted(g for g in inst.graph.incident_edges(u) if g not in holder)
            take = frozenset(g for g in free if rng.random() < 0.5)
            holder.update(dict.fromkeys(take, u))
            bundles[u] = alloc.bundle(u) | take
        return kind, Allocation(bundles=bundles), changed
    if kind == "cycle":
        changed = rng.sample(range(n), rng.randint(2, min(n, 5)))
        return kind, resolve_cycle(alloc, changed), changed
    g = rng.choice(sorted(holder))
    h = holder[g]
    bundles[h] = alloc.bundle(h) - {g}
    if kind == "withdraw":
        return kind, Allocation(bundles=bundles), [h]
    # hand g to an agent that is not one of its endpoints when there is one
    others = [z for z in range(n) if z not in inst.graph.endpoints(g)] or [
        z for z in range(n) if z != h]
    z = rng.choice(others)
    bundles[z] = alloc.bundle(z) | {g}
    return kind, Allocation(bundles=bundles), [h, z]


def _assert_rival_counts(envy):
    """Each agent's rival counts equal a count, from scratch, of the holders
    of its incident goods, and ``rivals`` names exactly the counted agents."""
    inst, holder = envy.inst, envy.holder
    for u in range(inst.graph.vertex_count):
        want = Counter(holder[g] for g in inst.graph.incident_edges(u)
                       if g in holder and holder[g] != u)
        assert envy._count.get(u, {}) == want, u
        assert envy.rivals(u) == want.keys()


def _steps_of_interest(inst, before, after):
    """Which of (a good held by an agent that is not its endpoint, a bundle
    the step emptied) ``after`` shows."""
    held_away = any(w not in inst.graph.endpoints(g) for w, b in after.bundles.items() for g in b)
    emptied = any(b and not after.bundle(u) for u, b in before.bundles.items())
    return held_away, emptied


def test_envy_graph_matches_from_scratch_after_every_update():
    rng = random.Random(31)
    ops = Counter()
    families = set()
    instances = [gen_multitree(seed=seed, n=rng.randint(3, 12), max_parallel=3, value_max=20,
                               valuation_kind=kind)[0]
                 for kind in VALUATION_KINDS for seed in range(8)]
    instances += [random_mixed_instance(rng) for _ in range(60)]
    for inst in instances:
        n = inst.graph.vertex_count
        families |= {type(v).__name__ for v in inst.valuations.values()}
        alloc = random_allocation(rng, inst) if rng.random() < 0.3 else Allocation.empty()
        envy = EnvyGraph(inst, alloc)
        reads = []  # (envy.alloc read before a step, the allocation it was)
        for _ in range(25):
            reads.append((envy.alloc, alloc))
            before = alloc
            kind, alloc, changed = _random_update(rng, inst, alloc)
            ops[kind] += 1
            envy.step({u: alloc.bundle(u) for u in changed})
            assert envy.alloc == alloc
            _assert_rival_counts(envy)
            held_away, emptied = _steps_of_interest(inst, before, alloc)
            ops["held by a non-endpoint"] += held_away
            ops["emptied"] += emptied
            edges = reference_envy_edges(inst, alloc)
            assert envy.edges == edges
            for v in range(n):
                assert envy.out_neighbours(v) == [w for a, w in edges if a == v]
                assert envy.in_neighbours(v) == [a for a, w in edges if w == v]
                assert envy.envies(v, (v + 1) % n) == ((v, (v + 1) % n) in edges)
        assert all(read == was for read, was in reads)  # never a live view of the stepped map
    assert families == {"Additive", "UnitDemand", "BudgetAdditive", "Table"}
    assert min(ops.values()) > 200, ops  # every kind, goods held away and emptied bundles


def _state(envy):
    # rivals(u) is a live view, so the state holds copies
    n = envy.inst.graph.vertex_count
    return (envy.alloc, envy.edges, dict(envy.holder),
            [(frozenset(envy.rivals(u)), dict(envy._count.get(u, {}))) for u in range(n)])


def _unknown_id_step(rng, inst, envy):
    """Changes naming an agent or a good the instance does not have, and the
    message's end."""
    n, m = inst.graph.vertex_count, inst.graph.edge_count
    u = rng.randrange(n)
    return rng.choice((({n: set()}, f"unknown agent {n}"),
                       ({u: set(), -1: envy.bundle(u)}, "unknown agent -1"),
                       ({u: envy.bundle(u) | {m}}, f"unknown edge {m}"),
                       ({u: {-2}}, "unknown edge -2")))


def _overlapping_step(rng, inst, alloc):
    """Changes that hand one good to two agents, or to an agent beside its
    holder; when the holder gives the good up in the same step, to two others."""
    n, m = inst.graph.vertex_count, inst.graph.edge_count
    g = rng.randrange(m)
    holder = [u for u, b in alloc.bundles.items() if g in b]
    others = [u for u in range(n) if u not in holder]
    changes = {}
    if holder and len(others) > 1 and rng.random() < 0.5:
        changes[holder[0]] = alloc.bundle(holder[0]) - {g}
        holder = []
    for u in rng.sample(others, 1 if holder else 2):
        changes[u] = alloc.bundle(u) | {g}
    return changes


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(st.integers(0, 2 ** 32 - 1))
def test_envy_graph_step_matches_from_scratch(seed):
    rng = random.Random(seed)
    inst = random_mixed_instance(rng, n_max=6, m_max=9)
    alloc = random_allocation(rng, inst) if rng.random() < 0.3 else Allocation.empty()
    envy = EnvyGraph(inst, alloc)
    _assert_rival_counts(envy)
    for _ in range(12):
        if inst.graph.edge_count and rng.random() < 0.25:
            changes = _overlapping_step(rng, inst, envy.alloc)
            with pytest.raises(InputError) as want:
                Allocation(bundles={**envy.alloc.bundles, **changes})
            before = _state(envy)
            with pytest.raises(InputError, match=f"^{want.value}$"):
                envy.step(changes)
            assert _state(envy) == before
            continue
        if rng.random() < 0.15:
            changes, message = _unknown_id_step(rng, inst, envy)
            before = _state(envy)
            with pytest.raises(InputError, match=f"^allocation references {message}$"):
                envy.step(changes)
            assert _state(envy) == before
            continue
        _, alloc, changed = _random_update(rng, inst, envy.alloc)
        held = dict(envy.holder)
        moved = envy.step({u: alloc.bundle(u) for u in changed})
        _assert_rival_counts(envy)
        assert _state(envy) == _state(EnvyGraph(inst, alloc))
        assert moved == {g for g in range(inst.graph.edge_count)
                         if envy.holder.get(g) != held.get(g)}


def test_envy_graph_update_validates_changed_bundles():
    inst = _two_agent_instance({0: 5}, {0: 1})
    envy = EnvyGraph(inst, Allocation.empty())
    with pytest.raises(InputError, match="allocation references unknown edge 9"):
        envy.step({0: {9}})
    with pytest.raises(InputError, match="allocation references unknown agent 4"):
        envy.step({4: {0}})
    with pytest.raises(InputError, match="allocation references unknown edge 9"):
        EnvyGraph(inst, Allocation(bundles={1: frozenset({9})}))


def test_tree_efx_shifts_only_right_after_an_attachment():
    # An attachment shifts bundles at most once, right after it, and no
    # envy cycle is left for a later search to find.
    shifts = 0
    for kind in VALUATION_KINDS:
        for seed in range(2):
            inst, _ = gen_multitree(seed=seed, n=200, max_parallel=3, value_max=10,
                                    valuation_kind=kind)
            alloc, trace = tree_efx(inst)
            assert alloc.is_complete(inst)
            kinds = [ev.kind for ev in trace]
            assert all(i > 0 and kinds[i - 1] == "leaf_attached"
                       for i, k in enumerate(kinds) if k == "cycle_resolved"), (kind, seed)
            shifts += kinds.count("cycle_resolved")
    assert shifts > 0


@pytest.mark.parametrize("enviers", [
    lambda n, w: [(w + 1) % n],  # a loop through every agent, the parent too
    lambda n, w: [n - 1] if w != n - 1 else [n - 2],  # a loop of two agents above the parent
])
def test_tree_efx_raises_when_the_enviers_loop(monkeypatch, enviers):
    # A broken tree lemma must raise, not walk the loop forever.
    inst, _ = gen_multitree(seed=0, n=8, max_parallel=2, value_max=10)
    _, parent = _attach_order(inst.graph, None)[0]
    assert parent < 6  # so the second loop is above it
    monkeypatch.setattr(EnvyGraph, "in_neighbours", lambda self, w: enviers(8, w))
    with pytest.raises(PreconditionError,
                       match=f"^the walk up the enviers of agent {parent} meets a cycle$"):
        tree_efx(inst)


def _envy_edges(inst, snapshot):
    return reference_envy_edges(inst, Allocation(bundles=snapshot))


def _acyclic(inst, edges):
    n = inst.graph.vertex_count
    return reference_find_envy_cycle(Digraph(n, edges), n) is None


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 14), st.integers(1, 5),
       st.sampled_from(VALUATION_KINDS))
def test_tree_efx_envy_graph_is_a_forest_of_out_trees(seed, n, max_parallel, kind):
    # The tree lemma (README): every agent has at most one envier after
    # every event, and the envy graph is acyclic before every attachment
    # and after every event that no shift follows.
    inst, _ = gen_multitree(seed=seed, n=n, max_parallel=max_parallel, value_max=10,
                            valuation_kind=kind)
    events = folded(tree_efx(inst)[1])
    held = {}  # the bundles before the current event
    for i, ev in enumerate(events):
        if ev["type"] == "leaf_attached":
            assert _acyclic(inst, _envy_edges(inst, held)), (i, held)
        edges = _envy_edges(inst, ev["snapshot"])
        enviers = Counter(w for _, w in edges)
        assert max(enviers.values(), default=0) <= 1, (i, edges)
        if i + 1 == len(events) or events[i + 1]["type"] != "cycle_resolved":
            assert _acyclic(inst, edges), (i, edges)
        held = ev["snapshot"]


def test_tree_efx_query_count_is_linear():
    # The stepped envy graph values a rival only when a changed bundle can
    # affect the pair: about 3.7 (n + m) queries here.  Rebuilding the envy graph for
    # every leaf took about 336 (n + m) on this instance, and grows with n.
    n = 800
    plain, _ = gen_multitree(seed=8, n=n, max_parallel=3, value_max=100)
    counter = [0]
    inst = Instance(graph=plain.graph, valuations={
        u: CountingValuation(v, counter) for u, v in plain.valuations.items()})
    alloc, trace = tree_efx(inst)
    assert 0 < counter[0] <= 8 * (n + plain.graph.edge_count)
    assert (alloc, folded(trace)) == reference_tree_efx(plain)
