import math
import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphefx import (
    Additive,
    Allocation,
    Coloring,
    InputError,
    Instance,
    MultiGraph,
    PreconditionError,
    Table,
    UnsupportedClassError,
    UnsupportedValuationError,
    brute_force_efx,
    chromatic_efx,
    is_efx,
    solve,
    tree_efx,
)
from graphefx.generators import (
    VALUATION_KINDS,
    gen_bipartite,
    gen_multicycle,
    gen_multitree,
    gen_petersen,
)
from graphefx.oracle import first_efx_allocation
from graphefx.solvers import (
    BRUTE_FORCE_AGENT_MAX,
    BRUTE_FORCE_GOOD_MAX,
    _resolve_structure,
    classify,
    smallest_coloring,
)
from graphefx.trace import (BRANCH_DIFFERENT, ColoringUsed, CycleResolved, LeafAttached,
                            StructureResolved)

from .conftest import (
    K4_PLUS_TWO,
    CountingValuation,
    additive_instance,
    classifier_graphs,
    cycle_pairs,
    folded,
    girth5_chromatic4_graph,
    gnp_graph,
    interleaved_union,
    moved_event,
    mycielski_graph,
    naive_is_efx,
    random_family_valuation,
    random_mixed_instance,
    reference_bipartite_efx,
    reference_brute_force_efx,
    reference_chromatic,
    reference_chromatic_efx,
    reference_shortest_cycle,
    reference_tree_efx,
    unfolded,
    zero_instance,
)

CANCELLABLE_KINDS = ("additive", "unit_demand", "budget_additive")


def test_bipartite_b1_worked_example(b1_instance):
    alloc, trace = chromatic_efx(b1_instance, b1_instance.graph.bipartition())
    assert alloc.bundles == {0: frozenset({0, 3}), 1: frozenset({1}), 2: frozenset({2})}
    assert is_efx(b1_instance, alloc).ok
    events = [ev for ev in trace if isinstance(ev, StructureResolved)]
    assert len(events) == 1
    assert events[0].root == 0 and events[0].branch == BRANCH_DIFFERENT


def test_bipartite_single_edge():
    inst = Instance(
        graph=MultiGraph(2, [(0, 1)]),
        valuations={0: Additive(values={0: 7}), 1: Additive(values={0: 2})},
    )
    alloc, _ = chromatic_efx(inst, inst.graph.bipartition())
    assert alloc.is_complete(inst)
    assert is_efx(inst, alloc).ok


def test_bipartite_edgeless():
    inst = Instance(
        graph=MultiGraph(3, []),
        valuations={u: Additive(values={}) for u in range(3)},
    )
    alloc, _ = chromatic_efx(inst, inst.graph.bipartition())
    assert alloc.bundles == {}
    assert is_efx(inst, alloc).ok


def test_bipartite_rejects_bad_bipartition(b1_instance):
    with pytest.raises(PreconditionError, match="^coloring is not proper: edge 0 joins 0 and 1$"):
        chromatic_efx(b1_instance, Coloring(colors={0: 0, 1: 0, 2: 1}, t=2))
    with pytest.raises(InputError, match="^coloring is missing vertex 2$"):
        chromatic_efx(b1_instance, Coloring(colors={0: 0, 1: 1}, t=2))


def test_bipartite_efx_matches_reference_root_loop():
    # the phase loop at t = 2 reproduces the bipartite solver's own root
    # loop, with either side of the bipartition as the roots
    for kind in CANCELLABLE_KINDS:
        matched = 0
        for seed in range(40):
            inst, _ = gen_bipartite(seed=seed, n_left=3, n_right=4, max_parallel=3,
                                    value_max=30, valuation_kind=kind)
            col = inst.graph.bipartition()
            swapped = Coloring(colors={v: 1 - c for v, c in col.colors.items()}, t=2)
            for coloring in (col, swapped):
                left = frozenset(v for v, c in coloring.colors.items() if c == 0)
                right = frozenset(coloring.colors) - left
                alloc, trace = chromatic_efx(inst, coloring)
                assert (alloc, folded(trace)) == reference_bipartite_efx(inst, (left, right))
                assert len(trace) > 1
                matched += 1
        assert matched == 80


def test_bipartite_rejects_table_valuations():
    inst = Instance(
        graph=MultiGraph(2, [(0, 1)]),
        valuations={
            0: Table(entries={frozenset(): 0, frozenset({0}): 1}),
            1: Additive(values={0: 2}),
        },
    )
    with pytest.raises(UnsupportedValuationError):
        chromatic_efx(inst, inst.graph.bipartition())


def test_tree_two_agent_example():
    inst = Instance(
        graph=MultiGraph(2, [(0, 1)] * 3),
        valuations={
            0: Additive(values={0: 4, 1: 3, 2: 2}),
            1: Additive(values={0: 1, 1: 5, 2: 1}),
        },
    )
    alloc, _ = tree_efx(inst)
    assert alloc.bundle(1) == {1, 2}
    assert alloc.bundle(0) == {0}
    assert is_efx(inst, alloc).ok


def test_tree_zero_valuations():
    inst = Instance(
        graph=MultiGraph(2, [(0, 1), (0, 1)]),
        valuations={0: Additive(values={0: 3, 1: 1}), 1: Additive(values={0: 0, 1: 0})},
    )
    alloc, _ = tree_efx(inst)
    assert alloc.is_complete(inst)
    assert is_efx(inst, alloc).ok


def test_tree_star_matches_oracle():
    rng = random.Random(14)
    for _ in range(20):
        g = MultiGraph(4, [(0, 1), (0, 2), (0, 3), (0, rng.randint(1, 3)), (0, rng.randint(1, 3))])
        vals = {
            u: Additive(values={e: rng.randint(0, 9) for e in g.incident_edges(u)})
            for u in range(4)
        }
        inst = Instance(graph=g, valuations=vals)
        alloc, _ = tree_efx(inst)
        assert is_efx(inst, alloc).ok
        report = brute_force_efx(inst)
        assert report.efx_count >= 1


def test_tree_with_table_valuations():
    rng = random.Random(3)
    for seed in range(15):
        inst, _ = gen_multitree(seed=seed, n=6, max_parallel=2, value_max=9,
                                valuation_kind="table")
        alloc, _ = tree_efx(inst)
        assert alloc.is_complete(inst)
        assert is_efx(inst, alloc).ok
        assert naive_is_efx(inst, alloc)
    del rng


def test_tree_rejects_cycles():
    inst = Instance(
        graph=MultiGraph(3, [(0, 1), (1, 2), (2, 0)]),
        valuations={u: Additive(values={}) for u in range(3)},
    )
    with pytest.raises(PreconditionError):
        tree_efx(inst)


def test_tree_own_value_never_decreases():
    # across trace snapshots no agent's own-bundle value drops
    for seed in range(30):
        inst, _ = gen_multitree(seed=seed, n=7, max_parallel=3, value_max=20)
        _, trace = tree_efx(inst)
        last = {u: 0 for u in range(inst.graph.vertex_count)}
        for ev in folded(trace):
            for u in last:
                now = inst.valuations[u].value(ev["snapshot"].get(u, frozenset()))
                assert now >= last[u]
                last[u] = now


def test_chromatic_petersen_doubled():
    inst, _ = gen_petersen(seed=42, parallel_copies=2, value_max=100)
    col = inst.graph.find_coloring(3)
    alloc, trace = chromatic_efx(inst, col)
    assert alloc.is_complete(inst)
    assert is_efx(inst, alloc).ok
    assert isinstance(trace[0], ColoringUsed) and trace[0].t == 3


def test_chromatic_five_cycle_with_doubled_edge():
    g = MultiGraph(5, [(0, 1), (0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    rng = random.Random(8)
    vals = {
        u: Additive(values={e: rng.randint(0, 9) for e in g.incident_edges(u)})
        for u in range(5)
    }
    inst = Instance(graph=g, valuations=vals)
    col = g.find_coloring(3)
    alloc, _ = chromatic_efx(inst, col)
    assert is_efx(inst, alloc).ok
    assert brute_force_efx(inst).efx_count >= 1


def test_chromatic_girth_precondition():
    g = MultiGraph(3, [(0, 1), (1, 2), (2, 0)])
    inst = Instance(graph=g, valuations={u: Additive(values={}) for u in range(3)})
    with pytest.raises(PreconditionError, match="cycle"):
        chromatic_efx(inst, Coloring(colors={0: 0, 1: 1, 2: 2}, t=3))


def test_chromatic_improper_coloring():
    g = MultiGraph(2, [(0, 1)])
    inst = Instance(graph=g, valuations={0: Additive(values={0: 1}), 1: Additive(values={0: 1})})
    with pytest.raises(PreconditionError, match="not proper"):
        chromatic_efx(inst, Coloring(colors={0: 0, 1: 0}, t=2))


def test_tree_efx_matches_set_dict_reference():
    # event by event, cycle resolutions included; the returned allocation
    # refuses mutation
    cycles = dict.fromkeys(VALUATION_KINDS, 0)
    for kind in VALUATION_KINDS:
        for seed in range(15):
            inst, _ = gen_multitree(seed=seed, n=12, max_parallel=3, value_max=20,
                                    valuation_kind=kind)
            alloc, trace = tree_efx(inst)
            expected = reference_tree_efx(inst)
            assert (alloc, folded(trace)) == expected
            with pytest.raises(TypeError):
                alloc.bundles[0] = frozenset()
            assert trace == unfolded(expected[1])
            cycles[kind] += sum(isinstance(ev, CycleResolved) for ev in trace)
    assert all(cycles.values()), cycles


def test_chromatic_efx_matches_set_dict_reference():
    instances = []
    for kind in CANCELLABLE_KINDS:
        for seed in range(4):
            for copies in (1, 2, 3):
                instances.append(gen_petersen(seed=seed, parallel_copies=copies, value_max=30,
                                              valuation_kind=kind)[0])
            for length in (5, 7, 9):
                instances.append(gen_multicycle(seed=seed, length=length, max_parallel=3,
                                                value_max=30, valuation_kind=kind)[0])
    for inst in instances:
        col = inst.graph.find_coloring(3)
        alloc, trace = chromatic_efx(inst, col)
        expected = reference_chromatic_efx(inst, col)
        assert (alloc, folded(trace)) == expected
        with pytest.raises(TypeError):
            alloc.bundles[0] = frozenset()
        assert trace == unfolded(expected[1])


# Connected instances of each solver's class, by seed, each checked against
# its set-dict reference solver.
REFERENCE_PARTS = {
    "tree": lambda seed: gen_multitree(seed=seed, n=10, max_parallel=3, value_max=20)[0],
    "bipartite": lambda seed: gen_bipartite(seed=seed, n_left=3, n_right=3, edge_prob=(1, 1),
                                            max_parallel=3, value_max=20)[0],
    "odd multi-cycle": lambda seed: gen_multicycle(seed=seed, length=7, max_parallel=3,
                                                   value_max=20)[0],
    "petersen": lambda seed: gen_petersen(seed=seed, parallel_copies=2, value_max=20)[0],
}


def _reference_snapshots(inst):
    """The bundles after each step event of the connected ``inst``'s trace,
    by the set-dict reference of the solver that ``solve`` runs on it."""
    if inst.graph.is_multitree():
        events = reference_tree_efx(inst)[1]
    else:
        events = reference_chromatic_efx(inst, smallest_coloring(inst.graph)[0])[1]
    return [ev["snapshot"] for ev in events if "snapshot" in ev]


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(st.randoms(use_true_random=False),
       st.lists(st.sampled_from(sorted(REFERENCE_PARTS)), min_size=1, max_size=3))
def test_folding_the_moves_gives_the_reference_bundles_after_every_event(rng, kinds):
    # Each solver's trace, alone and in an interleaved union with others.
    # After every step event, folding the moves from the start of the trace
    # gives, in the component of the event's own agent, the whole bundles
    # that the set-dict reference solvers hold, each component's from its
    # own start.  Each move gives its good another holder.
    parts = [REFERENCE_PARTS[kind](rng.randrange(100)) for kind in kinds]
    union, agents, goods = interleaved_union(rng, parts)
    expected = []
    for p in sorted(range(len(parts)), key=lambda p: agents[p][0]):
        expected += [{agents[p][u]: frozenset(goods[p][g] for g in b) for u, b in snapshot.items()}
                     for snapshot in _reference_snapshots(parts[p])]
    component = {v: i for i, comp in enumerate(union.graph.connected_components()) for v in comp}
    holder, got = {}, []
    for ev in solve(union)[2]:
        if isinstance(ev, ColoringUsed):
            continue
        assert all(holder.get(g) != u for g, u in ev.moves.items()), ev
        holder.update(ev.moves)
        own = (ev.root if isinstance(ev, StructureResolved) else
               ev.leaf if isinstance(ev, LeafAttached) else ev.cycle[0])
        bundles = {}
        for g, u in holder.items():
            if component[u] == component[own]:
                bundles.setdefault(u, set()).add(g)
        got.append({u: frozenset(b) for u, b in bundles.items()})
    assert got == expected, kinds


class _CountingColors(dict):
    """A color map that counts the colors read from it."""

    lookups = 0

    def __getitem__(self, v):
        self.lookups += 1
        return dict.__getitem__(self, v)


def test_chromatic_efx_reads_each_color_a_bounded_number_of_times():
    # Each phase once scanned every agent for its roots, so t phases read
    # about t * n colors: 327,651 on this 801-cycle with a 401-color hint.
    # The agents are sorted by color once, stably, and each color is read a
    # bounded number of times: 7,253 lookups here, against n + m = 2,426.
    inst, _ = gen_multicycle(seed=1, length=801)
    colors = _CountingColors({v: v % 401 for v in range(801)})
    alloc, trace = chromatic_efx(inst, Coloring(colors=colors, t=401))
    assert is_efx(inst, alloc).ok and alloc.is_complete(inst)
    assert trace[0].t == 401
    assert colors.lookups <= 4 * (inst.graph.vertex_count + inst.graph.edge_count)


def test_trace_changes_are_linear_in_the_instance():
    # Each event holds only the goods its step moved.  A copy of every
    # bundle per event held about 1.3 million entries on this multi-tree.
    for inst in (gen_multitree(seed=3, n=1600)[0], gen_bipartite(seed=3, n_left=60, n_right=60)[0]):
        trace = solve(inst)[2]
        moves = sum(len(ev.moves) for ev in trace if not isinstance(ev, ColoringUsed))
        assert 0 < moves <= 2 * (inst.graph.vertex_count + inst.graph.edge_count)


def test_dispatch_multicycles():
    # 1,001 agents: the coloring search must not recurse once per vertex
    for length, expected in [(3, "brute_force"), (4, "bipartite"), (5, "chromatic"),
                             (7, "chromatic"), (9, "chromatic"), (1001, "chromatic")]:
        inst, _ = gen_multicycle(seed=length, length=length, max_parallel=2, value_max=9)
        alloc, method, _ = solve(inst)
        assert method == expected
        assert alloc.is_complete(inst)
        assert is_efx(inst, alloc).ok


def test_dispatch_prefers_tree():
    inst, _ = gen_multitree(seed=1, n=5, max_parallel=2)
    _, method, _ = solve(inst)
    assert method == "tree"


def test_dispatch_unsupported_class():
    # multi-triangle with 9 goods: girth 3 blocks chromatic, too many goods for brute force
    with pytest.raises(UnsupportedClassError, match="no solver applies"):
        solve(_multi_triangle())


def test_dispatch_disconnected_componentwise():
    # one tree component plus one 5-cycle component
    g = MultiGraph(8, [(0, 1), (0, 2), (3, 4), (4, 5), (5, 6), (6, 7), (7, 3)])
    rng = random.Random(21)
    vals = {
        u: Additive(values={e: rng.randint(0, 9) for e in g.incident_edges(u)})
        for u in range(8)
    }
    inst = Instance(graph=g, valuations=vals)
    alloc, method, trace = solve(inst)
    assert method == "componentwise(tree,chromatic)"
    assert alloc.is_complete(inst)
    assert is_efx(inst, alloc).ok
    assert any(isinstance(ev, ColoringUsed) for ev in trace)


def test_dispatch_reasons_name_the_instance_ids():
    # a tree on agents 0-2 beside a 4-cycle on agents 3-6, where agent 5 has a table valuation
    g = MultiGraph(7, [(0, 1), (0, 2), (3, 4), (4, 5), (5, 6), (6, 3)])
    vals = dict(additive_instance(g).valuations)
    vals[5] = Table(entries={frozenset(): 0, frozenset({3}): 2, frozenset({4}): 1, frozenset({3, 4}): 3})
    verdicts = []
    solve(Instance(graph=g, valuations=vals), verdicts=verdicts)
    assert [(v.solver, v.reason) for v in verdicts[1]][1:3] == [
        ("bipartite", "agent 5 has a table valuation"),
        ("chromatic", "agent 5 has a table valuation"),
    ]


# One connected instance of each kind of component, by seed.
UNION_PARTS = {
    "tree": lambda seed: gen_multitree(seed=seed, n=7, max_parallel=3, value_max=20)[0],
    "table tree": lambda seed: gen_multitree(seed=seed, n=5, max_parallel=2, value_max=20,
                                             valuation_kind="table")[0],
    "bipartite": lambda seed: gen_bipartite(seed=seed, n_left=2, n_right=3, edge_prob=(1, 1),
                                            max_parallel=2, value_max=20)[0],
    "odd multi-cycle": lambda seed: gen_multicycle(seed=seed, length=7, max_parallel=2, value_max=20)[0],
    "petersen": lambda seed: gen_petersen(seed=seed, parallel_copies=1, value_max=20)[0],
    "k4+2": lambda seed: additive_instance(K4_PLUS_TWO, seed=seed),
    "doubled triangle": lambda seed: additive_instance(MultiGraph(3, [(0, 1), (1, 2), (2, 0)] * 2), seed),
    "isolated agent": lambda seed: zero_instance(MultiGraph(1, [])),
}


def _parts_solved_and_mapped(parts, agents, goods, hints):
    """``solve``'s result on the union of ``parts``, from each part solved alone
    and mapped into the union, in the order of the parts' lowest agents: the
    parts' traces one after another."""
    bundles, trace, methods, verdicts = {}, [], [], []
    for p in sorted(range(len(parts)), key=lambda p: agents[p][0]):
        tried = []
        alloc, method, events = solve(parts[p], hints[p], tried)
        bundles.update({agents[p][u]: frozenset(goods[p][g] for g in b) for u, b in alloc.bundles.items()})
        trace += [moved_event(ev, agents[p].__getitem__, goods[p].__getitem__) for ev in events]
        methods.append(method)
        verdicts.append([(v.solver, v.reason) for v in tried[0]])
    method = methods[0] if len(set(methods)) == 1 else f"componentwise({','.join(methods)})"
    return Allocation(bundles=bundles), method, trace, verdicts


@pytest.mark.parametrize("hinted", [False, True])
def test_interleaved_union_solves_like_its_parts(hinted):
    rng = random.Random(12)
    for trial in range(16):
        kinds = sorted(UNION_PARTS) if trial == 0 else rng.sample(sorted(UNION_PARTS), rng.randint(2, 4))
        parts = [UNION_PARTS[kind](rng.randrange(100)) for kind in kinds]
        union, agents, goods = interleaved_union(rng, parts)
        hints = [part.graph.find_coloring(4) if hinted else None for part in parts]
        hint = None
        if hinted:  # each part's colors c spread to 2c + (p % 2): not dense within a part
            hint = Coloring(colors={agents[p][v]: 2 * c + p % 2 for p, col in enumerate(hints)
                                    for v, c in col.colors.items()}, t=8)
        verdicts = []
        alloc, method, trace = solve(union, hint, verdicts)
        got = (alloc, method, trace, [[(v.solver, v.reason) for v in tried] for tried in verdicts])
        assert got == _parts_solved_and_mapped(parts, agents, goods, hints), kinds
        assert is_efx(union, alloc).ok and alloc.is_complete(union)


def test_a_hint_is_made_dense_whether_or_not_the_instance_is_connected():
    # A proper hint using colors 0..2 of a declared t = 4: t = 4 would need
    # girth >= 7, while the 5-cycle's dense t = 3 needs girth >= 5.
    cycle, _ = gen_multicycle(seed=1, length=5)
    hint = Coloring(colors={0: 0, 1: 1, 2: 0, 3: 1, 4: 2}, t=4)
    alone, method, _ = solve(cycle, hint)
    assert method == "chromatic"
    isolated = Instance(MultiGraph(6, list(cycle.graph.edges)),
                        {**cycle.valuations, 5: Additive(values={})})
    verdicts = []
    beside, method, _ = solve(isolated, Coloring(colors={**hint.colors, 5: 0}, t=4), verdicts)
    assert method == "componentwise(chromatic,tree)"
    assert verdicts[0][-1].structure == Coloring(colors={0: 0, 1: 1, 2: 0, 3: 1, 4: 2}, t=3)
    assert beside.bundles == alone.bundles
    # an instance without agents is one part, which keeps the hint as given
    assert solve(Instance(MultiGraph(0, []), {}), Coloring(colors={}, t=4))[1] == "tree"


def test_solve_outputs_in_oracle_set():
    rng = random.Random(67)
    checked = 0
    for seed in range(60):
        family = ("bipartite", "multitree", "multicycle")[seed % 3]
        if family == "bipartite":
            inst, _ = gen_bipartite(seed=seed, n_left=2, n_right=2, max_parallel=2, value_max=9)
        elif family == "multitree":
            inst, _ = gen_multitree(seed=seed, n=3, max_parallel=2, value_max=9)
        else:
            inst, _ = gen_multicycle(seed=seed, length=5, max_parallel=1, value_max=9)
        n, m = inst.graph.vertex_count, inst.graph.edge_count
        if n ** m > 10 ** 5:
            continue
        alloc, _, _ = solve(inst)
        report = brute_force_efx(inst)
        assert report.efx_count >= 1
        assert is_efx(inst, alloc).ok and alloc.is_complete(inst)
        checked += 1
    assert checked >= 30
    del rng


def test_solve_deterministic(b1_instance):
    first = solve(b1_instance)
    second = solve(b1_instance)
    assert first[0] == second[0]
    assert first[1] == second[1]
    assert first[2] == second[2]


def test_classify_matches_coloring_first_reference():
    rng = random.Random(2023)
    graphs = classifier_graphs(rng)
    assert len(graphs) > 300
    accepted = rejected_by_girth = 0
    for g in graphs:
        (verdict,) = [v for v in classify(zero_instance(g)) if v.solver == "chromatic"]
        want = reference_chromatic(g)
        assert (verdict.structure if verdict.applies else None) == want, g.edges
        accepted += want is not None
        if g.bipartition() is None and g.girth() < 5:
            assert verdict.reason.startswith(f"girth {g.girth()} < 5")
            rejected_by_girth += 1
    assert accepted >= 50 and rejected_by_girth >= 50


def test_out_of_class_graphs_rejected_before_any_coloring_search(monkeypatch):
    def no_search(self, t_max):
        raise AssertionError("find_coloring ran")

    monkeypatch.setattr(MultiGraph, "find_coloring", no_search)
    sparse = gnp_graph(random.Random(0), 80, 4.5 / 80)
    assert len(sparse.connected_components()) == 1
    for graph, girth in ((mycielski_graph(3), 4), (sparse, 3)):
        with pytest.raises(UnsupportedClassError, match=f"^no solver applies: .*girth {girth} < 5"):
            solve(zero_instance(graph))


def test_table_valuation_rejected_before_any_coloring_search(monkeypatch):
    monkeypatch.setattr(MultiGraph, "find_coloring", lambda *a: pytest.fail("find_coloring ran"))
    inst = _table_cycle(5)  # girth 5 and not bipartite: without the table, t <= 3 is searched
    (verdict,) = [v for v in classify(inst) if v.solver == "chromatic"]
    assert verdict.reason == "agent 0 has a table valuation"


def test_classify_stops_at_a_multitree(monkeypatch):
    for meth in ("bipartition", "shortest_cycle", "girth", "_girth", "find_coloring"):
        monkeypatch.setattr(MultiGraph, meth, lambda *a: pytest.fail("computed on a tree"))
    inst, _ = gen_multitree(seed=4, n=8, max_parallel=2)
    verdicts = []
    assert solve(inst, verdicts=verdicts)[1] == "tree"
    assert [[(v.solver, v.reason) for v in tried] for tried in verdicts] == [[("tree", None)]]


def test_bounded_girth_decides_as_the_exact_girth(monkeypatch):
    # Each graph alone, with no hint, with its smallest colorings and with
    # every vertex its own color, and each component of it with no hint.
    rng = random.Random(13)
    graphs = classifier_graphs(rng) + [girth5_chromatic4_graph()]
    graphs += [MultiGraph(n, cycle_pairs(n, rng)) for n in (8, 9, 10, 13, 15, 16, 17)]
    cases = []
    for g in graphs:
        hints = [None, Coloring(colors={v: v for v in range(g.vertex_count)}, t=g.vertex_count)]
        hints += [g.find_coloring(t) for t in range(1, 5) if g.find_coloring(t) is not None]
        cases += [(g, hint, None) for hint in hints]
        cases += [(g, None, comp) for comp in g.connected_components()]

    def outcomes(g, hint, comp):
        """The verdicts, and given a hint, what chromatic_efx says of it."""
        inst = zero_instance(MultiGraph(g.vertex_count, list(g.edges)))  # nothing cached yet
        said = [(v.solver, v.reason, v.structure) for v in classify(inst, hint, comp)]
        if hint is not None:
            try:
                said.append(chromatic_efx(inst, hint)[1][0])
            except PreconditionError as err:
                said.append(str(err))
        return said

    bounded = [outcomes(*case) for case in cases]

    def exact_girth(self, component=None, limit=None):
        length = reference_shortest_cycle(self, component)[0]
        return length if limit is None or length <= limit else math.inf

    monkeypatch.setattr(MultiGraph, "girth", exact_girth)
    assert [outcomes(*case) for case in cases] == bounded
    said = repr(bounded)
    for text in ("for the 5-coloring hint", "no proper coloring with t <= 3 (girth 5)",
                 "girth 3 < 5", "girth 4 < 5", "girth 5 < 2*4-1; offending cycle"):
        assert text in said


def _girth_searches(monkeypatch):
    """The limit of each ``_girth`` search from now on, in order."""
    limits = []
    search = MultiGraph._girth

    def counted(self, vertices, limit):
        limits.append(limit)
        return search(self, vertices, limit)

    monkeypatch.setattr(MultiGraph, "_girth", counted)
    return limits


def test_long_odd_cycle_solves_without_the_exact_girth_search(monkeypatch):
    want = solve(gen_multicycle(seed=41, length=41, max_parallel=2, value_max=9)[0])
    limits = _girth_searches(monkeypatch)
    inst = gen_multicycle(seed=41, length=41, max_parallel=2, value_max=9)[0]
    assert solve(inst) == want and want[1] == "chromatic"
    assert limits == [7]  # the dispatcher's one search, bounded at 2*4-1
    assert inst.graph.girth() == 41 and limits == [7, math.inf]  # the exact length searches on
    assert inst.graph.shortest_cycle()[0] == 41 and limits == [7, math.inf]


def test_long_cycle_hint_rejected_without_the_exact_girth_search(monkeypatch):
    # One color per agent asks for girth >= 801, which the bounded girth
    # search refutes from the cycle's first vertex.
    limits = _girth_searches(monkeypatch)
    inst = gen_multicycle(seed=3, length=401)[0]
    hint = Coloring(colors={v: v for v in range(401)}, t=401)
    reason = "girth 401 < 2*401-1 for the 401-coloring hint"
    (verdict,) = [v for v in classify(inst, hint) if v.solver == "chromatic"]
    assert verdict.reason == reason
    with pytest.raises(UnsupportedClassError, match=re.escape(f"; chromatic: {reason}; ")):
        solve(inst, hint)
    assert limits == [800]


def test_girth_rejections_keep_their_text(monkeypatch):
    def chromatic_reason(graph, hint=None):
        (verdict,) = [v for v in classify(zero_instance(graph), hint) if v.solver == "chromatic"]
        return verdict.reason

    assert chromatic_reason(mycielski_graph(2)) == (
        "girth 4 < 5, and a non-bipartite graph needs t >= 3")
    assert chromatic_reason(girth5_chromatic4_graph()) == "no proper coloring with t <= 3 (girth 5)"
    c5 = MultiGraph(5, [(i, (i + 1) % 5) for i in range(5)])
    assert chromatic_reason(c5, Coloring(colors={v: v for v in range(5)}, t=5)) == (
        "girth 5 < 2*5-1 for the 5-coloring hint")
    # A triangle hangs off agent 0.  The girth search peels agents 2, 1 and 0,
    # and its BFS from agent 3 closes the triangle by the edge from 4 to 5: the
    # message lists 4, its tree path to the root 3, and then 5.
    g = MultiGraph(6, [(0, 5), (3, 4), (4, 5), (5, 3), (1, 2), (0, 1)])
    with pytest.raises(PreconditionError) as err:
        chromatic_efx(zero_instance(g), Coloring(colors={0: 0, 1: 1, 2: 0, 3: 0, 4: 1, 5: 2}, t=3))
    assert str(err.value) == "girth 3 < 2*3-1; offending cycle [4, 3, 5]"
    # the exact girth, beyond the bound of the search that decides, when no coloring is found
    monkeypatch.setattr(MultiGraph, "find_coloring", lambda self, t_max, component=None: None)
    c9 = MultiGraph(9, [(i, (i + 1) % 9) for i in range(9)])
    assert c9.girth(None, 7) == math.inf
    assert smallest_coloring(c9) == (None, "no proper coloring with t <= 4 (girth 9)")


def _accepted_by_solvers(inst):
    """The solvers whose own preconditions and the dispatcher's size guard accept ``inst``."""
    g = inst.graph

    def accepts(solver, *structure):
        if None in structure:
            return False
        try:
            solver(inst, *structure)
        except PreconditionError:
            return False
        return True

    verdicts = {
        "tree": accepts(tree_efx),
        "bipartite": accepts(chromatic_efx, g.bipartition()),
        "chromatic": accepts(chromatic_efx, g.find_coloring(4)),
        "brute_force": g.vertex_count <= BRUTE_FORCE_AGENT_MAX
        and g.edge_count <= BRUTE_FORCE_GOOD_MAX,
    }
    return [name for name, ok in verdicts.items() if ok]


def _table_cycle(length):
    g = MultiGraph(length, [(i, (i + 1) % length) for i in range(length)])
    vals = {}
    for u in range(length):
        a, b = sorted(g.incident_edges(u))
        vals[u] = Table(entries={frozenset(): 0, frozenset({a}): 2, frozenset({b}): 1,
                                 frozenset({a, b}): 3})
    return Instance(graph=g, valuations=vals)


def _multi_triangle():
    g = MultiGraph(3, [(0, 1)] * 3 + [(1, 2)] * 3 + [(2, 0)] * 3)
    return Instance(graph=g, valuations={
        u: Additive(values={e: 1 for e in g.incident_edges(u)}) for u in range(3)
    })


@pytest.mark.parametrize("make, eligible", [
    (lambda: _table_cycle(4), ["brute_force"]),
    (lambda: _table_cycle(6), []),
    (_multi_triangle, []),
])
def test_analyze_lists_exactly_what_solve_accepts(make, eligible):
    inst = make()
    assert len(inst.graph.connected_components()) == 1
    assert [v.solver for v in classify(inst) if v.applies] == eligible
    assert eligible == _accepted_by_solvers(inst)
    if eligible:
        assert solve(inst)[1] == eligible[0]
    else:
        with pytest.raises(UnsupportedClassError, match="no solver applies"):
            solve(inst)


@st.composite
def _cancellable_instances(draw):
    """A bipartite multi-graph (up to 3 x 3) or a multi-cycle (length 3..7),
    each agent with one cancellable-family valuation on its incident goods."""
    if draw(st.booleans()):
        n_left, n_right = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        n = n_left + n_right
        links = [(u, w) for u in range(n_left) for w in range(n_left, n)]
        copies = draw(st.lists(st.integers(0, 2), min_size=len(links), max_size=len(links)))
    else:
        n = draw(st.integers(3, 7))
        links = [(i, (i + 1) % n) for i in range(n)]
        copies = draw(st.lists(st.integers(1, 2), min_size=n, max_size=n))
    g = MultiGraph(n, [link for link, k in zip(links, copies) for _ in range(k)])
    rng = random.Random(draw(st.integers(0, 2**32)))
    kinds = draw(st.lists(st.sampled_from(CANCELLABLE_KINDS), min_size=n, max_size=n))
    return Instance(graph=g, valuations={
        u: random_family_valuation(rng, kinds[u], sorted(g.incident_edges(u)))
        for u in range(n)
    })


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(_cancellable_instances())
def test_solve_is_complete_and_efx_on_cancellable_families(inst):
    alloc, method, _ = solve(inst)
    assert alloc.is_complete(inst)
    assert naive_is_efx(inst, alloc), method


def test_resolve_structure_takes_the_roots_values_from_its_cuts():
    # The root chooses in every cut, which values both pieces once.  Its
    # favourite and its side of the keep test are read from those values, so
    # its one other query is the keep test's prior | rest | leftover.
    branches = Counter()
    for kind in ("additive", "unit_demand", "budget_additive"):
        for seed in range(4):
            plain, _ = gen_bipartite(seed=seed, n_left=7, n_right=7, valuation_kind=kind)
            counters = {u: [0] for u in plain.valuations}
            inst = Instance(graph=plain.graph, valuations={
                u: CountingValuation(v, counters[u]) for u, v in plain.valuations.items()})
            bundles = {}
            for u in range(7):
                right = sorted(inst.graph.neighbours(u))
                counters[u][0] = 0
                ev = _resolve_structure(inst, bundles, u, right, 1)
                keep_test = ev.branch not in (None, BRANCH_DIFFERENT)
                assert counters[u][0] == 2 * len(right) + keep_test
                branches[ev.branch] += 1
            sides = Coloring(colors={v: int(v >= 7) for v in range(14)}, t=2)
            assert Allocation(bundles=bundles) == chromatic_efx(plain, sides)[0]
    assert len(branches) == 3, branches  # keep, leftovers and different


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(st.randoms(use_true_random=False))
def test_every_solver_that_applies_gives_a_complete_efx_allocation(rng):
    # ``solve`` runs only the first solver that applies; here each one whose
    # verdict applies runs on the whole instance.  Within the brute-force
    # guard, the full census must agree with what they found.
    inst = random_mixed_instance(rng)
    runs = {}
    for verdict in classify(inst):
        if not verdict.applies:
            continue
        if verdict.solver == "tree":
            runs["tree"] = tree_efx(inst)[0]
        elif verdict.solver in ("bipartite", "chromatic"):
            runs[verdict.solver] = chromatic_efx(inst, verdict.structure)[0]
        else:
            runs["brute_force"] = first_efx_allocation(inst)
    census = reference_brute_force_efx(inst) if "brute_force" in runs else None
    if census is not None:
        assert runs["brute_force"] == census.sample
    for solver, alloc in runs.items():
        if alloc is None:  # brute force found no EFX allocation
            assert census is None or census.efx_count == 0
            continue
        assert alloc.is_complete(inst), solver
        assert naive_is_efx(inst, alloc), solver
        assert census is None or census.efx_count >= 1
