import json
import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphefx import Additive, InputError, Instance, MultiGraph
from graphefx.audit import FAMILIES, audit_trace, check_trace
from graphefx.cli import EXIT_INPUT, EXIT_NOT_EFX, EXIT_OK, main
from graphefx.frozen import replace
from graphefx.generators import gen_bipartite, gen_multicycle, gen_multitree, gen_petersen
from graphefx.jsonio import load_trace, save_instance, save_trace
from graphefx.solvers import chromatic_efx, solve, tree_efx
from graphefx.trace import (
    BRANCHES,
    ColoringUsed,
    CycleResolved,
    LeafAttached,
    StructureResolved,
    event_from_json,
    event_line,
)

from .conftest import (
    CountingValuation,
    folded,
    random_family_valuation,
    reference_audit_trace,
    reference_event_to_json,
    tamper_trace,
    unfolded,
)


def test_bipartite_traces_pass(b1_instance):
    _, trace = chromatic_efx(b1_instance, b1_instance.graph.bipartition())
    report = audit_trace(b1_instance, trace)
    assert report.ok
    assert all(applicable for applicable, _ in report.results.values())


def test_chromatic_traces_pass():
    for seed in (0, 42, 99):
        inst, _ = gen_petersen(seed=seed, parallel_copies=2, value_max=50)
        col = inst.graph.find_coloring(3)
        _, trace = chromatic_efx(inst, col)
        report = audit_trace(inst, trace)
        assert report.ok, report.results


def test_tree_traces_not_applicable():
    inst, _ = gen_multitree(seed=5, n=6, max_parallel=2)
    _, trace = tree_efx(inst)
    report = audit_trace(inst, trace)
    assert report.ok
    assert all(not applicable for applicable, _ in report.results.values())


def test_random_solve_traces_pass():
    for seed in range(40):
        inst, _ = gen_bipartite(seed=seed, n_left=4, n_right=4, max_parallel=3, value_max=40)
        _, method, trace = solve(inst)
        report = audit_trace(inst, trace)
        assert report.ok, (seed, method, report.results)


def test_tampered_traces_fail_each_family():
    found = set()
    for seed in range(40):
        inst, _ = gen_petersen(seed=seed, parallel_copies=2, value_max=60)
        col = inst.graph.find_coloring(3)
        _, trace = chromatic_efx(inst, col)
        for family in FAMILIES:
            if family in found:
                continue
            bad = tamper_trace(inst, trace, family)
            if bad is not None:
                applicable, msgs = audit_trace(inst, bad).results[family]
                assert applicable and msgs
                found.add(family)
        if found == set(FAMILIES):
            break
    assert found == set(FAMILIES)


def _cycle_union(rng, lengths, kind):
    """Disjoint multi-cycles of the given lengths, 1-3 parallel goods per link."""
    pairs, start = [], 0
    for length in lengths:
        for i in range(length):
            pairs += [(start + i, start + (i + 1) % length)] * rng.randint(1, 3)
        start += length
    g = MultiGraph(start, pairs)
    vals = {
        u: random_family_valuation(rng, kind, sorted(g.incident_edges(u)), 40)
        for u in range(start)
    }
    return Instance(graph=g, valuations=vals)


def test_unions_of_phase_based_components_pass():
    rng = random.Random(13)
    expected = {(4, 4): "bipartite", (4, 5): "componentwise(bipartite,chromatic)"}
    for lengths, method in expected.items():
        for kind in ("additive", "unit_demand", "budget_additive"):
            for _ in range(4):
                inst = _cycle_union(rng, lengths, kind)
                _, used, trace = solve(inst)
                assert used == method
                assert sum(isinstance(ev, ColoringUsed) for ev in trace) == 2
                report = audit_trace(inst, trace)
                assert report.ok, (lengths, kind, report.results)
                assert all(applicable for applicable, _ in report.results.values())


def _phase_tree_phase_union(rng, kind):
    """A multi-cycle of length 5, a multi-tree and a 4-cycle, on agents in that
    order, so that ``solve`` traces the tree between two phase-based components."""
    tree = gen_multitree(seed=rng.randrange(100), n=6, max_parallel=3)[0].graph
    cycles = _cycle_union(rng, (5, 4), kind).graph
    shift = {v: v if v < 5 else v + 6 for v in range(9)}
    pairs = [(shift[a], shift[b]) for a, b in cycles.edges]
    pairs += [(a + 5, b + 5) for a, b in tree.edges]
    g = MultiGraph(15, pairs)
    vals = {u: random_family_valuation(rng, kind, sorted(g.incident_edges(u)), 40)
            for u in range(15)}
    return Instance(graph=g, valuations=vals)


def _read_back(trace, graph):
    """``trace`` written line by line and read back as ``load_trace`` reads a
    file on ``graph``."""
    texts, held = {}, {}
    events = [event_from_json(json.loads(event_line(ev, texts)), i, graph, held)
              for i, ev in enumerate(trace)]
    check_trace(events, graph)
    return events


def test_check_trace_accepts_solver_traces():
    rng = random.Random(3)
    instances = [_cycle_union(rng, (4, 5), "additive"), _cycle_union(rng, (5, 5), "unit_demand"),
                 gen_petersen(seed=1, parallel_copies=2)[0], gen_multitree(seed=2, n=7)[0]]
    for inst in instances:
        trace = solve(inst)[2]
        assert _read_back(trace, inst.graph) == trace


# Each edit is made to the second line of a trace, as read from JSON.  Each
# id names the id or branch at fault, as Python shows it.
@pytest.mark.parametrize("edit, message", [
    # only an id too large for the graph is out of range; the others are not ids at all
    pytest.param(lambda line: {**line, "root": 99}, "agent 99 in root, not in 0..2",
                 id="<lambda>-agent 99"),
    pytest.param(lambda line: {**line, "favourite": "a"},
                 'agent "a" in favourite, not a nonnegative integer', id="<lambda>-agent 'a'"),
    pytest.param(lambda line: {**line, "snapshot": {"0": ["x"]}},
                 'good "x" in snapshot["0"][0], not a nonnegative integer', id="<lambda>-good 'x'"),
    pytest.param(lambda line: {**line, "transfers": [[0, 1, -1]]},
                 "agent -1 in transfers[0][2], not a nonnegative integer", id="<lambda>-agent -1"),
    pytest.param(lambda line: {**line, "phase": None},
                 "count null in phase, not a nonnegative integer", id="<lambda>-count None"),
    # a dict key is an id only when it is the text of that integer
    pytest.param(lambda line: {**line, "snapshot": {" 1 ": [0]}},
                 'agent " 1 " in snapshot, not a nonnegative integer', id="<lambda>-agent ' 1 '"),
    pytest.param(lambda line: {**line, "snapshot": {"01": [0]}},
                 'agent "01" in snapshot, not a nonnegative integer', id="<lambda>-agent '01'"),
    pytest.param(lambda line: {**line, "snapshot": {"-2": [0]}},
                 "agent -2 in snapshot, not a nonnegative integer", id="<lambda>-agent -2"),
    pytest.param(lambda line: {**line, "branch": [5, {"x": 1}]},
                 'branch [5, {"x": 1}] in branch, not same_bundle_keep, same_bundle_leftovers,'
                 " different_bundles or null", id="<lambda>-branch [5, {'x': 1}]"),
    pytest.param(lambda line: {**line, "branch": "keep"},
                 'branch "keep" in branch, not same_bundle_keep, same_bundle_leftovers,'
                 " different_bundles or null", id="<lambda>-branch 'keep'"),
])
def test_check_trace_rejects_bad_ids(b1_instance, edit, message):
    texts = {}
    lines = [json.loads(event_line(ev, texts))
             for ev in chromatic_efx(b1_instance, b1_instance.graph.bipartition())[1]]
    lines[1] = edit(lines[1])
    with pytest.raises(InputError, match=f"^trace event 1 names {re.escape(message)}$"):
        held = {}
        [event_from_json(line, i, b1_instance.graph, held) for i, line in enumerate(lines)]


def test_check_trace_rejects_uncolored_holders(b1_instance):
    _, event = chromatic_efx(b1_instance, b1_instance.graph.bipartition())[1]
    with pytest.raises(InputError, match="trace event 1 involves agent 2, which has no color"):
        _read_back([ColoringUsed(colors={0: 0, 1: 1}, t=2), event], b1_instance.graph)
    # an empty coloring colors no agent; the audit would look the holders' colors up
    with pytest.raises(InputError, match="trace event 1 involves agent 0, which has no color"):
        _read_back([ColoringUsed(colors={}, t=2), event], b1_instance.graph)


# Each event beside its trace line; the bundle of agent 5 is empty, so it is not written.
EVENT_LINES = [
    (ColoringUsed(colors={1: 0, 0: 2}, t=3),
     {"type": "coloring_used", "colors": {"0": 2, "1": 0}, "t": 3}),
    (StructureResolved(phase=2, root=1, favourite=3, branch="same_bundle_keep",
                       changes={3: frozenset({2, 0}), 1: frozenset({4}), 5: frozenset()},
                       transfers=((2, 1, 3), (0, 1, 3))),
     {"type": "structure_resolved", "phase": 2, "root": 1, "favourite": 3,
      "branch": "same_bundle_keep", "snapshot": {"1": [4], "3": [0, 2]},
      "transfers": [[2, 1, 3], [0, 1, 3]]}),
    (StructureResolved(phase=1, root=0, favourite=None, branch=None, changes={}, transfers=()),
     {"type": "structure_resolved", "phase": 1, "root": 0, "favourite": None, "branch": None,
      "snapshot": {}, "transfers": []}),
    (LeafAttached(leaf=2, parent=0, pieces=(frozenset({3, 1}), frozenset()), leftover_to=0,
                  changes={2: frozenset({1, 3})}),
     {"type": "leaf_attached", "leaf": 2, "parent": 0, "pieces": [[1, 3], []],
      "leftover_to": 0, "snapshot": {"2": [1, 3]}}),
    (CycleResolved(cycle=(2, 0, 1), changes={0: frozenset({1})}),
     {"type": "cycle_resolved", "cycle": [2, 0, 1], "snapshot": {"0": [1]}}),
]


@pytest.mark.parametrize("event, line", EVENT_LINES)
def test_trace_line_format(event, line):
    text = json.dumps(line, sort_keys=True)
    assert event_line(event, {}) == text
    # the lines name agents up to 5 and goods up to 4
    assert event_line(event_from_json(line, 0, MultiGraph(6, [(0, 1)] * 5), {}), {}) == text


@pytest.mark.parametrize("line, message", [
    ({"type": "cycle_resolved", "cycle": {}, "snapshot": {}}, "gives cycle {}, not a JSON list"),
    pytest.param({"type": "leaf_attached", "leaf": 1, "parent": 0, "pieces": [{}, []],
                  "leftover_to": 0, "snapshot": {}}, "gives pieces[0] {}, not a JSON list",
                 id="line1-gives pieces {}, not a JSON list"),  # the id it had before paths
    ({"type": "structure_resolved", "phase": 1, "root": 0, "favourite": None, "branch": None,
      "snapshot": {}, "transfers": {}}, "gives transfers {}, not a JSON list"),
    ({"type": "coloring_used", "colors": [], "t": 2}, "gives colors [], not a JSON object"),
    ({"type": "cycle_resolved", "cycle": [0, 1], "snapshot": [["0", [1]]]},
     'gives snapshot [["0", [1]]], not a JSON object'),
    # a missing key was once named only by Python's KeyError text
    ({"type": "leaf_attached", "leaf": 1, "parent": 0, "pieces": [[], []], "snapshot": {}},
     'has no key "leftover_to"'),
])
def test_trace_reader_requires_lists_and_objects(line, message):
    # a string or an object where a list belongs was once read as empty
    with pytest.raises(InputError, match=f"^trace event 0 {re.escape(message)}$"):
        event_from_json(line, 0, MultiGraph(3, [(0, 1)] * 2), {})


def test_solver_events_round_trip_through_json():
    # A tree trace that resolves an envy cycle, then a Petersen trace in which
    # one root has no right neighbour and another passes its prior bundle on.
    tree = gen_multitree(seed=1, n=6, max_parallel=2)[0]
    petersen = gen_petersen(seed=4, parallel_copies=2)[0]
    traces = [(tree.graph, tree_efx(tree)[1]), (petersen.graph, solve(petersen)[2])]
    trace = [ev for _, events in traces for ev in events]
    assert {type(ev) for ev in trace} == {ColoringUsed, StructureResolved, LeafAttached,
                                          CycleResolved}
    structures = [ev for ev in trace if isinstance(ev, StructureResolved)]
    assert any(ev.favourite is None for ev in structures)
    assert any(ev.transfers for ev in structures)
    for graph, events in traces:
        assert _read_back(events, graph) == events


def test_a_tree_between_phase_based_components_writes_reads_and_audits(tmp_path):
    rng = random.Random(19)
    for kind in ("additive", "unit_demand", "budget_additive"):
        for _ in range(3):
            inst = _phase_tree_phase_union(rng, kind)
            _, method, trace = solve(inst)
            assert method == "componentwise(chromatic,tree,bipartite)"
            leaves = [i for i, ev in enumerate(trace) if isinstance(ev, LeafAttached)]
            structures = [i for i, ev in enumerate(trace) if isinstance(ev, StructureResolved)]
            assert structures[0] < leaves[0] and leaves[-1] < structures[-1]
            path = tmp_path / "u.trace.jsonl"
            save_trace(trace, path)
            want = "".join(line + "\n" for line in _reference_lines(trace))
            assert path.read_text(encoding="utf-8") == want
            assert load_trace(path, inst.graph) == trace
            report = audit_trace(inst, trace)
            assert report.ok and report == reference_audit_trace(inst, trace)


def _written(trace):
    """The writer's line for each event, with one running snapshot for the whole trace."""
    texts = {}
    return [event_line(ev, texts) for ev in trace]


def _reference_lines(trace):
    return [json.dumps(reference_event_to_json(ev), sort_keys=True) for ev in folded(trace)]


def test_writer_matches_reference_encoder(tmp_path):
    tree = tree_efx(gen_multitree(seed=1, n=6, max_parallel=2)[0])[1]
    bipartite = solve(gen_bipartite(seed=3, n_left=8, n_right=8)[0])[2]
    chromatic = solve(gen_petersen(seed=4, parallel_copies=2)[0])[2]
    union = solve(_cycle_union(random.Random(17), (5, 7), "additive"))[2]
    # The union's structure events again, each also emptying every bundle
    # that is empty before and after it.
    structures = [ev for ev in union if isinstance(ev, StructureResolved)]
    padded = [replace(ev, changes={**{u: frozenset() for u in range(12)
                                                  if not snapshot["snapshot"].get(u)},
                                               **ev.changes})
              for ev, snapshot in zip(structures, folded(structures))]
    assert any(isinstance(ev, CycleResolved) for ev in tree)
    # "10" is written before "9"
    assert any(ev["snapshot"].keys() >= {9, 10} for ev in folded(padded))
    for trace in (tree, bipartite, chromatic, union, padded):
        assert _written(trace) == _reference_lines(trace)
    assert _written(padded) == _written(structures)
    path = tmp_path / "all.trace.jsonl"
    everything = tree + bipartite + chromatic + union + padded
    save_trace(everything, path)
    want = "".join(line + "\n" for line in _reference_lines(everything))
    assert path.read_text(encoding="utf-8") == want


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.lists(st.frozensets(st.integers(0, 30), max_size=4), min_size=1, max_size=4),
       st.lists(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 3)), max_size=9),
                min_size=1, max_size=6))
def test_writer_folds_any_changes(pool, steps):
    # Changes take their bundles from a few frozenset objects, so one object
    # is held by several agents in one snapshot and across snapshots, and a
    # change may empty a bundle that is already empty or leave one as it is.
    trace = [CycleResolved(cycle=(0, 1), changes={u: pool[i % len(pool)] for u, i in step})
             for step in steps]
    assert _written(trace) == _reference_lines(trace)


# Agents up to 25, so that "10".."25" sort before "3".."9" in a snapshot;
# a bundle of up to four goods, or an emptied one.
_AGENTS = st.integers(0, 25)
_GOODS = st.frozensets(st.integers(0, 40), max_size=4)
_CHANGES = st.dictionaries(_AGENTS, st.just(frozenset()) | _GOODS, max_size=6)
_EVENTS = st.one_of(
    st.builds(ColoringUsed, colors=st.dictionaries(_AGENTS, st.integers(0, 12), max_size=14),
              t=st.integers(0, 13)),
    st.builds(StructureResolved, phase=st.integers(0, 12), root=_AGENTS,
              favourite=st.none() | _AGENTS, branch=st.none() | st.sampled_from(BRANCHES),
              changes=_CHANGES,
              transfers=st.lists(st.tuples(st.integers(0, 40), _AGENTS, _AGENTS),
                                 max_size=3).map(tuple)),
    st.builds(LeafAttached, leaf=_AGENTS, parent=_AGENTS, pieces=st.tuples(_GOODS, _GOODS),
              leftover_to=_AGENTS, changes=_CHANGES),
    st.builds(CycleResolved, cycle=st.lists(_AGENTS, max_size=5).map(tuple), changes=_CHANGES),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.lists(st.tuples(_EVENTS, st.booleans()), max_size=14))
def test_writer_matches_reference_for_every_event_kind(steps):
    # A step event marked True also empties every bundle held before it, as
    # the first step event of a later component in a component-wise solve does.
    trace, held = [], {}
    for ev, withdraws in steps:
        if not isinstance(ev, ColoringUsed):
            if withdraws:
                ev = replace(ev, changes={**dict.fromkeys(held, frozenset()),
                                                      **ev.changes})
            held = {u: b for u, b in {**held, **ev.changes}.items() if b}
        trace.append(ev)
    assert _written(trace) == _reference_lines(trace)


def _phase_based_traces():
    """Seeded solver traces of every phase-based shape: (instance, trace)."""
    rng = random.Random(11)
    instances = [gen_bipartite(seed=seed, n_left=24, n_right=24, valuation_kind=kind)[0]
                 for seed, kind in enumerate(("additive", "unit_demand", "budget_additive"))]
    instances += [gen_petersen(seed=seed, parallel_copies=copies)[0]
                  for seed, copies in enumerate((1, 2, 3, 2))]
    instances += [gen_multicycle(seed=seed, length=length, value_max=40)[0]
                  for seed, length in enumerate((7, 8, 11, 12, 31))]
    instances += [_cycle_union(rng, lengths, kind)
                  for lengths in ((4, 4), (4, 5), (5, 7))
                  for kind in ("additive", "unit_demand", "budget_additive")]
    return [(inst, solve(inst)[2]) for inst in instances]


def _tampered(rng, inst, trace):
    """A copy of ``trace`` with one to three random edits.

    An edit moves one held good to its other endpoint, hands it to an agent
    that is not an endpoint, withdraws it, or names another root.  A good's
    edit holds in one event or in that event and all later ones.  Returns
    the copy and the kinds of its edits.
    """
    trace = folded(trace)
    structures = [i for i, ev in enumerate(trace) if ev["type"] == StructureResolved.kind]
    n = inst.graph.vertex_count
    kinds = []
    for _ in range(rng.randint(1, 3)):
        i = rng.choice(structures)
        held = {g: u for u, b in trace[i]["snapshot"].items() for g in b}
        kind = rng.choice(("move", "hand", "withdraw", "root")) if held else "root"
        kinds.append(kind)
        if kind == "root":
            trace[i] = {**trace[i], "root": rng.randrange(n)}
            continue
        g = rng.choice(sorted(held))
        ends = inst.graph.endpoints(g)
        to = {"move": next((e for e in ends if e != held[g]), ends[0]),
              "hand": rng.choice([u for u in range(n) if u not in ends]),
              "withdraw": None}[kind]
        last = i if rng.random() < 0.5 else structures[-1]
        for j in structures:
            if i <= j <= last:
                snapshot = {u: b - {g} for u, b in trace[j]["snapshot"].items()}
                if to is not None:
                    snapshot[to] = snapshot.get(to, frozenset()) | {g}
                trace[j] = {**trace[j], "snapshot": snapshot}
    return unfolded(trace), kinds


def test_audit_matches_from_scratch_reference():
    traces = _phase_based_traces()
    for inst, trace in traces:
        report = audit_trace(inst, trace)
        assert report.ok
        assert report == reference_audit_trace(inst, trace)

    rng = random.Random(5)
    small = [(inst, trace) for inst, trace in traces if inst.graph.vertex_count <= 12]
    edits, failing = Counter(), Counter()
    for _ in range(1200):
        inst, trace = rng.choice(small)
        bad, kinds = _tampered(rng, inst, trace)
        _read_back(bad, inst.graph)
        report = audit_trace(inst, bad)
        assert report == reference_audit_trace(inst, bad), kinds
        edits.update(kinds)
        failing.update(f for f in FAMILIES if report.status(f) == "fail")
        failing["any"] += not report.ok
    assert min(edits.values()) > 300, edits
    assert failing["any"] > 900, failing
    stepped = ("localized_envy", "distance", "unresolved_union")
    assert min(failing[f] for f in stepped) > 300, failing


def _path_of_six():
    """Agents 0-5 on a path, good i joining agents i and i + 1.  Agent 0
    values good 0, agent 2 values goods 1 and 2, agent 1 values both of its
    goods a little, and agents 3-5 value nothing."""
    graph = MultiGraph(6, [(i, i + 1) for i in range(5)])
    values = [{0: 10}, {0: 1, 1: 1}, {1: 10, 2: 10}, {2: 0, 3: 0}, {3: 0, 4: 0}, {4: 0}]
    return Instance(graph=graph,
                    valuations={u: Additive(values=v) for u, v in enumerate(values)})


def _stray(idx, a, b):
    return f"event {idx}: envy edge {a}->{b} is not favourite-to-resolved-root"


@pytest.mark.parametrize("steps, localized", [
    # 0 envies 1 from event 1 on; the edge is legal once 1 resolves with
    # favourite 0, although neither bundle changes then
    ([(3, 4, {1: {0}}), (1, 0, {4: {3}})], [_stray(1, 0, 1)]),
    # a stray edge that no event touches is reported at every event
    ([(3, 4, {1: {0}}), (5, 4, {4: {3}}), (4, 3, {5: {4}})],
     [_stray(1, 0, 1), _stray(2, 0, 1), _stray(3, 0, 1)]),
    # 2 envies 1 until 2's own bundle grows
    ([(3, 4, {1: {1}}), (5, 4, {2: {2}}), (4, 3, {5: {4}})], [_stray(1, 2, 1)]),
    # 0 envies 1 until 1 gives good 0 up, and 2 envies 1 until 1 resolves
    ([(3, 4, {1: {0, 1}}), (5, 4, {1: {1}}), (1, 2, {4: {3}})],
     ["event 1: snapshot is not EFX, witness (0, 1, 1)",
      _stray(1, 0, 1), _stray(1, 2, 1), _stray(2, 2, 1)]),
])
def test_audit_keeps_stray_envy_edges_across_events(steps, localized):
    inst = _path_of_six()
    trace = [ColoringUsed(colors={v: v % 2 for v in range(6)}, t=2)]
    trace += [StructureResolved(phase=1, root=root, favourite=favourite, branch=None,
                                changes={u: frozenset(b) for u, b in changes.items()},
                                transfers=())
              for root, favourite, changes in steps]
    _read_back(trace, inst.graph)
    report = audit_trace(inst, trace)
    assert report.results["localized_envy"] == (True, tuple(localized))
    assert report == reference_audit_trace(inst, trace)


def test_audit_distances_match_the_reference_under_any_coloring():
    # A trace read from a file may carry an improper coloring, under which a
    # structure-root bound can be 0 or negative.  The distance checks must
    # still answer as the reference search does: with equal colours at both
    # ends, the other endpoint of a good its root does not hold is one hop
    # away, beyond a bound of 0.
    rng = random.Random(17)
    small = [(inst, trace) for inst, trace in _phase_based_traces()
             if inst.graph.vertex_count <= 12]
    far = 0
    for _ in range(300):
        inst, trace = rng.choice(small)
        colors = {v: rng.randrange(3) for v in range(inst.graph.vertex_count)}
        recolored = [replace(ev, colors=colors) if isinstance(ev, ColoringUsed) else ev
                     for ev in trace]
        report = audit_trace(inst, recolored)
        assert report == reference_audit_trace(inst, recolored)
        far += report.status("distance") == "fail"
    assert 50 < far < 300, far


def test_audit_names_an_improperly_colored_good_its_holder_shares(b1_instance):
    # The distance family skips a good held by one of its endpoints only when
    # the holder is the good's root or colored higher.  Here agent 0 holds
    # good 0, whose other endpoint, agent 1, has agent 0's color.  That makes
    # agent 1 the root, one hop from the holder, beyond a bound of 0.
    _, trace = chromatic_efx(b1_instance, b1_instance.graph.bipartition())
    assert 0 in trace[-1].changes[0]
    same = [replace(ev, colors={0: 0, 1: 0, 2: 1}) if isinstance(ev, ColoringUsed)
            else ev for ev in trace]
    report = audit_trace(b1_instance, same)
    assert report.results["distance"] == (
        True, ("event 1: structure root 1 of good 0 is farther than 0 from holder 0",))
    assert report == reference_audit_trace(b1_instance, same)


def test_audit_query_count_is_linear():
    # Rechecking only what each event changed takes about 1.2 (n + m) queries
    # on both traces.  Checking every snapshot from scratch took 26 (n + m) on
    # the bipartite trace and 291 (n + m) on the cycle.
    for plain, method in ((gen_bipartite(seed=3, n_left=60, n_right=60)[0], "bipartite"),
                          (gen_multicycle(seed=3, length=401)[0], "chromatic")):
        _, used, trace = solve(plain)
        assert used == method
        counter = [0]
        inst = Instance(graph=plain.graph, valuations={
            u: CountingValuation(v, counter) for u, v in plain.valuations.items()})
        assert audit_trace(inst, trace).ok
        assert 0 < counter[0] <= 3 * (plain.graph.vertex_count + plain.graph.edge_count)


def _audit_output(report):
    """What ``graphefx audit`` prints for ``report``."""
    lines = []
    for family in FAMILIES:
        lines.append(f"{family}: {report.status(family)}")
        lines.extend(f"  {msg}" for msg in report.results[family][1])
    return "".join(line + "\n" for line in lines)


def test_audit_of_a_trace_read_from_file_matches_in_process(tmp_path, capsys):
    # Loaded bundles are equal to the solver's but distinct objects.
    inst, names = gen_bipartite(seed=3, n_left=60, n_right=60)
    instance_path = tmp_path / "b60.instance.json"
    save_instance(inst, names, instance_path)
    trace = solve(inst)[2]
    rng = random.Random(8)
    while True:  # a tampered copy that fails the audit
        tampered, _ = _tampered(rng, inst, trace)
        if not audit_trace(inst, tampered).ok:
            break
    for i, events in enumerate((trace, tampered)):
        path = tmp_path / f"{i}.trace.jsonl"
        save_trace(events, path)
        assert load_trace(path, inst.graph) == events
        report = audit_trace(inst, events)
        capsys.readouterr()
        code = main(["audit", str(instance_path), str(path)])
        assert code == (EXIT_OK if report.ok else EXIT_NOT_EFX)
        assert capsys.readouterr().out == _audit_output(report)


# A case with an explicit id keeps the id it had when the message showed a
# value as Python shows it, and named no path.
@pytest.mark.parametrize("edit, message", [
    pytest.param(lambda line: {**line, "branch": [5, {"x": 1}]},
                 'names branch [5, {"x": 1}] in branch, not same_bundle_keep, same_bundle_leftovers,'
                 " different_bundles or null",
                 id="<lambda>-names branch [5, {'x': 1}], not same_bundle_keep,"
                    " same_bundle_leftovers, different_bundles or null"),
    pytest.param(lambda line: {**line, "snapshot": {(" 3 " if k == "3" else k): b
                                                    for k, b in line["snapshot"].items()}},
                 'names agent " 3 " in snapshot, not a nonnegative integer',
                 id="<lambda>-names agent ' 3 ', not a nonnegative integer"),
    # a string is not read as an empty list
    (lambda line: {**line, "transfers": ""}, 'gives transfers "", not a JSON list'),
    # a key the writer does not write, which was once silently ignored
    (lambda line: {**line, "changes": {}}, 'has unknown key "changes"'),
])
def test_audit_rejects_a_branch_or_key_that_is_not_one(tmp_path, capsys, edit, message):
    inst, names = gen_petersen(seed=4, parallel_copies=2)
    instance_path = tmp_path / "p.instance.json"
    save_instance(inst, names, instance_path)
    path = tmp_path / "p.trace.jsonl"
    save_trace(solve(inst)[2], path)
    lines = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    i = next(i for i, line in enumerate(lines) if "3" in line.get("snapshot", ()))
    lines[i] = edit(lines[i])
    path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
    capsys.readouterr()
    assert main(["audit", str(instance_path), str(path)]) == EXIT_INPUT
    assert capsys.readouterr() == ("", f"error: trace event {i} {message}\n")


def test_audit_rejects_a_snapshot_bundle_that_names_a_good_twice(tmp_path, capsys):
    # a repeated good once read as one good, and the audit passed
    inst, names = gen_multicycle(seed=3, length=5)
    instance_path = tmp_path / "c5.instance.json"
    save_instance(inst, names, instance_path)
    path = tmp_path / "c5.trace.jsonl"
    save_trace(solve(inst)[2], path)
    lines = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    i, line = next((i, line) for i, line in enumerate(lines) if "snapshot" in line)
    agent, bundle = next(iter(line["snapshot"].items()))
    bundle.insert(0, bundle[-1])
    path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
    assert main(["audit", str(instance_path), str(path)]) == EXIT_INPUT
    assert capsys.readouterr() == (
        "", f'error: trace event {i} names good {bundle[0]} twice in snapshot["{agent}"]\n')


def test_a_leaf_s_pieces_that_name_a_good_twice_are_rejected():
    graph = MultiGraph(2, [(0, 1), (0, 1)])
    line = {"type": "leaf_attached", "leaf": 1, "parent": 0, "pieces": [[1], [0, 1, 0]],
            "leftover_to": 0, "snapshot": {"0": [0, 1]}}
    with pytest.raises(InputError, match=r"^trace event 3 names good 0 twice in pieces\[1\]$"):
        event_from_json(line, 3, graph, {})
    line["pieces"] = [[1], [0]]
    assert event_from_json(line, 3, graph, {}).pieces == (frozenset({1}), frozenset({0}))


def test_audit_rejects_a_repeated_key(tmp_path, capsys):
    # a repeated key once silently kept its last value
    inst, names = gen_petersen(seed=4, parallel_copies=2)
    instance_path = tmp_path / "p.instance.json"
    save_instance(inst, names, instance_path)
    path = tmp_path / "p.trace.jsonl"
    save_trace(solve(inst)[2], path)
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[3] = lines[3][:-1] + ', "root": 0}'
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    assert main(["audit", str(instance_path), str(path)]) == EXIT_INPUT
    assert capsys.readouterr().err == (
        f'error: cannot read trace {path}: key "root" appears twice in one object\n')


def test_audit_names_an_overlap_in_the_order_of_the_trace_file(tmp_path, capsys):
    # A snapshot gives one good of agent 9 to agent 10 as well.  The file
    # lists agent "10" before "9", so the reader names the good in agent 9's bundle.
    inst, names = gen_bipartite(seed=2, n_left=6, n_right=6)
    instance_path = tmp_path / "b6.instance.json"
    save_instance(inst, names, instance_path)
    trace = solve(inst)[2]
    events = folded(trace)
    i = next(i for i, ev in enumerate(events) if ev["type"] == StructureResolved.kind
             and ev["snapshot"].get(9) and ev["snapshot"].get(10))
    snapshot = dict(events[i]["snapshot"])
    snapshot[10] = snapshot[10] | {min(snapshot[9])}
    path = tmp_path / "overlap.trace.jsonl"
    save_trace(unfolded(events[:i] + [{**events[i], "snapshot": snapshot}] + events[i + 1:]), path)
    capsys.readouterr()
    assert main(["audit", str(instance_path), str(path)]) == EXIT_INPUT
    assert capsys.readouterr() == (
        "", f'error: trace event {i} names good {min(snapshot[9])} twice in snapshot["9"]\n')
