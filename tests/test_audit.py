import json
import random
import re
from collections import Counter
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphefx import Additive, InputError, Instance, MultiGraph
from graphefx.audit import FAMILIES, _connect, _structure_steps, _within, audit_trace
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
    interleaved_union,
    random_family_valuation,
    reference_audit_trace,
    reference_check_trace,
    reference_colors,
    reference_distances_within,
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
    return [event_from_json(json.loads(event_line(ev, texts)), i, graph, held)
            for i, ev in enumerate(trace)]


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
        audit_trace(b1_instance, [ColoringUsed(colors={0: 0, 1: 1}, t=2), event])
    # an empty coloring colors no agent; the audit would look the holders' colors up
    with pytest.raises(InputError, match="trace event 1 involves agent 0, which has no color"):
        audit_trace(b1_instance, [ColoringUsed(colors={}, t=2), event])


def _uncolored_sources(rng):
    """Instances whose solver traces color agents: bipartite, an odd
    multi-cycle, the Petersen graph, and a union of a multi-tree, a
    multi-cycle and a bipartite piece."""
    kind = rng.choice(("additive", "unit_demand", "budget_additive"))
    seed = rng.randrange(10**6)
    yield gen_bipartite(seed=seed, n_left=4, n_right=4, valuation_kind=kind)[0]
    yield gen_multicycle(seed=seed, length=rng.choice((5, 7)), valuation_kind=kind)[0]
    yield gen_petersen(seed=seed, valuation_kind=kind)[0]
    parts = [gen_multitree(seed=seed, n=4)[0], gen_multicycle(seed=seed, length=5)[0],
             gen_bipartite(seed=seed, n_left=3, n_right=3, edge_prob=(2, 3),
                           valuation_kind=kind)[0]]
    yield interleaved_union(rng, parts)[0]


def _event_involved(trace, idx, graph):
    """The agents that structure event ``idx`` involves: the agents it gives
    goods to and the endpoints of those goods."""
    moves = next(moves for i, _, moves in _structure_steps(trace) if i == idx)
    return {v for g, w in moves.items() if w is not None for v in (w, *graph.endpoints(g))}


def _input_error(check, *args):
    try:
        check(*args)
    except InputError as exc:
        return str(exc)
    return None


def test_the_audit_rejects_an_uncolored_agent_where_the_reference_check_does():
    rng = random.Random(38)
    pattern = re.compile(r"trace event (\d+) involves agent \d+, which has no color")
    rejected = single = 0
    for _ in range(40):
        for inst in _uncolored_sources(rng):
            solved = solve(inst)[2]
            for keep in (7, 3, 1):  # each color stays with odds keep : 1
                trace = [ColoringUsed(colors={v: c for v, c in ev.colors.items()
                                              if rng.randrange(keep + 1)}, t=ev.t)
                         if isinstance(ev, ColoringUsed) else ev for ev in solved]
                expected = _input_error(reference_check_trace, trace, inst.graph)
                got = _input_error(audit_trace, inst, trace)
                assert (got is None) == (expected is None), (expected, got)
                if expected is None:
                    continue
                rejected += 1
                idx = int(pattern.fullmatch(expected).group(1))
                assert pattern.fullmatch(got).group(1) == str(idx), (expected, got)
                colors = {v for ev in trace if isinstance(ev, ColoringUsed) for v in ev.colors}
                if len(_event_involved(trace, idx, inst.graph) - colors) == 1:
                    single += 1
                    assert got == expected
    assert rejected >= 200 and single >= 100, (rejected, single)


def _phase_based_sources(seed):
    """A bipartite instance, an odd multi-cycle, and a union of a bipartite and
    an odd multi-cycle, each solved by the phase-based solver."""
    rng = random.Random(seed)
    kind = rng.choice(("additive", "unit_demand", "budget_additive"))
    yield gen_bipartite(seed=seed, n_left=4, n_right=4, valuation_kind=kind)[0]
    yield gen_multicycle(seed=seed, length=rng.choice((5, 7)), valuation_kind=kind)[0]
    yield _cycle_union(rng, (4, 5), kind)


@pytest.mark.parametrize("seed", range(4))
def test_a_trace_without_its_coloring_is_rejected(tmp_path, capsys, seed):
    # with no coloring event the audit once skipped every family and passed
    pattern = re.compile(r"trace event (\d+) involves agent (\d+), which has no color")
    for inst in _phase_based_sources(seed):
        solved = solve(inst)[2]
        trace = [ev for ev in solved if not isinstance(ev, ColoringUsed)]
        assert len(trace) < len(solved)
        first = next(i for i, _, moves in _structure_steps(trace)
                     if any(w is not None for w in moves.values()))
        got = _input_error(audit_trace, inst, trace)
        expected = _input_error(reference_check_trace, trace, inst.graph)
        assert got is not None and expected is not None, (got, expected)
        idx, agent = map(int, pattern.fullmatch(got).groups())
        assert idx == first == int(pattern.fullmatch(expected).group(1))
        assert agent in _event_involved(trace, idx, inst.graph)

        instance_path = tmp_path / "inst.instance.json"
        save_instance(inst, [f"a{v}" for v in range(inst.graph.vertex_count)], instance_path)
        path = tmp_path / "stripped.trace.jsonl"
        save_trace(trace, path)
        capsys.readouterr()
        assert main(["audit", str(instance_path), str(path)]) == EXIT_INPUT
        assert capsys.readouterr() == ("", f"error: {got}\n")


# The holders before each event below: agent 1 holds goods 0 and 2.
HELD = {0: 1, 2: 1}
# Each event beside its trace line after HELD.  A good moved to None is not
# written, and a move of a good held before a structure event is a transfer.
EVENT_LINES = [
    (ColoringUsed(colors={1: 0, 0: 2}, t=3),
     {"type": "coloring_used", "colors": {"0": 2, "1": 0}, "t": 3}),
    (StructureResolved(phase=2, root=1, favourite=3, branch="same_bundle_keep",
                       moves={2: 3, 0: 3, 4: 1}),
     {"type": "structure_resolved", "phase": 2, "root": 1, "favourite": 3,
      "branch": "same_bundle_keep", "snapshot": {"1": [4], "3": [0, 2]},
      "transfers": [[0, 1, 3], [2, 1, 3]]}),
    (StructureResolved(phase=1, root=0, favourite=None, branch=None, moves={}),
     {"type": "structure_resolved", "phase": 1, "root": 0, "favourite": None, "branch": None,
      "snapshot": {"1": [0, 2]}, "transfers": []}),
    (LeafAttached(leaf=2, parent=0, pieces=(frozenset({3, 1}), frozenset()), leftover_to=0,
                  moves={3: 2, 1: 2, 0: None}),
     {"type": "leaf_attached", "leaf": 2, "parent": 0, "pieces": [[1, 3], []],
      "leftover_to": 0, "snapshot": {"1": [2], "2": [1, 3]}}),
    (CycleResolved(cycle=(0, 1), moves={0: 0, 2: 0}),
     {"type": "cycle_resolved", "cycle": [0, 1], "snapshot": {"0": [0, 2]}}),
]


def _written_after_held(ev):
    """The line of ``ev`` written after a line that leaves HELD."""
    held = {}
    event_line(CycleResolved(cycle=(), moves=HELD), held)
    return event_line(ev, held)


@pytest.mark.parametrize("event, line", EVENT_LINES)
def test_trace_line_format(event, line):
    text = json.dumps(line, sort_keys=True)
    assert _written_after_held(event) == text
    # the lines name agents up to 5 and goods up to 4
    read = event_from_json(line, 0, MultiGraph(6, [(0, 1)] * 5), dict(HELD))
    assert read == event and _written_after_held(read) == text


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
    assert any(ev.get("transfers") for ev in folded(traces[1][1]))
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
    cycles = _cycle_union(random.Random(17), (5, 7), "additive")
    union = solve(cycles)[2]
    # The union's structure events again, each also moving to None every
    # good that no one holds before and after it.
    structures = [ev for ev in union if isinstance(ev, StructureResolved)]
    padded = [replace(ev, moves={**{g: None for g in range(cycles.graph.edge_count)
                                    if all(g not in b for b in snapshot["snapshot"].values())},
                                 **ev.moves})
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
@given(st.lists(st.dictionaries(st.integers(0, 30), st.none() | st.integers(0, 12), max_size=9),
                min_size=1, max_size=6))
def test_writer_folds_any_changes(steps):
    # A few goods among a few agents, so a move may give a good to its
    # holder, move a good no one holds to None, empty a bundle or leave one
    # as it is, and goods above 7 make a set's order differ from its sorted order.
    trace = [CycleResolved(cycle=(0, 1), moves=moves) for moves in steps]
    assert _written(trace) == _reference_lines(trace)


# Agents up to 25, so that "10".."25" sort before "3".."9" in a snapshot;
# a bundle of up to four goods, or an emptied one.
_AGENTS = st.integers(0, 25)
_GOODS = st.frozensets(st.integers(0, 40), max_size=4)
_MOVES = st.dictionaries(st.integers(0, 40), st.none() | _AGENTS, max_size=6)
_EVENTS = st.one_of(
    st.builds(ColoringUsed, colors=st.dictionaries(_AGENTS, st.integers(0, 12), max_size=14),
              t=st.integers(0, 13)),
    st.builds(StructureResolved, phase=st.integers(0, 12), root=_AGENTS,
              favourite=st.none() | _AGENTS, branch=st.none() | st.sampled_from(BRANCHES),
              moves=_MOVES),
    st.builds(LeafAttached, leaf=_AGENTS, parent=_AGENTS, pieces=st.tuples(_GOODS, _GOODS),
              leftover_to=_AGENTS, moves=_MOVES),
    st.builds(CycleResolved, cycle=st.lists(_AGENTS, max_size=5).map(tuple), moves=_MOVES),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.lists(st.tuples(_EVENTS, st.booleans()), max_size=14))
def test_writer_matches_reference_for_every_event_kind(steps):
    # A step event marked True also moves every good held before it to None,
    # as the first step event of a later component in a component-wise solve does.
    trace, held = [], set()
    for ev, withdraws in steps:
        if not isinstance(ev, ColoringUsed):
            if withdraws:
                ev = replace(ev, moves={**dict.fromkeys(held), **ev.moves})
            held = {g for g, u in {**dict.fromkeys(held, 0), **ev.moves}.items()
                    if u is not None}
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


def test_a_structure_line_must_list_the_transfers_its_snapshot_makes(tmp_path, capsys):
    # Copies of a trace whose last structure line gives one good, up to three
    # of each bundle, to the good's other endpoint, with the line's transfers
    # as written.  All 144 passed the audit when the reader did not check the
    # transfers.  A copy that moves a good held before the line makes a
    # transfer the line does not list, and fails at read.  The 3 that move a
    # good the line first allocates make no transfer, and read.
    inst, names = gen_bipartite(seed=1, n_left=24, n_right=24)
    instance_path = tmp_path / "b24.instance.json"
    save_instance(inst, names, instance_path)
    lines = [json.loads(line) for line in _written(solve(inst)[2])]
    i = max(i for i, line in enumerate(lines) if line["type"] == StructureResolved.kind)
    before = {g for b in lines[i - 1]["snapshot"].values() for g in b}
    path = tmp_path / "copy.trace.jsonl"
    failed = read = 0
    for agent, bundle in lines[i]["snapshot"].items():
        for g in sorted(bundle)[:3]:
            copy = json.loads(json.dumps(lines))
            to = next(str(v) for v in inst.graph.endpoints(g) if str(v) != agent)
            copy[i]["snapshot"][agent].remove(g)
            copy[i]["snapshot"].setdefault(to, []).append(g)
            path.write_text("".join(json.dumps(line) + "\n" for line in copy), encoding="utf-8")
            if g not in before:
                load_trace(path, inst.graph)
                read += 1
                continue
            with pytest.raises(InputError) as err:
                load_trace(path, inst.graph)
            assert str(err.value) == (f"trace event {i} gives transfers that its snapshot does"
                                      f" not make, first at good {g}")
            failed += 1
    assert (failed, read) == (141, 3)
    capsys.readouterr()
    assert main(["audit", str(instance_path), str(path)]) == EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and f"trace event {i} gives transfers" in err


def test_a_held_good_given_to_another_agent_fails_at_read():
    # A structure line of a solver trace that gives a good held before it to
    # an agent that held it neither before nor after the line, with the
    # line's transfers as written, fails at that line.
    rng = random.Random(23)
    tampered = 0
    for inst, trace in _phase_based_traces():
        lines = [json.loads(line) for line in _written(trace)]
        steps = [i for i, line in enumerate(lines) if "snapshot" in line]
        for _ in range(20):
            j = rng.randrange(1, len(steps))
            i, before = steps[j], lines[steps[j - 1]]["snapshot"]
            if lines[i]["type"] != StructureResolved.kind or not any(before.values()):
                continue
            g = rng.choice(sorted(g for b in before.values() for g in b))
            copy = json.loads(json.dumps(lines))
            snapshot = {u: [h for h in b if h != g] for u, b in copy[i]["snapshot"].items()}
            holders = {u for u, b in chain(before.items(), copy[i]["snapshot"].items()) if g in b}
            to = rng.choice([str(v) for v in range(inst.graph.vertex_count) if str(v) not in holders])
            copy[i]["snapshot"] = {**snapshot, to: snapshot.get(to, []) + [g]}
            held = {}
            with pytest.raises(InputError, match=f"^trace event {i} gives transfers"):
                for k, line in enumerate(copy):
                    event_from_json(line, k, inst.graph, held)
            tampered += 1
    assert tampered > 100, tampered


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
    events, held = [], {}
    for root, favourite, changes in steps:  # each gives the agents in changes their new bundles
        held = {**held, **{u: frozenset(b) for u, b in changes.items()}}
        events.append({"type": StructureResolved.kind, "phase": 1, "root": root,
                       "favourite": favourite, "branch": None, "snapshot": held})
    trace = [ColoringUsed(colors={v: v % 2 for v in range(6)}, t=2)] + unfolded(events)
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
    assert trace[-1].moves[0] == 0
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


def test_unit_demand_audit_rechecks_only_what_moved_goods_change():
    # In the keep branch a root's favourite takes goods incident to other
    # agents.  Re-deciding a grown agent against every changed rival, and
    # rechecking the union at both ends of every moved good, made 1,721
    # queries on this trace; the rules that follow the moved goods make 861.
    plain = gen_bipartite(seed=7, n_left=24, n_right=24, valuation_kind="unit_demand")[0]
    trace = solve(plain)[2]
    counter = [0]
    inst = Instance(graph=plain.graph, valuations={
        u: CountingValuation(v, counter) for u, v in plain.valuations.items()})
    assert audit_trace(inst, trace).ok
    assert 0 < counter[0] <= 900


def _held_through_a_loop(inst, trace):
    """(event index, good, root, holder) for each good that a structure event
    leaves with its root's favourite, which is not an endpoint of the good,
    while a good of the loop between that favourite and the root is held."""
    colors = reference_colors(trace)
    favourite_of = {}
    for i, ev in enumerate(folded(trace)):
        if ev["type"] != StructureResolved.kind:
            continue
        favourite_of[ev["root"]] = ev["favourite"]
        held = {g: w for w, b in ev["snapshot"].items() for g in b}
        for g, w in sorted(held.items()):
            a, b = inst.graph.endpoints(g)
            root = a if colors[a] < colors[b] else b
            if (w not in (a, b) and favourite_of.get(root) == w
                    and not held.keys().isdisjoint(inst.graph.parallel_edges(root, w))):
                yield i, g, root, w


def test_the_distance_shortcut_needs_a_held_good_of_the_favourite_s_loop():
    # In the keep branch a root's favourite w takes goods that are not
    # incident to it.  Such a good passes the distance checks without a
    # search while a held good of the loop joins w to the good's root.  The
    # tampered trace withdraws every good of that loop at one event, and on a
    # bipartite skeleton the root and w are then an odd number of hops
    # apart, at least 3: beyond a valuer's bound of color(w) + 1 = 2.
    plain = gen_bipartite(seed=7, n_left=24, n_right=24, valuation_kind="unit_demand")[0]
    trace = solve(plain)[2]
    assert audit_trace(plain, trace).ok
    i, g, root, w = next(_held_through_a_loop(plain, trace))
    events = folded(trace)
    loop = plain.graph.parallel_edges(root, w)
    snapshot = {u: b - loop for u, b in events[i]["snapshot"].items()}
    bad = unfolded(events[:i] + [{**events[i], "snapshot": snapshot}] + events[i + 1:])
    _read_back(bad, plain.graph)
    report = audit_trace(plain, bad)
    assert (f"event {i}: valuer {root} of good {g} is farther than 2 from holder {w}"
            in report.results["distance"][1])
    assert report == reference_audit_trace(plain, bad)


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 10).flatmap(lambda n: st.tuples(
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n),
    st.integers(0, n - 1), st.integers(0, n - 1))), st.integers(-1, 6))
def test_within_meets_in_the_middle_as_a_bfs_would(graph, depth):
    pairs, src, dst = graph
    adj = {}
    for a, b in pairs:
        if a != b:
            _connect(adj, a, b)
    near = reference_distances_within(adj, src, depth)
    assert _within(adj, src, dst, depth) == (depth >= 0 and dst in near)


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
    path = tmp_path / "overlap.trace.jsonl"
    save_trace(solve(inst)[2], path)
    lines = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    i = next(i for i, line in enumerate(lines) if line["type"] == StructureResolved.kind
             and line["snapshot"].get("9") and line["snapshot"].get("10"))
    good = min(lines[i]["snapshot"]["9"])
    lines[i]["snapshot"]["10"].append(good)
    path.write_text("".join(json.dumps(line, sort_keys=True) + "\n" for line in lines),
                    encoding="utf-8")
    capsys.readouterr()
    assert main(["audit", str(instance_path), str(path)]) == EXIT_INPUT
    assert capsys.readouterr() == (
        "", f'error: trace event {i} names good {good} twice in snapshot["9"]\n')
