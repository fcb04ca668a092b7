import dataclasses
import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphefx import InputError, Instance, MultiGraph
from graphefx.audit import FAMILIES, audit_trace
from graphefx.cli import EXIT_INPUT, EXIT_NOT_EFX, EXIT_OK, main
from graphefx.generators import gen_bipartite, gen_multicycle, gen_multitree, gen_petersen
from graphefx.jsonio import load_trace, save_instance, save_trace
from graphefx.solvers import bipartite_efx, chromatic_efx, solve, tree_efx
from graphefx.trace import (
    ColoringUsed,
    CycleResolved,
    LeafAttached,
    StructureResolved,
    check_trace,
    event_from_json,
    event_line,
    relabel,
)

from .conftest import (
    CountingValuation,
    random_family_valuation,
    reference_audit_trace,
    reference_event_to_json,
    tamper_trace,
)


def test_bipartite_traces_pass(b1_instance):
    bipart = b1_instance.graph.bipartition()
    _, trace = bipartite_efx(b1_instance, bipart)
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


def test_check_trace_accepts_solver_traces():
    rng = random.Random(3)
    instances = [_cycle_union(rng, (4, 5), "additive"), _cycle_union(rng, (5, 5), "unit_demand"),
                 gen_petersen(seed=1, parallel_copies=2)[0], gen_multitree(seed=2, n=7)[0]]
    for inst in instances:
        check_trace(solve(inst)[2], inst.graph)


@pytest.mark.parametrize("edit, message", [
    (lambda ev: dataclasses.replace(ev, root=99), "agent 99"),
    (lambda ev: dataclasses.replace(ev, favourite="a"), "agent 'a'"),
    (lambda ev: dataclasses.replace(ev, snapshot={0: frozenset({"x"})}), "good 'x'"),
    (lambda ev: dataclasses.replace(ev, transfers=((0, 1, -1),)), "agent -1"),
    (lambda ev: dataclasses.replace(ev, phase=None), "count None"),
])
def test_check_trace_rejects_bad_ids(b1_instance, edit, message):
    coloring, event = bipartite_efx(b1_instance, b1_instance.graph.bipartition())[1]
    with pytest.raises(InputError, match=message):
        check_trace([coloring, edit(event)], b1_instance.graph)


def test_check_trace_rejects_uncolored_holders(b1_instance):
    _, event = bipartite_efx(b1_instance, b1_instance.graph.bipartition())[1]
    with pytest.raises(InputError, match="agent 2, which has no color"):
        check_trace([ColoringUsed(colors={0: 0, 1: 1}, t=2), event], b1_instance.graph)


# Each event beside its trace line; the bundle of agent 5 is empty, so it is not written.
EVENT_LINES = [
    (ColoringUsed(colors={1: 0, 0: 2}, t=3),
     {"type": "coloring_used", "colors": {"0": 2, "1": 0}, "t": 3}),
    (StructureResolved(phase=2, root=1, favourite=3, branch="same_bundle_keep",
                       snapshot={3: frozenset({2, 0}), 1: frozenset({4}), 5: frozenset()},
                       transfers=((2, 1, 3), (0, 1, 3))),
     {"type": "structure_resolved", "phase": 2, "root": 1, "favourite": 3,
      "branch": "same_bundle_keep", "snapshot": {"1": [4], "3": [0, 2]},
      "transfers": [[2, 1, 3], [0, 1, 3]]}),
    (StructureResolved(phase=1, root=0, favourite=None, branch=None, snapshot={}, transfers=()),
     {"type": "structure_resolved", "phase": 1, "root": 0, "favourite": None, "branch": None,
      "snapshot": {}, "transfers": []}),
    (LeafAttached(leaf=2, parent=0, pieces=(frozenset({3, 1}), frozenset()), leftover_to=0,
                  snapshot={2: frozenset({1, 3})}),
     {"type": "leaf_attached", "leaf": 2, "parent": 0, "pieces": [[1, 3], []],
      "leftover_to": 0, "snapshot": {"2": [1, 3]}}),
    (CycleResolved(cycle=(2, 0, 1), snapshot={0: frozenset({1})}),
     {"type": "cycle_resolved", "cycle": [2, 0, 1], "snapshot": {"0": [1]}}),
]


@pytest.mark.parametrize("event, line", EVENT_LINES)
def test_trace_line_format(event, line):
    text = json.dumps(line, sort_keys=True)
    assert event_line(event, {}) == text
    assert event_line(event_from_json(line, 0), {}) == text


def _every_event_kind():
    """A tree trace that resolves an envy cycle, then a Petersen trace in which
    one root has no right neighbour and another passes its prior bundle on."""
    tree = tree_efx(gen_multitree(seed=1, n=6, max_parallel=2)[0])[1]
    petersen = solve(gen_petersen(seed=4, parallel_copies=2)[0])[2]
    return tree + petersen


def test_solver_events_round_trip_through_json():
    trace = _every_event_kind()
    assert {type(ev) for ev in trace} == {ColoringUsed, StructureResolved, LeafAttached,
                                          CycleResolved}
    structures = [ev for ev in trace if isinstance(ev, StructureResolved)]
    assert any(ev.favourite is None for ev in structures)
    assert any(ev.transfers for ev in structures)
    fragments = {}
    for ev in trace:
        assert event_from_json(json.loads(event_line(ev, fragments)), 0) == ev


def _written(trace):
    """The writer's line for each event, with one bundle cache for the whole trace."""
    fragments = {}
    return [event_line(ev, fragments) for ev in trace]


def _reference_lines(trace):
    return [json.dumps(reference_event_to_json(ev), sort_keys=True) for ev in trace]


def test_writer_matches_reference_encoder(tmp_path):
    tree = tree_efx(gen_multitree(seed=1, n=6, max_parallel=2)[0])[1]
    bipartite = solve(gen_bipartite(seed=3, n_left=8, n_right=8)[0])[2]
    chromatic = solve(gen_petersen(seed=4, parallel_copies=2)[0])[2]
    union = solve(_cycle_union(random.Random(17), (5, 7), "additive"))[2]
    # The union's snapshots again, with an empty bundle for every agent that holds nothing.
    nothing = {u: frozenset() for u in range(12)}
    padded = [dataclasses.replace(ev, snapshot={**nothing, **ev.snapshot})
              for ev in union if isinstance(ev, StructureResolved)]
    assert any(isinstance(ev, CycleResolved) for ev in tree)
    assert any(ev.snapshot.keys() >= {9, 10} for ev in padded)  # "10" is written before "9"
    for trace in (tree, bipartite, chromatic, union, padded):
        assert _written(trace) == _reference_lines(trace)
    path = tmp_path / "all.trace.jsonl"
    everything = tree + bipartite + chromatic + union + padded
    save_trace(everything, path)
    want = "".join(line + "\n" for line in _reference_lines(everything))
    assert path.read_text(encoding="utf-8") == want


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.lists(st.frozensets(st.integers(0, 30), max_size=4), min_size=1, max_size=4),
       st.lists(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 3)), max_size=9),
                min_size=1, max_size=6))
def test_writer_caches_a_bundle_per_agent(pool, steps):
    # Snapshots take their bundles from a few frozenset objects, so one object
    # is held by several agents in one snapshot and across snapshots.
    trace = [CycleResolved(cycle=(0, 1), snapshot={u: pool[i % len(pool)] for u, i in step})
             for step in steps]
    assert _written(trace) == _reference_lines(trace)


def test_relabel_identity_and_inverse():
    trace = _every_event_kind()
    rng = random.Random(7)
    agents, goods = list(range(10)), list(range(40))
    rng.shuffle(agents)
    rng.shuffle(goods)
    agent_back = {a: i for i, a in enumerate(agents)}
    good_back = {g: i for i, g in enumerate(goods)}
    moved = 0
    for ev in trace:
        assert relabel(ev, lambda a: a, lambda g: g) == ev
        there = relabel(ev, agents.__getitem__, goods.__getitem__)
        moved += there != ev
        assert relabel(there, agent_back.__getitem__, good_back.__getitem__) == ev
    assert moved == len(trace)


@pytest.mark.parametrize("event, expected", [
    (EVENT_LINES[0][0], ColoringUsed(colors={11: 0, 10: 2}, t=3)),
    (EVENT_LINES[1][0], StructureResolved(
        phase=2, root=11, favourite=13, branch="same_bundle_keep",
        snapshot={13: frozenset({102, 100}), 11: frozenset({104}), 15: frozenset()},
        transfers=((102, 11, 13), (100, 11, 13)))),
    (EVENT_LINES[3][0], LeafAttached(leaf=12, parent=10, pieces=(frozenset({103, 101}), frozenset()),
                                     leftover_to=10, snapshot={12: frozenset({101, 103})})),
    (EVENT_LINES[4][0], CycleResolved(cycle=(12, 10, 11), snapshot={10: frozenset({101})})),
])
def test_relabel_maps_agents_and_goods_but_not_counts(event, expected):
    assert relabel(event, lambda a: a + 10, lambda g: g + 100) == expected


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
    trace = list(trace)
    structures = [i for i, ev in enumerate(trace) if isinstance(ev, StructureResolved)]
    n = inst.graph.vertex_count
    kinds = []
    for _ in range(rng.randint(1, 3)):
        i = rng.choice(structures)
        held = {g: u for u, b in trace[i].snapshot.items() for g in b}
        kind = rng.choice(("move", "hand", "withdraw", "root")) if held else "root"
        kinds.append(kind)
        if kind == "root":
            trace[i] = dataclasses.replace(trace[i], root=rng.randrange(n))
            continue
        g = rng.choice(sorted(held))
        ends = inst.graph.endpoints(g)
        to = {"move": next((e for e in ends if e != held[g]), ends[0]),
              "hand": rng.choice([u for u in range(n) if u not in ends]),
              "withdraw": None}[kind]
        last = i if rng.random() < 0.5 else structures[-1]
        for j in structures:
            if i <= j <= last:
                snapshot = {u: b - {g} for u, b in trace[j].snapshot.items()}
                if to is not None:
                    snapshot[to] = snapshot.get(to, frozenset()) | {g}
                trace[j] = dataclasses.replace(trace[j], snapshot=snapshot)
    return trace, kinds


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
        check_trace(bad, inst.graph)
        report = audit_trace(inst, bad)
        assert report == reference_audit_trace(inst, bad), kinds
        edits.update(kinds)
        failing.update(f for f in FAMILIES if report.status(f) == "fail")
        failing["any"] += not report.ok
    assert min(edits.values()) > 300, edits
    assert failing["any"] > 900, failing
    stepped = ("localized_envy", "distance", "unresolved_union")
    assert min(failing[f] for f in stepped) > 300, failing


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
        recolored = [dataclasses.replace(ev, colors=colors) if isinstance(ev, ColoringUsed) else ev
                     for ev in trace]
        report = audit_trace(inst, recolored)
        assert report == reference_audit_trace(inst, recolored)
        far += report.status("distance") == "fail"
    assert 50 < far < 300, far


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
        assert load_trace(path) == events
        report = audit_trace(inst, events)
        capsys.readouterr()
        code = main(["audit", str(instance_path), str(path)])
        assert code == (EXIT_OK if report.ok else EXIT_NOT_EFX)
        assert capsys.readouterr().out == _audit_output(report)


def test_audit_names_an_overlap_in_the_order_of_the_trace_file(tmp_path, capsys):
    # A snapshot gives one good of agent 9 to agent 10 as well.  The file
    # lists agent "10" before "9", so checking that snapshot names agent 9.
    inst, names = gen_bipartite(seed=2, n_left=6, n_right=6)
    instance_path = tmp_path / "b6.instance.json"
    save_instance(inst, names, instance_path)
    trace = solve(inst)[2]
    i = next(i for i, ev in enumerate(trace)
             if isinstance(ev, StructureResolved) and ev.snapshot.get(9) and ev.snapshot.get(10))
    snapshot = dict(trace[i].snapshot)
    snapshot[10] = snapshot[10] | {min(snapshot[9])}
    path = tmp_path / "overlap.trace.jsonl"
    save_trace(trace[:i] + [dataclasses.replace(trace[i], snapshot=snapshot)] + trace[i + 1:], path)
    capsys.readouterr()
    assert main(["audit", str(instance_path), str(path)]) == EXIT_INPUT
    assert capsys.readouterr() == ("", "error: bundles are not disjoint at agent 9\n")
