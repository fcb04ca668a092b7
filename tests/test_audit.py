import dataclasses
import random

import pytest

from graphefx import InputError, Instance, MultiGraph
from graphefx.audit import FAMILIES, audit_trace
from graphefx.generators import gen_bipartite, gen_multitree, gen_petersen
from graphefx.solvers import bipartite_efx, chromatic_efx, solve, tree_efx
from graphefx.trace import ColoringUsed, check_trace

from .conftest import random_family_valuation, tamper_trace


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
