import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import graphefx
from graphefx import (
    Additive,
    BudgetAdditive,
    Coloring,
    InputError,
    Instance,
    MultiGraph,
    Table,
    UnitDemand,
    solve,
)
from graphefx.cli import EXIT_INPUT, EXIT_NOT_EFX, EXIT_OK, EXIT_UNSUPPORTED, main
from graphefx.jsonio import (
    allocation_from_json,
    allocation_to_json,
    instance_from_json,
    instance_to_json,
    load_instance,
    load_trace,
    save_instance,
)
from graphefx.trace import ColoringUsed

from .conftest import additive_instance, gnp_graph, star_graph, zero_instance


@pytest.fixture
def b1_file(b1_instance, tmp_path):
    path = tmp_path / "b1.instance.json"
    save_instance(b1_instance, ["a", "b", "c"], path)
    return path


def test_gen_deterministic(tmp_path):
    p1, p2 = tmp_path / "x.json", tmp_path / "y.json"
    args = ["gen", "bipartite", "--seed", "7", "--n-left", "3", "--n-right", "3"]
    assert main(args + ["-o", str(p1)]) == EXIT_OK
    assert main(args + ["-o", str(p2)]) == EXIT_OK
    assert p1.read_bytes() == p2.read_bytes()
    assert main(["gen", "bipartite", "--seed", "8", "-o", str(p2)]) == EXIT_OK
    assert p1.read_bytes() != p2.read_bytes()


def test_gen_seed_env_var(tmp_path, monkeypatch):
    p1, p2 = tmp_path / "x.json", tmp_path / "y.json"
    monkeypatch.setenv("GRAPHEFX_SEED", "99")
    assert main(["gen", "multitree", "--agents", "5", "-o", str(p1)]) == EXIT_OK
    assert main(["gen", "multitree", "--agents", "5", "--seed", "99", "-o", str(p2)]) == EXIT_OK
    assert p1.read_bytes() == p2.read_bytes()


def test_analyze_petersen(tmp_path, capsys):
    path = tmp_path / "p.instance.json"
    assert main(["gen", "petersen", "--seed", "1", "--parallel-copies", "2",
                 "-o", str(path)]) == EXIT_OK
    capsys.readouterr()
    assert main(["analyze", str(path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "girth: 5" in out
    assert "chromatic_number: 3" in out
    assert "chromatic" in out.splitlines()[-1]


def test_analyze_multicycle_4_bipartite(tmp_path, capsys):
    path = tmp_path / "c4.instance.json"
    assert main(["gen", "multicycle", "--seed", "3", "--length", "4", "-o", str(path)]) == EXIT_OK
    capsys.readouterr()
    assert main(["analyze", str(path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "bipartite: True" in out


def test_solve_b1(b1_file, tmp_path, capsys):
    alloc_path = tmp_path / "b1.alloc.json"
    trace_path = tmp_path / "b1.trace.jsonl"
    code = main(["solve", str(b1_file), "-o", str(alloc_path), "--trace", str(trace_path)])
    assert code == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    # the B1 skeleton is a star, so dispatch rule 1 picks the tree solver
    assert report["method_used"] == "tree"
    assert report["efx"] is True and report["complete"] is True
    alloc = allocation_from_json(json.loads(alloc_path.read_text()), ["a", "b", "c"])
    assert alloc.assigned_edges == {0, 1, 2, 3}
    assert len(load_trace(trace_path)) >= 1


def test_verify_pipeline(b1_file, tmp_path, capsys):
    alloc_path = tmp_path / "out.alloc.json"
    assert main(["solve", str(b1_file), "-o", str(alloc_path)]) == EXIT_OK
    assert main(["verify", str(b1_file), str(alloc_path)]) == EXIT_OK
    unfair = tmp_path / "unfair.alloc.json"
    unfair.write_text(json.dumps({"version": "1", "bundles": {"a": [0, 1, 2, 3]}}))
    capsys.readouterr()
    assert main(["verify", str(b1_file), str(unfair)]) == EXIT_NOT_EFX
    assert "violated" in capsys.readouterr().out


def test_verify_partial_allocation(b1_file, tmp_path):
    partial = tmp_path / "partial.alloc.json"
    partial.write_text(json.dumps({"version": "1", "bundles": {"b": [0]}}))
    assert main(["verify", str(b1_file), str(partial)]) == EXIT_OK


def _run_cli(*args, env=None):
    """``graphefx`` in a fresh interpreter, so that a traceback reaches stderr."""
    src = str(Path(graphefx.__file__).resolve().parent.parent)
    env = {**os.environ, **(env or {}),
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "graphefx.cli", *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=120)


def _assert_one_error_line(done):
    assert done.returncode == EXIT_INPUT, done.stderr
    assert done.stdout == ""
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    assert "Traceback" not in done.stderr


def test_verify_bundles_list_exit_1(b1_file, tmp_path):
    bad = tmp_path / "list.alloc.json"
    bad.write_text(json.dumps({"bundles": [1, 2]}))
    done = _run_cli("verify", b1_file, bad)
    _assert_one_error_line(done)
    assert "malformed allocation document" in done.stderr


def test_solve_colors_list_exit_1(b1_file, tmp_path):
    bad = tmp_path / "list.coloring.json"
    bad.write_text(json.dumps({"colors": [0, 1], "t": 3}))
    done = _run_cli("solve", b1_file, "--coloring", bad)
    _assert_one_error_line(done)
    assert "malformed coloring file" in done.stderr


def test_malformed_json_exit_1(tmp_path):
    bad = tmp_path / "bad.instance.json"
    bad.write_text("{not json")
    assert main(["solve", str(bad)]) == EXIT_INPUT
    assert main(["analyze", str(bad)]) == EXIT_INPUT


def test_unsupported_class_exit_2(tmp_path, capsys):
    doc = {
        "version": "1",
        "agents": ["a", "b", "c"],
        "edges": [
            {"id": i, "endpoints": pair}
            for i, pair in enumerate(
                [["a", "b"]] * 3 + [["b", "c"]] * 3 + [["c", "a"]] * 3
            )
        ],
        "valuations": {
            "a": {"type": "additive", "values": {str(g): 1 for g in (0, 1, 2, 6, 7, 8)}},
            "b": {"type": "additive", "values": {str(g): 1 for g in (0, 1, 2, 3, 4, 5)}},
            "c": {"type": "additive", "values": {str(g): 1 for g in (3, 4, 5, 6, 7, 8)}},
        },
    }
    path = tmp_path / "tri.instance.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", str(path)]) == EXIT_UNSUPPORTED
    err = capsys.readouterr().err
    assert err.startswith("error: no solver applies: ") and "girth 3 < 5" in err
    assert main(["analyze", str(path)]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert "chromatic_number: None" in out  # girth 3: no coloring is searched
    assert out[-1] == "eligible: none"


def test_oracle_command(b1_file, capsys):
    assert main(["oracle", str(b1_file)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "searched: 81" in out
    assert "efx_count:" in out


@pytest.fixture
def c4_file(tmp_path):
    # length-4 multi-cycle: routed to the bipartite solver, so its trace is
    # phase-based and all audit families apply
    path = tmp_path / "c4.instance.json"
    assert main(["gen", "multicycle", "--seed", "5", "--length", "4", "-o", str(path)]) == EXIT_OK
    return path


def test_audit_command(c4_file, tmp_path, capsys):
    trace_path = tmp_path / "c4.trace.jsonl"
    assert main(["solve", str(c4_file), "--trace", str(trace_path)]) == EXIT_OK
    capsys.readouterr()
    assert main(["audit", str(c4_file), str(trace_path)]) == EXIT_OK
    out = capsys.readouterr().out
    for family in ("localized_envy", "good_movement", "distance", "unresolved_union"):
        assert f"{family}: pass" in out


def test_audit_tree_trace_not_applicable(b1_file, tmp_path, capsys):
    trace_path = tmp_path / "b1.trace.jsonl"
    assert main(["solve", str(b1_file), "--trace", str(trace_path)]) == EXIT_OK
    capsys.readouterr()
    assert main(["audit", str(b1_file), str(trace_path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "localized_envy: n/a" in out


def test_audit_tampered_exit_3(c4_file, tmp_path, capsys):
    trace_path = tmp_path / "c4.trace.jsonl"
    assert main(["solve", str(c4_file), "--trace", str(trace_path)]) == EXIT_OK
    lines = trace_path.read_text().splitlines()
    tampered = []
    for line in lines:
        obj = json.loads(line)
        if obj["type"] == "structure_resolved":
            obj["transfers"] = [[0, obj["root"], obj["root"]]]
        tampered.append(json.dumps(obj))
    trace_path.write_text("\n".join(tampered) + "\n")
    capsys.readouterr()
    assert main(["audit", str(c4_file), str(trace_path)]) == EXIT_NOT_EFX
    assert "good_movement: fail" in capsys.readouterr().out


def test_batch_mode(tmp_path, capsys):
    for seed in range(3):
        assert main(["gen", "multitree", "--seed", str(seed), "--agents", "5",
                     "-o", str(tmp_path / f"t{seed}.instance.json")]) == EXIT_OK
    capsys.readouterr()
    assert main(["solve", "--batch", str(tmp_path), "--trace", "yes"]) == EXIT_OK
    reports = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(reports) == 3
    assert all(r["efx"] for r in reports)
    for seed in range(3):
        assert (tmp_path / f"t{seed}.alloc.json").exists()
        assert (tmp_path / f"t{seed}.trace.jsonl").exists()


def test_batch_empty_dir_exit_1(tmp_path):
    assert main(["solve", "--batch", str(tmp_path)]) == EXIT_INPUT


def test_batch_bad_jobs_exit_1(b1_file, capsys):
    for jobs in ("0", "-3"):
        assert main(["solve", "--batch", str(b1_file.parent), "--jobs", jobs]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err == f"error: --jobs must be at least 1, got {jobs}\n"
    assert not list(b1_file.parent.glob("*.alloc.json"))


def _every_valuation_kind():
    # a star on agent 0: one valuation of each kind, with a binding budget cap
    g = MultiGraph(4, [(0, 1), (0, 1), (0, 2), (0, 2), (0, 3)])
    return Instance(graph=g, valuations={
        0: BudgetAdditive(values={0: 4, 1: 2, 2: 5, 3: 1, 4: 3}, cap=7),
        1: UnitDemand(values={0: 3, 1: 6}),
        2: Table(entries={frozenset(): 0, frozenset({2}): 2, frozenset({3}): 1,
                          frozenset({2, 3}): 4}),
        3: Additive(values={4: 9}),
    })


def test_instance_json_round_trip(b1_instance, tmp_path):
    for inst in (b1_instance, _every_valuation_kind()):
        names = [f"x{u}" for u in range(inst.graph.vertex_count)]
        doc = instance_to_json(inst, names)
        inst2, names2 = instance_from_json(json.loads(json.dumps(doc)))
        assert names2 == names
        assert inst2.valuations == inst.valuations
        assert instance_to_json(inst2, names) == doc
        path = tmp_path / "rt.instance.json"
        save_instance(inst, names, path)
        inst3, _ = load_instance(path)
        assert instance_to_json(inst3, names) == doc
    assert [v["type"] for v in doc["valuations"].values()] == [
        "budget_additive", "unit_demand", "table", "additive"]
    assert doc["valuations"]["x0"]["cap"] == 7


def test_unknown_valuation_type_rejected(b1_instance):
    doc = instance_to_json(b1_instance, ["a", "b", "c"])
    doc["valuations"]["b"] = {"type": "xor", "values": {"0": 3}}
    with pytest.raises(InputError, match="^unknown valuation type 'xor'$"):
        instance_from_json(doc)


def test_allocation_json_round_trip(b1_instance):
    from graphefx import Allocation

    alloc = Allocation(bundles={0: frozenset({0, 3}), 2: frozenset({2})})
    doc = allocation_to_json(alloc, ["a", "b", "c"])
    assert allocation_from_json(doc, ["a", "b", "c"]) == alloc


def test_table_valuation_round_trip(noncancellable_table, tmp_path):
    from graphefx import Instance, MultiGraph

    g = MultiGraph(2, [(0, 1)] * 3)
    inst = Instance(
        graph=g,
        valuations={0: noncancellable_table,
                    1: noncancellable_table},
    )
    doc = instance_to_json(inst, ["x", "y"])
    inst2, _ = instance_from_json(doc)
    assert inst2.valuations[0].entries == noncancellable_table.entries


def test_budget_additive_bool_cap_rejected(b1_instance):
    doc = instance_to_json(b1_instance, ["a", "b", "c"])
    doc["valuations"]["b"] = {"type": "budget_additive", "values": {"0": 3, "1": 3}, "cap": True}
    with pytest.raises(InputError, match="cap"):
        instance_from_json(doc)


def _hostile_audit(c4_file, tmp_path, capsys, edit):
    trace_path = tmp_path / "c4.trace.jsonl"
    assert main(["solve", str(c4_file), "--trace", str(trace_path)]) == EXIT_OK
    lines = trace_path.read_text().splitlines()
    trace_path.write_text("\n".join(edit(lines)) + "\n")
    capsys.readouterr()
    assert main(["audit", str(c4_file), str(trace_path)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    return captured.err


def _edit_first_structure(lines, kind="structure_resolved", **fields):
    out = []
    for line in lines:
        obj = json.loads(line)
        if obj["type"] == kind and fields:
            obj.update(fields)
            fields = {}
        out.append(json.dumps(obj))
    return out


def test_audit_short_transfer_exit_1(c4_file, tmp_path, capsys):
    err = _hostile_audit(c4_file, tmp_path, capsys,
                         lambda lines: _edit_first_structure(lines, transfers=[[1, 2]]))
    assert "cannot read trace" in err


def test_audit_short_pieces_exit_1(b1_file, tmp_path, capsys):
    # b1 solves as a tree, so its trace attaches leaves
    err = _hostile_audit(b1_file, tmp_path, capsys, lambda lines: _edit_first_structure(
        lines, kind="leaf_attached", pieces=[[0]]))
    assert "cannot read trace" in err


def test_audit_non_object_line_exit_1(c4_file, tmp_path, capsys):
    err = _hostile_audit(c4_file, tmp_path, capsys, lambda lines: lines + ["[1, 2]"])
    assert "cannot read trace" in err


def test_audit_agent_out_of_range_exit_1(c4_file, tmp_path, capsys):
    err = _hostile_audit(c4_file, tmp_path, capsys,
                         lambda lines: _edit_first_structure(lines, root=99))
    assert "agent 99" in err


def _star_and_five_cycle(tmp_path):
    """A star on a0..a2 beside a 5-cycle on a3..a7, and its instance file."""
    pairs = [(0, 1), (0, 2), (3, 4), (4, 5), (5, 6), (6, 7), (7, 3)]
    g = MultiGraph(8, pairs)
    inst = Instance(graph=g, valuations={
        u: Additive(values={e: 1 + (u + e) % 5 for e in g.incident_edges(u)}) for u in range(8)
    })
    path = tmp_path / "u.instance.json"
    save_instance(inst, [f"a{i}" for i in range(8)], path)
    return inst, path


def test_solve_reports_dispatch_verdicts(tmp_path, capsys):
    _, path = _star_and_five_cycle(tmp_path)
    assert main(["solve", str(path)]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["method_used"] == "componentwise(tree,chromatic)"
    assert report["dispatch"] == [
        [{"solver": "tree", "result": "applied"}],
        [
            {"solver": "tree", "result": "not a multi-tree"},
            {"solver": "bipartite", "result": "not bipartite"},
            {"solver": "chromatic", "result": "applied"},
        ],
    ]


# a proper 3-coloring of the star and the 5-cycle, by agent index
HINT = [0, 1, 1, 0, 1, 0, 1, 2]


@pytest.mark.parametrize("colors, message", [
    (HINT[:7], "coloring is missing vertex 7"),
    (HINT[:7] + [9], "vertex 7 has color outside 0..2"),
])
def test_bad_coloring_hint_on_disconnected_instance(tmp_path, capsys, colors, message):
    inst, path = _star_and_five_cycle(tmp_path)
    with pytest.raises(InputError, match=f"^{message}$"):
        solve(inst, Coloring(colors=dict(enumerate(colors)), t=3))
    hint = tmp_path / "h.json"
    hint.write_text(json.dumps({"colors": {f"a{i}": c for i, c in enumerate(colors)}, "t": 3}))
    assert main(["solve", str(path), "--coloring", str(hint)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


@pytest.mark.parametrize("colors, message", [
    ({"a0": 0}, "coloring is missing vertex 1"),
    ({"a0": 0, "a1": 1, "a2": 1, "a3": 1, "a4": 9}, "vertex 4 has color outside 0..2"),
])
def test_bad_coloring_hint_on_connected_instance(tmp_path, capsys, colors, message):
    # the tree solver applies, so the hint would never reach the chromatic verdict
    path, hint = tmp_path / "t.instance.json", tmp_path / "h.json"
    assert main(["gen", "multitree", "--agents", "5", "-o", str(path)]) == EXIT_OK
    capsys.readouterr()
    hint.write_text(json.dumps({"colors": colors, "t": 3}))
    assert main(["solve", str(path), "--coloring", str(hint)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


def test_valid_coloring_hint_on_disconnected_instance(tmp_path, capsys):
    _, path = _star_and_five_cycle(tmp_path)
    hint = tmp_path / "h.json"
    hint.write_text(json.dumps({"colors": {f"a{i}": c for i, c in enumerate(HINT)}, "t": 3}))
    with_hint, without = tmp_path / "hinted.alloc.json", tmp_path / "plain.alloc.json"
    assert main(["solve", str(path), "--coloring", str(hint), "-o", str(with_hint)]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["method_used"] == "componentwise(tree,chromatic)"
    assert main(["solve", str(path), "-o", str(without)]) == EXIT_OK
    assert with_hint.read_bytes() == without.read_bytes()


def test_analyze_searches_no_coloring_outside_the_girth_bound(tmp_path, capsys, monkeypatch):
    path = tmp_path / "gnp.instance.json"
    graph = gnp_graph(random.Random(0), 80, 4.5 / 80)
    save_instance(zero_instance(graph), [f"a{i}" for i in range(80)], path)
    monkeypatch.setattr(MultiGraph, "find_coloring", lambda *a: pytest.fail("searched a coloring"))
    assert main(["analyze", str(path)]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert "girth: 3" in out and "chromatic_number: None" in out
    assert out[-1] == "eligible: none"


def _union_file(tmp_path, parts):
    """An instance file of the disjoint union of ``parts``, each an (n, pairs) graph."""
    pairs, n = [], 0
    for size, part in parts:
        pairs += [(a + n, b + n) for a, b in part]
        n += size
    path = tmp_path / "u.instance.json"
    inst = additive_instance(MultiGraph(n, pairs), seed=n)
    save_instance(inst, [f"a{i}" for i in range(n)], path)
    return path


C4 = (4, [(0, 1), (1, 2), (2, 3), (3, 0)])
C5 = (5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
STAR = (3, [(0, 1), (0, 2)])
MULTI_TRIANGLE = (3, [(0, 1), (1, 2), (2, 0)] * 3)


@pytest.mark.parametrize("parts, eligible", [
    ([C4, C5], "componentwise(bipartite, chromatic, brute_force; chromatic)"),
    ([STAR, C5], "componentwise(tree, bipartite, chromatic, brute_force; chromatic)"),
    ([C5, C4, STAR], "componentwise(chromatic; bipartite, chromatic, brute_force;"
                     " tree, bipartite, chromatic, brute_force)"),
])
def test_analyze_lists_solvers_per_component(tmp_path, capsys, parts, eligible):
    path = _union_file(tmp_path, parts)
    assert main(["analyze", str(path)]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[-1] == f"eligible: {eligible}"
    assert main(["solve", str(path)]) == EXIT_OK
    applied = [[v["solver"] for v in tried if v["result"] == "applied"]
               for tried in json.loads(capsys.readouterr().out)["dispatch"]]
    lists = eligible[len("componentwise("):-1].split("; ")
    assert applied == [[solvers.split(", ")[0]] for solvers in lists]


def test_analyze_prints_chromatic_number_per_component(tmp_path, capsys):
    # a 4-cycle beside a 5-cycle: solve colors them with t = 2 and t = 3
    path = _union_file(tmp_path, [C4, C5])
    assert main(["analyze", str(path)]) == EXIT_OK
    assert "chromatic_number: componentwise(2; 3)" in capsys.readouterr().out.splitlines()
    assert main(["solve", str(path), "--trace", str(tmp_path / "u.trace.jsonl")]) == EXIT_OK
    trace = load_trace(tmp_path / "u.trace.jsonl")
    assert [ev.t for ev in trace if isinstance(ev, ColoringUsed)] == [2, 3]
    path = _union_file(tmp_path, [C5, MULTI_TRIANGLE])
    assert main(["analyze", str(path)]) == EXIT_OK
    assert "chromatic_number: componentwise(3; None)" in capsys.readouterr().out.splitlines()


def test_analyze_prints_none_for_a_component_no_solver_accepts(tmp_path, capsys):
    path = _union_file(tmp_path, [STAR, MULTI_TRIANGLE])
    assert main(["analyze", str(path)]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "eligible: componentwise(tree, bipartite, chromatic, brute_force; none)"
    assert main(["solve", str(path)]) == EXIT_UNSUPPORTED


def _no_coloring_search_below_three(monkeypatch):
    try_color = MultiGraph._try_color

    def searched(self, t):
        if t < 3:
            pytest.fail(f"searched for a {t}-coloring")
        return try_color(self, t)

    monkeypatch.setattr(MultiGraph, "_try_color", searched)


def test_analyze_multi_tree_without_two_coloring_search(tmp_path, capsys, monkeypatch):
    # S_20: an exact 2-coloring search in index order backtracks 2^20 times
    _no_coloring_search_below_three(monkeypatch)
    path = tmp_path / "s20.instance.json"
    save_instance(additive_instance(star_graph(20)), [f"a{i}" for i in range(61)], path)
    assert main(["analyze", str(path)]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert "chromatic_number: 2" in out
    assert out[-1] == "eligible: tree, bipartite, chromatic"


def test_solve_girth_five_graph_without_two_coloring_search(tmp_path, capsys, monkeypatch):
    # S_10 plus a 5-cycle through its centre: t = 2 fails, t = 3 is searched
    _no_coloring_search_below_three(monkeypatch)
    path = tmp_path / "s10c5.instance.json"
    save_instance(additive_instance(star_graph(10, five_cycle=True)),
                  [f"a{i}" for i in range(35)], path)
    assert main(["solve", str(path)]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["method_used"] == "chromatic" and report["efx"] and report["complete"]


@pytest.mark.parametrize("family, args", [
    ("multitree", ["--valuations", "table", "--agents", "12", "--seed", "0"]),
    ("petersen", ["--parallel-copies", "2", "--seed", "3"]),
])
def test_solve_output_does_not_depend_on_the_hash_seed(tmp_path, family, args):
    inst = tmp_path / "x.instance.json"
    assert main(["gen", family, *args, "-o", str(inst)]) == EXIT_OK
    outputs = []
    for hash_seed in ("0", "1"):
        alloc, trace = tmp_path / f"{hash_seed}.alloc.json", tmp_path / f"{hash_seed}.trace.jsonl"
        done = _run_cli("solve", inst, "-o", alloc, "--trace", trace,
                        env={"PYTHONHASHSEED": hash_seed})
        assert done.returncode == EXIT_OK, done.stderr
        outputs.append((alloc.read_bytes(), trace.read_bytes()))
    assert outputs[0] == outputs[1]
