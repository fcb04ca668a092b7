import json
import os
import random
import subprocess
import sys
import threading
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
    classify,
    solve,
)
from graphefx import cli
from graphefx.cli import EXIT_INPUT, EXIT_NOT_EFX, EXIT_OK, EXIT_UNSUPPORTED, main
from graphefx.generators import gen_multicycle, gen_multitree, gen_petersen
from graphefx.jsonio import (
    allocation_from_json,
    allocation_to_json,
    instance_from_json,
    instance_to_json,
    load_instance,
    load_trace,
    save_instance,
)
from graphefx.partition import TABLE_CUT_MAX
from graphefx.trace import ColoringUsed

from .conftest import (
    K4_PLUS_TWO,
    additive_instance,
    c5_path_and_isolated_agent,
    girth5_chromatic4_graph,
    gnp_graph,
    interleaved_union,
    star_graph,
    zero_instance,
)


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


@pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
def test_gen_seed_range_ends(tmp_path, monkeypatch, seed):
    p1, p2 = tmp_path / "x.json", tmp_path / "y.json"
    argv = ["gen", "multitree", "--agents", "5", "-o"]
    assert main(argv + [str(p1), "--seed", str(seed)]) == EXIT_OK
    monkeypatch.setenv("GRAPHEFX_SEED", str(seed))
    assert main(argv + [str(p2)]) == EXIT_OK
    assert p1.read_bytes() == p2.read_bytes()


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
    alloc = allocation_from_json(json.loads(alloc_path.read_text()), ["a", "b", "c"], 4)
    assert alloc.assigned_edges == {0, 1, 2, 3}
    assert len(load_trace(trace_path, load_instance(b1_file)[0].graph)) >= 1


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


def _run_cli_env(env=None):
    """The environment of a fresh interpreter that imports this graphefx."""
    src = str(Path(graphefx.__file__).resolve().parent.parent)
    return {**os.environ, **(env or {}),
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def _run_cli(*args, env=None):
    """``graphefx`` in a fresh interpreter, so that a traceback reaches stderr."""
    return subprocess.run([sys.executable, "-m", "graphefx.cli", *map(str, args)],
                          env=_run_cli_env(env), capture_output=True, text=True, timeout=120)


def test_successive_main_calls_match_fresh_processes(b1_file, tmp_path, capsys, monkeypatch):
    # main reuses one parser per process; no call may see an earlier call's state.
    monkeypatch.setenv("COLUMNS", "80")  # help text wraps to the terminal width
    calls = [
        ["gen", "multitree", "--agents", "4", "--seed", "2", "-o", tmp_path / "t.instance.json"],
        ["analyze", b1_file],
        ["solve"],
        ["oracle", b1_file],
        ["verify", "--help"],
        ["gen", "petersen", "--value-max", "-1", "-o", tmp_path / "p.instance.json"],
        ["audit", b1_file],
    ]
    in_process = []
    for argv in calls:
        try:
            code = main(list(map(str, argv)))
        except SystemExit as exc:  # argparse exits on --help
            code = exc.code
        in_process.append((code, *capsys.readouterr()))
    for argv, seen in zip(calls, in_process):
        done = _run_cli(*argv)
        assert seen == (done.returncode, done.stdout, done.stderr), argv


def _assert_one_error_line(done):
    assert done.returncode == EXIT_INPUT, done.stderr
    assert done.stdout == ""
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: command"),
    (["frob"], "invalid choice: 'frob'"),
    (["solve"], "solve needs an instance path or --batch"),
    (["solve", "--batch", ".", "--jobs", "x"], "graphefx solve: argument --jobs: invalid int"),
    (["gen", "petersen"], "graphefx gen petersen: the following arguments are required: -o/--out"),
    (["verify", "a", "b", "c"], "unrecognized arguments: c"),
])
def test_usage_error_exit_1(argv, message):
    done = _run_cli(*argv)
    _assert_one_error_line(done)
    assert message in done.stderr


@pytest.mark.parametrize("argv", [
    ["gen", "multicycle", "--agents", "50", "--n-left", "9"],
    ["gen", "petersen", "--length", "40", "--max-parallel", "7"],
])
def test_gen_option_of_another_family_exit_1(tmp_path, argv):
    # each family takes only its own options, which once were silently ignored
    done = _run_cli(*argv, "-o", tmp_path / "x.json")
    _assert_one_error_line(done)
    assert f"unrecognized arguments: {' '.join(argv[2:])}" in done.stderr
    assert not (tmp_path / "x.json").exists()


def test_gen_rejects_an_unknown_valuation_kind_exit_1(tmp_path):
    # the choices come from the valuation module; generators is imported only to generate
    done = _run_cli("gen", "multitree", "--valuations", "convex", "-o", tmp_path / "x.json")
    _assert_one_error_line(done)
    assert done.stderr == ("error: graphefx gen multitree: argument --valuations: invalid"
                           " choice: 'convex' (choose from 'additive', 'unit_demand',"
                           " 'budget_additive', 'table')\n")
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("argv, option", [
    (["gen", "--seed", "3", "multitree", "-o", "OUT"], "--seed"),
    (["gen", "-o", "OUT", "multitree"], "-o"),
    (["gen", "--valuations", "table", "multitree", "-o", "OUT"], "--valuations"),
])
def test_gen_option_before_the_family_exit_1(tmp_path, argv, option):
    # each of these once named the option's value as an invalid family
    done = _run_cli(*[tmp_path / "x.json" if a == "OUT" else a for a in argv])
    _assert_one_error_line(done)
    assert done.stderr == (f"error: graphefx gen: option {option} comes before the family;"
                           " the order is graphefx gen FAMILY [options]\n")
    assert not (tmp_path / "x.json").exists()


def test_option_before_the_command_exit_1(tmp_path):
    # this once named the option's value as an invalid command
    done = _run_cli("--seed", "3", "gen", "multitree", "-o", tmp_path / "x.json")
    _assert_one_error_line(done)
    assert done.stderr == ("error: graphefx: option --seed comes before the command;"
                           " the order is graphefx COMMAND [options]\n")
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"]])
def test_help_exit_0(argv, capsys):
    with pytest.raises(SystemExit) as done:
        main(argv)
    out, err = capsys.readouterr()
    assert done.value.code == EXIT_OK and out.startswith("usage: graphefx") and err == ""


def test_verify_bundles_list_exit_1(b1_file, tmp_path):
    bad = tmp_path / "list.alloc.json"
    bad.write_text(json.dumps({"bundles": [1, 2]}))
    done = _run_cli("verify", b1_file, bad)
    _assert_one_error_line(done)
    assert done.stderr == "error: allocation document gives bundles [1, 2], not a JSON object\n"


# A case with an explicit id keeps the id it had when the reader worded its
# error in a sentence of its own, which the id still gives.
@pytest.mark.parametrize("doc, message", [
    pytest.param({"version": "1", "bundles": {"b": [0, 0]}},
                 'allocation document names good 0 twice in bundles["b"]',
                 id="doc0-bundle of agent 'b' names good 0 twice"),
    pytest.param({"version": "2", "bundles": {"b": [0]}},
                 'allocation document gives version "2", not "1"',
                 id='doc1-unknown allocation format version "2", expected "1"'),
    pytest.param({"version": 1, "bundles": {"b": [0]}}, 'allocation document gives version 1, not "1"',
                 id='doc2-unknown allocation format version 1, expected "1"'),
    pytest.param({"bundles": {"b": ""}}, 'allocation document gives bundles["b"] "", not a JSON list',
                 id="doc3-bundle of agent 'b' must be a JSON list of good ids, got \"\""),
    pytest.param({"bundles": {"b": {}}}, 'allocation document gives bundles["b"] {}, not a JSON list',
                 id="doc4-bundle of agent 'b' must be a JSON list of good ids, got {}"),
    ({"version": "1", "bundles": {"b": [0]}, "owner": "c"},
     'allocation document has unknown key "owner"'),
    ({"version": "1"}, 'allocation document has no key "bundles"'),
])
def test_verify_reinterpreted_allocation_exit_1(b1_file, tmp_path, capsys, doc, message):
    # each of these once loaded as b holding good 0, or the last two as b
    # holding nothing, which verify passed as EFX
    bad = tmp_path / "bad.alloc.json"
    bad.write_text(json.dumps(doc))
    assert main(["verify", str(b1_file), str(bad)]) == EXIT_INPUT
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("command, old, new, key", [
    ("verify", None, '{"bundles": {"a": [0], "a": []}}', "a"),  # verify passed it as EFX
    ("solve", '"c": {', '"b": {', "b"),  # a second valuation of agent b, none of c
    ("solve", '"1": 3', '"0": 3', "0"),  # agent b values good 0 twice
])
def test_repeated_key_exit_1(b1_file, tmp_path, capsys, command, old, new, key):
    # a repeated key once silently kept its last value
    bad = tmp_path / "repeated.json"
    text = b1_file.read_text(encoding="utf-8")
    bad.write_text(new if old is None else text.replace(old, new), encoding="utf-8")
    argv = ["verify", str(b1_file), str(bad)] if command == "verify" else ["solve", str(bad)]
    assert main(argv) == EXIT_INPUT
    assert capsys.readouterr().err == (
        f'error: cannot read {bad}: key "{key}" appears twice in one object\n')


@pytest.mark.parametrize("good", [1.5, True, None, "1"])
def test_verify_non_integer_good_exit_1(b1_file, tmp_path, capsys, good):
    bad = tmp_path / "float.alloc.json"
    bad.write_text(json.dumps({"version": "1", "bundles": {"b": [good]}}))
    assert main(["verify", str(b1_file), str(bad)]) == EXIT_INPUT
    assert capsys.readouterr().err == (
        f'error: allocation document names good {json.dumps(good)} in bundles["b"][0],'
        ' not a nonnegative integer\n')


def test_gen_negative_value_max_exit_1(tmp_path):
    done = _run_cli("gen", "bipartite", "--value-max", "-5", "-o", tmp_path / "x.json")
    _assert_one_error_line(done)
    assert "value_max must be >= 0" in done.stderr
    assert not (tmp_path / "x.json").exists()


def test_solve_colors_list_exit_1(b1_file, tmp_path):
    bad = tmp_path / "list.coloring.json"
    bad.write_text(json.dumps({"colors": [0, 1], "t": 3}))
    done = _run_cli("solve", b1_file, "--coloring", bad)
    _assert_one_error_line(done)
    assert done.stderr == f"error: coloring file {bad} gives colors [0, 1], not a JSON object\n"


@pytest.mark.parametrize("where", ["solve -o", "solve --trace", "gen -o", "solve -o dir", "gen -o dir"])
def test_unwritable_output_exit_1(b1_file, tmp_path, where):
    # a path in a missing directory, or a directory itself
    target = tmp_path if where.endswith("dir") else tmp_path / "missing" / "out.json"
    command, option = where.split()[:2]
    source = ["multitree"] if command == "gen" else [b1_file]
    done = _run_cli(command, *source, option, target)
    _assert_one_error_line(done)
    assert done.stderr.startswith(f"error: cannot write {target}: ")


def test_batch_reports_an_unwritable_output_on_its_own_line(b1_instance, tmp_path):
    for stem in "ab":
        save_instance(b1_instance, ["a", "b", "c"], tmp_path / f"{stem}.instance.json")
    (tmp_path / "a.alloc.json").mkdir()
    done = _run_cli("solve", "--batch", tmp_path, "--jobs", "1")
    assert done.returncode == EXIT_INPUT
    assert done.stderr.startswith(f"error: {tmp_path / 'a.instance.json'}: cannot write ")
    assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr
    assert [json.loads(line)["instance"] for line in done.stdout.splitlines()] == [
        str(tmp_path / "b.instance.json")]


def _respell_good(doc, spelling):
    values = doc["valuations"]["b"]["values"]
    values[spelling] = values.pop("1")


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc.update(agents=["a", "b", "a"]), "agent names must be unique"),
    # A string or an object is not read as its characters or keys.  A case with an
    # explicit id keeps the id it had when the reader worded its error in a
    # sentence of its own, which the id still gives.
    pytest.param(lambda doc: doc.update(agents="abc"),
                 'instance document gives agents "abc", not a JSON list',
                 id='<lambda>-agents must be a JSON list of strings, got "abc"'),
    pytest.param(lambda doc: doc.update(agents={"a": 0, "b": 1, "c": 2}),
                 'instance document gives agents {"a": 0, "b": 1, "c": 2}, not a JSON list',
                 id='<lambda>-agents must be a JSON list of strings, got {"a": 0, "b": 1, "c": 2}'),
    pytest.param(lambda doc: doc.update(agents=[1, "b"]),
                 "instance document gives agents[0] 1, not a string",
                 id="<lambda>-agent name 1 is not a string"),
    pytest.param(lambda doc: doc.update(agents=[None]),
                 "instance document gives agents[0] null, not a string",
                 id="<lambda>-agent name null is not a string"),
    pytest.param(lambda doc: doc["edges"][1].update(endpoints="bc"),
                 'edge 1 gives endpoints "bc", not a JSON list of 2 items',
                 id='<lambda>-edge 1 endpoints must be a JSON list of two agent names, got "bc"'),
    pytest.param(lambda doc: doc["edges"][1].update(endpoints={"a": 1, "b": 2}),
                 'edge 1 gives endpoints {"a": 1, "b": 2}, not a JSON list of 2 items',
                 id='<lambda>-edge 1 endpoints must be a JSON list of two agent names,'
                    ' got {"a": 1, "b": 2}'),
    pytest.param(lambda doc: doc["edges"][1].update(endpoints=["a", "b", "c"]),
                 'edge 1 gives endpoints ["a", "b", "c"], not a JSON list of 2 items',
                 id='<lambda>-edge 1 endpoints must be a JSON list of two agent names,'
                    ' got ["a", "b", "c"]'),
    # An edge joins declared agents, and a valuation belongs to one, whatever its type.
    (lambda doc: doc["edges"][1].update(endpoints=["b", "x"]),
     'edge 1 names agent "x" in endpoints[1], not a declared agent name'),
    pytest.param(lambda doc: doc["valuations"].update(ghost={"type": "nonsense"}),
                 'instance document names agent "ghost" in valuations, not a declared agent name',
                 id="<lambda>-valuation for undeclared agent 'ghost'"),
    pytest.param(lambda doc: doc.update(valuations=list(doc["valuations"].values())),
                 'instance document gives valuations [{"type": "additive"',
                 id='<lambda>-valuations must be a JSON object keyed by agent names,'
                    ' got [{"type": "additive"'),
    (lambda doc: doc["valuations"].pop("b"), "missing valuation for agent 'b'"),
    pytest.param(lambda doc: doc["valuations"]["c"]["values"].update({"0": 1}),  # joins a and b
                 "valuation of agent 'c' names good 0, not an incident good",
                 id="<lambda>-valuation of agent 2 supports non-incident edges [0]"),
    # Ids are read as strictly as a trace's: JSON integers, and a key is its integer's own text.
    pytest.param(lambda doc: doc["edges"][1].update(id=1.0), "edge 1 gives id 1.0, not an integer",
                 id="<lambda>-edge id 1.0 is not an integer"),
    pytest.param(lambda doc: doc["edges"][1].update(id=True), "edge 1 gives id true, not an integer",
                 id="<lambda>-edge id true is not an integer"),
    pytest.param(lambda doc: _respell_good(doc, " 1 "),
                 "valuation of agent 'b' names good \" 1 \" in values, not an integer's own text",
                 id="<lambda>-valuation of agent 'b' names good \" 1 \", not an integer's own text"),
    pytest.param(lambda doc: _respell_good(doc, "1_0"),
                 "valuation of agent 'b' names good \"1_0\" in values, not an integer's own text",
                 id="<lambda>-valuation of agent 'b' names good \"1_0\", not an integer's own text"),
    pytest.param(lambda doc: _respell_good(doc, "01"),
                 "valuation of agent 'b' names good \"01\" in values, not an integer's own text",
                 id="<lambda>-valuation of agent 'b' names good \"01\", not an integer's own text"),
    pytest.param(lambda doc: doc["valuations"].update(b={"type": "table", "entries": [
        {"goods": [], "value": 0}, {"goods": [0], "value": 3}, {"goods": [True], "value": 3},
        {"goods": [0, 1], "value": 6}]}),
                 "entry 2 of the valuation of agent 'b' names good true in goods[0], not an integer",
                 id="<lambda>-valuation of agent 'b' names good true, not an integer"),
    pytest.param(lambda doc: doc["valuations"]["b"]["values"].update({"1": "3"}),
                 'valuation of agent \'b\' gives values["1"] "3", not a nonnegative integer',
                 id='<lambda>-valuation of agent \'b\' gives values["1"] "3", not an integer'),
    # A table names each set once, and each good of a set once; a version is the format's.
    (lambda doc: doc["valuations"].update(b={"type": "table", "entries": [
        {"goods": [], "value": 0}, {"goods": [0], "value": 1}, {"goods": [0], "value": 2}]}),
     "valuation of agent 'b' lists set [0] twice"),
    (lambda doc: doc["valuations"].update(b={"type": "table", "entries": [
        {"goods": [], "value": 0}, {"goods": [0, 1], "value": 1}, {"goods": [1, 0], "value": 1}]}),
     "valuation of agent 'b' lists set [0, 1] twice"),
    pytest.param(lambda doc: doc["valuations"].update(b={"type": "table", "entries": [
        {"goods": [], "value": 0}, {"goods": [0, 0], "value": 1}]}),
                 "entry 1 of the valuation of agent 'b' names good 0 twice in goods",
                 id="<lambda>-valuation of agent 'b' names good 0 twice in set [0, 0]"),
    # A string or an object is not read as an empty edge list or set.
    pytest.param(lambda doc: doc.update(edges=""), 'instance document gives edges "", not a JSON list',
                 id='<lambda>-edges must be a JSON list of edge objects, got ""'),
    pytest.param(lambda doc: doc.update(edges={}), "instance document gives edges {}, not a JSON list",
                 id="<lambda>-edges must be a JSON list of edge objects, got {}"),
    pytest.param(lambda doc: doc["valuations"].update(b={"type": "table", "entries": [
        {"goods": {}, "value": 0}, {"goods": [0], "value": 3}, {"goods": [1], "value": 3},
        {"goods": [0, 1], "value": 6}]}),
                 "entry 0 of the valuation of agent 'b' gives goods {}, not a JSON list",
                 id="<lambda>-valuation of agent 'b' gives set {}, not a JSON list of goods"),
    pytest.param(lambda doc: doc["valuations"].update(b={"type": "table", "entries": [
        {"goods": "", "value": 0}, {"goods": [0], "value": 3}, {"goods": [1], "value": 3},
        {"goods": [0, 1], "value": 6}]}),
                 "entry 0 of the valuation of agent 'b' gives goods \"\", not a JSON list",
                 id="<lambda>-valuation of agent 'b' gives set \"\", not a JSON list of goods"),
    pytest.param(lambda doc: doc.update(version="2"), 'instance document gives version "2", not "1"',
                 id='<lambda>-unknown instance format version "2", expected "1"'),
    pytest.param(lambda doc: doc.update(version=1), 'instance document gives version 1, not "1"',
                 id='<lambda>-unknown instance format version 1, expected "1"'),
    # A key the writer does not write, which was once silently ignored.
    (lambda doc: doc["valuations"]["b"].update(cap=1),
     'valuation of agent \'b\' has unknown key "cap"'),
    (lambda doc: doc["edges"][1].update(weight=9), 'edge 1 has unknown key "weight"'),
    (lambda doc: doc.update(colour="red"), 'instance document has unknown key "colour"'),
    (lambda doc: doc["valuations"].update(b={"type": "table", "entries": [
        {"goods": [], "value": 0}, {"goods": [0], "value": 3, "weight": 1}]}),
     'entry 1 of the valuation of agent \'b\' has unknown key "weight"'),
    # A key the writer writes, which was once named only by Python's KeyError text.
    (lambda doc: doc["edges"][1].pop("endpoints"), 'edge 1 has no key "endpoints"'),
    (lambda doc: doc["valuations"].update(b={"type": "budget_additive", "values": {"0": 3}}),
     'valuation of agent \'b\' has no key "cap"'),
])
def test_bad_instance_exit_1(b1_instance, tmp_path, edit, message):
    doc = instance_to_json(b1_instance, ["a", "b", "c"])
    edit(doc)
    path = tmp_path / "bad.instance.json"
    path.write_text(json.dumps(doc))
    done = _run_cli("solve", path)
    _assert_one_error_line(done)
    assert message in done.stderr


@pytest.mark.parametrize("colors, extra, message", [
    ({"a": 0, "b": "x", "c": 1}, {},
     'coloring file {path} gives colors["b"] "x", not a nonnegative integer'),
    ({"z": 0}, {}, 'coloring file {path} names agent "z" in colors, not a declared agent name'),
    ({"a": 0, "b": 1, "c": 1}, {"hue": 1}, 'coloring file {path} has unknown key "hue"'),
    ({"a": 0, "b": 1, "c": 1}, {"t": None}, 'coloring file {path} has no key "t"'),
], ids=["colors0", "colors1", "unknown_key", "missing_key"])
def test_bad_coloring_file_exit_1(b1_file, tmp_path, colors, extra, message):
    path = tmp_path / "bad.coloring.json"
    doc = {"colors": colors, "t": 2, **extra}
    path.write_text(json.dumps({k: v for k, v in doc.items() if v is not None}))  # None: left out
    done = _run_cli("solve", b1_file, "--coloring", path)
    _assert_one_error_line(done)
    assert done.stderr == f"error: {message.format(path=path)}\n"


# Each id keeps the words of the sentence that once reported its case.
@pytest.mark.parametrize("colors, t, named", [
    pytest.param({"a": 0.9, "b": 1.2, "c": 1.7}, 2, 'gives colors["a"] 0.9',
                 id="colors0-2-the color of agent 'a' is 0.9"),
    pytest.param({"a": 0, "b": 1, "c": 1}, 2.5, "gives t 2.5", id="colors1-2.5-t is 2.5"),
    pytest.param({"a": 0, "b": 1.0, "c": 1}, 2, 'gives colors["b"] 1.0',
                 id="colors2-2-the color of agent 'b' is 1.0"),
    pytest.param({"a": True, "b": False, "c": False}, 2, 'gives colors["a"] true',
                 id="colors3-2-the color of agent 'a' is true"),
    pytest.param({"a": 0, "b": 1, "c": "1"}, 2, 'gives colors["c"] "1"',
                 id="colors4-2-the color of agent 'c' is \"1\""),
    pytest.param({"a": 0, "b": 1, "c": 1}, "2", 'gives t "2"', id='colors5-2-t is "2"'),
    pytest.param({"a": 0, "b": 1, "c": 1}, True, "gives t true", id="colors6-True-t is true"),
])
def test_non_integer_coloring_exit_1(b1_file, tmp_path, capsys, colors, t, named):
    # b1 is a tree, so a coloring the reader truncated would go unused and the solve succeed.
    path = tmp_path / "bad.coloring.json"
    path.write_text(json.dumps({"colors": colors, "t": t}))
    assert main(["solve", str(b1_file), "--coloring", str(path)]) == EXIT_INPUT
    assert capsys.readouterr().err == (
        f"error: coloring file {path} {named}, not a nonnegative integer\n")


# One error of each kind for each kind of file the readers read.  Each edit
# changes a valid file: the b1 instance, an allocation and a coloring of it,
# or the c4 instance's trace, at its line i, the first with a non-empty
# snapshot.  A coloring file holds no set, so its repeated item is a repeated
# key, which the JSON parser's hook rejects before the walk runs.
READER_ERRORS = {
    "instance": {
        "wrong container": (lambda doc: doc["valuations"]["b"].update(values=[1]),
                            "valuation of agent 'b' gives values [1], not a JSON object"),
        "wrong leaf": (lambda doc: doc["valuations"]["b"]["values"].update({"1": "3"}),
                       'valuation of agent \'b\' gives values["1"] "3", not a nonnegative integer'),
        "undeclared name": (lambda doc: doc["edges"][1].update(endpoints=["a", "x"]),
                            'edge 1 names agent "x" in endpoints[1], not a declared agent name'),
        "unknown key": (lambda doc: doc["edges"][1].update(weight=9),
                        'edge 1 has unknown key "weight"'),
        "missing key": (lambda doc: doc["edges"][1].pop("endpoints"),
                        'edge 1 has no key "endpoints"'),
        "repeated item": (lambda doc: doc["valuations"].update(b={"type": "table", "entries": [
            {"goods": [], "value": 0}, {"goods": [1, 0, 1], "value": 1}]}),
                          "entry 1 of the valuation of agent 'b' names good 1 twice in goods"),
    },
    "allocation": {
        "wrong container": (lambda doc: doc["bundles"].update(b=5),
                            'allocation document gives bundles["b"] 5, not a JSON list'),
        "wrong leaf": (lambda doc: doc.update(version=1),
                       'allocation document gives version 1, not "1"'),
        "undeclared name": (lambda doc: doc["bundles"].update(z=[2]),
                            'allocation document names agent "z" in bundles,'
                            ' not a declared agent name'),
        "unknown key": (lambda doc: doc.update(owner="c"),
                        'allocation document has unknown key "owner"'),
        "missing key": (lambda doc: doc.pop("bundles"),
                        'allocation document has no key "bundles"'),
        "repeated item": (lambda doc: doc["bundles"]["b"].append(0),
                          'allocation document names good 0 twice in bundles["b"]'),
    },
    "coloring": {
        "wrong container": (lambda doc: doc.update(colors=[0, 1, 1]),
                            "coloring file {path} gives colors [0, 1, 1], not a JSON object"),
        "wrong leaf": (lambda doc: doc["colors"].update(c=1.0),
                       'coloring file {path} gives colors["c"] 1.0, not a nonnegative integer'),
        "undeclared name": (lambda doc: doc["colors"].update(z=0),
                            'coloring file {path} names agent "z" in colors,'
                            ' not a declared agent name'),
        "unknown key": (lambda doc: doc.update(hue=1), 'coloring file {path} has unknown key "hue"'),
        "missing key": (lambda doc: doc.pop("t"), 'coloring file {path} has no key "t"'),
        "repeated item": (lambda doc: json.dumps(doc).replace('"c": 1', '"c": 1, "a": 0'),
                          'cannot read {path}: key "a" appears twice in one object'),
    },
    "trace": {
        "wrong container": (lambda line: line.update(transfers=[[0, 1]]),
                            "trace event {i} gives transfers[0] [0, 1], not a JSON list of 3 items"),
        "wrong leaf": (lambda line: line.update(type="leaf"),
                       'trace event {i} gives type "leaf", not "coloring_used" or'
                       ' "structure_resolved" or "leaf_attached" or "cycle_resolved"'),
        "out-of-range id": (lambda line: line.update(root=4),
                            "trace event {i} names agent 4 in root, not in 0..3"),
        "unknown key": (lambda line: line.update(changes={}),
                        'trace event {i} has unknown key "changes"'),
        "missing key": (lambda line: line.pop("root"), 'trace event {i} has no key "root"'),
        "repeated item": (lambda line: line["snapshot"]["0"].append(line["snapshot"]["0"][0]),
                          'trace event {i} names good {good} twice in snapshot["0"]'),
    },
}


@pytest.mark.parametrize("file, kind", [(file, kind) for file, kinds in READER_ERRORS.items()
                                        for kind in kinds])
def test_each_kind_of_reader_error_has_one_wording(b1_file, c4_file, tmp_path, capsys, file, kind):
    edit, message = READER_ERRORS[file][kind]
    path = tmp_path / f"bad.{file}.json"
    if file == "trace":
        assert main(["solve", str(c4_file), "--trace", str(path)]) == EXIT_OK
        lines = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        i = next(i for i, line in enumerate(lines) if line.get("snapshot", {}).get("0"))
        good = lines[i]["snapshot"]["0"][0]
        edit(lines[i])
        path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
        argv, message = ["audit", c4_file, path], message.format(i=i, good=good)
    else:
        doc = {"instance": lambda: json.loads(b1_file.read_text(encoding="utf-8")),
               "allocation": lambda: {"version": "1", "bundles": {"a": [2], "b": [0, 1]}},
               "coloring": lambda: {"colors": {"a": 0, "b": 1, "c": 1}, "t": 2}}[file]()
        text = edit(doc)
        path.write_text(text if isinstance(text, str) else json.dumps(doc), encoding="utf-8")
        argv = {"instance": ["solve", path], "allocation": ["verify", b1_file, path],
                "coloring": ["solve", b1_file, "--coloring", path]}[file]
    capsys.readouterr()
    assert main(list(map(str, argv))) == EXIT_INPUT
    assert capsys.readouterr() == ("", f"error: {message.format(path=path)}\n")


# Files that break a rule the library checks as well.  The reader's error
# names its place and the agent's declared name, in the walk's words.
_NON_MONOTONE = [{"goods": [], "value": 0}, {"goods": [0], "value": 2}, {"goods": [1], "value": 1},
          {"goods": [0, 1], "value": 1}]
NAMED_ERRORS = {
    "overlapping bundles": ("allocation", {"a": [0], "b": [0]},
                            'allocation document names good 0 twice in bundles["b"]'),
    "good out of range": ("allocation", {"a": [2, 7]},
                          'allocation document names good 7 in bundles["a"][1], not in 0..3'),
    "negative good": ("allocation", {"b": [-1]}, 'allocation document names good -1 in'
                      ' bundles["b"][0], not a nonnegative integer'),
    "color out of range": ("coloring", {"colors": {"a": 0, "b": 5, "c": 1}, "t": 2},
                           'coloring file {path} gives colors["b"] 5, not in 0..1'),
    "uncolored agent": ("coloring", {"colors": {"a": 0, "b": 1}, "t": 2},
                        'coloring file {path} has no key "c" in colors'),
    "negative t": ("coloring", {"colors": {"a": 0, "b": 1, "c": 1}, "t": -1},
                   "coloring file {path} gives t -1, not a nonnegative integer"),
    "self-loop": ("instance", lambda doc: doc["edges"][0].update(endpoints=["a", "a"]),
                  'edge 0 names agent "a" twice in endpoints'),
    "non-incident good": ("instance",
                          lambda doc: doc["valuations"]["c"]["values"].update({"0": 1}),
                          "valuation of agent 'c' names good 0, not an incident good"),
    "negative value": ("instance", lambda doc: doc["valuations"]["a"]["values"].update({"0": -1}),
                       'valuation of agent \'a\' gives values["0"] -1, not a nonnegative integer'),
    "negative cap": ("instance",
                     lambda doc: doc["valuations"]["b"].update(type="budget_additive", cap=-3),
                     "valuation of agent 'b' gives cap -3, not a nonnegative integer"),
    "non-monotone table": ("instance", lambda doc: doc["valuations"].update(
        b={"type": "table", "entries": _NON_MONOTONE}),
        "valuation of agent 'b': table is not monotone: adding 1 to [0] decreases value"),
    "negative table value": ("instance", lambda doc: doc["valuations"].update(
        b={"type": "table", "entries": [{"goods": [], "value": 0}, {"goods": [0], "value": -1}]}),
        "entry 1 of the valuation of agent 'b' gives value -1, not a nonnegative integer"),
}


@pytest.mark.parametrize("file, content, message", NAMED_ERRORS.values(), ids=NAMED_ERRORS)
def test_a_file_error_names_its_place_and_agent(b1_file, tmp_path, file, content, message):
    path = tmp_path / f"bad.{file}.json"
    if file == "instance":
        doc = json.loads(b1_file.read_text(encoding="utf-8"))
        content(doc)
        content = doc
    elif file == "allocation":
        content = {"version": "1", "bundles": content}
    path.write_text(json.dumps(content), encoding="utf-8")
    argv = {"instance": ["solve", path], "allocation": ["verify", b1_file, path],
            "coloring": ["solve", b1_file, "--coloring", path]}[file]
    done = _run_cli(*argv)
    _assert_one_error_line(done)
    assert done.stderr == f"error: {message.format(path=path)}\n"


@pytest.mark.parametrize("first, second", [
    ("the instance", "-o"), ("the instance", "--trace"), ("--coloring", "-o"),
    ("--coloring", "--trace"), ("-o", "--trace")])
def test_solve_refuses_an_output_that_names_another_file_of_the_run(b1_file, tmp_path, capsys,
                                                                    first, second):
    # each of these once overwrote the instance, the coloring or the allocation and exited 0
    coloring = tmp_path / "b1.coloring.json"
    coloring.write_text(json.dumps({"colors": {"a": 0, "b": 1, "c": 1}, "t": 2}))
    paths = {"the instance": b1_file, "--coloring": coloring,
             "-o": tmp_path / "b1.alloc.json", "--trace": tmp_path / "b1.trace.jsonl"}
    (tmp_path / "sub").mkdir()
    paths[second] = tmp_path / "sub" / ".." / paths[first].name  # the same file, spelled otherwise
    before = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
    argv = ["solve", paths["the instance"]] + [
        arg for option in ("--coloring", "-o", "--trace") for arg in (option, paths[option])]
    assert main(list(map(str, argv))) == EXIT_INPUT
    assert capsys.readouterr() == (
        "", f"error: {first} and {second} name the same file: {paths[second]}\n")
    assert {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()} == before


@pytest.mark.parametrize("link", [os.link, os.symlink])
def test_solve_refuses_an_output_linked_to_the_instance(b1_file, tmp_path, capsys, link):
    linked = tmp_path / "linked.json"
    link(b1_file, linked)
    before = b1_file.read_bytes()
    assert main(["solve", str(b1_file), "--trace", str(linked)]) == EXIT_INPUT
    assert capsys.readouterr() == (
        "", f"error: the instance and --trace name the same file: {linked}\n")
    assert b1_file.read_bytes() == before


@pytest.mark.parametrize("digits", [4300, 4301])
def test_a_value_of_at_most_4300_digits_is_read(b1_file, tmp_path, capsys, digits):
    # CPython's bound on the digits of an integer it parses: lifting it would let
    # one value cost time quadratic in its length
    text = b1_file.read_text(encoding="utf-8")
    path = tmp_path / "long.instance.json"
    path.write_text(text.replace('"0": 3', '"0": 1' + "0" * (digits - 1), 1), encoding="utf-8")
    assert path.read_text(encoding="utf-8") != text
    code = main(["solve", str(path)])
    out, err = capsys.readouterr()
    if digits <= 4300:
        assert (code, err) == (EXIT_OK, "") and json.loads(out)["efx"]
    else:
        assert (code, out) == (EXIT_INPUT, "") and err.count("\n") == 1
        assert err.startswith(f"error: cannot read {path}: Exceeds the limit (4300 digits)")


def _non_utf8(path):
    path.write_bytes(b"\xff{}")
    return path


@pytest.mark.parametrize("command", ["solve", "verify", "solve --coloring"])
def test_non_utf8_file_exit_1(b1_file, tmp_path, capsys, command):
    bad = _non_utf8(tmp_path / "bad.json")
    argv = {"solve": ["solve", bad], "verify": ["verify", b1_file, bad],
            "solve --coloring": ["solve", b1_file, "--coloring", bad]}[command]
    assert main(list(map(str, argv))) == EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: cannot read {bad}: 'utf-8' codec can't decode byte 0xff")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["solve", "verify", "audit", "solve --coloring"])
def test_deeply_nested_json_exit_1(c4_file, tmp_path, capsys, command):
    # json raises RecursionError, not JSONDecodeError, on a document nested this deep
    nested = "[" * 100_000 + "]" * 100_000 + "\n"
    bad = tmp_path / "nested.json"
    bad.write_text(nested)
    if command == "audit":  # a real trace with one such line
        assert main(["solve", str(c4_file), "--trace", str(bad)]) == EXIT_OK
        capsys.readouterr()
        with bad.open("a") as fh:
            fh.write(nested)
    argv = {"solve": ["solve", bad], "verify": ["verify", c4_file, bad],
            "audit": ["audit", c4_file, bad],
            "solve --coloring": ["solve", c4_file, "--coloring", bad]}[command]
    done = _run_cli(*argv)
    _assert_one_error_line(done)
    what = "trace " if command == "audit" else ""
    assert done.stderr.startswith(f"error: cannot read {what}{bad}: maximum recursion depth")


def test_batch_reports_a_non_utf8_instance_and_solves_the_others(b1_instance, tmp_path, capsys):
    for stem in "ac":
        save_instance(b1_instance, ["a", "b", "c"], tmp_path / f"{stem}.instance.json")
    bad = _non_utf8(tmp_path / "b.instance.json")
    assert main(["solve", "--batch", str(tmp_path), "--jobs", "2"]) == EXIT_INPUT
    out, err = capsys.readouterr()
    assert [json.loads(line)["instance"] for line in out.splitlines()] == [
        str(tmp_path / f"{stem}.instance.json") for stem in "ac"]
    assert err.startswith(f"error: {bad}: cannot read {bad}: ") and err.count("\n") == 1


@pytest.mark.parametrize("option, env, message", [
    ([], {"GRAPHEFX_SEED": "abc"}, "GRAPHEFX_SEED must be an integer, got 'abc'"),
    (["--edge-prob", "a/b"], None, "edge probability must look like P/Q, got 'a/b'"),
    # random.Random would seed with the absolute value, so -5 would give seed 5's bytes.
    (["--seed", "-1"], None, "--seed must be in 0..2**64-1, got -1"),
    (["--seed", str(2 ** 64)], None, f"--seed must be in 0..2**64-1, got {2 ** 64}"),
    ([], {"GRAPHEFX_SEED": "-1"}, "GRAPHEFX_SEED must be in 0..2**64-1, got -1"),
    ([], {"GRAPHEFX_SEED": str(2 ** 64)}, f"GRAPHEFX_SEED must be in 0..2**64-1, got {2 ** 64}"),
])
def test_bad_gen_setting_exit_1(tmp_path, option, env, message):
    done = _run_cli("gen", "bipartite", *option, "-o", tmp_path / "x.json", env=env)
    _assert_one_error_line(done)
    assert message in done.stderr
    assert not (tmp_path / "x.json").exists()


def test_girth5_graph_without_a_3_coloring_exit_2(tmp_path, capsys):
    # girth 5 admits t <= 3, and this 4-regular graph needs 4 colors
    inst = additive_instance(girth5_chromatic4_graph(), seed=1)
    assert {len(inst.graph.neighbours(u)) for u in range(21)} == {4} and inst.graph.girth() == 5
    reasons = {v.solver: v.reason for v in classify(inst)}
    assert reasons["chromatic"] == "no proper coloring with t <= 3 (girth 5)"
    path = tmp_path / "g5.instance.json"
    save_instance(inst, [f"a{u}" for u in range(21)], path)
    assert main(["solve", str(path)]) == EXIT_UNSUPPORTED
    assert capsys.readouterr().err == (
        "error: no solver applies: tree: not a multi-tree; bipartite: not bipartite;"
        " chromatic: no proper coloring with t <= 3 (girth 5); brute_force: too large"
        " (needs <= 4 agents, <= 8 goods)\n")


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


@pytest.mark.parametrize("table_agent", [0, 1])
def test_table_cutter_on_a_loop_over_the_cut_limit_exits_2(tmp_path, capsys, table_agent):
    # agent 0 is the parent, so it cuts the loop and agent 1 chooses
    g = MultiGraph(2, [(0, 1)] * (TABLE_CUT_MAX + 1))
    vals = {u: Additive(values={e: e + 1 for e in range(g.edge_count)}) for u in range(2)}
    vals[table_agent] = Table(entries={frozenset(): 0, frozenset({0}): 5})
    path = tmp_path / "loop.instance.json"
    save_instance(Instance(graph=g, valuations=vals), ["p", "c"], path)
    code = main(["solve", str(path)])
    out, err = capsys.readouterr()
    if table_agent == 1:
        assert (code, json.loads(out)["method_used"], err) == (EXIT_OK, "tree", "")
        return
    assert code == EXIT_UNSUPPORTED and out == ""
    assert err == (
        "error: no solver applies: tree: agent 0 has a table valuation and cuts a loop of 17"
        " goods; the exhaustive cut takes at most 16; bipartite: agent 0 has a table valuation;"
        " chromatic: agent 0 has a table valuation; brute_force: too large (needs <= 4 agents,"
        " <= 8 goods)\n")
    assert main(["analyze", str(path)]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[-1] == "eligible: none"


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


def test_batch_reports_a_failing_instance_and_solves_the_others(tmp_path, capsys):
    # "a", first in path order, is a tripled K4: girth 3 and 18 goods, so no solver applies
    k4 = MultiGraph(4, [(u, w) for u in range(4) for w in range(u + 1, 4) for _ in range(3)])
    instances = {"a": (additive_instance(k4), ["a0", "a1", "a2", "a3"]),
                 "b": gen_petersen(seed=1), "c": gen_multitree(seed=2, n=6)}
    written = []
    for jobs in ("1", "2"):
        run_dir = tmp_path / jobs
        run_dir.mkdir()
        for stem, (inst, names) in instances.items():
            save_instance(inst, names, run_dir / f"{stem}.instance.json")
        assert main(["solve", "--batch", str(run_dir), "--jobs", jobs]) == EXIT_UNSUPPORTED
        out, err = capsys.readouterr()
        reports = [json.loads(line) for line in out.splitlines()]
        assert [r["instance"] for r in reports] == [str(run_dir / f"{s}.instance.json") for s in "bc"]
        assert all(r["efx"] and r["complete"] for r in reports)
        assert err.startswith(f"error: {run_dir / 'a.instance.json'}: no solver applies: tree: ")
        assert err.count("\n") == 1
        written.append({p.name: p.read_bytes() for p in sorted(run_dir.glob("*.alloc.json"))})
    assert list(written[0]) == ["b.alloc.json", "c.alloc.json"] and written[0] == written[1]


def test_batch_empty_dir_exit_1(tmp_path):
    assert main(["solve", "--batch", str(tmp_path)]) == EXIT_INPUT


def test_batch_bad_jobs_exit_1(b1_file, capsys):
    for jobs in ("0", "-3"):
        assert main(["solve", "--batch", str(b1_file.parent), "--jobs", jobs]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err == f"error: --jobs must be at least 1, got {jobs}\n"
    assert not list(b1_file.parent.glob("*.alloc.json"))


@pytest.mark.parametrize("extra, message", [
    (["INSTANCE"], "solve --batch takes no instance path, got "),
    (["-o", "OUT"], "solve --batch takes no -o: it writes each allocation beside its instance"),
    (["INSTANCE", "-o", "OUT"], "solve --batch takes no instance path, got "),
])
def test_batch_rejects_an_instance_path_or_out(b1_file, tmp_path, extra, message):
    out = tmp_path / "zz.json"
    argv = [{"INSTANCE": b1_file, "OUT": out}.get(arg, arg) for arg in extra]
    done = _run_cli("solve", *argv, "--batch", b1_file.parent)
    _assert_one_error_line(done)
    assert message in done.stderr
    assert not out.exists() and not list(tmp_path.glob("*.alloc.json"))


def _mixed_batch(directory):
    """Eight instances: six that solve, a tripled K4 that exits 2 and a
    malformed file that exits 1."""
    directory.mkdir()
    k4 = MultiGraph(4, [(u, w) for u in range(4) for w in range(u + 1, 4) for _ in range(3)])
    instances = {"a": gen_multitree(seed=1, n=9), "b": gen_petersen(seed=1),
                 "c": (additive_instance(k4), ["a0", "a1", "a2", "a3"]),
                 "d": gen_multicycle(seed=2, length=7), "f": gen_multitree(seed=3, n=5),
                 "g": gen_petersen(seed=4), "h": gen_multicycle(seed=5, length=6)}
    for stem, (inst, names) in instances.items():
        save_instance(inst, names, directory / f"{stem}.instance.json")
    (directory / "e.instance.json").write_text("{")
    return directory


def _batch_outputs(directory, capsys, jobs, *options):
    """main's exit code and its stdout lines without wall_time_ms, its stderr
    and the bytes of every file it wrote, with ``directory`` spelled DIR."""
    code = main(["solve", "--batch", str(directory), "--jobs", str(jobs), *options])
    out, err = capsys.readouterr()
    lines = [json.loads(line) for line in out.splitlines()]
    for report in lines:
        del report["wall_time_ms"]
    files = {p.name: p.read_bytes() for p in sorted(directory.iterdir())
             if not p.name.endswith(".instance.json")}
    return code, json.dumps(lines).replace(str(directory), "DIR"), err.replace(
        str(directory), "DIR"), files


def test_batch_outputs_do_not_depend_on_the_jobs(tmp_path, capsys, monkeypatch):
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(None) or fork())
    runs = []
    for jobs in (1, 2, 3):
        directory = _mixed_batch(tmp_path / str(jobs))
        forks.clear()
        runs.append(_batch_outputs(directory, capsys, jobs, "--trace", "yes"))
        assert len(forks) == jobs - 1
    assert runs[0] == runs[1] == runs[2]
    code, out, err, files = runs[0]
    assert code == EXIT_UNSUPPORTED and len(json.loads(out)) == 6
    assert err.startswith("error: DIR/c.instance.json: no solver applies: ")
    assert "\nerror: DIR/e.instance.json: " in err and err.count("\n") == 2
    assert len([name for name in files if name.endswith(".trace.jsonl")]) == 6


def test_batch_processes_give_the_same_outputs_on_one_job_and_two(tmp_path):
    # fresh interpreters: the forked job and the parent import pickle themselves
    runs = []
    for jobs in (1, 2):
        directory = _mixed_batch(tmp_path / str(jobs))
        done = _run_cli("solve", "--batch", directory, "--jobs", jobs, "--trace", "yes")
        reports = [json.loads(line) for line in done.stdout.splitlines()]
        for report in reports:
            del report["wall_time_ms"]
        files = {p.name: p.read_bytes() for p in sorted(directory.iterdir())}
        runs.append((done.returncode, json.dumps(reports).replace(str(directory), "DIR"),
                     done.stderr.replace(str(directory), "DIR"), files))
    assert runs[0] == runs[1]
    code, reports, err, files = runs[0]
    assert code == EXIT_UNSUPPORTED and len(json.loads(reports)) == 6 and err.count("\n") == 2
    assert len([name for name in files if name.endswith(".trace.jsonl")]) == 6


@pytest.mark.parametrize("stem", ["b", "g"])  # job 1's share, job 0's own share
def test_batch_raises_a_job_s_error_with_its_type_and_leaves_no_child(tmp_path, capsys,
                                                                     monkeypatch, stem):
    directory = _mixed_batch(tmp_path / "batch")
    solve_one = cli._solve_one

    def solve(path, *args):
        if path.endswith(f"/{stem}.instance.json"):
            raise RuntimeError(f"broke at {stem}")
        return solve_one(path, *args)

    monkeypatch.setattr(cli, "_solve_one", solve)
    with pytest.raises(RuntimeError, match=f"^broke at {stem}$"):
        main(["solve", "--batch", str(directory), "--jobs", "2"])
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert capsys.readouterr() == ("", "")


def test_batch_names_a_job_that_ends_without_its_results(tmp_path, capsys, monkeypatch):
    directory = _mixed_batch(tmp_path / "batch")
    solve_one = cli._solve_one
    monkeypatch.setattr(cli, "_solve_one", lambda path, *args: (
        os._exit(7) if path.endswith("d.instance.json") else solve_one(path, *args)))
    with pytest.raises(RuntimeError, match=r"^solve --batch job 1 ended without its results"
                                           r" \(exit code 7\)$"):
        main(["solve", "--batch", str(directory), "--jobs", "2"])
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_batch_results_larger_than_a_pipe_buffer(tmp_path):
    # Each of three jobs sends about 300 KB; a fresh interpreter, so that a
    # deadlock ends in the timeout.
    for i in range(9):
        save_instance(*gen_multitree(seed=i, n=4), tmp_path / f"{i}.instance.json")
    script = (
        "import sys\n"
        "from graphefx import cli\n"
        "cli._solve_batch_instance = lambda path, *args: (path.name + 'x' * 100_000, 0, False)\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    done = subprocess.run([sys.executable, "-c", script, "solve", "--batch", str(tmp_path),
                           "--jobs", "3"], env=_run_cli_env(), capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == EXIT_OK and done.stderr == ""
    assert done.stdout.splitlines() == [f"{i}.instance.json" + "x" * 100_000 for i in range(9)]


@pytest.mark.parametrize("why", ["a live thread", "no os.fork"])
def test_batch_forks_nothing_when_it_cannot_fork_safely(tmp_path, capsys, monkeypatch, why):
    want = _batch_outputs(_mixed_batch(tmp_path / "one"), capsys, 1)
    directory = _mixed_batch(tmp_path / "three")
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    if why == "no os.fork":
        monkeypatch.delattr(os, "fork")
    else:
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
        thread.start()
    try:
        assert _batch_outputs(directory, capsys, 3) == want
    finally:
        stop.set()
        if thread.is_alive():
            thread.join()


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
    with pytest.raises(InputError, match="^valuation of agent 'b' gives type \"xor\", not"
                       ' "additive" or "unit_demand" or "budget_additive" or "table"$'):
        instance_from_json(doc)


def test_allocation_json_round_trip(b1_instance):
    from graphefx import Allocation

    alloc = Allocation(bundles={0: frozenset({0, 3}), 2: frozenset({2})})
    doc = allocation_to_json(alloc, ["a", "b", "c"])
    assert allocation_from_json(doc, ["a", "b", "c"], 4) == alloc


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
    assert err == "error: trace event 1 gives transfers[0] [1, 2], not a JSON list of 3 items\n"


def test_audit_short_pieces_exit_1(b1_file, tmp_path, capsys):
    # b1 solves as a tree, so its trace attaches leaves
    err = _hostile_audit(b1_file, tmp_path, capsys, lambda lines: _edit_first_structure(
        lines, kind="leaf_attached", pieces=[[0]]))
    assert err == "error: trace event 0 gives pieces [[0]], not a JSON list of 2 items\n"


def test_audit_non_object_line_exit_1(c4_file, tmp_path, capsys):
    err = _hostile_audit(c4_file, tmp_path, capsys, lambda lines: lines + ["[1, 2]"])
    assert err == "error: trace event 3 is [1, 2], not a JSON object\n"


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


# The library names a vertex by its index; the coloring file's reader names the
# agent's declared name and its place in the file.
@pytest.mark.parametrize("colors, message, read", [
    pytest.param(HINT[:7], "coloring is missing vertex 7", 'has no key "a7" in colors',
                 id="colors0-coloring is missing vertex 7"),
    pytest.param(HINT[:7] + [9], "vertex 7 has color outside 0..2",
                 'gives colors["a7"] 9, not in 0..2', id="colors1-vertex 7 has color outside 0..2"),
])
def test_bad_coloring_hint_on_disconnected_instance(tmp_path, capsys, colors, message, read):
    inst, path = _star_and_five_cycle(tmp_path)
    with pytest.raises(InputError, match=f"^{message}$"):
        solve(inst, Coloring(colors=dict(enumerate(colors)), t=3))
    hint = tmp_path / "h.json"
    hint.write_text(json.dumps({"colors": {f"a{i}": c for i, c in enumerate(colors)}, "t": 3}))
    assert main(["solve", str(path), "--coloring", str(hint)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: coloring file {hint} {read}\n"


@pytest.mark.parametrize("colors, message", [
    pytest.param({"a0": 0}, 'has no key "a1" in colors', id="colors0-coloring is missing vertex 1"),
    pytest.param({"a0": 0, "a1": 1, "a2": 1, "a3": 1, "a4": 9}, 'gives colors["a4"] 9, not in 0..2',
                 id="colors1-vertex 4 has color outside 0..2"),
])
def test_bad_coloring_hint_on_connected_instance(tmp_path, capsys, colors, message):
    # the tree solver applies, so the hint would never reach the chromatic verdict
    path, hint = tmp_path / "t.instance.json", tmp_path / "h.json"
    assert main(["gen", "multitree", "--agents", "5", "-o", str(path)]) == EXIT_OK
    capsys.readouterr()
    hint.write_text(json.dumps({"colors": colors, "t": 3}))
    assert main(["solve", str(path), "--coloring", str(hint)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: coloring file {hint} {message}\n"


def test_valid_coloring_hint_on_disconnected_instance(tmp_path, capsys):
    _, path = _star_and_five_cycle(tmp_path)
    hint = tmp_path / "h.json"
    hint.write_text(json.dumps({"colors": {f"a{i}": c for i, c in enumerate(HINT)}, "t": 3}))
    with_hint, without = tmp_path / "hinted.alloc.json", tmp_path / "plain.alloc.json"
    assert main(["solve", str(path), "--coloring", str(hint), "-o", str(with_hint)]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["method_used"] == "componentwise(tree,chromatic)"
    assert main(["solve", str(path), "-o", str(without)]) == EXIT_OK
    assert with_hint.read_bytes() == without.read_bytes()


def test_improper_hint_reason_names_the_instance_edge(tmp_path, capsys):
    _, path = _star_and_five_cycle(tmp_path)
    hint = tmp_path / "h.json"
    colors = [0, 1, 1, 0, 0, 1, 0, 1]  # a3 and a4 share a color, and edge 2 joins them
    hint.write_text(json.dumps({"colors": {f"a{i}": c for i, c in enumerate(colors)}, "t": 2}))
    assert main(["solve", str(path), "--coloring", str(hint)]) == EXIT_UNSUPPORTED
    assert "; chromatic: the coloring hint is not proper at edge 2;" in capsys.readouterr().err


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
    trace = load_trace(tmp_path / "u.trace.jsonl", load_instance(path)[0].graph)
    assert [ev.t for ev in trace if isinstance(ev, ColoringUsed)] == [2, 3]
    path = _union_file(tmp_path, [C5, MULTI_TRIANGLE])
    assert main(["analyze", str(path)]) == EXIT_OK
    assert "chromatic_number: componentwise(3; None)" in capsys.readouterr().out.splitlines()


def test_analyze_interleaved_components(tmp_path, capsys):
    path = tmp_path / "u.instance.json"
    save_instance(c5_path_and_isolated_agent(), [f"a{i}" for i in range(9)], path)
    assert main(["analyze", str(path)]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out[-2:] == [
        "chromatic_number: componentwise(3; 2; 1)",
        "eligible: componentwise(chromatic; tree, bipartite, chromatic, brute_force;"
        " tree, bipartite, chromatic, brute_force)",
    ]


def test_analyze_prints_none_for_a_component_no_solver_accepts(tmp_path, capsys):
    path = _union_file(tmp_path, [STAR, MULTI_TRIANGLE])
    assert main(["analyze", str(path)]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "eligible: componentwise(tree, bipartite, chromatic, brute_force; none)"
    assert main(["solve", str(path)]) == EXIT_UNSUPPORTED


def _no_coloring_search_below_three(monkeypatch):
    try_color = MultiGraph._try_color

    def searched(self, t, vertices):
        if t < 3:
            pytest.fail(f"searched for a {t}-coloring")
        return try_color(self, t, vertices)

    monkeypatch.setattr(MultiGraph, "_try_color", searched)


def test_analyze_searches_each_component_coloring_once(tmp_path, capsys, monkeypatch):
    # analyze reports each component's smallest coloring, and classify needs
    # it again for the chromatic verdict: one t = 3 search per Petersen copy
    try_color = MultiGraph._try_color
    searched = []

    def counted(self, t, vertices):
        searched.append(t)
        return try_color(self, t, vertices)

    monkeypatch.setattr(MultiGraph, "_try_color", counted)
    for copies, want in ((1, [3]), (2, [3, 3])):
        petersen = gen_petersen(seed=4, parallel_copies=2)[0]
        union, _, _ = interleaved_union(random.Random(copies), [petersen] * copies)
        path = tmp_path / f"{copies}.instance.json"
        save_instance(union, [f"a{i}" for i in range(union.graph.vertex_count)], path)
        searched.clear()
        assert main(["analyze", str(path)]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[-2] == "chromatic_number: " + (
            "3" if copies == 1 else "componentwise(3; 3)")
        assert searched == want


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
    ("union", []),  # a table multi-tree, a 5-cycle and an isolated agent, interleaved
])
def test_solve_output_does_not_depend_on_the_hash_seed(tmp_path, family, args):
    inst = tmp_path / "x.instance.json"
    if family == "union":
        parts = [gen_multitree(seed=4, n=8, max_parallel=2, valuation_kind="table")[0],
                 gen_multicycle(seed=4, length=5, max_parallel=2)[0], zero_instance(MultiGraph(1, []))]
        union, _, _ = interleaved_union(random.Random(4), parts)
        save_instance(union, [f"a{i}" for i in range(union.graph.vertex_count)], inst)
    else:
        assert main(["gen", family, *args, "-o", str(inst)]) == EXIT_OK
    outputs = []
    for hash_seed in ("0", "1"):
        alloc, trace = tmp_path / f"{hash_seed}.alloc.json", tmp_path / f"{hash_seed}.trace.jsonl"
        done = _run_cli("solve", inst, "-o", alloc, "--trace", trace,
                        env={"PYTHONHASHSEED": hash_seed})
        assert done.returncode == EXIT_OK, done.stderr
        outputs.append((alloc.read_bytes(), trace.read_bytes()))
    assert outputs[0] == outputs[1]


def test_solve_exhaustive_search_without_efx_allocation_exits_2(tmp_path, capsys, monkeypatch):
    path = tmp_path / "k4plus2.instance.json"
    save_instance(additive_instance(K4_PLUS_TWO), list("abcd"), path)
    monkeypatch.setattr(graphefx.solvers, "first_efx_allocation", lambda inst, component: None)
    assert main(["solve", str(path)]) == EXIT_UNSUPPORTED
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: no solver applies: ") and captured.err.count("\n") == 1
    assert "brute_force: exhaustive search found no EFX allocation" in captured.err
    assert "Traceback" not in captured.err
