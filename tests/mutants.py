"""Mutants of ``src/graphefx`` that the tests must kill, and their runner.

Each mutant is a defect that a test was written to catch: an exact text
replacement in one source file, and the tests that must fail on it.  Run it
from the repository root, outside tier-1, whose runtime it would double:

    python -m tests.mutants

For each mutant the runner copies ``src`` to a temporary directory, applies
the replacement there, and runs the mutant's tests with ``-x`` on the copy.
It names each mutant that survives (its tests pass), whose tests cannot run
(pytest exits with another code than 1), or whose ``old`` text does not
occur exactly once, and then exits 1.  A mutant whose ``old`` text went
stale is rewritten against the new code or deleted.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    defect: str
    file: str  # under src/graphefx
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, from the repository root


READER_KINDS = "tests/test_cli.py::test_each_kind_of_reader_error_has_one_wording"
NAMED = "tests/test_cli.py::test_a_file_error_names_its_place_and_agent[%s]"
ALLOCATION_WRITER = "tests/test_jsonio.py::test_the_allocation_writer_writes_what_json_dumps_writes"
STEP_PROPERTY = "tests/test_allocation.py::test_envy_graph_step_matches_from_scratch"
LIBRARY_CHECKS = ("tests/test_package.py::"
                  "test_a_bad_input_built_through_the_library_raises_input_error[%s]")
MOVEMENT_RULES = "tests/test_audit.py::test_good_movement_names_each_broken_rule"

MUTANTS = [
    # one per kind of reader error
    Mutant("wrong container: a string where a list belongs is read as its characters",
           "trace.py", "if not set(map(type, xs)) <= {container} or",
           "if not set(map(type, xs)) <= {container, str} or",
           ("tests/test_cli.py::test_verify_reinterpreted_allocation_exit_1",)),
    Mutant("wrong leaf: a JSON number with a fraction is read as an integer",
           "trace.py", "return set(map(type, xs)) <= {int} and",
           "return set(map(type, xs)) <= {int, float} and", (READER_KINDS,)),
    Mutant("out-of-range id: the id n is taken for one of 0..n-1",
           "trace.py", "bound is None or max(xs) < bound", "bound is None or max(xs) <= bound",
           (READER_KINDS,)),
    Mutant("unknown key: an object of a shape without optional keys may hold more keys",
           "trace.py", "else set(map(len, xs)) <= {len(shape.fields)}", "else True",
           (READER_KINDS,)),
    Mutant("missing key: a required key left out reads as null",
           "trace.py", "columns = [list(map(itemgetter(k), xs)) if k in shape.required",
           "columns = [list(map(dict.get, xs, repeat(k))) if k in shape.required",
           (READER_KINDS,)),
    Mutant("repeated item: a set that names an item twice is read as the set",
           "trace.py", "if origin is frozenset and sum(map(len, out)) != len(items):",
           "if origin is frozenset and sum(map(len, out)) > len(items):", (READER_KINDS,)),
    # the file rules that name their place and agent
    Mutant("an allocation may give one good to two agents",
           "trace.py", "len(frozenset().union(*values)) != sum(map(len, values))",
           "len(frozenset().union(*values)) > sum(map(len, values))",
           (NAMED % "overlapping bundles",)),
    Mutant("an allocation may name a good the instance does not have",
           "jsonio.py", "{Name: index, Good: edge_count}", "{Name: index}",
           (NAMED % "good out of range",)),
    Mutant("a coloring file may give a color of t or more",
           "jsonio.py", "{Name: index, Natural: t}", "{Name: index, Natural: None}",
           (NAMED % "color out of range",)),
    Mutant("a coloring file may leave an agent out",
           "jsonio.py", "if len(colors) != len(names):", "if False:", (NAMED % "uncolored agent",)),
    Mutant("a coloring file's t may be negative",
           "jsonio.py", '"t": Natural})', '"t": int})', (NAMED % "negative t",)),
    Mutant("an instance's values may be negative",
           "jsonio.py", "{Name: index, Natural: None})", "{Name: index})",
           (NAMED % "negative value",)),
    Mutant("an edge may join an agent to itself",
           "jsonio.py", "if any(map(eq, firsts, seconds)):", "if False:", (NAMED % "self-loop",)),
    Mutant("a valuation may value a good that is not incident to its agent",
           "jsonio.py", "        if stray:\n", "        if False:\n", (NAMED % "non-incident good",)),
    Mutant("a table's own error leaves out its agent",
           "jsonio.py", "    except InputError as exc:\n", "    except KeyError as exc:\n",
           (NAMED % "non-monotone table",)),
    # the one field setter, and the __init__ that Frozen builds for a plain record
    Mutant("a built __init__ passes its parameters to the setter in reverse field order",
           "frozen.py", "self._set({', '.join(cls.fields)})",
           "self._set({', '.join(cls.fields[::-1])})", ("tests/test_package.py",)),
    Mutant("a built __init__ ignores its fields' defaults, so Verdict(solver) is refused",
           "frozen.py", "if f in vars(cls) else f", "if False else f",
           ("tests/test_solvers.py::test_dispatch_prefers_tree",)),
    Mutant("Additive and UnitDemand get a built __init__ that skips PerGood's value check",
           "frozen.py", "if cls.__init__ is object.__init__:", 'if "__init__" not in vars(cls):',
           ("tests/test_valuation.py::test_negative_values_rejected",)),
    Mutant("a built __init__ refuses a bad call as __init__(), not by its class's name",
           "frozen.py", '            cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"\n',
           "", ("tests/test_package.py::test_a_value_class_s_fields_are_its_init_parameters",)),
    Mutant("the field setter drops a fifth field: the moves of StructureResolved and LeafAttached",
           "frozen.py", "zip(self.fields, values)", "zip(self.fields, values[:4])",
           ("tests/test_package.py",)),
    # solve's outputs
    Mutant("solve --trace may name the instance, the coloring or the allocation",
           "cli.py", "if first != option and option in outputs:",
           'if first != option and option in outputs and option != "--trace":',
           ("tests/test_cli.py::test_solve_refuses_an_output_that_names_another_file_of_the_run",)),
    Mutant("solve --batch writes an instance's output over the --coloring file",
           "cli.py", '{f"the {output} of {path.name}": out for output, out in outputs}', "{}",
           ("tests/test_cli.py::test_batch_refuses_a_coloring_it_would_overwrite",)),
    Mutant("a buffered report that cannot be written fails at exit, with a traceback",
           "cli.py", 'print(end="", flush=True)', 'print(end="")',
           ("tests/test_cli.py::test_analyze_into_a_closed_pipe_exits_1_with_one_line[buffered]",
            "tests/test_cli.py::test_solve_into_a_full_device_exits_1_with_one_line[buffered]")),
    # analyze's verdicts
    Mutant("analyze marks the last solver that applies, not the first",
           "cli.py", "next((v for v in verdicts if v.applies), None)",
           "next((v for v in verdicts[::-1] if v.applies), None)",
           ("tests/test_cli.py::"
            "test_analyze_and_solve_give_the_same_verdicts_on_the_golden_corpus",)),
    # growth laws
    Mutant("EnvyGraph.step re-decides every rival of an agent whose bundle only grew",
           "allocation.py", "            if y in shrank:\n", "            if True:\n",
           ("tests/test_growth.py",)),
    Mutant("EnvyGraph.step re-decides an agent whose bundle only grew against every changed rival",
           "allocation.py", "                movers |= out\n",
           "                movers |= out | ((set(map(holder.get, incident[y])) - {y, None})"
           " & changed)\n",
           ("tests/test_growth.py",)),
    Mutant("the unresolved-union family suspects both endpoints of every moved good",
           "audit.py", "            w = holder[g]\n"
           "            if w not in resolved:\n"
           "                suspects.update(z for z in ends[g] if z != w)\n",
           "            suspects.update(ends[g])\n",
           ("tests/test_audit.py::test_unit_demand_audit_rechecks_only_what_moved_goods_change",)),
    # the audit's searches
    Mutant("_within tests the meeting one expansion late: one hop past the bound passes",
           "audit.py", "    for _ in range(depth):\n", "    for _ in range(depth + 1):\n",
           ("tests/test_audit.py::test_audit_matches_from_scratch_reference",
            "tests/test_audit.py::test_within_meets_in_the_middle_as_a_bfs_would")),
    Mutant("the distance family skips the search for a good an endpoint's favourite holds"
           " while no good of their loop is held",
           "audit.py",
           "                    and not holder.keys().isdisjoint(inst.graph.parallel_edges(e, w))\n",
           "",
           ("tests/test_audit.py::"
            "test_the_distance_shortcut_needs_a_held_good_of_the_favourite_s_loop",)),
    # the cut's tie rules
    Mutant("the greedy cut ties goods to the highest id",
           "partition.py", "if marginal > best_marginal:", "if marginal >= best_marginal:",
           ("tests/test_partition.py::test_cac_greedy_ties_goods_to_the_lowest_id",)),
    Mutant("the greedy cut extends piece2 when the pieces tie in value",
           "partition.py", "(p1, v1) if v1 <= v2 else (p2, v2)", "(p1, v1) if v1 < v2 else (p2, v2)",
           ("tests/test_partition.py::test_cac_greedy_extends_piece1_on_a_value_tie",)),
    Mutant("under double indifference the chooser takes piece1",
           "partition.py", "vc1 == vc2 and v1 < v2", "vc1 == vc2 and v1 <= v2",
           ("tests/test_partition.py::test_cut_and_choose_gives_piece2_under_double_indifference",)),
    # the solvers, valuations, graph queries and oracle on the solve path
    Mutant("a root whose favourite piece ties with prior | rest | leftover keeps it",
           "solvers.py", "elif s_value > v_u.value(prior | rest | leftover):",
           "elif s_value >= v_u.value(prior | rest | leftover):",
           ("tests/test_solvers.py::test_bipartite_efx_matches_reference_root_loop",
            "tests/test_solvers.py::test_chromatic_efx_matches_set_dict_reference")),
    Mutant("a budget-additive value is at least its cap instead of at most",
           "valuation.py", "return min(self.cap, ", "return max(self.cap, ",
           ("tests/test_valuation.py::test_budget_additive_cap_binds",)),
    Mutant("a unit-demand value is the value of the bundle's last good, not its largest",
           "valuation.py", "            if v > best:\n                best = v\n",
           "            best = v\n",
           ("tests/test_valuation.py::test_per_good_value_matches_the_generator_formulas",)),
    Mutant("a shift's moves drop one good of each bundle, which stays with its holder",
           "solvers.py", "for g in envy.bundle(w)}", "for g in sorted(envy.bundle(w))[1:]}",
           ("tests/test_solvers.py::test_tree_efx_matches_set_dict_reference",
            "tests/test_solvers.py::"
            "test_folding_the_moves_gives_the_reference_bundles_after_every_event")),
    Mutant("the trace reader accepts a structure line whose transfers its snapshot does not make",
           "trace.py", "            if listed != made:\n", "            if False:\n",
           ("tests/test_audit.py::"
            "test_a_structure_line_must_list_the_transfers_its_snapshot_makes",)),
    # the file form: each step line shows its own agent's component
    Mutant("the writer keeps one running snapshot for all components",
           "trace.py", "held.setdefault(component and component[0], {})",
           "held.setdefault(None, {})",
           ("tests/test_audit.py::"
            "test_a_tree_between_phase_based_components_writes_reads_and_audits",)),
    Mutant("the trace reader accepts a step line that drops a good its component held",
           "trace.py", "        if len(holder) - len(moves.keys() - before.keys()) < len(before):\n",
           "        if False:\n",
           ("tests/test_audit.py::test_a_step_line_keeps_within_its_component_and_keeps_its_goods"
            "[_drop_a_held_good]",)),
    Mutant("a coloring may give a vertex the color t",
           "multigraph.py", "if not (0 <= col.colors[v] < col.t):",
           "if not (0 <= col.colors[v] <= col.t):",
           ("tests/test_multigraph.py::test_validate_coloring_rejects_a_color_outside_0_to_t_minus_1",)),
    Mutant("the oracle lets an envied rival of a closed agent gain later goods",
           "oracle.py", "bar |= 1 << w  # rule (b)", "pass  # rule (b)",
           ("tests/test_oracle.py::test_count_agrees_with_naive_predicate",)),
    # the one builder of the envy graph, and the one search of the skeleton
    Mutant("EnvyGraph.step decides an agent whose bundle only grew against its out-edges alone,"
           " so a built graph's holders envy no one",
           "allocation.py", "                movers |= out\n", "                movers = set(out)\n",
           ("tests/test_allocation.py::test_local_checks_match_all_pairs_reference",)),
    Mutant("EnvyGraph.step re-decides an unchanged endpoint only against the rivals it envied,"
           " so a built graph's agents without goods envy no one",
           "allocation.py", "            self._redecide(z, ys)\n",
           "            self._redecide(z, ys & self._out.get(z, _NOTHING))\n",
           ("tests/test_allocation.py::test_local_checks_match_all_pairs_reference",)),
    # rivals read from holder
    Mutant("EnvyGraph.step re-decides an agent that gave a good up only against the agents it"
           " envied",
           "allocation.py",
           "self._redecide(y, set(map(holder.get, incident[y])) - {y, None}, stale)",
           "self._redecide(y, set(out), stale)",
           (STEP_PROPERTY,)),
    Mutant("EnvyGraph.step never drops an envy edge to an agent that no longer holds a rival good",
           "allocation.py",
           "            stale = ([w for w in out if bundles.get(w, _NOTHING).isdisjoint(incident[y])]\n"
           "                     if out else ())\n",
           "            stale = ()\n",
           (STEP_PROPERTY,)),
    # the audit reads each structure event's own moves, and the rules they keep
    Mutant("the audit folds the moves of tree events into the next structure event",
           "audit.py", "    for idx, ev in structures:\n"
           "        favourite_of[ev.root] = ev.favourite\n"
           "        transfers = sorted((g, holder[g], to) for g, to in ev.moves.items()\n"
           "                           if holder.get(g, to) != to)\n"
           "        moved, shrank = envy.step(ev.moves)\n",
           "    pending: dict = {}\n"
           "    for idx, ev in enumerate(trace):\n"
           "        if not isinstance(ev, StructureResolved):\n"
           "            pending.update(getattr(ev, 'moves', {}))\n"
           "            continue\n"
           "        moves, pending = {**pending, **ev.moves}, {}\n"
           "        favourite_of[ev.root] = ev.favourite\n"
           "        transfers = sorted((g, holder[g], to) for g, to in moves.items()\n"
           "                           if holder.get(g, to) != to)\n"
           "        moved, shrank = envy.step(moves)\n",
           ("tests/test_audit.py::"
            "test_a_tree_between_phase_based_components_writes_reads_and_audits",
            "tests/test_audit.py::test_unions_of_every_solver_s_parts_write_read_and_audit")),
    Mutant("the audit reads a trace whose tree event moves a good of a phase-based component",
           "audit.py", "if isinstance(ev, (LeafAttached, CycleResolved)) and not phased",
           "if False and not phased",
           ("tests/test_audit.py::"
            "test_a_tree_line_that_moves_a_good_of_a_phase_based_component_fails_the_audit",)),
    Mutant("good movement lets a structure event transfer a held good outside the keep branch",
           "audit.py", "            if ev.branch != BRANCH_SAME_KEEP:\n", "            if False:\n",
           (MOVEMENT_RULES,)),
    Mutant("good movement lets a structure event first give a good anywhere",
           "audit.py", "        for g in sorted(moved.difference([g for g, _, _ in transfers])):\n",
           "        for g in ():\n",
           (MOVEMENT_RULES,)),
    Mutant("the unresolved-union family also counts the goods that resolved roots hold",
           "audit.py", "if holder.get(g, z) != z and holder[g] not in resolved]",
           "if holder.get(g, z) != z]",
           ("tests/test_audit.py::test_audit_matches_from_scratch_reference",)),
    Mutant("the audit passes a trace that holds no coloring event without checking it",
           "audit.py", "    if not structures:\n",
           "    if not structures or not any(isinstance(ev, ColoringUsed) for ev in trace):\n",
           ("tests/test_audit.py::test_a_trace_without_its_coloring_is_rejected",)),
    Mutant("the distance family looks colors up unchecked: an uncolored agent raises KeyError",
           "audit.py",
           "            try:  # a trace read from a file may leave an agent it involves uncolored\n"
           "                c_a, c_b, c_w = colors[a], colors[b], colors[w]\n"
           "            except KeyError as missing:\n"
           "                raise InputError(f\"trace event {idx} involves agent {missing.args[0]},\"\n"
           "                                 \" which has no color\") from None\n",
           "            c_a, c_b, c_w = colors[a], colors[b], colors[w]\n",
           ("tests/test_audit.py::test_check_trace_rejects_uncolored_holders",
            "tests/test_audit.py::"
            "test_the_audit_rejects_an_uncolored_agent_where_the_reference_check_does")),
    Mutant("the skeleton search carries a component's odd-cycle mark over to the next component",
           "multigraph.py", "            comps, odd = [], set()\n"
           "            for start in range(self.vertex_count):\n"
           "                if side[start] >= 0:\n"
           "                    continue\n"
           "                side[start] = 0\n"
           "                comp, clash = [start], False\n",
           "            comps, odd, clash = [], set(), False\n"
           "            for start in range(self.vertex_count):\n"
           "                if side[start] >= 0:\n"
           "                    continue\n"
           "                side[start] = 0\n"
           "                comp = [start]\n",
           ("tests/test_multigraph.py::test_bipartition_agrees_with_exhaustive_two_coloring",)),
    # the library's own checks, which the file readers' checks precede on every command
    Mutant("an Instance may give an agent a valuation of goods not incident to it",
           "solvers.py",
           "            if extra:\n", "            if False:\n",
           (LIBRARY_CHECKS % "instance-non-incident-support",)),
    Mutant("a MultiGraph may have an edge whose endpoint is not a vertex",
           "multigraph.py",
           "if not (0 <= u < vertex_count) or not (0 <= w < vertex_count):", "if False:",
           (LIBRARY_CHECKS % "graph-endpoint-out-of-range",)),
    # the generators
    Mutant("the multicycle generator makes a cycle of length 2",
           "generators.py", "if length < 3 or max_parallel < 1:",
           "if length < 2 or max_parallel < 1:",
           ("tests/test_cli.py::test_gen_refuses_what_its_family_cannot_make_exit_1",)),
    Mutant("the bipartite generator joins agents of the left side to each other",
           "generators.py", "for w in range(n_left, n_left + n_right):",
           "for w in range(u + 1, n_left + n_right):",
           ("tests/test_acceptance.py::test_criterion_1_bipartite_correctness",)),
    Mutant("a generated table may lose value when a good is added",
           "generators.py", "floor = max(entries[subset - {g}] for g in subset)",
           "floor = min(entries[subset - {g}] for g in subset)",
           ("tests/test_acceptance.py::test_criterion_2_tree_correctness",)),
    # the error hierarchy
    Mutant("UnsupportedClassError is not a GraphEfxError, so the CLI does not catch it",
           "errors.py", "class UnsupportedClassError(GraphEfxError):",
           "class UnsupportedClassError(Exception):",
           ("tests/test_cli.py::test_unsupported_class_exit_2",)),
    # the writers of solve's outputs
    Mutant("allocation rows sorted by the quoted name, not the raw one",
           "jsonio.py", "key=itemgetter(0))", "key=lambda row: encode_basestring_ascii(row[0]))",
           (ALLOCATION_WRITER,)),
    Mutant("an allocation's bundle written in set order, not sorted",
           "jsonio.py", r'",\n      ".join(map(str, sorted(b)))', r'",\n      ".join(map(str, b))',
           (ALLOCATION_WRITER,)),
    Mutant("a trace line's set written in set order, not sorted",
           "trace.py", "', '.join(map(str, sorted(xs)))", "', '.join(map(str, xs))",
           ("tests/test_audit.py::test_writer_folds_any_changes",)),
    Mutant("the leaf_attached template writes parent before leftover_to",
           "trace.py", '"leftover_to": {ev.leftover_to}, "parent": {ev.parent}, ',
           '"parent": {ev.parent}, "leftover_to": {ev.leftover_to}, ',
           ("tests/test_audit.py::test_writer_matches_reference_for_every_event_kind",)),
]


def run(mutant: Mutant, work: Path) -> str:
    """Apply ``mutant`` to a fresh copy of ``src`` in ``work`` and run its tests;
    return "killed", "survived", "stale" or why its tests could not run."""
    src = work / "src"
    shutil.rmtree(src, ignore_errors=True)
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    path = src / "graphefx" / mutant.file
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        return "stale"
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                           *mutant.tests], cwd=ROOT, env=env, capture_output=True, text=True)
    if done.returncode == 0:
        return "survived"
    return "killed" if done.returncode == 1 else f"not run (pytest exit code {done.returncode})"


def main() -> int:
    start = time.monotonic()
    with tempfile.TemporaryDirectory() as work:
        bad = 0
        for mutant in MUTANTS:
            outcome = run(mutant, Path(work))
            bad += outcome != "killed"
            print(f"{outcome}: {mutant.file}: {mutant.defect}", flush=True)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed"
          f" in {time.monotonic() - start:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
