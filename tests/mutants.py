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
    # solve's outputs
    Mutant("solve --trace may name the instance, the coloring or the allocation",
           "cli.py", 'option in ("-o", "--trace")', 'option == "-o"',
           ("tests/test_cli.py::test_solve_refuses_an_output_that_names_another_file_of_the_run",)),
    # growth laws
    Mutant("EnvyGraph.step re-decides every rival of an agent whose bundle only grew",
           "allocation.py", "            if y in shrank:\n", "            if True:\n",
           ("tests/test_growth.py",)),
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
    with tempfile.TemporaryDirectory() as work:
        bad = 0
        for mutant in MUTANTS:
            outcome = run(mutant, Path(work))
            bad += outcome != "killed"
            print(f"{outcome}: {mutant.file}: {mutant.defect}", flush=True)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
