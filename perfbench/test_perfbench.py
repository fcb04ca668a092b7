"""Tests of the benchmark's own arithmetic, inputs and checks.

Run from the repository root: python3 -m pytest perfbench -q
"""

import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import metrics  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_tail_is_highest_percentile_with_ten_beyond():
    assert metrics.tail_percentile(list(range(1, 101))) == (90, 90, 10)
    assert metrics.tail_percentile(list(range(1, 37))) == (72, 26, 10)


def test_tail_at_twenty_samples_is_the_median_rank():
    assert metrics.tail_percentile(list(range(20, 0, -1))) == (50, 10, 10)


def test_tail_refuses_too_few_samples():
    with pytest.raises(ValueError):
        metrics.tail_percentile(list(range(19)))


def test_self_time_subtracts_disjoint_children():
    assert metrics.self_time(0, 100, [(10, 20), (30, 50)]) == 70


def test_self_time_counts_overlapping_children_once():
    # two worker threads whose spans overlap inside one parent
    assert metrics.self_time(0, 100, [(10, 60), (40, 70), (65, 80)]) == 30


def test_self_time_clips_children_to_the_parent():
    assert metrics.self_time(50, 100, [(40, 60), (90, 120)]) == 30
    assert metrics.self_time(0, 10, [(20, 30)]) == 10


def test_error_rate_base():
    assert metrics.error_rate(3, 14) == pytest.approx(3 / 14)
    assert metrics.error_rate(0, 1) == 0
    with pytest.raises(ValueError):
        metrics.error_rate(0, 0)
    with pytest.raises(ValueError):
        metrics.error_rate(5, 4)


def _bytes(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*.json"))}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_bytes_other_seed_other_bytes(tmp_path, name):
    for label, seed in (("a", 7), ("b", 7), ("c", 8)):
        workloads.build(name, seed, tmp_path / label, 2)
    a, b, c = (_bytes(tmp_path / label) for label in "abc")
    assert a and a == b
    assert a.keys() == c.keys()
    assert all(a[k] != c[k] for k in a)


def test_dispatch_marks_the_expected_outcomes(tmp_path):
    (cases,) = workloads.build("dispatch", 1, tmp_path, 1)
    defects = [c.key for c in cases if c.known_defect]
    assert defects == ["g00/10-cycle4+cycle4", "g00/11-cycle5+cycle5", "g00/12-cycle4+cycle5"]
    assert [c.key for c in cases if c.expect_exit == 2] == ["g00/13-mycielski5"]


def test_mycielski5_shape():
    inst = workloads.mycielski5(__import__("random").Random(0))
    assert (inst.graph.vertex_count, inst.graph.edge_count) == (23, 71)
    assert inst.graph.girth() == 4


INSTANCE = {
    "agents": ["a", "b"],
    "edges": [{"id": 0, "endpoints": ["a", "b"]}, {"id": 1, "endpoints": ["a", "b"]}],
    "valuations": {
        "a": {"type": "additive", "values": {"0": 5, "1": 1}},
        "b": {"type": "budget_additive", "values": {"0": 2, "1": 3}, "cap": 3},
    },
}


def test_own_efx_predicate():
    assert checks.efx_problem(INSTANCE, {"bundles": {"a": [0], "b": [1]}}) is None
    assert "envies" in checks.efx_problem(INSTANCE, {"bundles": {"b": [0, 1]}})
    assert "partition" in checks.efx_problem(INSTANCE, {"bundles": {"a": [0]}})


def test_tracer_restores_the_program_and_keeps_outputs(tmp_path):
    import graphefx.cli as cli
    import graphefx.solvers as solvers

    (cases,) = workloads.build("dispatch", 2, tmp_path, 1)
    path = next(c.path for c in cases if c.key.endswith("tree10+petersen1"))
    original = solvers.envy_graph

    def solve(out: str) -> bytes:
        with redirect_stdout(io.StringIO()):
            assert cli.main(["solve", str(path), "-o", out + ".alloc", "--trace", out + ".trace"]) == 0
        return Path(out + ".alloc").read_bytes() + Path(out + ".trace").read_bytes()

    plain = solve(str(tmp_path / "plain"))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = solve(str(tmp_path / "traced"))
    finally:
        tracer.uninstall()
    assert traced == plain
    assert solvers.envy_graph is original
    values, seen = tracing.layer_metrics(tracer)
    assert seen >= {"cli", "jsonio", "solvers", "allocation", "audit", "valuation"}
    assert values["solvers.components"] == 2
    assert values["valuation.queries"] > 0
