"""End-to-end acceptance suite.

Eight criteria, each printing one pass/fail line.  All arithmetic is exact
integer arithmetic, so every comparison is zero-tolerance; the only numeric
bounds are the per-criterion wall-clock budgets.
"""

import random
import time

import pytest

from graphefx import (
    Coloring,
    brute_force_efx,
    chromatic_efx,
    cut_and_choose,
    is_cancellable_bruteforce,
    is_efx,
    solve,
    tree_efx,
)
from graphefx.audit import FAMILIES, audit_trace
from graphefx.generators import gen_bipartite, gen_multicycle, gen_multitree, gen_petersen
from graphefx.partition import _is_efx_pair

from .conftest import random_family_valuation, tamper_trace


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {criterion}: {status}{suffix}")


@pytest.fixture(scope="module")
def bipartite_runs():
    runs = []
    start = time.monotonic()
    for seed in range(200):
        inst, _ = gen_bipartite(
            seed=seed,
            n_left=1 + seed % 6,
            n_right=1 + (seed // 6) % 6,
            max_parallel=4,
            value_max=100,
        )
        alloc, trace = chromatic_efx(inst, inst.graph.bipartition())
        runs.append((inst, alloc, trace))
    return runs, time.monotonic() - start


@pytest.fixture(scope="module")
def tree_runs():
    kinds = ("additive", "unit_demand", "budget_additive", "table")
    runs = []
    start = time.monotonic()
    for seed in range(200):
        inst, _ = gen_multitree(
            seed=seed,
            n=2 + seed % 7,
            max_parallel=3,
            value_max=100,
            valuation_kind=kinds[seed % 4],
        )
        alloc, trace = tree_efx(inst)
        runs.append((inst, alloc, trace))
    return runs, time.monotonic() - start


def _cycle_three_coloring(length: int) -> Coloring:
    colors = {v: v % 2 for v in range(length - 1)}
    colors[length - 1] = 2
    return Coloring(colors=colors, t=3)


@pytest.fixture(scope="module")
def chromatic_runs():
    runs = []
    start = time.monotonic()
    for seed in range(100):
        inst, _ = gen_petersen(seed=seed, parallel_copies=2, value_max=100)
        col = inst.graph.find_coloring(3)
        alloc, trace = chromatic_efx(inst, col)
        runs.append((inst, alloc, trace))
    for seed in range(100):
        length = 5 + seed % 5
        inst, _ = gen_multicycle(seed=seed, length=length, max_parallel=1, value_max=100)
        alloc, trace = chromatic_efx(inst, _cycle_three_coloring(length))
        runs.append((inst, alloc, trace))
    return runs, time.monotonic() - start


def test_criterion_1_bipartite_correctness(bipartite_runs):
    runs, elapsed = bipartite_runs
    failures = [
        i for i, (inst, alloc, _) in enumerate(runs)
        if not (alloc.is_complete(inst) and is_efx(inst, alloc).ok)
    ]
    ok = not failures and len(runs) == 200 and elapsed < 5.0
    _report("criterion 1: bipartite correctness, 200 instances",
            ok, f"{len(runs) - len(failures)}/200 EFX, {elapsed:.2f}s < 5s")
    assert not failures
    assert elapsed < 5.0


def test_criterion_2_tree_correctness(tree_runs):
    runs, elapsed = tree_runs
    failures = [
        i for i, (inst, alloc, _) in enumerate(runs)
        if not (alloc.is_complete(inst) and is_efx(inst, alloc).ok)
    ]
    ok = not failures and len(runs) == 200 and elapsed < 10.0
    _report("criterion 2: tree correctness, 200 instances",
            ok, f"{len(runs) - len(failures)}/200 EFX, {elapsed:.2f}s < 10s")
    assert not failures
    assert elapsed < 10.0


def test_criterion_3_chromatic_correctness(chromatic_runs):
    runs, elapsed = chromatic_runs
    failures = []
    for i, (inst, alloc, _) in enumerate(runs):
        girth_ok = 2 * 3 - 1 <= inst.graph.girth() < float("inf")
        if not (girth_ok and alloc.is_complete(inst) and is_efx(inst, alloc).ok):
            failures.append(i)
    ok = not failures and len(runs) == 200 and elapsed < 10.0
    _report("criterion 3: chromatic correctness, 100 Petersen + 100 multi-cycles",
            ok, f"{len(runs) - len(failures)}/200 EFX with girth >= 5, {elapsed:.2f}s < 10s")
    assert not failures
    assert elapsed < 10.0


def test_criterion_4_oracle_agreement(bipartite_runs, tree_runs, chromatic_runs):
    all_runs = bipartite_runs[0] + tree_runs[0] + chromatic_runs[0]
    checked = 0
    mismatches = []
    for i, (inst, alloc, _) in enumerate(all_runs):
        n, m = inst.graph.vertex_count, inst.graph.edge_count
        if n ** m > 10 ** 5:
            continue
        checked += 1
        report = brute_force_efx(inst)
        if report.efx_count < 1 or not is_efx(inst, alloc).ok:
            mismatches.append(i)
    ok = checked >= 50 and not mismatches
    _report("criterion 4: oracle agreement on small instances",
            ok, f"{checked} instances within n^m <= 1e5, {len(mismatches)} mismatches")
    assert checked >= 50
    assert not mismatches


def test_criterion_5_cac_validity():
    rng = random.Random(2024)
    families = ("additive", "unit_demand", "budget_additive")
    failures = 0
    trials = 0
    for kind in families:
        for _ in range(500):
            goods = rng.sample(range(24), rng.randint(0, 8))
            val = random_family_valuation(rng, kind, goods, value_max=50)
            piece1, piece2, _, _ = cut_and_choose(val, val, goods)
            trials += 1
            if piece1 | piece2 != frozenset(goods) or piece1 & piece2:
                failures += 1
                continue
            if not _is_efx_pair(val, piece1, piece2):
                failures += 1
                continue
            # exhaustive cross-check: the EFX bipartition set is nonempty and
            # contains the greedy output
            efx_set = set()
            for mask in range(1 << len(goods)):
                p1 = frozenset(g for i, g in enumerate(goods) if mask >> i & 1)
                p2 = frozenset(goods) - p1
                if _is_efx_pair(val, p1, p2):
                    efx_set.add(frozenset((p1, p2)))
            if not efx_set or frozenset((piece1, piece2)) not in efx_set:
                failures += 1
    ok = failures == 0 and trials == 1500
    _report("criterion 5: cut-and-choose validity, 500 bundles per family",
            ok, f"{trials - failures}/{trials} EFX-feasible")
    assert failures == 0


def test_criterion_6_trace_invariants(bipartite_runs, chromatic_runs):
    violations = 0
    for inst, _, trace in bipartite_runs[0] + chromatic_runs[0]:
        if not audit_trace(inst, trace).ok:
            violations += 1

    tampered_ok = {}
    for seed in range(40):
        inst, _ = gen_petersen(seed=seed, parallel_copies=2, value_max=60)
        col = inst.graph.find_coloring(3)
        _, trace = chromatic_efx(inst, col)
        for family in FAMILIES:
            if tampered_ok.get(family):
                continue
            bad = tamper_trace(inst, trace, family)
            if bad is not None:
                applicable, msgs = audit_trace(inst, bad).results[family]
                tampered_ok[family] = bool(applicable and msgs)
        if all(tampered_ok.get(f) for f in FAMILIES):
            break

    ok = violations == 0 and all(tampered_ok.get(f) for f in FAMILIES)
    _report("criterion 6: trace invariant suite",
            ok, f"{violations} audit violations on 400 runs; tampered traces fail: "
                + ",".join(f for f in FAMILIES if tampered_ok.get(f)))
    assert violations == 0
    assert all(tampered_ok.get(f) for f in FAMILIES)


def test_criterion_7_cancellable_checks(noncancellable_table):
    rng = random.Random(777)
    failures = 0
    for kind in ("additive", "unit_demand", "budget_additive"):
        for _ in range(100):
            goods = rng.sample(range(20), rng.randint(0, 8))
            val = random_family_valuation(rng, kind, goods, value_max=40)
            ok, _ = is_cancellable_bruteforce(val, goods)
            if not ok:
                failures += 1
    neg_ok, witness = is_cancellable_bruteforce(noncancellable_table, {0, 1, 2})
    witness_correct = (not neg_ok) and witness == (frozenset({0}), frozenset({1}), 2)
    ok = failures == 0 and witness_correct
    _report("criterion 7: cancellable-family checks",
            ok, f"{300 - failures}/300 cancellable; table witness {witness}")
    assert failures == 0
    assert witness_correct


def test_criterion_8_dispatcher_corollary():
    # even cycles are bipartite, so the dispatcher handles them one rule earlier
    expected = {3: "brute_force", 4: "bipartite", 5: "chromatic", 6: "bipartite",
                7: "chromatic", 8: "bipartite", 9: "chromatic"}
    failures = []
    for length, want in expected.items():
        inst, _ = gen_multicycle(seed=length * 11, length=length, max_parallel=2, value_max=50)
        alloc, method, _ = solve(inst)
        if method != want or not (alloc.is_complete(inst) and is_efx(inst, alloc).ok):
            failures.append((length, method))
    ok = not failures
    _report("criterion 8: dispatcher corollary on multi-cycles",
            ok, "lengths 3-9 routed and EFX" if ok else str(failures))
    assert not failures
