import itertools
import random

import pytest

from graphefx import (
    Additive,
    Allocation,
    CapacityError,
    Instance,
    MultiGraph,
    brute_force_efx,
    first_efx_allocation,
    is_efx,
    solve,
)

from .conftest import (
    K4_PLUS_TWO,
    additive_instance,
    naive_is_efx,
    random_instance,
    random_mixed_instance,
    reference_brute_force_efx,
)

DOUBLED_TRIANGLE = MultiGraph(3, [(0, 1), (1, 2), (0, 2)] * 2)


def test_shared_good_both_holders_efx():
    inst = Instance(
        graph=MultiGraph(2, [(0, 1)]),
        valuations={0: Additive(values={0: 1}), 1: Additive(values={0: 1})},
    )
    report = brute_force_efx(inst)
    assert report.searched == 2
    assert report.efx_count == 2


def test_no_goods():
    inst = Instance(graph=MultiGraph(2, []), valuations={0: Additive(values={}), 1: Additive(values={})})
    report = brute_force_efx(inst)
    assert report.efx_count == 1
    assert report.sample == Allocation.empty()


def test_b1_census_contains_solver_output(b1_instance):
    report = brute_force_efx(b1_instance)
    assert report.searched == 81
    assert report.efx_count >= 1
    alloc, _, _ = solve(b1_instance)
    assert alloc.is_complete(b1_instance) and is_efx(b1_instance, alloc).ok


def test_capacity_guard():
    g = MultiGraph(10, [(0, 1)] * 8)
    vals = {u: Additive(values={e: 1 for e in g.incident_edges(u)}) for u in range(10)}
    with pytest.raises(CapacityError):
        brute_force_efx(Instance(graph=g, valuations=vals))
    with pytest.raises(CapacityError):
        first_efx_allocation(Instance(graph=g, valuations=vals))


def test_sample_is_lexicographically_first():
    # recompute the first EFX assignment with an independent product loop
    rng = random.Random(19)
    for _ in range(30):
        inst = random_instance(rng, n_max=3, m_max=4)
        n, m = inst.graph.vertex_count, inst.graph.edge_count
        report = brute_force_efx(inst)
        expected = None
        for assign in itertools.product(range(n), repeat=m):
            bundles: dict[int, set[int]] = {}
            for g, holder in enumerate(assign):
                bundles.setdefault(holder, set()).add(g)
            alloc = Allocation(bundles={u: frozenset(b) for u, b in bundles.items()})
            if naive_is_efx(inst, alloc):
                expected = alloc
                break
        assert report.sample == expected


def test_count_agrees_with_naive_predicate():
    rng = random.Random(37)
    for _ in range(20):
        inst = random_instance(rng, n_max=3, m_max=4)
        n, m = inst.graph.vertex_count, inst.graph.edge_count
        report = brute_force_efx(inst)
        count = 0
        for assign in itertools.product(range(n), repeat=m):
            bundles: dict[int, set[int]] = {}
            for g, holder in enumerate(assign):
                bundles.setdefault(holder, set()).add(g)
            alloc = Allocation(bundles={u: frozenset(b) for u, b in bundles.items()})
            if naive_is_efx(inst, alloc):
                count += 1
        assert report.efx_count == count


def test_count_invariant_under_agent_relabeling(b1_instance):
    base = brute_force_efx(b1_instance).efx_count
    # relabel agents (0,1,2) -> (2,0,1)
    perm = {0: 2, 1: 0, 2: 1}
    g = b1_instance.graph
    graph = MultiGraph(3, [(perm[a], perm[b]) for a, b in g.edges])
    vals = {perm[u]: b1_instance.valuations[u] for u in range(3)}
    permuted = Instance(graph=graph, valuations=vals)
    assert brute_force_efx(permuted).efx_count == base


def test_existence_on_seeded_families():
    from graphefx.generators import gen_bipartite, gen_multicycle, gen_multitree

    for seed in range(20):
        for inst, _ in (
            gen_bipartite(seed=seed, n_left=2, n_right=2, max_parallel=2, value_max=9),
            gen_multitree(seed=seed, n=3, max_parallel=2, value_max=9),
            gen_multicycle(seed=seed, length=5, max_parallel=1, value_max=9),
        ):
            if inst.graph.vertex_count ** inst.graph.edge_count > 10 ** 5:
                continue
            assert brute_force_efx(inst).efx_count >= 1


def _product_index(inst, alloc):
    """Position of a complete allocation in ``product(range(n), repeat=m)``."""
    holder = {g: u for u, b in alloc.bundles.items() for g in b}
    index = 0
    for g in range(inst.graph.edge_count):
        index = index * inst.graph.vertex_count + holder[g]
    return index


def _seeded(make, seed, count):
    rng = random.Random(seed)
    return [make(rng) for _ in range(count)]


def _isolated_agents(rng):
    # agents 2 and 3 (of 5) have no incident goods, but may still hold goods
    pairs = [rng.choice([(0, 1), (1, 4), (0, 4)]) for _ in range(rng.randint(1, 5))]
    g = MultiGraph(5, pairs)
    return additive_instance(g, seed=rng.randrange(10 ** 6))


PARITY_CASES = {
    "additive": lambda: _seeded(lambda r: random_instance(r, n_max=4, m_max=6), 101, 150),
    "mixed_families": lambda: _seeded(
        lambda r: random_mixed_instance(r, n_max=4, m_max=6), 103, 150),
    "k4plus2": lambda: [additive_instance(K4_PLUS_TWO, seed=s) for s in (0, 1)],
    "doubled_triangle": lambda: [additive_instance(DOUBLED_TRIANGLE, seed=s) for s in range(8)],
    "isolated_agents": lambda: _seeded(_isolated_agents, 107, 20),
    "no_goods": lambda: [Instance(graph=MultiGraph(n, []), valuations={
        u: Additive(values={}) for u in range(n)}) for n in (0, 1, 3)],
}


@pytest.mark.parametrize("family", sorted(PARITY_CASES))
def test_census_and_first_allocation_match_full_enumeration(family):
    for inst in PARITY_CASES[family]():
        expected = reference_brute_force_efx(inst)
        assert brute_force_efx(inst) == expected
        assert first_efx_allocation(inst) == expected.sample


def test_first_allocation_found_late_in_product_order():
    # seed 46 puts the first EFX allocation of K4+2 at index 24,768 of 65,536
    inst = additive_instance(K4_PLUS_TWO, seed=46)
    expected = reference_brute_force_efx(inst)
    assert _product_index(inst, expected.sample) > 10 ** 4
    assert brute_force_efx(inst) == expected
    assert first_efx_allocation(inst) == expected.sample


@pytest.mark.parametrize("graph, seed", [(K4_PLUS_TWO, 0), (K4_PLUS_TWO, 46), (DOUBLED_TRIANGLE, 3)])
def test_solve_falls_back_to_first_allocation_in_product_order(graph, seed):
    inst = additive_instance(graph, seed=seed)
    alloc, method, trace = solve(inst)
    assert (method, trace) == ("brute_force", [])
    assert alloc == reference_brute_force_efx(inst).sample
