import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphefx import Coloring, InputError, MultiGraph
from graphefx.generators import PETERSEN_EDGES

from .conftest import classifier_graphs, reference_find_coloring, reference_shortest_cycle


def test_parallel_edges_doubled_triangle():
    g = MultiGraph(3, [(0, 1), (0, 1), (0, 2), (1, 2)])
    assert g.parallel_edges(0, 1) == {0, 1}
    assert g.parallel_edges(1, 0) == {0, 1}
    assert g.parallel_edges(0, 2) == {2}
    assert g.parallel_edges(1, 2) == {3}


def test_parallel_edges_invalid_vertex():
    g = MultiGraph(2, [(0, 1)])
    with pytest.raises(InputError):
        g.parallel_edges(0, 5)


def test_self_loop_rejected():
    with pytest.raises(InputError):
        MultiGraph(2, [(1, 1)])


def test_neighbours():
    star = MultiGraph(4, [(0, 1), (0, 2), (0, 3)])
    assert star.neighbours(0) == {1, 2, 3}
    assert star.neighbours(1) == {0}
    lonely = MultiGraph(2, [])
    assert lonely.neighbours(0) == frozenset()
    multi = MultiGraph(2, [(0, 1), (0, 1), (0, 1)])
    assert multi.neighbours(0) == {1}


def test_bipartition_even_cycle():
    g = MultiGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert g.bipartition() == Coloring(colors={0: 0, 1: 1, 2: 0, 3: 1}, t=2)


def test_bipartition_odd_cycle_absent():
    g = MultiGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert g.bipartition() is None


def test_bipartition_ignores_parallel_edges():
    g = MultiGraph(3, [(0, 1), (0, 1), (1, 2), (1, 2)])
    assert g.bipartition() == Coloring(colors={0: 0, 1: 1, 2: 0}, t=2)


def test_is_multitree():
    assert MultiGraph(2, [(0, 1)] * 5).is_multitree()
    assert not MultiGraph(3, [(0, 1), (1, 2), (2, 0)]).is_multitree()
    star2 = MultiGraph(4, [(0, 1), (0, 1), (0, 2), (0, 2), (0, 3), (0, 3)])
    assert star2.is_multitree()


def test_girth_petersen_is_5():
    g = MultiGraph(10, PETERSEN_EDGES)
    assert g.girth() == 5


def test_girth_triangle_and_parallel():
    assert MultiGraph(3, [(0, 1), (1, 2), (2, 0)]).girth() == 3
    assert MultiGraph(2, [(0, 1)] * 3).girth() == math.inf


def test_shortest_cycle_witness_is_a_cycle():
    g = MultiGraph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4)])
    length, cycle = g.shortest_cycle()
    assert length == 4 and len(cycle) == 4
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        assert b in g.neighbours(a)


def _check_bounded_girth(g):
    """On ``g`` and on each of its components: the exact search equals the
    reference BFS, and at every limit 3..9 the bounded search gives the exact
    girth when it is at most the limit and inf otherwise, with a cycle of
    that length that is the same at every limit.  Each limit is asked of a
    fresh graph and of one graph that is asked every limit up, then down."""
    for comp in [None] + g.connected_components():
        exact = g.shortest_cycle(comp)
        assert exact == reference_shortest_cycle(g, comp)
        warm = MultiGraph(g.vertex_count, list(g.edges))
        cycles = set()
        for limit in [*range(3, 10), *range(9, 2, -1)]:
            fresh = MultiGraph(g.vertex_count, list(g.edges))
            length, cycle = fresh.shortest_cycle(comp, limit)
            assert warm.shortest_cycle(comp, limit) == (length, cycle)
            assert length == fresh.girth(comp, limit) == (
                exact[0] if exact[0] <= limit else math.inf)
            if cycle is not None:
                assert len(set(cycle)) == len(cycle) == length
                assert all(b in g.neighbours(a) for a, b in zip(cycle, cycle[1:] + cycle[:1]))
                cycles.add(tuple(cycle))
        assert len(cycles) <= 1


def test_bounded_girth_on_classifier_graphs():
    for g in classifier_graphs(random.Random(7)):
        _check_bounded_girth(g)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.integers(1, 16).flatmap(lambda n: st.lists(
    st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(1, 3)),
    max_size=22).map(lambda links: MultiGraph(n, [(u, w) for u, w, copies in links if u != w
                                                  for _ in range(copies)]))))
def test_bounded_girth_on_random_multigraphs(g):
    _check_bounded_girth(g)


def _union(pieces):
    """The disjoint union of (n, links) pieces, with each link's copies as
    parallel edges, and its vertices interleaved across the pieces."""
    order = [(i, v) for i, (n, _) in enumerate(pieces) for v in range(n)]
    random.Random(len(order)).shuffle(order)
    index = {key: k for k, key in enumerate(order)}
    edges = [(index[i, u], index[i, w]) for i, (_, links) in enumerate(pieces)
             for u, w, copies in links if u != w for _ in range(copies)]
    return MultiGraph(len(order), edges)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.lists(st.integers(1, 9).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(1, 3)),
    max_size=14))), min_size=2, max_size=4).map(_union))
def test_girth_equals_the_reference_on_random_multigraphs(g):
    assert len(g.connected_components()) >= 2
    for comp in [None] + g.connected_components():
        fresh = MultiGraph(g.vertex_count, list(g.edges))
        assert fresh.girth(comp) == reference_shortest_cycle(g, comp)[0]


def test_bounded_girth_below_three_searches_nothing(monkeypatch):
    g = MultiGraph(3, [(0, 1), (1, 2), (2, 0)])
    monkeypatch.setattr(MultiGraph, "_shortest_cycle", lambda *a: pytest.fail("searched"))
    assert [g.girth(None, limit) for limit in (0, 1, 2)] == [math.inf] * 3


def test_validate_coloring():
    c4 = MultiGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    ok, witness = c4.validate_coloring(Coloring(colors={0: 0, 1: 1, 2: 0, 3: 1}, t=2))
    assert ok and witness is None
    tri = MultiGraph(3, [(0, 1), (1, 2), (2, 0)])
    ok, witness = tri.validate_coloring(Coloring(colors={0: 0, 1: 1, 2: 0}, t=2))
    assert not ok and witness == 2  # lowest monochromatic edge
    empty = MultiGraph(3, [])
    ok, _ = empty.validate_coloring(Coloring(colors={0: 0, 1: 0, 2: 0}, t=1))
    assert ok


def test_validate_coloring_missing_vertex():
    g = MultiGraph(2, [(0, 1)])
    with pytest.raises(InputError):
        g.validate_coloring(Coloring(colors={0: 0}, t=2))


def test_find_coloring_cycles():
    c5 = MultiGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    col = c5.find_coloring(3)
    assert col.t == 3
    ok, _ = c5.validate_coloring(col)
    assert ok
    c4 = MultiGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert c4.find_coloring(3).t == 2
    tri = MultiGraph(3, [(0, 1), (1, 2), (2, 0)])
    assert tri.find_coloring(2) is None


def test_find_coloring_long_odd_cycle_without_recursion():
    # the search walks 1,001 vertices deep; a recursive one overflows the stack
    n = 1001
    g = MultiGraph(n, [(i, (i + 1) % n) for i in range(n)])
    col = g.find_coloring(3)
    assert col.t == 3
    assert col.colors == {**{i: i % 2 for i in range(n - 1)}, n - 1: 2}
    assert g.validate_coloring(col) == (True, None)


def test_find_coloring_petersen():
    g = MultiGraph(10, PETERSEN_EDGES)
    col = g.find_coloring(4)
    assert col.t == 3
    ok, _ = g.validate_coloring(col)
    assert ok


def _random_graph(rng, n, p_num, p_den, max_parallel=2):
    pairs = []
    for u, w in itertools.combinations(range(n), 2):
        if rng.randrange(p_den) < p_num:
            pairs.extend((u, w) for _ in range(rng.randint(1, max_parallel)))
    return MultiGraph(n, pairs)


def test_parallel_edge_groups_partition_edge_set():
    rng = random.Random(11)
    for _ in range(30):
        g = _random_graph(rng, rng.randint(1, 8), 1, 2)
        seen = set()
        for u in range(g.vertex_count):
            for w in range(u + 1, g.vertex_count):
                group = g.parallel_edges(u, w)
                assert group == g.parallel_edges(w, u)
                assert not (seen & group)
                seen |= group
        assert seen == set(range(g.edge_count))


def test_bipartition_agrees_with_exhaustive_two_coloring():
    # independent oracle: try all 2^n color assignments
    rng = random.Random(23)
    for _ in range(40):
        g = _random_graph(rng, rng.randint(1, 10), 1, 3)
        n = g.vertex_count
        exists = any(
            all(
                (assign >> a & 1) != (assign >> b & 1)
                for a, b in set(g.edges)
            )
            for assign in range(1 << n)
        )
        assert (g.bipartition() is not None) == exists


def test_multitree_iff_infinite_girth():
    rng = random.Random(5)
    for _ in range(40):
        g = _random_graph(rng, rng.randint(1, 9), 1, 3)
        assert g.is_multitree() == (g.girth() == math.inf)


def _random_forest_pairs(rng, vertices):
    # each vertex after the first joins an earlier one, or stays a new root
    pairs = []
    for i in range(1, len(vertices)):
        if rng.random() < 0.8:
            pairs.extend([(rng.choice(vertices[:i]), vertices[i])] * rng.randint(1, 3))
    return pairs


def test_forest_test_matches_shortest_cycle():
    # forests (with parallel edges and isolated vertices), unions of two, and
    # the same with a few extra links that may close a cycle
    rng = random.Random(41)
    verdicts = []
    for _ in range(400):
        n = rng.randint(0, 14)
        vertices = rng.sample(range(n), n)
        cut = rng.randint(0, n)
        pairs = _random_forest_pairs(rng, vertices[:cut])
        pairs += _random_forest_pairs(rng, vertices[cut:])
        if n >= 2:
            pairs += [tuple(rng.sample(range(n), 2)) for _ in range(rng.choice((0, 2, 3, 4)))]
        rng.shuffle(pairs)
        g = MultiGraph(n, pairs)
        verdicts.append(g.is_multitree())
        assert verdicts[-1] == (g.shortest_cycle()[0] == math.inf)
    assert 100 < sum(verdicts) < 300


def test_find_coloring_is_proper_when_present():
    rng = random.Random(17)
    for _ in range(30):
        g = _random_graph(rng, rng.randint(1, 9), 1, 2)
        col = g.find_coloring(4)
        if col is not None:
            ok, _ = g.validate_coloring(col)
            assert ok


def test_find_coloring_matches_exact_search_reference():
    # t = 1 and t = 2 no longer search, yet give the search's first coloring:
    # in index order it puts each component's lowest vertex at 0, as the
    # bipartition does.  Relabelling moves which vertex that is.
    rng = random.Random(2024)
    graphs = classifier_graphs(rng)
    for g in list(graphs):
        perm = rng.sample(range(g.vertex_count), g.vertex_count)
        graphs.append(MultiGraph(g.vertex_count, [(perm[a], perm[b]) for a, b in g.edges]))
    found = set()
    for g in graphs:
        for t in range(1, 5):
            col = g.find_coloring(t)
            assert col == reference_find_coloring(g, t), (g.vertex_count, g.edges, t)
            found.add(None if col is None else col.t)
    assert found == {None, 1, 2, 3, 4}


def _scan_try_color(g, t, vertices):
    """``MultiGraph._try_color`` as it was with a scan for the largest used
    color at every node."""
    colors = {}
    c = 0
    while len(colors) < len(vertices):
        v = vertices[len(colors)]
        limit = min(t, max(colors.values(), default=-1) + 2)
        while c < limit and any(colors.get(w) == c for w in g.neighbours(v)):
            c += 1
        if c < limit:
            colors[v] = c
            c = 0
        elif colors:
            c = colors.popitem()[1] + 1
        else:
            return None
    return colors


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 10), st.integers(1, 4), st.integers(1, 4))
def test_try_color_matches_scan_reference(seed, n, p_num, t):
    rng = random.Random(seed)
    g = _random_graph(rng, n, p_num, 5)
    vertices = rng.sample(range(n), rng.randint(1, n))  # any order, not always all
    assert g._try_color(t, vertices) == _scan_try_color(g, t, vertices)


def test_connected_components():
    g = MultiGraph(6, [(0, 1), (2, 3), (2, 3)])
    assert g.connected_components() == [[0, 1], [2, 3], [4], [5]]


def test_cached_structure_cannot_be_corrupted_by_callers():
    g = MultiGraph(6, [(0, 1), (1, 2), (2, 0), (3, 4)])
    girth, cycle = g.shortest_cycle()
    comps = g.connected_components()
    cycle.append(5)
    comps[0].append(5)
    comps.append([9])
    assert g.shortest_cycle() == (girth, cycle[:-1]) and len(cycle) == 4
    assert g.connected_components() == [[0, 1, 2], [3, 4], [5]]
    assert g.girth() == 3 and g.bipartition() is None and not g.is_multitree()

    forest = MultiGraph(5, [(3, 1), (1, 0), (4, 2)])
    col = forest.bipartition()
    col.colors[0] = 1
    col.colors[9] = 0
    want = Coloring(colors={0: 0, 1: 1, 2: 0, 3: 0, 4: 1}, t=2)
    for part in (forest.bipartition(), forest.find_coloring(2)):
        assert part == want and list(part.colors) == [0, 1, 2, 3, 4]
    assert forest.bipartition() is not forest.bipartition()
