import random

import pytest

from graphefx import (
    Additive,
    Allocation,
    BudgetAdditive,
    Coloring,
    Instance,
    MultiGraph,
    PreconditionError,
    Table,
    UnitDemand,
    UnsupportedValuationError,
    Valuation,
)
from graphefx.generators import PETERSEN_EDGES, VALUATION_KINDS, _make_valuation


@pytest.fixture
def b1_instance():
    """Bipartite fixture B1: root a with two right neighbours b, c."""
    g = MultiGraph(3, [(0, 1), (0, 1), (0, 2), (0, 2)])
    return Instance(
        graph=g,
        valuations={
            0: Additive(values={0: 8, 1: 1, 2: 5, 3: 4}),
            1: Additive(values={0: 3, 1: 3}),
            2: Additive(values={2: 6, 3: 1}),
        },
    )


@pytest.fixture
def noncancellable_table():
    return Table(
        entries={
            frozenset(): 0,
            frozenset({0}): 3,
            frozenset({1}): 2,
            frozenset({0, 1}): 3,
            frozenset({2}): 1,
            frozenset({0, 2}): 3,
            frozenset({1, 2}): 5,
            frozenset({0, 1, 2}): 5,
        }
    )


def random_family_valuation(rng: random.Random, kind: str, goods, value_max=20):
    values = {g: rng.randint(0, value_max) for g in goods}
    if kind == "additive":
        return Additive(values=values)
    if kind == "unit_demand":
        return UnitDemand(values=values)
    if kind == "budget_additive":
        return BudgetAdditive(values=values, cap=rng.randint(1, max(1, sum(values.values()))))
    raise ValueError(kind)


def random_instance(rng: random.Random, n_max=4, m_max=6, value_max=10):
    """Small random instance with additive valuations, for oracle-style tests."""
    n = rng.randint(2, n_max)
    m = rng.randint(0, m_max)
    pairs = []
    for _ in range(m):
        u = rng.randrange(n)
        w = rng.randrange(n)
        while w == u:
            w = rng.randrange(n)
        pairs.append((u, w))
    g = MultiGraph(n, pairs)
    vals = {
        u: Additive(
            values={e: rng.randint(0, value_max) for e in g.incident_edges(u)}
        )
        for u in range(n)
    }
    return Instance(graph=g, valuations=vals)


def tamper_trace(inst, trace, family):
    """A copy of ``trace`` with one event edited so ``family`` must fail.

    Returns None when no edit of this trace can demonstrably break the family
    (callers then try another instance).
    """
    import dataclasses

    from graphefx.audit import audit_trace
    from graphefx.trace import StructureResolved

    def fails(candidate):
        applicable, msgs = audit_trace(inst, candidate).results[family]
        return applicable and msgs

    indices = [i for i, ev in enumerate(trace) if isinstance(ev, StructureResolved)]
    for i in indices:
        ev = trace[i]
        if family == "good_movement":
            bad = dataclasses.replace(ev, transfers=((0, ev.root, ev.root),))
            candidate = trace[:i] + [bad] + trace[i + 1:]
            if fails(candidate):
                return candidate
            continue
        holders = sorted(ev.snapshot)
        for holder in holders:
            for g in sorted(ev.snapshot[holder]):
                for target in range(inst.graph.vertex_count):
                    if target == holder:
                        continue
                    snap = {u: set(b) for u, b in ev.snapshot.items()}
                    snap[holder].discard(g)
                    snap.setdefault(target, set()).add(g)
                    bad = dataclasses.replace(
                        ev, snapshot={u: frozenset(b) for u, b in snap.items() if b}
                    )
                    candidate = trace[:i] + [bad] + trace[i + 1:]
                    if fails(candidate):
                        return candidate
    return None


def naive_is_efx(inst, alloc):
    """Independent EFX predicate: plain double loop, no early exits, no sharing."""
    n = inst.graph.vertex_count
    violations = []
    for u in range(n):
        for w in range(n):
            if u == w:
                continue
            own = inst.valuations[u].value(alloc.bundle(u))
            other = alloc.bundle(w)
            if not other:
                continue
            for x in other:
                if own < inst.valuations[u].value(other - {x}):
                    violations.append((u, w, x))
    return len(violations) == 0


def reference_envy_edges(inst, alloc):
    """All-pairs envy relation: every (u, w) with u != w, in lexicographic order."""
    n = inst.graph.vertex_count
    edges = []
    for u in range(n):
        own = inst.valuations[u].value(alloc.bundle(u))
        for w in range(n):
            if w != u and own < inst.valuations[u].value(alloc.bundle(w)):
                edges.append((u, w))
    return tuple(edges)


def reference_efx_witness(inst, alloc):
    """All-pairs EFX check: the first (envier, envied, good) violation, or None."""
    n = inst.graph.vertex_count
    for u in range(n):
        val = inst.valuations[u]
        own = val.value(alloc.bundle(u))
        for w in range(n):
            if w == u:
                continue
            other = alloc.bundle(w)
            if own >= val.value(other):
                continue
            for x in sorted(other):
                if own < val.value(other - {x}):
                    return (u, w, x)
    return None


class CountingValuation(Valuation):
    """Delegates to ``inner`` and counts every value query in ``counter[0]``."""

    def __init__(self, inner: Valuation, counter: list[int]):
        self.inner = inner
        self.counter = counter

    def value(self, bundle):
        self.counter[0] += 1
        return self.inner.value(bundle)

    @property
    def support(self):
        return self.inner.support


class Digraph:
    """A fixed digraph on agents 0..n-1 that answers the reads the envy-graph
    searches make of ``EnvyGraph``, each list ascending."""

    def __init__(self, n, edges):
        self._out = {}
        self._in = {}
        for u, w in edges:
            assert 0 <= u < n and 0 <= w < n and u != w, (u, w)
            self._out.setdefault(u, []).append(w)
            self._in.setdefault(w, []).append(u)
        for adj in (self._out, self._in):
            for v in adj:
                adj[v].sort()

    def envious(self):
        return sorted(self._out)

    def out_neighbours(self, u):
        return list(self._out.get(u, ()))

    def in_neighbours(self, w):
        return list(self._in.get(w, ()))


def reference_find_envy_cycle(eg, n):
    """The recursive DFS for an envy cycle in ``eg`` on agents 0..n-1: roots
    0..n-1, successors ascending."""
    color = {}  # 0 visiting, 1 done
    stack_path = []

    def dfs(v):
        color[v] = 0
        stack_path.append(v)
        for w in sorted(eg.out_neighbours(v)):
            if w not in color:
                found = dfs(w)
                if found is not None:
                    return found
            elif color[w] == 0:
                return stack_path[stack_path.index(w):]
        stack_path.pop()
        color[v] = 1
        return None

    for v in range(n):
        if v not in color:
            found = dfs(v)
            if found is not None:
                return list(found)
    return None


def random_mixed_instance(rng: random.Random, n_max=5, m_max=7, value_max=10):
    """Small random instance mixing all four valuation families.

    Each agent values a random subset of its incident goods, so some incident
    goods are worth nothing to it; tables fall back to additive above four goods.
    """
    n = rng.randint(2, n_max)
    pairs = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, m_max))]
    g = MultiGraph(n, pairs)
    vals = {}
    for u in range(n):
        goods = [e for e in sorted(g.incident_edges(u)) if rng.random() < 0.8]
        vals[u] = _make_valuation(rng, rng.choice(VALUATION_KINDS), goods, value_max)
    return Instance(graph=g, valuations=vals)


def random_allocation(rng: random.Random, inst):
    """Random partial allocation: any agent may hold any good, some stay unassigned."""
    n = inst.graph.vertex_count
    bundles = {}
    for g in range(inst.graph.edge_count):
        holder = rng.randrange(n + 1)  # n leaves the good unassigned
        if holder < n:
            bundles.setdefault(holder, set()).add(g)
    return Allocation(bundles={u: frozenset(b) for u, b in bundles.items()})


def reference_find_coloring(graph, t_max):
    """Smallest proper coloring with at most t_max colors, by exact search for every t.

    Vertices in index order, colors ascending, a new color only one above the
    largest used: the backtracking that ``MultiGraph.find_coloring`` runs for
    t >= 3, here run for t = 1 and t = 2 as well.  Exponential; for small
    graphs only.
    """
    for t in range(1, t_max + 1):
        colors = {}

        def backtrack(v):
            if v == graph.vertex_count:
                return True
            used = max(colors.values(), default=-1)
            for c in range(min(t, used + 2)):
                if all(colors.get(w) != c for w in graph.neighbours(v)):
                    colors[v] = c
                    if backtrack(v + 1):
                        return True
                    del colors[v]
            return False

        if backtrack(0):
            return Coloring(colors=dict(colors), t=t)
    return None


def reference_cut_preferences(cutter_val, chooser_val, bundle):
    """Cut ``bundle`` with ``cac``; (cut, s, t) with s the chooser's and t the cutter's piece index.

    Ties: an indifferent chooser takes the piece the cutter does not prefer,
    an indifferent cutter is given the complement of the chooser's pick, and
    under double indifference the chooser takes piece2.
    """
    from graphefx import cac

    cut = cac(cutter_val, frozenset(bundle))
    vc1, vc2 = chooser_val.value(cut.piece1), chooser_val.value(cut.piece2)
    if vc1 > vc2:
        s = 1
    elif vc2 > vc1:
        s = 2
    elif not cut.cutter_indifferent:
        s = 3 - cut.cutter_pref
    else:
        s = 2
    t = cut.cutter_pref if not cut.cutter_indifferent else 3 - s
    return cut, s, t


def _reference_snapshot(bundles):
    return {u: frozenset(b) for u, b in bundles.items() if b}


def _reference_resolve_structure(inst, bundles, u, right, phase, trace):
    """Resolve the structure rooted at ``u``: mutates the set dict ``bundles``
    and appends one StructureResolved event to ``trace``."""
    from graphefx.trace import (
        BRANCH_DIFFERENT,
        BRANCH_SAME_KEEP,
        BRANCH_SAME_LEFTOVERS,
        StructureResolved,
    )

    v_u = inst.valuations[u]
    right = [w for w in right if inst.graph.parallel_edges(u, w)]
    if not right:
        trace.append(StructureResolved(phase=phase, root=u, favourite=None, branch=None,
                                       snapshot=_reference_snapshot(bundles), transfers=()))
        return
    pieces = {}  # w -> (loop, S piece, T piece, same_pref)
    for w in sorted(right):
        loop = inst.graph.parallel_edges(u, w)
        cut, s, t = reference_cut_preferences(inst.valuations[w], v_u, loop)
        pieces[w] = (loop, cut.piece(s), cut.piece(t), s == t)
    fav = max(sorted(pieces), key=lambda w: (v_u.value(pieces[w][1]), -w))
    leftover = set()
    for w in sorted(pieces):
        if w == fav:
            continue
        loop, _, t_piece, _ = pieces[w]
        bundles.setdefault(w, set()).update(t_piece)
        leftover |= loop - t_piece
    loop, s_piece, t_piece, same_pref = pieces[fav]
    prior = set(bundles.get(u, set()))
    transfers = ()
    if same_pref:
        rest = prior | (loop - s_piece) | leftover
        if v_u.value(s_piece) > v_u.value(rest):
            branch = BRANCH_SAME_KEEP
            bundles.setdefault(fav, set()).update(rest)
            bundles[u] = set(s_piece)
            transfers = tuple((g, u, fav) for g in sorted(prior))
        else:
            branch = BRANCH_SAME_LEFTOVERS
            bundles.setdefault(u, set()).update((loop - s_piece) | leftover)
            bundles.setdefault(fav, set()).update(s_piece)
    else:
        branch = BRANCH_DIFFERENT
        bundles.setdefault(u, set()).update(s_piece | leftover)
        bundles.setdefault(fav, set()).update(t_piece)
    trace.append(StructureResolved(phase=phase, root=u, favourite=fav, branch=branch,
                                   snapshot=_reference_snapshot(bundles), transfers=transfers))


def reference_chromatic_efx(inst, col):
    """The chromatic solver's phase loop over a mutable set dict, without precondition checks."""
    from graphefx.trace import ColoringUsed

    trace = [ColoringUsed(colors=dict(col.colors), t=col.t)]
    bundles = {}
    for phase in range(1, col.t):
        for u in sorted(v for v in range(inst.graph.vertex_count) if col.colors[v] == phase - 1):
            right = [w for w in inst.graph.neighbours(u) if col.colors[w] > col.colors[u]]
            _reference_resolve_structure(inst, bundles, u, sorted(right), phase, trace)
    return Allocation(bundles=_reference_snapshot(bundles)), trace


def reference_bipartite_efx(inst, bipart):
    """The bipartite solver with its own root loop: roots in L in ascending order, one phase.

    It runs the reference structure resolution above, with its own
    precondition checks and no coloring.
    """
    from graphefx.trace import ColoringUsed

    left, right = frozenset(bipart[0]), frozenset(bipart[1])
    n = inst.graph.vertex_count
    if left | right != frozenset(range(n)) or left & right:
        raise PreconditionError("bipartition must partition the vertex set")
    for eid, (a, b) in enumerate(inst.graph.edges):
        if (a in left) == (b in left):
            raise PreconditionError(f"edge {eid} does not cross the bipartition")
    table = next((u for u in sorted(inst.valuations) if isinstance(inst.valuations[u], Table)), None)
    if table is not None:
        raise UnsupportedValuationError("bipartite_efx requires cancellable-family valuations;"
                                        f" agent {table} has a table valuation")
    trace = [ColoringUsed(colors={v: (0 if v in left else 1) for v in range(n)}, t=2)]
    bundles = {}
    for u in sorted(left):
        _reference_resolve_structure(inst, bundles, u, sorted(inst.graph.neighbours(u)), 1, trace)
    return Allocation(bundles=_reference_snapshot(bundles)), trace


def reference_tree_efx(inst):
    """The tree solver over a mutable set dict, converted to an ``Allocation``
    around every envy-graph build and cycle shift.  The envy graph is built
    from scratch for every leaf and searched with the recursive DFS."""
    import heapq

    from graphefx.allocation import envy_graph, find_source_with_path, resolve_cycle
    from graphefx.trace import CycleResolved, LeafAttached

    degree = {v: set(inst.graph.neighbours(v)) for v in range(inst.graph.vertex_count)}
    order = []  # (leaf, parent), always the highest-index current leaf
    leaves = [-v for v in degree if len(degree[v]) == 1]
    heapq.heapify(leaves)
    while leaves:
        leaf = -heapq.heappop(leaves)
        if not degree[leaf]:
            continue
        (parent,) = degree[leaf]
        order.append((leaf, parent))
        degree[parent].discard(leaf)
        degree[leaf] = set()
        if len(degree[parent]) == 1:
            heapq.heappush(leaves, -parent)

    trace = []
    bundles = {}

    def current():
        return Allocation(bundles=_reference_snapshot(bundles))

    def apply(alloc):
        bundles.clear()
        for v, b in alloc.bundles.items():
            bundles[v] = set(b)

    for leaf, parent in reversed(order):
        eg = envy_graph(inst, current())
        cycle = reference_find_envy_cycle(eg, inst.graph.vertex_count)
        while cycle is not None:
            apply(resolve_cycle(current(), cycle))
            trace.append(CycleResolved(cycle=tuple(cycle), snapshot=_reference_snapshot(bundles)))
            eg = envy_graph(inst, current())
            cycle = reference_find_envy_cycle(eg, inst.graph.vertex_count)
        loop = inst.graph.parallel_edges(leaf, parent)
        cut, s, _ = reference_cut_preferences(inst.valuations[parent], inst.valuations[leaf], loop)
        leaf_piece, rest = cut.piece(s), cut.piece(3 - s)
        bundles.setdefault(leaf, set()).update(leaf_piece)
        source = find_source_with_path(eg, parent)
        recipient = parent if source is None else source[0]
        bundles.setdefault(recipient, set()).update(rest)
        trace.append(LeafAttached(leaf=leaf, parent=parent, pieces=(leaf_piece, rest),
                                  leftover_to=recipient, snapshot=_reference_snapshot(bundles)))
        if source is not None:
            s_vertex, path = source
            v_p = inst.valuations[parent]
            if v_p.value(bundles.get(parent, set())) < v_p.value(bundles.get(s_vertex, set())):
                cyc = [parent] + path[:-1]
                apply(resolve_cycle(current(), cyc))
                trace.append(CycleResolved(cycle=tuple(cyc), snapshot=_reference_snapshot(bundles)))
    return current(), trace


def reference_chromatic(graph):
    """The dispatcher's chromatic rule before girth-first classification.

    The smallest coloring with t <= 4 by exact search, accepted only when the
    girth is at least 2t-1.  Returns that coloring, or None.
    """
    col = reference_find_coloring(graph, 4)
    if col is not None and graph.girth() >= 2 * col.t - 1:
        return col
    return None


def mycielski_graph(steps):
    """Mycielski's construction applied ``steps`` times to K2 (steps=3 gives M5)."""
    pairs, n = [(0, 1)], 2
    for _ in range(steps):
        step = list(pairs)
        for a, b in pairs:
            step += [(a, n + b), (b, n + a)]
        step += [(n + i, 2 * n) for i in range(n)]
        pairs, n = step, 2 * n + 1
    return MultiGraph(n, pairs)


def cycle_pairs(length, rng):
    """A cycle on 0..length-1 whose links carry one or two goods each."""
    return [(i, (i + 1) % length) for i in range(length) for _ in range(rng.randint(1, 2))]


def classifier_graphs(rng):
    """Small multigraphs across the chromatic rule's cases, several hundred in all."""
    graphs = [gnp_graph(rng, rng.randint(1, 8), rng.choice((0.2, 0.35, 0.5, 0.8)), 2)
              for _ in range(300)]
    for _ in range(3):
        for length in (3, 4, 5, 6, 7, 9, 11):
            graphs.append(MultiGraph(length, cycle_pairs(length, rng)))
    for copies in (1, 2, 3):
        graphs.append(MultiGraph(10, PETERSEN_EDGES * copies))
    graphs += [
        MultiGraph(10, PETERSEN_EDGES + [(0, 2)]),  # a chord: girth 3
        MultiGraph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)]),  # K4
        MultiGraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 1), (2, 3)]),
        MultiGraph(6, [(a, b) for a in range(3) for b in range(3, 6)]),  # K3,3: girth 4
        MultiGraph(7, [(i, (i + 1) % 7) for i in range(7)] + [(0, 3)]),  # girth 4, odd cycle
        mycielski_graph(2),  # Groetzsch: girth 4, chromatic number 4
        MultiGraph(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (5, 6), (6, 7), (7, 5)]),
    ]
    return graphs


def gnp_graph(rng: random.Random, n, p, max_parallel=1):
    """Erdos-Renyi G(n, p) on vertices 0..n-1; each chosen pair gets 1..max_parallel goods."""
    pairs = []
    for u in range(n):
        for w in range(u + 1, n):
            if rng.random() < p:
                pairs += [(u, w)] * rng.randint(1, max_parallel)
    return MultiGraph(n, pairs)


def zero_instance(graph):
    """The graph with additive valuations worth nothing: for structural tests."""
    return Instance(graph=graph, valuations={u: Additive(values={}) for u in range(graph.vertex_count)})


def star_graph(k, five_cycle=False):
    """The multi-tree S_k, optionally with a 5-cycle through its centre.

    S_k has agents 0..3k: legs b_i = i, d_i = k+i and a_i = 2k+i for i < k,
    centre c = 3k, and goods b_i-a_i, a_i-c and d_i-c.  No leg vertex has a
    lower-indexed neighbour, so an exact 2-coloring search in index order
    colors every leg 0 and meets the conflict only at c, after which it
    backtracks through all 2^k colorings of the legs.  The 5-cycle adds
    agents 3k+1..3k+4; the graph then has girth 5 and is 3-colorable.
    """
    c = 3 * k
    pairs = [(i, 2 * k + i) for i in range(k)]
    pairs += [(2 * k + i, c) for i in range(k)] + [(k + i, c) for i in range(k)]
    if not five_cycle:
        return MultiGraph(c + 1, pairs)
    cycle = [c, c + 1, c + 2, c + 3, c + 4]
    return MultiGraph(c + 5, pairs + list(zip(cycle, cycle[1:] + cycle[:1])))


def additive_instance(graph, seed=0, value_max=9):
    """The graph with seeded random additive valuations on each agent's incident goods."""
    rng = random.Random(seed)
    return Instance(graph=graph, valuations={
        u: Additive(values={e: rng.randint(0, value_max) for e in sorted(graph.incident_edges(u))})
        for u in range(graph.vertex_count)
    })
