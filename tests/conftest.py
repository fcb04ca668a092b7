import random
from collections import deque
from itertools import product

import pytest

from graphefx import (
    Additive,
    Allocation,
    BudgetAdditive,
    CapacityError,
    Coloring,
    Instance,
    MultiGraph,
    PreconditionError,
    Table,
    UnitDemand,
    UnsupportedValuationError,
    Valuation,
)
from graphefx.frozen import replace
from graphefx.generators import PETERSEN_EDGES, VALUATION_KINDS, _make_valuation
from graphefx.oracle import BRUTE_FORCE_MAX, OracleReport


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


def reference_per_good_value(val, bundle):
    """``val.value(bundle)`` for the per-good families, by the generator
    formulas of their first ``value`` methods."""
    if isinstance(val, Additive):
        return sum(val.values.get(g, 0) for g in bundle)
    if isinstance(val, UnitDemand):
        return max((val.values.get(g, 0) for g in bundle), default=0)
    assert isinstance(val, BudgetAdditive)
    return min(val.cap, sum(val.values.get(g, 0) for g in bundle))


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
    from graphefx.audit import audit_trace
    from graphefx.trace import StructureResolved

    def fails(candidate):
        applicable, msgs = audit_trace(inst, candidate).results[family]
        return applicable and msgs

    events = folded(trace)
    indices = [i for i, ev in enumerate(trace) if isinstance(ev, StructureResolved)]
    for i in indices:
        snapshot = events[i]["snapshot"]
        holders = sorted(snapshot)
        for holder in holders:
            for g in sorted(snapshot[holder]):
                for target in range(inst.graph.vertex_count):
                    if target == holder:
                        continue
                    snap = {u: set(b) for u, b in snapshot.items()}
                    snap[holder].discard(g)
                    snap.setdefault(target, set()).add(g)
                    bad = {**events[i], "snapshot": {u: frozenset(b) for u, b in snap.items() if b}}
                    candidate = unfolded(events[:i] + [bad] + events[i + 1:])
                    if fails(candidate):
                        return candidate
    return None


def folded(trace):
    """Each event of ``trace`` as a dict of its ``type`` and its fields, in the
    file's form: a step event's ``moves`` are folded into its ``snapshot``,
    the non-empty bundles held after it, from the start of the trace.  A
    structure event also gets its ``transfers``, (good, from, to) for each
    good held before it that it gives to another agent, by good."""
    from graphefx.trace import StructureResolved

    holder, events = {}, []
    for ev in trace:
        fields = {"type": ev.kind, **vars(ev)}
        moves = fields.pop("moves", None)
        if moves is not None:
            before, holder = holder, {**holder, **moves}
            holder = {g: u for g, u in holder.items() if u is not None}
            snapshot = {}
            for g, u in holder.items():
                snapshot.setdefault(u, set()).add(g)
            fields["snapshot"] = {u: frozenset(b) for u, b in snapshot.items()}
            if isinstance(ev, StructureResolved):
                fields["transfers"] = tuple(sorted((g, before[g], u) for g, u in holder.items()
                                                   if before.get(g, u) != u))
        events.append(fields)
    return events


def unfolded(events):
    """The trace whose ``folded`` form is ``events``, less the ``transfers`` they
    list: each step event moves exactly the goods whose holder differs from
    the snapshot before it, a good the snapshot leaves out to None."""
    from graphefx.trace import EVENT_KINDS

    held, trace = {}, []
    for fields in events:
        fields = dict(fields)
        cls = EVENT_KINDS[fields.pop("type")]
        fields.pop("transfers", None)
        snapshot = fields.pop("snapshot", None)
        if snapshot is not None:
            holder = {g: u for u, b in snapshot.items() for g in b}
            moves = {g: u for g, u in holder.items() if held.get(g) != u}
            moves.update((g, None) for g in held if g not in holder)
            fields["moves"] = moves
            held = holder
        trace.append(cls(**fields))
    return trace


def _reference_allocated_adjacency(inst, holder_of):
    """Skeleton adjacency restricted to the edges assigned in a snapshot."""
    adj: dict[int, set[int]] = {}
    for g in holder_of:
        a, b = inst.graph.endpoints(g)
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    return adj


def reference_distances_within(adj, src, depth):
    """BFS hop distances from ``src``, for the vertices at most ``depth`` hops away."""
    dist = {src: 0}
    queue = deque([src])
    while queue:
        x = queue.popleft()
        if dist[x] >= depth:
            continue
        for y in adj.get(x, ()):
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


def reference_colors(trace):
    """Every agent's color, merged over the trace's coloring events one by one;
    an agent no event colors is left out."""
    from graphefx.trace import ColoringUsed

    colors = {}
    for ev in trace:
        if isinstance(ev, ColoringUsed):
            colors.update(ev.colors)
    return colors


def reference_audit_trace(inst, trace):
    """The audit that checks every snapshot from scratch: one envy graph,
    one ``is_efx``, one allocated adjacency with a BFS per valuer and one
    union check per agent for each snapshot.

    Envy is only checked between agents that share a good, which is exact
    because every valuation's support lies within the agent's incident edges.
    """
    from graphefx.allocation import envy_graph, is_efx
    from graphefx.audit import FAMILIES, AuditReport
    from graphefx.trace import StructureResolved

    colors = reference_colors(trace)
    structure_events = [
        (i, ev) for i, ev in enumerate(trace) if isinstance(ev, StructureResolved)
    ]
    if not structure_events:
        return AuditReport(results={f: (False, ()) for f in FAMILIES})

    # 0-based color classes; claims use 1-based, so +1.  No distance bound
    # exceeds the largest class number, which is at most t.
    depth = max(colors.values(), default=0) + 1
    far = inst.graph.vertex_count + 1
    localized, movement, distance, union = [], [], [], []

    favourite_of = {}
    resolved = set()
    phase_moved = {}
    events = folded(trace)

    for idx, ev in structure_events:
        resolved.add(ev.root)
        favourite_of[ev.root] = ev.favourite
        snapshot = events[idx]["snapshot"]
        alloc = Allocation(bundles=dict(snapshot))

        # localized envy: snapshot EFX, envy only favourite -> resolved root
        envy = envy_graph(inst, alloc)
        verdict = is_efx(inst, alloc)
        if not verdict.ok:
            localized.append(f"event {idx}: snapshot is not EFX, witness {verdict.witness}")
        for a, b in envy.edges:
            if b not in resolved or favourite_of.get(b) != a:
                localized.append(
                    f"event {idx}: envy edge {a}->{b} is not favourite-to-resolved-root"
                )

        # good movement: only root -> favourite, at most once per phase
        moved = phase_moved.setdefault(ev.phase, set())
        for g, frm, to in events[idx]["transfers"]:
            if frm != ev.root or to != ev.favourite:
                movement.append(
                    f"event {idx}: good {g} moved {frm}->{to}, expected root->favourite"
                )
            if g in moved:
                movement.append(f"event {idx}: good {g} transferred twice in phase {ev.phase}")
            moved.add(g)

        # distances along allocated edges; each BFS stops at ``depth``, beyond
        # every bound, so a vertex it does not reach reads as ``far``
        holder_of = {g: w for w, b in snapshot.items() for g in b}
        adj = _reference_allocated_adjacency(inst, holder_of)
        dist_cache = {}

        def dist_from(src):
            if src not in dist_cache:
                dist_cache[src] = reference_distances_within(adj, src, depth)
            return dist_cache[src]

        for g, w in sorted(holder_of.items()):
            a, b = inst.graph.endpoints(g)
            c_w = colors[w] + 1
            for z in (a, b):
                if dist_from(z).get(w, far) > c_w:
                    distance.append(
                        f"event {idx}: valuer {z} of good {g} is farther than {c_w} from holder {w}"
                    )
            root = a if colors[a] < colors[b] else b
            if dist_from(root).get(w, far) > c_w - (colors[root] + 1):
                distance.append(
                    f"event {idx}: structure root {root} of good {g} is farther than"
                    f" {c_w - (colors[root] + 1)} from holder {w}"
                )

        # unresolved union: z values only its incident goods, so the union of
        # the other unresolved bundles is worth what z's incident goods in it are
        for z in range(inst.graph.vertex_count):
            if z in resolved:
                continue
            rest = frozenset(
                g for g in inst.graph.incident_edges(z)
                if g in holder_of and holder_of[g] != z and holder_of[g] not in resolved
            )
            if not rest:
                continue
            v_z = inst.valuations[z]
            if v_z.value(alloc.bundle(z)) < v_z.value(rest):
                union.append(
                    f"event {idx}: unresolved agent {z} envies the union of unresolved bundles"
                )

    return AuditReport(
        results={
            "localized_envy": (True, tuple(localized)),
            "good_movement": (True, tuple(movement)),
            "distance": (True, tuple(distance)),
            "unresolved_union": (True, tuple(union)),
        }
    )


def reference_check_trace(trace, graph):
    """Raise InputError unless every agent that a structure event gives a good
    to and both endpoints of that good have a color.

    The separate pass that ``load_trace`` once made before any audit, on
    moves.  A good an agent holds reached it by a move, so an uncolored
    agent is met at the first event that involves it, as the old pass met
    it in the bundles each event changed.  ``audit_trace`` must reject a
    trace at the same event."""
    from graphefx.audit import _structure_steps
    from graphefx.errors import InputError

    colors = reference_colors(trace)
    for i, _, moves in _structure_steps(trace):
        for g, w in moves.items():
            if w is not None:
                for v in (w, *graph.endpoints(g)):
                    if v not in colors:
                        raise InputError(f"trace event {i} involves agent {v}, which has no color")


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


def reference_brute_force_efx(inst):
    """The census that enumerates all n^m allocations in ``product`` order.

    Every assignment is checked in full with the incident-holder pair rule
    and the masked value cache of ``brute_force_efx``; nothing is pruned.
    """
    n = inst.graph.vertex_count
    m = inst.graph.edge_count
    searched = n ** m if n > 0 or m == 0 else 0
    if searched > BRUTE_FORCE_MAX:
        raise CapacityError(f"{n}^{m} allocations exceed the {BRUTE_FORCE_MAX} capacity guard")
    if m == 0:
        empty = Allocation.empty()
        return OracleReport(efx_count=1, sample=empty, searched=1)
    if n == 0:
        return OracleReport(efx_count=0, sample=None, searched=0)

    inc_mask = [0] * n
    for v in range(n):
        for g in inst.graph.incident_edges(v):
            inc_mask[v] |= 1 << g
    # (holder-relative) value cache per agent, keyed by bundle-mask & incident
    caches: list[dict[int, int]] = [{0: 0} for _ in range(n)]
    vals = [inst.valuations[v] for v in range(n)]

    def value_of(u: int, mask: int) -> int:
        key = mask & inc_mask[u]
        cache = caches[u]
        got = cache.get(key)
        if got is None:
            got = vals[u].value(g for g in range(m) if key >> g & 1)
            cache[key] = got
        return got

    endpoints = [inst.graph.endpoints(g) for g in range(m)]
    count = 0
    sample = None

    for assign in product(range(n), repeat=m):
        masks = [0] * n
        for g, holder in enumerate(assign):
            masks[holder] |= 1 << g
        ok = True
        for g, holder in enumerate(assign):
            for u in endpoints[g]:
                if u == holder:
                    continue
                own = value_of(u, masks[u])
                held = masks[holder]
                if own >= value_of(u, held):
                    continue
                # u envies the holder: removal of every single good must cure it
                for x in range(m):
                    if held >> x & 1 and own < value_of(u, held & ~(1 << x)):
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            count += 1
            if sample is None:
                bundles = {
                    v: frozenset(g for g in range(m) if masks[v] >> g & 1) for v in range(n)
                }
                sample = Allocation(bundles=bundles)
    return OracleReport(efx_count=count, sample=sample, searched=searched)


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


def reference_find_source_with_path(eg, target):
    """The backward BFS for a source with a path to ``target``, lowest
    enviers first: (source, path), or None when the target is a source."""
    if not eg.in_neighbours(target):
        return None
    succ_on_path = {target: None}
    queue = [target]
    for v in queue:
        preds = eg.in_neighbours(v)
        if not preds and v != target:
            path = [v]
            while succ_on_path[path[-1]] is not None:
                path.append(succ_on_path[path[-1]])
            return v, path
        for p in preds:
            if p not in succ_on_path:
                succ_on_path[p] = v
                queue.append(p)
    raise PreconditionError(f"no source reaches agent {target}")


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


def reference_shortest_cycle(graph, component=None):
    """(girth, one shortest cycle) by a BFS to the end from every vertex of
    ``component`` (every vertex when None); (inf, None) on a forest.

    It shares no code with ``MultiGraph``'s girth search: a non-tree edge
    (x, y) closes the tree paths from x and y, less the tail they share, and
    the first cycle shorter than every earlier one is kept.
    """
    best, best_cycle = float("inf"), None
    for start in graph.vertices(component):
        dist, parent = {start: 0}, {start: None}
        queue = deque([start])
        while queue:
            x = queue.popleft()
            for y in sorted(graph.neighbours(x)):
                if y not in dist:
                    dist[y], parent[y] = dist[x] + 1, x
                    queue.append(y)
                elif parent[x] != y and dist[x] + dist[y] + 1 < best:
                    paths = []
                    for v in (x, y):
                        paths.append([v])
                        while parent[paths[-1][-1]] is not None:
                            paths[-1].append(parent[paths[-1][-1]])
                    path_x, path_y = paths
                    while len(path_x) > 1 and len(path_y) > 1 and path_x[-2] == path_y[-2]:
                        path_x, path_y = path_x[:-1], path_y[:-1]
                    cycle = path_x[:-1] + path_y[::-1]
                    if len(cycle) < best:
                        best, best_cycle = len(cycle), cycle
    return best, best_cycle


def reference_cut_preferences(cutter_val, chooser_val, bundle):
    """Cut ``bundle`` as the partition layer's cutter does; (pieces, s, t) with
    ``pieces`` the pair (piece1, piece2), s the chooser's and t the cutter's piece index.

    Ties: an indifferent chooser takes the piece the cutter does not prefer,
    an indifferent cutter is given the complement of the chooser's pick, and
    under double indifference the chooser takes piece2.
    """
    from graphefx.partition import _cac_exhaustive, _cac_greedy

    bundle = frozenset(bundle)
    if isinstance(cutter_val, Table):
        pieces = _cac_exhaustive(cutter_val, bundle)
    else:
        pieces = _cac_greedy(cutter_val, bundle)[:2]
    v1, v2 = map(cutter_val.value, pieces)
    vc1, vc2 = map(chooser_val.value, pieces)
    cutter_pref = 1 if v1 >= v2 else 2
    if vc1 > vc2:
        s = 1
    elif vc2 > vc1:
        s = 2
    elif v1 != v2:
        s = 3 - cutter_pref
    else:
        s = 2
    t = cutter_pref if v1 != v2 else 3 - s
    return pieces, s, t


def _reference_to_json(x):
    if isinstance(x, frozenset):
        return sorted(x)
    if isinstance(x, dict):  # empty bundles are not written
        return {str(k): _reference_to_json(v) for k, v in sorted(x.items())
                if v or not isinstance(v, frozenset)}
    if isinstance(x, tuple):
        return [_reference_to_json(v) for v in x]
    return x


def reference_event_to_json(event):
    """One trace line as a dict: string keys, a set or tuple as a list, no empty bundle.

    ``event`` is an event in ``folded`` form.  ``json.dumps(reference_event_to_json(event),
    sort_keys=True)`` is the line ``trace.event_line`` must write."""
    return {f: _reference_to_json(v) for f, v in event.items()}


def _reference_snapshot(bundles):
    return {u: frozenset(b) for u, b in bundles.items() if b}


def _reference_event(cls, **fields):
    """An event of class ``cls`` in ``folded`` form."""
    return {"type": cls.kind, **fields}


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
        trace.append(_reference_event(StructureResolved, phase=phase, root=u, favourite=None,
                                      branch=None, snapshot=_reference_snapshot(bundles),
                                      transfers=()))
        return
    pieces = {}  # w -> (loop, S piece, T piece, same_pref)
    for w in sorted(right):
        loop = inst.graph.parallel_edges(u, w)
        halves, s, t = reference_cut_preferences(inst.valuations[w], v_u, loop)
        pieces[w] = (loop, halves[s - 1], halves[t - 1], s == t)
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
    trace.append(_reference_event(StructureResolved, phase=phase, root=u, favourite=fav,
                                  branch=branch, snapshot=_reference_snapshot(bundles),
                                  transfers=transfers))


def reference_chromatic_efx(inst, col):
    """The chromatic solver's phase loop over a mutable set dict, without precondition checks."""
    from graphefx.trace import ColoringUsed

    trace = [_reference_event(ColoringUsed, colors=dict(col.colors), t=col.t)]
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
    trace = [_reference_event(ColoringUsed, colors={v: (0 if v in left else 1) for v in range(n)},
                              t=2)]
    bundles = {}
    for u in sorted(left):
        _reference_resolve_structure(inst, bundles, u, sorted(inst.graph.neighbours(u)), 1, trace)
    return Allocation(bundles=_reference_snapshot(bundles)), trace


def reference_tree_efx(inst):
    """The tree solver over a mutable set dict, converted to an ``Allocation``
    around every envy-graph build and shifted along a cycle in place.  The
    envy graph is built from scratch for every leaf, searched for a cycle
    with the recursive DFS and for the parent's source with the backward
    BFS."""
    import heapq

    from graphefx.allocation import envy_graph
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

    def shift(cycle):  # each agent of the cycle takes its successor's bundle
        taken = [bundles.get(w, set()) for w in cycle[1:] + cycle[:1]]
        bundles.update(zip(cycle, taken))

    for leaf, parent in reversed(order):
        eg = envy_graph(inst, current())
        cycle = reference_find_envy_cycle(eg, inst.graph.vertex_count)
        while cycle is not None:
            shift(cycle)
            trace.append(_reference_event(CycleResolved, cycle=tuple(cycle),
                                          snapshot=_reference_snapshot(bundles)))
            eg = envy_graph(inst, current())
            cycle = reference_find_envy_cycle(eg, inst.graph.vertex_count)
        loop = inst.graph.parallel_edges(leaf, parent)
        halves, s, _ = reference_cut_preferences(inst.valuations[parent], inst.valuations[leaf],
                                                 loop)
        leaf_piece, rest = halves[s - 1], halves[2 - s]
        bundles.setdefault(leaf, set()).update(leaf_piece)
        source = reference_find_source_with_path(eg, parent)
        recipient = parent if source is None else source[0]
        bundles.setdefault(recipient, set()).update(rest)
        trace.append(_reference_event(LeafAttached, leaf=leaf, parent=parent,
                                      pieces=(leaf_piece, rest), leftover_to=recipient,
                                      snapshot=_reference_snapshot(bundles)))
        if source is not None:
            s_vertex, path = source
            v_p = inst.valuations[parent]
            if v_p.value(bundles.get(parent, set())) < v_p.value(bundles.get(s_vertex, set())):
                cyc = [parent] + path[:-1]
                shift(cyc)
                trace.append(_reference_event(CycleResolved, cycle=tuple(cyc),
                                              snapshot=_reference_snapshot(bundles)))
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


# The higher neighbours of each vertex of a 4-regular graph on 21 vertices with
# girth 5 and chromatic number 4, the Brinkmann graph's parameters.
GIRTH5_CHROMATIC4 = {
    0: [2, 5, 7, 13], 1: [3, 6, 7, 8], 2: [4, 8, 9], 3: [5, 9, 10], 4: [6, 10, 11],
    5: [11, 12], 6: [12, 13], 7: [15, 20], 8: [14, 16], 9: [15, 17], 10: [16, 18],
    11: [17, 19], 12: [18, 20], 13: [14, 19], 14: [17, 18], 15: [18, 19], 16: [19, 20],
    17: [20],
}


def girth5_chromatic4_graph():
    """A girth-5 graph that needs 4 colors, so girth >= 2t-1 admits no coloring."""
    return MultiGraph(21, [(u, w) for u, higher in GIRTH5_CHROMATIC4.items() for w in higher])


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


# K4 with a second copy of two opposite edges: 4 agents, 8 goods, girth 3.
# Its solves reach the brute-force fallback.
K4_PLUS_TWO = MultiGraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 1), (2, 3)])


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


def _moved_valuation(val, good):
    """``val`` with every good id mapped by ``good``."""
    if isinstance(val, Table):
        return Table(entries={frozenset(map(good, s)): v for s, v in val.entries.items()})
    return replace(val, values={good(g): v for g, v in val.values.items()})


def moved_event(ev, agent, good):
    """The trace event ``ev`` with every agent id mapped by ``agent`` and every
    good id by ``good``; colors, t and phases are kept."""
    from graphefx.trace import ColoringUsed, CycleResolved, LeafAttached, StructureResolved

    def moves(moved):
        return {good(g): None if u is None else agent(u) for g, u in moved.items()}

    if isinstance(ev, ColoringUsed):
        return ColoringUsed(colors={agent(u): c for u, c in ev.colors.items()}, t=ev.t)
    if isinstance(ev, StructureResolved):
        return replace(
            ev, root=agent(ev.root), moves=moves(ev.moves),
            favourite=None if ev.favourite is None else agent(ev.favourite))
    if isinstance(ev, LeafAttached):
        return LeafAttached(leaf=agent(ev.leaf), parent=agent(ev.parent),
                            pieces=tuple(frozenset(map(good, p)) for p in ev.pieces),
                            leftover_to=agent(ev.leftover_to), moves=moves(ev.moves))
    assert isinstance(ev, CycleResolved)
    return CycleResolved(cycle=tuple(map(agent, ev.cycle)), moves=moves(ev.moves))


def interleaved_union(rng: random.Random, parts):
    """The disjoint union of the instances ``parts``, with their agents and
    their goods interleaved at random.

    Returns (the union, the union id of each part's agents, the union id of
    each part's goods).  Within a part both maps are increasing, so the
    union keeps the order of each part's agent ids and of its good ids.
    """
    agent_of = [p for p, part in enumerate(parts) for _ in range(part.graph.vertex_count)]
    good_of = [p for p, part in enumerate(parts) for _ in range(part.graph.edge_count)]
    rng.shuffle(agent_of)
    rng.shuffle(good_of)
    agents = [[v for v, q in enumerate(agent_of) if q == p] for p in range(len(parts))]
    goods = [[e for e, q in enumerate(good_of) if q == p] for p in range(len(parts))]
    edges = [None] * len(good_of)
    vals = {}
    for part, vmap, emap in zip(parts, agents, goods):
        for e, (a, b) in enumerate(part.graph.edges):
            edges[emap[e]] = (vmap[a], vmap[b])
        for u, val in part.valuations.items():
            vals[vmap[u]] = _moved_valuation(val, emap.__getitem__)
    return Instance(graph=MultiGraph(len(agent_of), edges), valuations=vals), agents, goods


def c5_path_and_isolated_agent():
    """A 5-cycle on agents 0, 2, 4, 6, 8, a multi-path on agents 1, 3, 5 and
    the isolated agent 7, with the goods of the cycle and the path interleaved."""
    cycle = [(0, 2), (2, 4), (4, 6), (6, 8), (8, 0)]
    path = [(1, 3), (1, 3), (3, 5), (3, 5)]
    pairs = [pair for both in zip(cycle, path) for pair in both] + cycle[len(path):]
    return additive_instance(MultiGraph(9, pairs), seed=9)
