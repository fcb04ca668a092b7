"""The three EFX solvers and the class-detecting dispatcher.

All three algorithms are cut-and-choose based.  The bipartite and chromatic
solvers share one structure-resolution core: the chromatic solver is the
bipartite one run phase by phase over the color classes, with the root's prior
bundle travelling to its favourite neighbour in the keep branch.  The tree
solver attaches leaves recursively and repairs envy with cycle resolution.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterator, Optional, Union

from .allocation import (
    Allocation,
    envy_graph,
    find_envy_cycle,
    find_source_with_path,
    resolve_cycle,
)
from .errors import InputError, PreconditionError, UnsupportedClassError, UnsupportedValuationError
from .multigraph import INFINITE_GIRTH, Coloring, MultiGraph
from .oracle import BRUTE_FORCE_MAX, brute_force_efx
from .partition import cac, cut_preferences
from .trace import (
    BRANCH_DIFFERENT,
    BRANCH_SAME_KEEP,
    BRANCH_SAME_LEFTOVERS,
    ColoringUsed,
    CycleResolved,
    LeafAttached,
    StructureResolved,
    TraceEvent,
    relabel,
)
from .valuation import Table, Valuation

DISPATCH_T_MAX = 4
BRUTE_FORCE_AGENT_MAX = 4
BRUTE_FORCE_GOOD_MAX = 8


@dataclass(frozen=True)
class Instance:
    """A fair-division problem: a multi-graph plus one valuation per vertex."""

    graph: MultiGraph
    valuations: dict[int, Valuation]

    def __post_init__(self):
        for u in range(self.graph.vertex_count):
            if u not in self.valuations:
                raise InputError(f"missing valuation for agent {u}")
            extra = self.valuations[u].support - self.graph.incident_edges(u)
            if extra:
                raise InputError(
                    f"valuation of agent {u} supports non-incident edges {sorted(extra)}"
                )


def _table_agent(inst: Instance) -> Optional[int]:
    """The lowest agent with a table valuation, or None."""
    return next((u for u in sorted(inst.valuations) if isinstance(inst.valuations[u], Table)), None)


def _require_cancellable_family(inst: Instance, solver: str) -> None:
    table = _table_agent(inst)
    if table is not None:
        raise UnsupportedValuationError(
            f"{solver} requires cancellable-family valuations; agent {table} has a table valuation"
        )


def _snapshot(bundles: dict[int, set[int]]) -> dict[int, frozenset[int]]:
    return {u: frozenset(b) for u, b in bundles.items() if b}


def _resolve_structure(
    inst: Instance,
    bundles: dict[int, set[int]],
    u: int,
    right: list[int],
    phase: int,
    trace: list[TraceEvent],
) -> None:
    """Resolve the structure rooted at ``u`` over its right neighbours.

    Mutates ``bundles`` and appends one StructureResolved event.
    """
    v_u = inst.valuations[u]
    right = [w for w in right if inst.graph.parallel_edges(u, w)]
    if not right:
        trace.append(
            StructureResolved(
                phase=phase, root=u, favourite=None, branch=None,
                snapshot=_snapshot(bundles), transfers=(),
            )
        )
        return

    pieces = {}  # w -> (loop, S piece, T piece, same_pref)
    for w in sorted(right):
        loop = inst.graph.parallel_edges(u, w)
        cut, s, t = cut_preferences(inst.valuations[w], v_u, loop)
        pieces[w] = (loop, cut.piece(s), cut.piece(t), s == t)

    fav = max(sorted(pieces), key=lambda w: (v_u.value(pieces[w][1]), -w))
    leftover: set[int] = set()
    for w in sorted(pieces):
        if w == fav:
            continue
        loop, _, t_piece, _ = pieces[w]
        bundles.setdefault(w, set()).update(t_piece)
        leftover |= loop - t_piece

    loop, s_piece, t_piece, same_pref = pieces[fav]
    prior = set(bundles.get(u, set()))
    transfers: tuple[tuple[int, int, int], ...] = ()
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

    trace.append(
        StructureResolved(
            phase=phase, root=u, favourite=fav, branch=branch,
            snapshot=_snapshot(bundles), transfers=transfers,
        )
    )


def bipartite_efx(
    inst: Instance, bipart: tuple[frozenset[int], frozenset[int]]
) -> tuple[Allocation, list[TraceEvent]]:
    """EFX allocation on a bipartite multi-graph: every right vertex cuts.

    Roots in L are processed in ascending index order; each right neighbour
    cuts its edge loop, ordinary neighbours keep their preferred piece and the
    favourite loop is settled by who prefers what.
    """
    left, right = frozenset(bipart[0]), frozenset(bipart[1])
    n = inst.graph.vertex_count
    if left | right != frozenset(range(n)) or left & right:
        raise PreconditionError("bipartition must partition the vertex set")
    for eid, (a, b) in enumerate(inst.graph.edges):
        if (a in left) == (b in left):
            raise PreconditionError(f"edge {eid} does not cross the bipartition")
    _require_cancellable_family(inst, "bipartite_efx")

    trace: list[TraceEvent] = [
        ColoringUsed(colors={v: (0 if v in left else 1) for v in range(n)}, t=2)
    ]
    bundles: dict[int, set[int]] = {}
    for u in sorted(left):
        _resolve_structure(inst, bundles, u, sorted(inst.graph.neighbours(u)), 1, trace)
    return Allocation(bundles=_snapshot(bundles)), trace


def chromatic_efx(inst: Instance, col: Coloring) -> tuple[Allocation, list[TraceEvent]]:
    """EFX allocation on a t-chromatic multi-graph with girth >= 2t-1.

    Phase i roots the color-i vertices and pairs them against all strictly
    higher colors; a root that keeps its favourite piece passes its prior
    bundle to the favourite neighbour.
    """
    ok, bad_edge = inst.graph.validate_coloring(col)
    if not ok:
        u, w = inst.graph.endpoints(bad_edge)
        raise PreconditionError(f"coloring is not proper: edge {bad_edge} joins {u} and {w}")
    girth, cycle = inst.graph.shortest_cycle()
    if girth < 2 * col.t - 1:
        raise PreconditionError(
            f"girth {girth:.0f} < 2*{col.t}-1; offending cycle {cycle}"
        )
    _require_cancellable_family(inst, "chromatic_efx")

    trace: list[TraceEvent] = [ColoringUsed(colors=dict(col.colors), t=col.t)]
    bundles: dict[int, set[int]] = {}
    for phase in range(1, col.t):
        roots = sorted(v for v in range(inst.graph.vertex_count) if col.colors[v] == phase - 1)
        for u in roots:
            right = [w for w in inst.graph.neighbours(u) if col.colors[w] > col.colors[u]]
            _resolve_structure(inst, bundles, u, sorted(right), phase, trace)
    return Allocation(bundles=_snapshot(bundles)), trace


def tree_efx(inst: Instance) -> tuple[Allocation, list[TraceEvent]]:
    """EFX allocation on a multi-tree, any monotone valuations.

    Leaves are detached (highest index first), the rest is solved recursively,
    then each leaf is re-attached: its parent cuts the leaf loop, the leaf
    picks, and the complement goes to the parent or to an envy-graph source.
    """
    if not inst.graph.is_multitree():
        raise PreconditionError("tree_efx requires a multi-tree (acyclic skeleton)")

    # Elimination order, computed iteratively to avoid deep recursion: always
    # the highest-index current leaf.  A max-heap holds every vertex whose
    # degree has dropped to 1; entries whose degree has since dropped to 0 are
    # stale and skipped.  Degrees only fall, so each vertex is pushed at most once.
    degree = {v: set(inst.graph.neighbours(v)) for v in range(inst.graph.vertex_count)}
    order: list[tuple[int, int]] = []  # (leaf, parent)
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

    trace: list[TraceEvent] = []
    bundles: dict[int, set[int]] = {}

    def current() -> Allocation:
        return Allocation(bundles=_snapshot(bundles))

    def apply(alloc: Allocation) -> None:
        bundles.clear()
        for v, b in alloc.bundles.items():
            bundles[v] = set(b)

    for leaf, parent in reversed(order):
        eg = envy_graph(inst, current())
        cycle = find_envy_cycle(eg)
        while cycle is not None:
            apply(resolve_cycle(current(), cycle))
            trace.append(CycleResolved(cycle=tuple(cycle), snapshot=_snapshot(bundles)))
            eg = envy_graph(inst, current())
            cycle = find_envy_cycle(eg)

        loop = inst.graph.parallel_edges(leaf, parent)
        cut, s, _ = cut_preferences(inst.valuations[parent], inst.valuations[leaf], loop)
        leaf_piece, rest = cut.piece(s), cut.piece(3 - s)
        bundles.setdefault(leaf, set()).update(leaf_piece)

        # the complement goes to the parent, or to an envy-graph source of it
        source = find_source_with_path(eg, parent)
        recipient = parent if source is None else source[0]
        bundles.setdefault(recipient, set()).update(rest)
        trace.append(
            LeafAttached(leaf=leaf, parent=parent, pieces=(leaf_piece, rest),
                         leftover_to=recipient, snapshot=_snapshot(bundles))
        )
        if source is not None:
            s_vertex, path = source
            v_p = inst.valuations[parent]
            if v_p.value(bundles.get(parent, set())) < v_p.value(bundles.get(s_vertex, set())):
                cyc = [parent] + path[:-1]  # parent envies the source; close the loop
                apply(resolve_cycle(current(), cyc))
                trace.append(CycleResolved(cycle=tuple(cyc), snapshot=_snapshot(bundles)))

    return current(), trace


def _sub_instance(inst: Instance, comp: list[int]) -> tuple[Instance, dict[int, int], dict[int, int]]:
    """Restrict ``inst`` to a component.  Returns (sub, vertex_back, edge_back)."""
    v_fwd = {v: i for i, v in enumerate(comp)}
    v_back = {i: v for v, i in v_fwd.items()}
    edge_ids = [eid for eid, (a, b) in enumerate(inst.graph.edges) if a in v_fwd]
    e_fwd = {eid: i for i, eid in enumerate(edge_ids)}
    e_back = {i: eid for eid, i in e_fwd.items()}
    pairs = [(v_fwd[inst.graph.edges[eid][0]], v_fwd[inst.graph.edges[eid][1]]) for eid in edge_ids]
    graph = MultiGraph(len(comp), pairs)
    vals = {v_fwd[v]: inst.valuations[v].relabel(e_fwd.__getitem__) for v in comp}
    return Instance(graph=graph, valuations=vals), v_back, e_back


def _compact_coloring(col: Coloring, comp: list[int]) -> Coloring:
    """``col`` on the component, renumbered like ``_sub_instance``, with its colors made dense."""
    used = sorted({col.colors[v] for v in comp})
    dense = {c: i for i, c in enumerate(used)}
    return Coloring(colors={i: dense[col.colors[v]] for i, v in enumerate(comp)}, t=len(used))


@dataclass(frozen=True)
class Verdict:
    """Whether one solver applies to an instance, and why not when it does not."""

    solver: str  # tree | bipartite | chromatic | brute_force
    reason: Optional[str] = None  # None: the solver applies
    # What the solver runs on: the bipartition or the coloring.
    structure: Union[tuple[frozenset[int], frozenset[int]], Coloring, None] = None

    @property
    def applies(self) -> bool:
        return self.reason is None


def smallest_coloring(g: MultiGraph) -> tuple[Optional[Coloring], Optional[str]]:
    """The smallest proper coloring whose t the girth admits, or None and why not.

    girth >= 2t-1 bounds t by (girth+1)//2, and t <= DISPATCH_T_MAX.  A
    non-bipartite graph needs t >= 3, so below girth 5 none is searched.
    """
    girth = g.girth()
    if g.bipartition() is None and girth < 5:
        return None, f"girth {girth} < 5, and a non-bipartite graph needs t >= 3"
    t_max = DISPATCH_T_MAX if girth == INFINITE_GIRTH else min(DISPATCH_T_MAX, (girth + 1) // 2)
    col = g.find_coloring(t_max)
    if col is None:
        return None, f"no proper coloring with t <= {t_max} (girth {girth})"
    return col, None


def _chromatic_verdict(inst: Instance, hint: Optional[Coloring], table: Optional[int]) -> Verdict:
    g = inst.graph
    if table is not None:
        return Verdict("chromatic", f"agent {table} has a table valuation")
    if hint is None:
        col, reason = smallest_coloring(g)
        return Verdict("chromatic", reason, col)
    ok, edge = g.validate_coloring(hint)
    if not ok:
        return Verdict("chromatic", f"the coloring hint is not proper at edge {edge}")
    girth = g.girth()
    if girth < 2 * hint.t - 1:
        return Verdict("chromatic", f"girth {girth} < 2*{hint.t}-1 for the {hint.t}-coloring hint")
    return Verdict("chromatic", structure=hint)


def classify(inst: Instance, hint: Optional[Coloring] = None) -> Iterator[Verdict]:
    """Each solver's verdict on ``inst``, in dispatch order.

    The order is multi-tree, bipartite, chromatic (the hint, or the smallest
    coloring the girth allows, t <= min(DISPATCH_T_MAX, (girth+1)//2)), then
    brute force within its size guard.  Verdicts are computed lazily, so a
    caller that stops at the first applicable solver pays for no later test.
    """
    g = inst.graph
    yield Verdict("tree") if g.is_multitree() else Verdict("tree", "not a multi-tree")

    bipart = g.bipartition()
    table = _table_agent(inst)
    if bipart is None:
        yield Verdict("bipartite", "not bipartite")
    elif table is not None:
        yield Verdict("bipartite", f"agent {table} has a table valuation")
    else:
        yield Verdict("bipartite", structure=bipart)

    yield _chromatic_verdict(inst, hint, table)

    n, m = g.vertex_count, g.edge_count
    if n <= BRUTE_FORCE_AGENT_MAX and m <= BRUTE_FORCE_GOOD_MAX and n ** m <= BRUTE_FORCE_MAX:
        yield Verdict("brute_force")
    else:
        yield Verdict(
            "brute_force",
            f"too large (needs <= {BRUTE_FORCE_AGENT_MAX} agents, <= {BRUTE_FORCE_GOOD_MAX} goods)",
        )


def _dispatch_connected(
    inst: Instance, hint: Optional[Coloring]
) -> tuple[Allocation, str, list[TraceEvent], list[Verdict]]:
    """Run the first solver ``classify`` accepts; also return the verdicts tried."""
    tried: list[Verdict] = []
    for verdict in classify(inst, hint):
        tried.append(verdict)
        if not verdict.applies:
            continue
        if verdict.solver == "tree":
            alloc, trace = tree_efx(inst)
        elif verdict.solver == "bipartite":
            alloc, trace = bipartite_efx(inst, verdict.structure)
        elif verdict.solver == "chromatic":
            alloc, trace = chromatic_efx(inst, verdict.structure)
        else:
            report = brute_force_efx(inst)
            if report.sample is None:
                tried[-1] = Verdict("brute_force", "exhaustive search found no EFX allocation")
                break
            alloc, trace = report.sample, []
        return alloc, verdict.solver, trace, tried
    raise UnsupportedClassError(
        "no solver applies: " + "; ".join(f"{v.solver}: {v.reason}" for v in tried)
    )


def solve(
    inst: Instance,
    hint: Optional[Coloring] = None,
    verdicts: Optional[list[list[Verdict]]] = None,
) -> tuple[Allocation, str, list[TraceEvent]]:
    """Dispatch to the first solver ``classify`` accepts; disconnected inputs go component-wise.

    When ``verdicts`` is a list, one list per component is appended to it: the
    verdicts of the solvers tried, in order, ending with the one that ran.
    """
    if verdicts is None:
        verdicts = []
    comps = inst.graph.connected_components()
    if len(comps) <= 1:
        alloc, method, trace, tried = _dispatch_connected(inst, hint)
        verdicts.append(tried)
        return alloc, method, trace

    if hint is not None:
        inst.graph.validate_coloring(hint)  # every vertex colored within 0..t-1, or InputError
    bundles: dict[int, frozenset[int]] = {}
    trace: list[TraceEvent] = []
    methods: list[str] = []
    for comp in comps:
        sub, v_back, e_back = _sub_instance(inst, comp)
        sub_hint = None if hint is None else _compact_coloring(hint, comp)
        alloc, method, sub_trace, tried = _dispatch_connected(sub, sub_hint)
        verdicts.append(tried)
        for u, b in alloc.bundles.items():
            bundles[v_back[u]] = frozenset(e_back[g] for g in b)
        trace.extend(relabel(ev, v_back.__getitem__, e_back.__getitem__) for ev in sub_trace)
        methods.append(method)
    method = methods[0] if len(set(methods)) == 1 else "componentwise(" + ",".join(methods) + ")"
    return Allocation(bundles=bundles), method, trace
