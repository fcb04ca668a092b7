"""The three EFX solvers and the class-detecting dispatcher.

All three algorithms are cut-and-choose based.  The chromatic solver resolves
one structure per root, phase by phase over the color classes, with the root's
prior bundle travelling to its favourite neighbour in the keep branch.  A
bipartition is a 2-coloring, so the bipartite solver is the chromatic one at
t = 2.  The tree solver attaches leaves recursively and repairs envy with
cycle resolution.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

# envy_graph is not called here, but perfbench's tracer test reads solvers.envy_graph.
from .allocation import (  # noqa: F401
    Allocation,
    EnvyGraph,
    envy_graph,
    find_source_with_path,
    resolve_cycle,
)
from .errors import InputError, PreconditionError, UnsupportedClassError, UnsupportedValuationError
from .multigraph import Coloring, Component, MultiGraph
from .oracle import BRUTE_FORCE_MAX, first_efx_allocation
from .partition import cut_and_choose
from .trace import (
    BRANCH_DIFFERENT,
    BRANCH_SAME_KEEP,
    BRANCH_SAME_LEFTOVERS,
    ColoringUsed,
    CycleResolved,
    LeafAttached,
    StructureResolved,
    TraceEvent,
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


def _table_agent(inst: Instance, agents: Sequence[int]) -> Optional[int]:
    """The first agent of ``agents`` with a table valuation, or None."""
    return next((u for u in agents if isinstance(inst.valuations[u], Table)), None)


def _resolve_structure(
    inst: Instance, alloc: Allocation, holder: dict[int, int], u: int, right: list[int], phase: int
) -> tuple[Allocation, StructureResolved]:
    """Resolve the structure rooted at ``u`` over its right neighbours (ascending).

    Each right neighbour w cuts its edge loop with u and u chooses.  Returns
    the allocation after the step and its StructureResolved event, and
    updates ``holder``, the agent of each good of ``alloc``, to the new one.
    """
    if not right:
        return alloc, StructureResolved(phase=phase, root=u, favourite=None, branch=None,
                                        snapshot=alloc.bundles.copy(), transfers=())

    v_u = inst.valuations[u]
    cuts = {w: cut_and_choose(inst.valuations[w], v_u, inst.graph.parallel_edges(u, w))
            for w in right}
    fav = max(right, key=lambda w: (cuts[w][3], -w))  # u's value of its piece, from the cut
    changes: dict[int, frozenset[int]] = {}

    def give(v: int, goods: frozenset[int]) -> None:
        changes[v] = changes.get(v, alloc.bundle(v)) | goods

    leftover: frozenset[int] = frozenset()
    for w in right:
        if w != fav:
            s_piece, rest, same_pref, _ = cuts[w]
            w_piece, left = (s_piece, rest) if same_pref else (rest, s_piece)
            give(w, w_piece)
            leftover |= left

    s_piece, rest, same_pref, s_value = cuts[fav]
    prior = alloc.bundle(u)
    transfers: tuple[tuple[int, int, int], ...] = ()
    if not same_pref:
        branch = BRANCH_DIFFERENT
        give(u, s_piece | leftover)
        give(fav, rest)
    elif s_value > v_u.value(prior | rest | leftover):
        branch = BRANCH_SAME_KEEP
        give(fav, prior | rest | leftover)
        changes[u] = s_piece
        transfers = tuple((g, u, fav) for g in sorted(prior))
    else:
        branch = BRANCH_SAME_LEFTOVERS
        give(u, rest | leftover)
        give(fav, s_piece)

    alloc = alloc.with_bundles(changes, holder)
    for v, b in changes.items():  # goods change hands, but none leaves the allocation
        holder.update(dict.fromkeys(b, v))
    return alloc, StructureResolved(phase=phase, root=u, favourite=fav, branch=branch,
                                    snapshot=alloc.bundles.copy(), transfers=transfers)


def bipartite_efx(
    inst: Instance, bipart: tuple[frozenset[int], frozenset[int]]
) -> tuple[Allocation, list[TraceEvent]]:
    """EFX allocation on a bipartite multi-graph: every right vertex cuts.

    This is ``chromatic_efx`` on the 2-coloring L -> 0, R -> 1: roots in L
    are processed in ascending index order, each right neighbour cuts its edge
    loop, ordinary neighbours keep their preferred piece and the favourite
    loop is settled by who prefers what.
    """
    left, right = frozenset(bipart[0]), frozenset(bipart[1])
    if left | right != frozenset(range(inst.graph.vertex_count)) or left & right:
        raise PreconditionError("bipartition must partition the vertex set")
    return chromatic_efx(inst, Coloring.of_bipartition(left, right))


def chromatic_efx(inst: Instance, col: Coloring,
                  component: Component = None) -> tuple[Allocation, list[TraceEvent]]:
    """EFX allocation on a t-chromatic multi-graph with girth >= 2t-1.

    Phase i roots the color-i vertices and pairs them against all strictly
    higher colors; a root that keeps its favourite piece passes its prior
    bundle to the favourite neighbour.  Given a component, it solves that
    component alone.
    """
    agents = inst.graph.vertices(component)
    ok, bad_edge = inst.graph.validate_coloring(col, component)
    if not ok:
        u, w = inst.graph.endpoints(bad_edge)
        raise PreconditionError(f"coloring is not proper: edge {bad_edge} joins {u} and {w}")
    # every skeleton cycle has length >= 3 = 2*2-1, so only t >= 3 needs the girth
    if col.t >= 3:
        girth, cycle = inst.graph.shortest_cycle(component)
        if girth < 2 * col.t - 1:
            raise PreconditionError(
                f"girth {girth:.0f} < 2*{col.t}-1; offending cycle {cycle}"
            )
    table = _table_agent(inst, agents)
    if table is not None:
        raise UnsupportedValuationError("chromatic_efx requires cancellable-family valuations;"
                                        f" agent {table} has a table valuation")

    trace: list[TraceEvent] = [ColoringUsed(colors=dict(col.colors), t=col.t)]
    alloc = Allocation.empty()
    holder: dict[int, int] = {}
    for phase in range(1, col.t):
        for u in (v for v in agents if col.colors[v] == phase - 1):
            right = sorted(w for w in inst.graph.neighbours(u) if col.colors[w] > col.colors[u])
            alloc, event = _resolve_structure(inst, alloc, holder, u, right, phase)
            trace.append(event)
    return alloc, trace


def tree_efx(inst: Instance, component: Component = None) -> tuple[Allocation, list[TraceEvent]]:
    """EFX allocation on a multi-tree, any monotone valuations.

    Leaves are detached (highest index first), the rest is solved recursively,
    then each leaf is re-attached: its parent cuts the leaf loop, the leaf
    picks, and the complement goes to the parent or to an envy-graph source.
    One ``EnvyGraph`` is kept and stepped with the bundles each step changes.
    Given a component, it solves that component alone.
    """
    if not inst.graph.is_multitree(component):
        raise PreconditionError("tree_efx requires a multi-tree (acyclic skeleton)")

    # Elimination order, computed iteratively to avoid deep recursion: always
    # the highest-index current leaf.  A max-heap holds every vertex whose
    # degree has dropped to 1; entries whose degree has since dropped to 0 are
    # stale and skipped.  Degrees only fall, so each vertex is pushed at most once.
    degree = {v: set(inst.graph.neighbours(v)) for v in inst.graph.vertices(component)}
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
    envy = EnvyGraph(inst, Allocation.empty())

    def shift(cycle: list[int]) -> None:
        shifted = resolve_cycle(envy.alloc, cycle)
        envy.step({u: shifted.bundle(u) for u in cycle})
        trace.append(CycleResolved(cycle=tuple(cycle), snapshot=envy.alloc.bundles.copy()))

    for leaf, parent in reversed(order):
        cycle = envy.find_cycle()
        while cycle is not None:
            shift(cycle)
            cycle = envy.find_cycle()

        loop = inst.graph.parallel_edges(leaf, parent)
        leaf_piece, rest, _, _ = cut_and_choose(inst.valuations[parent], inst.valuations[leaf],
                                                loop)
        # The complement goes to the parent, or to an envy-graph source of it.
        # None of the leaf's goods is allocated yet, so the leaf holds nothing,
        # envies no one and is never that source.
        source = find_source_with_path(envy, parent)
        recipient = parent if source is None else source[0]
        envy.step({leaf: leaf_piece, recipient: envy.alloc.bundle(recipient) | rest})
        trace.append(
            LeafAttached(leaf=leaf, parent=parent, pieces=(leaf_piece, rest),
                         leftover_to=recipient, snapshot=envy.alloc.bundles.copy())
        )
        if source is not None:
            s_vertex, path = source
            if envy.envies(parent, s_vertex):
                shift([parent] + path[:-1])  # parent envies the source; close the loop

    return envy.alloc, trace


def _component_hint(hint: Coloring, component: Sequence[int]) -> Coloring:
    """``hint`` on ``component``, renumbered densely: t is the number of colors it uses."""
    dense = {c: i for i, c in enumerate(sorted({hint.colors[v] for v in component}))}
    return Coloring(colors={v: dense[hint.colors[v]] for v in component}, t=len(dense))


@dataclass(frozen=True)
class Verdict:
    """Whether one solver applies to an instance, and why not when it does not."""

    solver: str  # tree | bipartite | chromatic | brute_force
    reason: Optional[str] = None  # None: the solver applies
    # The coloring a phase-based solver runs on: for bipartite, the bipartition's.
    structure: Optional[Coloring] = None

    @property
    def applies(self) -> bool:
        return self.reason is None


def smallest_coloring(g: MultiGraph,
                      component: Component = None) -> tuple[Optional[Coloring], Optional[str]]:
    """The smallest proper coloring whose t the girth admits, or None and why not.

    A bipartite graph has t <= 2, which every girth admits.  Otherwise t >= 3
    needs girth >= 5, girth >= 2t-1 bounds t by (girth+1)//2, and
    t <= DISPATCH_T_MAX.
    """
    if g.bipartition(component) is not None:
        return g.find_coloring(2, component), None
    girth = g.girth(component)
    if girth < 5:
        return None, f"girth {girth} < 5, and a non-bipartite graph needs t >= 3"
    t_max = min(DISPATCH_T_MAX, (girth + 1) // 2)
    col = g.find_coloring(t_max, component)
    if col is None:
        return None, f"no proper coloring with t <= {t_max} (girth {girth})"
    return col, None


def _chromatic_verdict(inst: Instance, hint: Optional[Coloring], table: Optional[int],
                       component: Component) -> Verdict:
    g = inst.graph
    if table is not None:
        return Verdict("chromatic", f"agent {table} has a table valuation")
    if hint is None:
        col, reason = smallest_coloring(g, component)
        return Verdict("chromatic", reason, col)
    ok, edge = g.validate_coloring(hint, component)
    if not ok:
        return Verdict("chromatic", f"the coloring hint is not proper at edge {edge}")
    girth = g.girth(component)
    if girth < 2 * hint.t - 1:
        return Verdict("chromatic", f"girth {girth} < 2*{hint.t}-1 for the {hint.t}-coloring hint")
    return Verdict("chromatic", structure=hint)


def classify(inst: Instance, hint: Optional[Coloring] = None,
             component: Component = None) -> Iterator[Verdict]:
    """Each solver's verdict on ``inst``, or on its ``component``, in dispatch order.

    The order is multi-tree, bipartite, chromatic (the hint, or the smallest
    coloring the girth allows, t <= min(DISPATCH_T_MAX, (girth+1)//2)), then
    brute force within its size guard.  Verdicts are computed lazily, so a
    caller that stops at the first applicable solver pays for no later test.
    """
    g = inst.graph
    agents = g.vertices(component)
    yield Verdict("tree") if g.is_multitree(component) else Verdict("tree", "not a multi-tree")

    bipart = g.bipartition(component)
    table = _table_agent(inst, agents)
    if bipart is None:
        yield Verdict("bipartite", "not bipartite")
    elif table is not None:
        yield Verdict("bipartite", f"agent {table} has a table valuation")
    else:
        yield Verdict("bipartite", structure=Coloring.of_bipartition(*bipart))

    yield _chromatic_verdict(inst, hint, table, component)

    n, m = len(agents), len(g.edges_of(component))
    if n <= BRUTE_FORCE_AGENT_MAX and m <= BRUTE_FORCE_GOOD_MAX and n ** m <= BRUTE_FORCE_MAX:
        yield Verdict("brute_force")
    else:
        yield Verdict(
            "brute_force",
            f"too large (needs <= {BRUTE_FORCE_AGENT_MAX} agents, <= {BRUTE_FORCE_GOOD_MAX} goods)",
        )


def _dispatch_component(
    inst: Instance, hint: Optional[Coloring], component: Component
) -> tuple[Allocation, str, list[TraceEvent], list[Verdict]]:
    """Run the first solver ``classify`` accepts on a component; also return the verdicts tried."""
    tried: list[Verdict] = []
    for verdict in classify(inst, hint, component):
        tried.append(verdict)
        if not verdict.applies:
            continue
        if verdict.solver == "tree":
            alloc, trace = tree_efx(inst, component)
        elif verdict.solver in ("bipartite", "chromatic"):
            alloc, trace = chromatic_efx(inst, verdict.structure, component)
        else:
            sample = first_efx_allocation(inst, component)
            if sample is None:
                tried[-1] = Verdict("brute_force", "exhaustive search found no EFX allocation")
                break
            alloc, trace = sample, []
        return alloc, verdict.solver, trace, tried
    raise UnsupportedClassError(
        "no solver applies: " + "; ".join(f"{v.solver}: {v.reason}" for v in tried)
    )


def solve(
    inst: Instance,
    hint: Optional[Coloring] = None,
    verdicts: Optional[list[list[Verdict]]] = None,
) -> tuple[Allocation, str, list[TraceEvent]]:
    """Dispatch to the first solver ``classify`` accepts, one connected component at a time.

    Agents value only their incident goods, so the union of EFX allocations
    of the components is EFX.  Each component is solved on the instance's
    own ids, starting from an empty allocation, and its trace follows the
    previous component's.  On a disconnected instance each component takes
    its part of the hint, with its colors made dense.  When ``verdicts`` is
    a list, one list per component is appended to it: the verdicts of the
    solvers tried, in order, ending with the one that ran.
    """
    if verdicts is None:
        verdicts = []
    if hint is not None:
        inst.graph.validate_coloring(hint)  # every vertex colored within 0..t-1, or InputError
    comps = inst.graph.connected_components() or [None]  # a graph without vertices is one part
    bundles: dict[int, frozenset[int]] = {}
    trace: list[TraceEvent] = []
    methods: list[str] = []
    for comp in comps:
        sub_hint = hint if hint is None or len(comps) == 1 else _component_hint(hint, comp)
        alloc, method, sub_trace, tried = _dispatch_component(inst, sub_hint, comp)
        verdicts.append(tried)
        bundles.update(alloc.bundles)
        trace += sub_trace
        methods.append(method)
    method = methods[0] if len(set(methods)) == 1 else "componentwise(" + ",".join(methods) + ")"
    return Allocation(bundles=bundles), method, trace
