"""The EFX solvers and the class-detecting dispatcher.

Both algorithms are cut-and-choose based.  The chromatic solver resolves one
structure per root, phase by phase over the color classes, with the root's
prior bundle travelling to its favourite neighbour in the keep branch.  A
bipartition is a 2-coloring, so the paper's bipartite case is the chromatic
solver at t = 2.  The tree solver attaches leaves recursively and repairs
envy with at most one cycle shift per attachment.
"""

from __future__ import annotations

import heapq
from typing import Iterator, Optional, Sequence

# envy_graph is not called here, but perfbench's tracer test reads solvers.envy_graph.
from .allocation import Allocation, EnvyGraph, envy_graph  # noqa: F401
from .errors import InputError, PreconditionError, UnsupportedClassError, UnsupportedValuationError
from .frozen import Frozen
from .multigraph import Coloring, Component, MultiGraph
from .oracle import first_efx_allocation
from .partition import TABLE_CUT_MAX, cut_and_choose
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
GIRTH_LIMIT = 2 * DISPATCH_T_MAX - 1  # girth >= 2t-1 for every t <= DISPATCH_T_MAX
BRUTE_FORCE_AGENT_MAX = 4
BRUTE_FORCE_GOOD_MAX = 8  # 4 ** 8 = 65,536 allocations, within oracle.BRUTE_FORCE_MAX


class Instance(Frozen):
    """A fair-division problem: a multi-graph plus one valuation per vertex."""

    graph: MultiGraph
    valuations: dict[int, Valuation]

    def __init__(self, graph: MultiGraph, valuations: dict[int, Valuation]):
        for u in range(graph.vertex_count):
            if u not in valuations:
                raise InputError(f"missing valuation for agent {u}")
            extra = valuations[u].support - graph.incident_edges(u)
            if extra:
                raise InputError(
                    f"valuation of agent {u} supports non-incident edges {sorted(extra)}"
                )
        self._set(graph, valuations)


def _table_agent(inst: Instance, agents: Sequence[int]) -> Optional[int]:
    """The first agent of ``agents`` with a table valuation, or None."""
    return next((u for u in agents if isinstance(inst.valuations[u], Table)), None)


def _resolve_structure(
    inst: Instance, bundles: dict[int, set[int]], u: int, right: list[int], phase: int
) -> StructureResolved:
    """Resolve the structure rooted at ``u`` over its right neighbours (ascending).

    Each right neighbour w cuts its edge loop with u and u chooses.
    ``bundles`` maps agents to the sets of goods they hold (absent: none)
    and is updated in place to the allocation after the step.  Returns the
    step's StructureResolved event.
    """
    if not right:
        return StructureResolved(phase=phase, root=u, favourite=None, branch=None, moves={})

    v_u = inst.valuations[u]
    cuts = {w: cut_and_choose(inst.valuations[w], v_u, inst.graph.parallel_edges(u, w))
            for w in right}
    fav = max(right, key=lambda w: (cuts[w][3], -w))  # u's value of its piece, from the cut
    moves: dict[int, int] = {}

    def give(v: int, goods) -> None:
        moves.update(dict.fromkeys(goods, v))

    lefts = []
    for w in right:
        if w != fav:
            s_piece, rest, same_pref, _ = cuts[w]
            w_piece, left = (s_piece, rest) if same_pref else (rest, s_piece)
            give(w, w_piece)
            lefts.append(left)
    leftover = frozenset().union(*lefts)

    s_piece, rest, same_pref, s_value = cuts[fav]
    prior = bundles.get(u, frozenset())
    if not same_pref:
        branch = BRANCH_DIFFERENT
        give(u, s_piece | leftover)
        give(fav, rest)
    elif s_value > v_u.value(prior | rest | leftover):
        branch = BRANCH_SAME_KEEP
        give(fav, prior | rest | leftover)
        give(u, s_piece)
        bundles.pop(u, None)  # u's prior bundle goes to fav
    else:
        branch = BRANCH_SAME_LEFTOVERS
        give(u, rest | leftover)
        give(fav, s_piece)

    for g, v in moves.items():
        bundles.setdefault(v, set()).add(g)
    return StructureResolved(phase=phase, root=u, favourite=fav, branch=branch, moves=moves)


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
    # every skeleton cycle has length >= 3 = 2*2-1, so only t >= 3 needs the girth, and
    # only up to 2t-2; the message names the exact search's cycle
    if col.t >= 3 and inst.graph.girth(component, 2 * col.t - 2) < 2 * col.t - 1:
        girth, cycle = inst.graph.shortest_cycle(component)
        raise PreconditionError(f"girth {girth:.0f} < 2*{col.t}-1; offending cycle {cycle}")
    table = _table_agent(inst, agents)
    if table is not None:
        raise UnsupportedValuationError("chromatic_efx requires cancellable-family valuations;"
                                        f" agent {table} has a table valuation")

    trace: list[TraceEvent] = [ColoringUsed(colors=dict(col.colors), t=col.t)]
    bundles: dict[int, set[int]] = {}
    for u in sorted(agents, key=col.colors.__getitem__):  # stable: by color, then in order
        if (c := col.colors[u]) < col.t - 1:  # phase c + 1 roots the agents of color c
            right = sorted(w for w in inst.graph.neighbours(u) if col.colors[w] > c)
            trace.append(_resolve_structure(inst, bundles, u, right, c + 1))
    return Allocation(bundles=bundles), trace


def tree_efx(inst: Instance, component: Component = None) -> tuple[Allocation, list[TraceEvent]]:
    """EFX allocation on a multi-tree, any monotone valuations.

    Leaves are detached (highest index first), the rest is solved recursively,
    then each leaf is re-attached: its parent cuts the leaf loop, the leaf
    picks, and the complement goes to the parent or to an envy-graph source.
    One ``EnvyGraph`` holds the allocation and is stepped in place with the
    goods each step moves.

    Before every attachment the envy graph is acyclic and every agent has
    at most one envier, so the parent's enviers form one chain up to a
    source, which the attachment walks.  An attachment keeps both
    invariants, with or without its one shift along that chain (the tree
    lemma in README), so no envy cycle is ever left to search for.
    Given a component, it solves that component alone.
    """
    if not inst.graph.is_multitree(component):
        raise PreconditionError("tree_efx requires a multi-tree (acyclic skeleton)")

    trace: list[TraceEvent] = []
    envy = EnvyGraph(inst, Allocation.empty())
    for leaf, parent in _attach_order(inst.graph, component):
        loop = inst.graph.parallel_edges(leaf, parent)
        leaf_piece, rest, _, _ = cut_and_choose(inst.valuations[parent], inst.valuations[leaf],
                                                loop)
        # The complement goes to the source atop the parent's chain of enviers.  The
        # leaf holds none of its goods yet, so it envies no one and is not on the chain.
        chain = [parent]  # the parent, its envier, that agent's envier, ..., the source
        while enviers := envy.in_neighbours(chain[-1]):
            if len(chain) > inst.graph.vertex_count:
                raise PreconditionError(f"the walk up the enviers of agent {parent} meets a cycle")
            chain.append(enviers[0])
        recipient = chain[-1]
        moves = {**dict.fromkeys(leaf_piece, leaf), **dict.fromkeys(rest, recipient)}
        envy.step(moves)
        trace.append(LeafAttached(leaf=leaf, parent=parent, pieces=(leaf_piece, rest),
                                  leftover_to=recipient, moves=moves))
        if envy.envies(parent, recipient):  # so the recipient is a source above the parent
            cycle = [parent] + chain[:0:-1]  # each agent envies its successor and takes its bundle
            moves = {g: u for u, w in zip(cycle, cycle[1:] + cycle[:1]) for g in envy.bundle(w)}
            envy.step(moves)
            trace.append(CycleResolved(cycle=tuple(cycle), moves=moves))

    return envy.alloc, trace


def _attach_order(g: MultiGraph, component: Component) -> list[tuple[int, int]]:
    """The (leaf, parent) pairs of a multi-tree in the order ``tree_efx`` attaches them.

    That is the elimination order reversed, computed iteratively to avoid
    deep recursion: always detach the highest-index current leaf.  A max-heap
    holds every vertex whose degree has dropped to 1; entries whose degree
    has since dropped to 0 are stale and skipped.  Degrees only fall, so each
    vertex is pushed at most once.
    """
    degree = {v: set(g.neighbours(v)) for v in g.vertices(component)}
    order: list[tuple[int, int]] = []
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
    return order[::-1]


def _component_hint(hint: Coloring, component: Sequence[int]) -> Coloring:
    """``hint`` on ``component``, renumbered densely: t is the number of colors it uses."""
    dense = {c: i for i, c in enumerate(sorted({hint.colors[v] for v in component}))}
    return Coloring(colors={v: dense[hint.colors[v]] for v in component}, t=len(dense))


class Verdict(Frozen):
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
    t <= DISPATCH_T_MAX.  So the girth matters only up to GIRTH_LIMIT.
    """
    if g.bipartition(component) is not None:
        return g.find_coloring(2, component), None
    girth = g.girth(component, GIRTH_LIMIT)
    if girth < 5:
        return None, f"girth {girth} < 5, and a non-bipartite graph needs t >= 3"
    t_max = (min(girth, GIRTH_LIMIT) + 1) // 2
    col = g.find_coloring(t_max, component)
    if col is None:
        return None, f"no proper coloring with t <= {t_max} (girth {g.girth(component)})"
    return col, None


def _tree_verdict(inst: Instance, component: Component) -> Verdict:
    g = inst.graph
    if not g.is_multitree(component):
        return Verdict("tree", "not a multi-tree")
    tables = [u for u in g.vertices(component) if isinstance(inst.valuations[u], Table)]
    if any(len(g.parallel_edges(u, w)) > TABLE_CUT_MAX for u in tables for w in g.neighbours(u)):
        # the parent cuts each leaf's loop, so only a table parent meets the bound
        for leaf, parent in _attach_order(g, component):
            loop = len(g.parallel_edges(leaf, parent))
            if loop > TABLE_CUT_MAX and isinstance(inst.valuations[parent], Table):
                return Verdict("tree", f"agent {parent} has a table valuation and cuts a loop of"
                                       f" {loop} goods; the exhaustive cut takes at most"
                                       f" {TABLE_CUT_MAX}")
    return Verdict("tree")


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
    girth = g.girth(component, 2 * hint.t - 2)
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
    yield _tree_verdict(inst, component)

    bipart = g.bipartition(component)
    table = _table_agent(inst, agents)
    if bipart is None:
        yield Verdict("bipartite", "not bipartite")
    elif table is not None:
        yield Verdict("bipartite", f"agent {table} has a table valuation")
    else:
        yield Verdict("bipartite", structure=bipart)

    yield _chromatic_verdict(inst, hint, table, component)

    n, m = len(agents), len(g.edges_of(component))
    if n <= BRUTE_FORCE_AGENT_MAX and m <= BRUTE_FORCE_GOOD_MAX:
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
    previous component's: its events move only its own goods.  Each
    component takes its part of the hint, with its colors made dense, so a
    component's verdict does not depend on the others.  When ``verdicts`` is
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
        sub_hint = hint if hint is None or comp is None else _component_hint(hint, comp)
        alloc, method, sub_trace, tried = _dispatch_component(inst, sub_hint, comp)
        verdicts.append(tried)
        bundles.update(alloc.bundles)
        trace += sub_trace
        methods.append(method)
    method = methods[0] if len(set(methods)) == 1 else "componentwise(" + ",".join(methods) + ")"
    return Allocation(bundles=bundles), method, trace
