"""Replay solver traces against the solver invariants.

Four invariant families are audited on phase-based (bipartite / chromatic)
traces:

* localized envy      -- every allocation a structure event leaves is EFX, and
                         any envy edge points from a resolved root's favourite
                         neighbour to that root;
* good movement       -- goods only ever move from a structure's root to its
                         favourite, and at most once per phase;
* allocated distances -- an agent valuing a held good is within color-bounded
                         hop distance of the holder, along allocated edges;
* unresolved union    -- an unresolved agent never envies the union of all
                         other unresolved agents' bundles.

Tree traces carry none of these obligations, so every family reports as not
applicable on them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Optional

from .allocation import Allocation, EnvyGraph
from .errors import InputError
from .frozen import Frozen
from .trace import ColoringUsed, StructureResolved, TraceEvent

if TYPE_CHECKING:
    from .multigraph import MultiGraph
    from .solvers import Instance

FAMILIES = ("localized_envy", "good_movement", "distance", "unresolved_union")


class AuditReport(Frozen):
    # family -> (applicable, violation messages)
    results: dict[str, tuple[bool, tuple[str, ...]]]

    def __init__(self, results: dict[str, tuple[bool, tuple[str, ...]]]):
        self._set(results)

    @property
    def ok(self) -> bool:
        return all(not msgs for _, msgs in self.results.values())

    def status(self, family: str) -> str:
        """"n/a" when ``family`` does not apply to the trace, else "pass" or "fail"."""
        applicable, msgs = self.results[family]
        return "n/a" if not applicable else ("pass" if not msgs else "fail")


def _merged_colors(trace: list[TraceEvent]) -> Optional[dict[int, int]]:
    """Vertex colors over every ColoringUsed event, or None when there is none.

    A component-wise solve emits one event per phase-based component; the
    components have disjoint vertices, so their colorings merge.
    """
    colorings = [ev.colors for ev in trace if isinstance(ev, ColoringUsed)]
    return {v: c for colors in colorings for v, c in colors.items()} if colorings else None


def _structure_steps(trace: list[TraceEvent]
                     ) -> Iterator[tuple[int, StructureResolved, dict[int, frozenset[int]]]]:
    """(index, event, changes) for each StructureResolved event of ``trace``.

    The changes are the event's own on top of those of the tree events since
    the previous structure event, which the audit does not read: from one
    structure event's allocation to the next.
    """
    changes: dict[int, frozenset[int]] = {}
    for i, ev in enumerate(trace):
        if not isinstance(ev, ColoringUsed):
            changes.update(ev.changes)
            if isinstance(ev, StructureResolved):
                yield i, ev, changes
                changes = {}


def check_trace(trace: list[TraceEvent], graph: "MultiGraph") -> None:
    """Raise InputError unless, when ``trace`` colors vertices, every holder of a
    bundle that a structure event changes and both endpoints of each good it
    holds have a color."""
    colors = _merged_colors(trace)
    if colors is None:
        return
    for i, _, changes in _structure_steps(trace):
        for w, bundle in changes.items():
            if bundle:
                for v in {w}.union(*(graph.endpoints(g) for g in bundle)):
                    if v not in colors:
                        raise InputError(f"trace event {i} involves agent {v}, which has no color")


def _connect(adj: dict[int, set[int]], a: int, b: int) -> None:
    adj.setdefault(a, set()).add(b)
    adj.setdefault(b, set()).add(a)


def _within(adj: dict[int, set[int]], src: int, dst: int, depth: int) -> bool:
    """Whether ``dst`` is at most ``depth`` hops from ``src`` along ``adj``."""
    if src == dst:
        return depth >= 0
    if dst in adj.get(src, ()):
        return depth >= 1
    seen = frontier = {src}
    for _ in range(depth):
        frontier = set().union(*(adj.get(x, ()) for x in frontier)) - seen
        if dst in frontier:
            return True
        seen = seen | frontier
    return False


def audit_trace(inst: "Instance", trace: list[TraceEvent]) -> AuditReport:
    """Check the allocation after every structure event of a phase-based trace
    against all four families.

    Envy is only checked between agents that share a good, which is exact
    because every valuation's support lies within the agent's incident edges.

    The audit steps one ``EnvyGraph`` in place by each structure event's
    changes, reads the bundles from it, and rechecks only what the agents
    whose bundles changed can affect; the report equals that of checking
    every such allocation from scratch:

    * every envy edge that a step adds or removes has an endpoint whose
      bundle changed.  An edge's EFX witness depends on its two bundles only,
      and whether it is stray (not from a resolved root's favourite to that
      root) changes only when it appears or its head is the event's root.
      So the stray edges are kept across events, and every one is reported
      at every event;
    * while no good is withdrawn, the allocated edges only grow, so an
      allocated distance only shrinks and a distance check that passed stays
      passed while its good keeps its holder.  A withdrawal rechecks every good.
      The adjacency along the allocated edges is brought up to date only
      when a check needs a search.
      A good held by one of its endpoints that is the good's root or colored
      higher passes all three checks without a search: the good is itself
      an allocated edge joining its endpoints, so the holder is 0 hops from
      itself and 1 from the other endpoint, within the valuers' bounds of
      color + 1 >= 1 and the root's bound of color(holder) - color(root);
    * an unresolved agent z values only its incident goods, so its union
      check depends only on their holders and on which holders are resolved.
      Resolving one more root can only shrink the union, so a check that
      passed can fail only when one of those goods changed holder.
    Checks that failed at the previous structure event are always made again.
    """
    colors = _merged_colors(trace)
    applicable = colors is not None and any(isinstance(ev, StructureResolved) for ev in trace)
    if not applicable:
        return AuditReport(results={f: (False, ()) for f in FAMILIES})

    localized: list[str] = []
    movement: list[str] = []
    distance: list[str] = []
    union: list[str] = []

    favourite_of: dict[int, Optional[int]] = {}
    resolved: set[int] = set()
    phase_moved: dict[int, set[int]] = {}
    envy = EnvyGraph(inst, Allocation.empty())
    holder = envy.holder
    ends = inst.graph.edges  # good -> endpoints; every good the audit reads is checked
    unfair: dict[tuple[int, int], int] = {}  # envy edge -> its EFX witness, where it has one
    stray: set[tuple[int, int]] = set()  # envy edges not from a resolved root's favourite to it
    adj: dict[int, set[int]] = {}  # skeleton adjacency along the allocated edges, less unlinked
    unlinked: list[int] = []  # allocated goods not yet in adj, linked before a search
    far_goods: set[int] = set()  # goods whose distance checks failed at the previous event
    union_enviers: set[int] = set()  # agents whose union check failed at the previous event

    for idx, ev, changes in _structure_steps(trace):
        resolved.add(ev.root)
        favourite_of[ev.root] = ev.favourite
        moved = envy.step(changes)
        changed = changes.keys()

        # localized envy: the allocation is EFX, envy only favourite -> resolved root
        unfair = {e: x for e, x in unfair.items() if changed.isdisjoint(e)}
        touched = {(y, w) for y in changed for w in envy.out_neighbours(y)}
        touched.update((u, y) for y in changed for u in envy.in_neighbours(y))
        for u, w in touched:
            x = envy.efx_witness(u, w)
            if x is not None:
                unfair[u, w] = x
        if unfair:
            first = min(unfair)
            localized.append(f"event {idx}: snapshot is not EFX, witness {(*first, unfair[first])}")
        # stray edges: re-decide those at changed agents and into the root (see above)
        stray = {e for e in stray if changed.isdisjoint(e)}
        for a, b in touched.union((u, ev.root) for u in envy.in_neighbours(ev.root)):
            if b not in resolved or favourite_of.get(b) != a:
                stray.add((a, b))
            else:
                stray.discard((a, b))
        for a, b in sorted(stray):
            localized.append(f"event {idx}: envy edge {a}->{b} is not favourite-to-resolved-root")

        # good movement: only root -> favourite, at most once per phase
        moved_in_phase = phase_moved.setdefault(ev.phase, set())
        for g, frm, to in ev.transfers:
            if frm != ev.root or to != ev.favourite:
                movement.append(
                    f"event {idx}: good {g} moved {frm}->{to}, expected root->favourite"
                )
            if g in moved_in_phase:
                movement.append(f"event {idx}: good {g} transferred twice in phase {ev.phase}")
            moved_in_phase.add(g)

        # distances along allocated edges; a good held by one of its endpoints
        # that is its root or colored higher passes all three checks (see above)
        if any(g not in holder for g in moved):
            adj, unlinked = {}, list(holder)
            recheck = set(holder)
        else:
            unlinked.extend(moved)
            recheck = moved | far_goods
        far_goods = set()
        for g in sorted(recheck):
            w = holder[g]
            a, b = ends[g]
            root = a if colors[a] < colors[b] else b
            if (w == a or w == b) and (w == root or colors[w] > colors[root]):
                continue
            for h in unlinked:
                _connect(adj, *ends[h])
            unlinked = []
            c_w = colors[w] + 1
            for z in (a, b):
                if not _within(adj, z, w, c_w):
                    far_goods.add(g)
                    distance.append(
                        f"event {idx}: valuer {z} of good {g} is farther than {c_w} from holder {w}"
                    )
            bound = c_w - (colors[root] + 1)
            if not _within(adj, root, w, bound):
                far_goods.add(g)
                distance.append(
                    f"event {idx}: structure root {root} of good {g} is farther than"
                    f" {bound} from holder {w}"
                )

        # unresolved union: z values only its incident goods, so the union of
        # the other unresolved bundles is worth what z's incident goods in it are
        suspects = set(union_enviers)
        for g in moved:
            suspects.update(ends[g])
        union_enviers = set()
        for z in sorted(suspects - resolved):
            incident = inst.graph.incident_edges(z)
            others = envy.rivals(z) - resolved
            if not others:
                continue
            rest = frozenset().union(*(envy.bundle(w) & incident for w in others))
            v_z = inst.valuations[z]
            if v_z.value(envy.bundle(z)) < v_z.value(rest):
                union_enviers.add(z)
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
