"""Replay solver traces against the solver invariants.

Four invariant families are audited on phase-based (bipartite / chromatic)
traces:

* localized envy      -- every snapshot is EFX and any envy edge points from a
                         resolved root's favourite neighbour to that root;
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

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .allocation import Allocation, EnvyGraph
from .errors import InputError
from .trace import ColoringUsed, StructureResolved, TraceEvent

if TYPE_CHECKING:
    from .solvers import Instance

FAMILIES = ("localized_envy", "good_movement", "distance", "unresolved_union")


@dataclass(frozen=True)
class AuditReport:
    # family -> (applicable, violation messages)
    results: dict[str, tuple[bool, tuple[str, ...]]]

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
    events = [ev for ev in trace if isinstance(ev, ColoringUsed)]
    if not events:
        return None
    colors: dict[int, int] = {}
    for ev in events:
        colors.update(ev.colors)
    return colors


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
    """Check every snapshot of a phase-based trace against all four families.

    Envy is only checked between agents that share a good, which is exact
    because every valuation's support lies within the agent's incident edges.

    The audit steps one ``EnvyGraph`` from snapshot to snapshot and rechecks
    only what the agents whose bundles changed can affect; the report equals
    that of checking every snapshot from scratch:

    * an envy edge's EFX witness depends on its two bundles only;
    * while no good is withdrawn, the allocated edges only grow, so an
      allocated distance only shrinks and a distance check that passed stays
      passed while its good keeps its holder.  A withdrawal rechecks every good;
    * an unresolved agent z values only its incident goods, so its union
      check depends only on their holders and on which holders are resolved.
      Resolving one more root can only shrink the union, so a check that
      passed can fail only when one of those goods changed holder.
    Checks that failed at the previous snapshot are always made again.
    """
    colors = _merged_colors(trace)
    structure_events = [
        (i, ev) for i, ev in enumerate(trace) if isinstance(ev, StructureResolved)
    ]
    applicable = colors is not None and bool(structure_events)
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
    unfair: dict[tuple[int, int], int] = {}  # envy edge -> its EFX witness, where it has one
    adj: dict[int, set[int]] = {}  # skeleton adjacency along the allocated edges
    far_goods: set[int] = set()  # goods whose distance checks failed at the previous snapshot
    union_enviers: set[int] = set()  # agents whose union check failed at the previous snapshot

    for idx, ev in structure_events:
        resolved.add(ev.root)
        favourite_of[ev.root] = ev.favourite
        # An allocation holds no empty bundle, so a pair with an empty one
        # comes from the snapshot and differs only when the agent held goods.
        changed = {u for u, b in envy.alloc.bundles.items() ^ ev.snapshot.items() if b}
        try:
            moved = envy.step({u: ev.snapshot.get(u, frozenset()) for u in changed})
        except InputError:
            # name the agent that checking the snapshot from scratch names:
            # the first in the snapshot's own order
            Allocation(bundles=ev.snapshot)
            raise
        alloc = envy.alloc

        # localized envy: snapshot EFX, envy only favourite -> resolved root
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
        for a, b in envy.edges:
            if b not in resolved or favourite_of.get(b) != a:
                localized.append(
                    f"event {idx}: envy edge {a}->{b} is not favourite-to-resolved-root"
                )

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

        # distances along allocated edges
        if any(g not in holder for g in moved):
            adj = {}
            for g in holder:
                _connect(adj, *inst.graph.endpoints(g))
            recheck = set(holder)
        else:
            for g in moved:
                _connect(adj, *inst.graph.endpoints(g))
            recheck = moved | far_goods
        far_goods = set()
        for g in sorted(recheck):
            w = holder[g]
            a, b = inst.graph.endpoints(g)
            c_w = colors[w] + 1
            for z in (a, b):
                if not _within(adj, z, w, c_w):
                    far_goods.add(g)
                    distance.append(
                        f"event {idx}: valuer {z} of good {g} is farther than {c_w} from holder {w}"
                    )
            root = a if colors[a] < colors[b] else b
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
            suspects.update(inst.graph.endpoints(g))
        union_enviers = set()
        for z in sorted(suspects - resolved):
            incident = inst.graph.incident_edges(z)
            others = envy.rivals(z) - resolved
            if not others:
                continue
            rest = frozenset().union(*(alloc.bundle(w) & incident for w in others))
            v_z = inst.valuations[z]
            if v_z.value(alloc.bundle(z)) < v_z.value(rest):
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
