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

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .allocation import Allocation, envy_graph, is_efx
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


def _allocated_adjacency(inst: "Instance", holder_of: dict[int, int]) -> dict[int, set[int]]:
    """Skeleton adjacency restricted to the edges assigned in a snapshot."""
    adj: dict[int, set[int]] = {}
    for g in holder_of:
        a, b = inst.graph.endpoints(g)
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    return adj


def _distances_within(adj: dict[int, set[int]], src: int, depth: int) -> dict[int, int]:
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


def audit_trace(inst: "Instance", trace: list[TraceEvent]) -> AuditReport:
    """Check every snapshot of a phase-based trace against all four families.

    Envy is only checked between agents that share a good, which is exact
    because every valuation's support lies within the agent's incident edges.
    """
    colors = _merged_colors(trace)
    structure_events = [
        (i, ev) for i, ev in enumerate(trace) if isinstance(ev, StructureResolved)
    ]
    applicable = colors is not None and bool(structure_events)
    if not applicable:
        return AuditReport(results={f: (False, ()) for f in FAMILIES})

    # 0-based color classes; claims use 1-based, so +1.  No distance bound
    # exceeds the largest class number, which is at most t.
    depth = max(colors.values(), default=0) + 1
    far = inst.graph.vertex_count + 1
    localized: list[str] = []
    movement: list[str] = []
    distance: list[str] = []
    union: list[str] = []

    favourite_of: dict[int, Optional[int]] = {}
    resolved: set[int] = set()
    phase_moved: dict[int, set[int]] = {}

    for idx, ev in structure_events:
        resolved.add(ev.root)
        favourite_of[ev.root] = ev.favourite
        alloc = Allocation(bundles=dict(ev.snapshot))

        # localized envy: snapshot EFX, envy only favourite -> resolved root
        envy = envy_graph(inst, alloc)
        verdict = is_efx(inst, alloc, envy)
        if not verdict.ok:
            localized.append(f"event {idx}: snapshot is not EFX, witness {verdict.witness}")
        for a, b in envy.edges:
            if b not in resolved or favourite_of.get(b) != a:
                localized.append(
                    f"event {idx}: envy edge {a}->{b} is not favourite-to-resolved-root"
                )

        # good movement: only root -> favourite, at most once per phase
        moved = phase_moved.setdefault(ev.phase, set())
        for g, frm, to in ev.transfers:
            if frm != ev.root or to != ev.favourite:
                movement.append(
                    f"event {idx}: good {g} moved {frm}->{to}, expected root->favourite"
                )
            if g in moved:
                movement.append(f"event {idx}: good {g} transferred twice in phase {ev.phase}")
            moved.add(g)

        # distances along allocated edges; each BFS stops at ``depth``, beyond
        # every bound, so a vertex it does not reach reads as ``far``
        holder_of = {g: w for w, b in ev.snapshot.items() for g in b}
        adj = _allocated_adjacency(inst, holder_of)
        dist_cache: dict[int, dict[int, int]] = {}

        def dist_from(src: int) -> dict[int, int]:
            if src not in dist_cache:
                dist_cache[src] = _distances_within(adj, src, depth)
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
