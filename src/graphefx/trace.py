"""Per-iteration solver trace events, used for step-by-step invariant auditing.

Traces serialize to JSON-lines, one event per line; bundles are written as
sorted edge-id lists so files are byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Union

from .errors import InputError

if TYPE_CHECKING:
    from .multigraph import MultiGraph


@dataclass(frozen=True)
class ColoringUsed:
    """First event of a phase-based run: the vertex coloring driving the phases."""

    colors: dict[int, int]
    t: int


@dataclass(frozen=True)
class StructureResolved:
    """One root's star of right-neighbour edge loops was fully assigned.

    ``snapshot`` is the complete partial allocation after the iteration;
    ``transfers`` lists goods that moved from an existing bundle, as
    (good, from_agent, to_agent).  ``favourite`` is None for a root with no
    unallocated right-neighbour edges.
    """

    phase: int
    root: int
    favourite: Optional[int]
    branch: Optional[str]  # same_bundle_keep | same_bundle_leftovers | different_bundles
    snapshot: dict[int, frozenset[int]]
    transfers: tuple[tuple[int, int, int], ...]


@dataclass(frozen=True)
class LeafAttached:
    """Tree solver: a leaf took its piece of the leaf-parent edge loop."""

    leaf: int
    parent: int
    pieces: tuple[frozenset[int], frozenset[int]]  # (leaf's piece, complement)
    leftover_to: int
    snapshot: dict[int, frozenset[int]]


@dataclass(frozen=True)
class CycleResolved:
    """Bundles were shifted one step along a directed envy cycle."""

    cycle: tuple[int, ...]
    snapshot: dict[int, frozenset[int]]


TraceEvent = Union[ColoringUsed, StructureResolved, LeafAttached, CycleResolved]

BRANCH_SAME_KEEP = "same_bundle_keep"
BRANCH_SAME_LEFTOVERS = "same_bundle_leftovers"
BRANCH_DIFFERENT = "different_bundles"


def _ids(ev: TraceEvent) -> tuple[list, list, list]:
    """The agent ids, good ids and other counts (colors, t, phase) an event names."""
    if isinstance(ev, ColoringUsed):
        return list(ev.colors), [], list(ev.colors.values()) + [ev.t]
    agents = list(ev.snapshot)
    goods = [g for bundle in ev.snapshot.values() for g in bundle]
    counts = []
    if isinstance(ev, StructureResolved):
        agents += [ev.root] + ([] if ev.favourite is None else [ev.favourite])
        for g, frm, to in ev.transfers:
            agents += [frm, to]
            goods.append(g)
        counts.append(ev.phase)
    elif isinstance(ev, LeafAttached):
        agents += [ev.leaf, ev.parent, ev.leftover_to]
        goods += list(ev.pieces[0]) + list(ev.pieces[1])
    else:
        agents += list(ev.cycle)
    return agents, goods, counts


def check_trace(trace: list[TraceEvent], graph: "MultiGraph") -> None:
    """Raise InputError unless ``trace`` can be audited against ``graph``.

    Every agent id must be an integer in 0..n-1, every good id one in 0..m-1,
    and colors, t and phases nonnegative integers.  When the trace colors
    vertices, every holder in a structure snapshot and both endpoints of each
    good it holds must have a color.
    """
    n, m = graph.vertex_count, graph.edge_count
    colored = {v for ev in trace if isinstance(ev, ColoringUsed) for v in ev.colors}
    for i, ev in enumerate(trace):
        agents, goods, counts = _ids(ev)
        for kind, ids, bound in (("agent", agents, n), ("good", goods, m), ("count", counts, None)):
            for x in ids:
                if (not isinstance(x, int) or isinstance(x, bool) or x < 0
                        or (bound is not None and x >= bound)):
                    where = "a nonnegative integer" if bound is None else f"in 0..{bound - 1}"
                    raise InputError(f"trace event {i} names {kind} {x!r}, not {where}")
        if colored and isinstance(ev, StructureResolved):
            for w, bundle in ev.snapshot.items():
                for v in {w}.union(*(graph.endpoints(g) for g in bundle)):
                    if v not in colored:
                        raise InputError(f"trace event {i} involves agent {v}, which has no color")


def _snapshot_to_json(snapshot: dict[int, frozenset[int]]) -> dict[str, list[int]]:
    return {str(u): sorted(b) for u, b in sorted(snapshot.items()) if b}


def _snapshot_from_json(obj: dict) -> dict[int, frozenset[int]]:
    return {int(u): frozenset(b) for u, b in obj.items()}


def event_to_json(ev: TraceEvent) -> dict:
    if isinstance(ev, ColoringUsed):
        return {
            "type": "coloring_used",
            "colors": {str(v): c for v, c in sorted(ev.colors.items())},
            "t": ev.t,
        }
    if isinstance(ev, StructureResolved):
        return {
            "type": "structure_resolved",
            "phase": ev.phase,
            "root": ev.root,
            "favourite": ev.favourite,
            "branch": ev.branch,
            "snapshot": _snapshot_to_json(ev.snapshot),
            "transfers": [list(t) for t in ev.transfers],
        }
    if isinstance(ev, LeafAttached):
        return {
            "type": "leaf_attached",
            "leaf": ev.leaf,
            "parent": ev.parent,
            "pieces": [sorted(ev.pieces[0]), sorted(ev.pieces[1])],
            "leftover_to": ev.leftover_to,
            "snapshot": _snapshot_to_json(ev.snapshot),
        }
    if isinstance(ev, CycleResolved):
        return {
            "type": "cycle_resolved",
            "cycle": list(ev.cycle),
            "snapshot": _snapshot_to_json(ev.snapshot),
        }
    raise InputError(f"unknown trace event {ev!r}")


def event_from_json(obj: dict) -> TraceEvent:
    kind = obj.get("type")
    if kind == "coloring_used":
        return ColoringUsed(colors={int(v): c for v, c in obj["colors"].items()}, t=obj["t"])
    if kind == "structure_resolved":
        return StructureResolved(
            phase=obj["phase"],
            root=obj["root"],
            favourite=obj["favourite"],
            branch=obj["branch"],
            snapshot=_snapshot_from_json(obj["snapshot"]),
            transfers=tuple((g, a, b) for g, a, b in obj["transfers"]),
        )
    if kind == "leaf_attached":
        return LeafAttached(
            leaf=obj["leaf"],
            parent=obj["parent"],
            pieces=(frozenset(obj["pieces"][0]), frozenset(obj["pieces"][1])),
            leftover_to=obj["leftover_to"],
            snapshot=_snapshot_from_json(obj["snapshot"]),
        )
    if kind == "cycle_resolved":
        return CycleResolved(cycle=tuple(obj["cycle"]), snapshot=_snapshot_from_json(obj["snapshot"]))
    raise InputError(f"unknown trace event type {kind!r}")
