"""Per-iteration solver trace events, used for step-by-step invariant auditing.

Traces serialize to JSON-lines, one event per line.  The field types below are
the one description of every event: ``Agent`` and ``Good`` mark ids, ``Count``
marks colors, t and phases.  The JSON reader and ``check_trace`` (through
``relabel``) are generic over them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, is_dataclass
from functools import lru_cache
from itertools import filterfalse
from typing import TYPE_CHECKING, Callable, NewType, Optional, Union
from typing import get_args, get_origin, get_type_hints

from .errors import InputError

if TYPE_CHECKING:
    from .multigraph import MultiGraph

Agent = NewType("Agent", int)
Good = NewType("Good", int)
Count = NewType("Count", int)


@dataclass(frozen=True)
class ColoringUsed:
    """First event of a phase-based run: the vertex coloring driving the phases."""

    kind = "coloring_used"
    colors: dict[Agent, Count]
    t: Count


@dataclass(frozen=True)
class StructureResolved:
    """One root's star of right-neighbour edge loops was fully assigned.

    ``snapshot`` is the partial allocation of the component being solved
    after the iteration: every bundle of a connected instance, but only this
    component's bundles in a component-wise solve.  ``transfers`` lists goods
    that moved from an existing bundle, as (good, from_agent, to_agent).
    ``favourite`` is None for a root with no unallocated right-neighbour edges.
    """

    kind = "structure_resolved"
    phase: Count
    root: Agent
    favourite: Optional[Agent]
    branch: Optional[str]  # same_bundle_keep | same_bundle_leftovers | different_bundles
    snapshot: dict[Agent, frozenset[Good]]
    transfers: tuple[tuple[Good, Agent, Agent], ...]


@dataclass(frozen=True)
class LeafAttached:
    """Tree solver: a leaf took its piece of the leaf-parent edge loop."""

    kind = "leaf_attached"
    leaf: Agent
    parent: Agent
    pieces: tuple[frozenset[Good], frozenset[Good]]  # (leaf's piece, complement)
    leftover_to: Agent
    snapshot: dict[Agent, frozenset[Good]]


@dataclass(frozen=True)
class CycleResolved:
    """Bundles were shifted one step along a directed envy cycle."""

    kind = "cycle_resolved"
    cycle: tuple[Agent, ...]
    snapshot: dict[Agent, frozenset[Good]]


TraceEvent = Union[ColoringUsed, StructureResolved, LeafAttached, CycleResolved]

BRANCH_SAME_KEEP = "same_bundle_keep"
BRANCH_SAME_LEFTOVERS = "same_bundle_leftovers"
BRANCH_DIFFERENT = "different_bundles"


# The ``type`` tag of each event on a trace line.
EVENT_KINDS = {cls.kind: cls for cls in get_args(TraceEvent)}


def _same(x):
    return x


@lru_cache(maxsize=None)
def _shape(tp) -> tuple:
    """(origin, args) of a field type: ("event", its fields and their types) for an
    event class, and origin None for an id or a str."""
    if is_dataclass(tp):
        return "event", tuple(get_type_hints(tp).items())
    return get_origin(tp), get_args(tp)


def _rebuild(tp, x, fns: dict, key: Callable):
    """``x`` rebuilt as a value of type ``tp``, each id of role r mapped by ``fns[r]``.

    Ids of a role without a function are kept.  An event is read from a
    mapping of its fields, dict keys pass through ``key`` first, and a
    fixed-length tuple of the wrong length raises ValueError.
    """
    origin, args = _shape(tp)
    if origin is None:
        return fns[tp](x) if tp in fns else x
    if origin == "event":
        return tp(**{f: _rebuild(ft, x[f], fns, key) for f, ft in args})
    if origin is Union:  # Optional[T]
        return None if x is None else _rebuild(args[0], x, fns, key)
    if origin is dict:
        return {_rebuild(args[0], key(k), fns, key): _rebuild(args[1], v, fns, key)
                for k, v in x.items()}
    if origin is frozenset:  # a set of ids: map them without a call per id
        return frozenset(map(fns.get(args[0], _same), x))
    if args[-1] is Ellipsis:
        return tuple(_rebuild(args[0], v, fns, key) for v in x)
    if len(x) != len(args):
        raise ValueError(f"expected {len(args)} items, got {len(x)}")
    return tuple(_rebuild(a, v, fns, key) for a, v in zip(args, x))


def relabel(ev: TraceEvent, agent: Callable, good: Callable, count: Callable = _same) -> TraceEvent:
    """``ev`` with every agent id mapped by ``agent``, every good id by ``good``
    and every color, t and phase by ``count``."""
    return _rebuild(type(ev), vars(ev), {Agent: agent, Good: good, Count: count}, _same)


def _id_check(i: int, kind: str, bound: Optional[int]) -> Callable[[int], int]:
    """The identity on ids valid below ``bound``; raises InputError naming event ``i`` otherwise."""

    def check(x):
        if (not isinstance(x, int) or isinstance(x, bool) or x < 0
                or (bound is not None and x >= bound)):
            where = "a nonnegative integer" if bound is None else f"in 0..{bound - 1}"
            raise InputError(f"trace event {i} names {kind} {x!r}, not {where}")
        return x

    return check


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
        relabel(ev, _id_check(i, "agent", n), _id_check(i, "good", m), _id_check(i, "count", None))
        if colored and isinstance(ev, StructureResolved):
            for w, bundle in ev.snapshot.items():
                for v in {w}.union(*(graph.endpoints(g) for g in bundle)):
                    if v not in colored:
                        raise InputError(f"trace event {i} involves agent {v}, which has no color")


def _to_json(x):
    if isinstance(x, frozenset):
        return sorted(x)
    if isinstance(x, dict):
        return {str(k): _to_json(v) for k, v in x.items()}
    if isinstance(x, tuple):
        return [_to_json(v) for v in x]
    return x


def _snapshot_text(snapshot: dict, fragments: dict) -> str:
    """``snapshot`` as a JSON object in string-sorted agent order, empty bundles left out.

    Each bundle's ``"agent": [goods]`` text is looked up in ``fragments`` by
    (agent, bundle) and encoded only on a miss.  A '"' sorts before every
    digit, so sorting the texts sorts them by their agent strings.
    """
    items = snapshot.items()
    for u, b in filterfalse(fragments.__contains__, items):
        fragments[u, b] = f'"{u}": {json.dumps(sorted(b))}' if b else ""
    return "{" + ", ".join(sorted(filter(None, map(fragments.__getitem__, items)))) + "}"


def event_line(ev: TraceEvent, fragments: dict) -> str:
    """One trace line: the event as a JSON object with sorted keys, its ``type``
    tag beside its fields, a dict with string keys, a set as a sorted list, a
    tuple as a list, and an empty snapshot bundle left out.

    ``fragments`` caches the text of each snapshot bundle.  A writer passes
    one dict for a whole trace: a bundle a step left alone is the same object
    in the next snapshot, so it is encoded once.
    """
    texts = {"type": json.dumps(ev.kind)}
    for f, v in vars(ev).items():
        texts[f] = (_snapshot_text(v, fragments) if f == "snapshot"
                    else json.dumps(_to_json(v), sort_keys=True))
    return "{" + ", ".join(f'"{f}": {text}' for f, text in sorted(texts.items())) + "}"


def event_from_json(obj: dict, i: int) -> TraceEvent:
    """Event ``i`` of a trace, from its line; each field is read as its declared
    type, and each id must be a nonnegative integer."""
    kind = obj.get("type")
    cls = EVENT_KINDS.get(kind)
    if cls is None:
        raise InputError(f"unknown trace event type {kind!r}")
    checks = {role: _id_check(i, role.__name__.lower(), None) for role in (Agent, Good, Count)}
    return _rebuild(cls, obj, checks, int)
