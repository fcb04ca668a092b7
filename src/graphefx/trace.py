"""Per-iteration solver trace events, used for step-by-step invariant auditing.

Traces serialize to JSON-lines, one event per line.  The field types below are
the one description of every event: ``Agent`` and ``Good`` mark ids, ``Count``
marks colors, t and phases.  The JSON reader is generic over them, and checks
each id where it reads it.
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


@lru_cache(maxsize=None)
def _shape(tp) -> tuple:
    """(origin, args) of a field type: ("event", its fields and their types) for an
    event class, and origin None for an id or a str."""
    if is_dataclass(tp):
        return "event", tuple(get_type_hints(tp).items())
    return get_origin(tp), get_args(tp)


def _read(tp, x, checks: dict):
    """``x``, a value read from JSON, as a value of type ``tp``, each id of role r
    passed through ``checks[r]``.

    An event is read from a mapping of its fields, a dict key is read as an
    int, and a fixed-length tuple of the wrong length raises ValueError.
    """
    origin, args = _shape(tp)
    if origin is None:  # an id, checked by its role, or a str, kept as read
        return checks[tp](x) if tp in checks else x
    if origin == "event":
        return tp(**{f: _read(ft, x[f], checks) for f, ft in args})
    if origin is Union:  # Optional[T]
        return None if x is None else _read(args[0], x, checks)
    if origin is dict:
        return {_read(args[0], int(k), checks): _read(args[1], v, checks) for k, v in x.items()}
    if origin is frozenset:  # a set of ids: check them without a recursive call per id
        return frozenset(map(checks[args[0]], x))
    if args[-1] is Ellipsis:
        return tuple(_read(args[0], v, checks) for v in x)
    if len(x) != len(args):
        raise ValueError(f"expected {len(args)} items, got {len(x)}")
    return tuple(_read(a, v, checks) for a, v in zip(args, x))


def _id_check(i: int, kind: str, bound: Optional[int]) -> Callable[[int], int]:
    """The identity on ids in 0..bound-1 (any nonnegative integer when ``bound``
    is None); raises InputError naming event ``i`` otherwise."""

    def check(x):
        if not isinstance(x, int) or isinstance(x, bool) or x < 0:
            raise InputError(f"trace event {i} names {kind} {x!r}, not a nonnegative integer")
        if bound is not None and x >= bound:
            raise InputError(f"trace event {i} names {kind} {x!r}, not in 0..{bound - 1}")
        return x

    return check


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
        fragments[u, b] = f'"{u}": [{", ".join(map(str, sorted(b)))}]' if b else ""
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


def event_from_json(obj: dict, i: int, graph: "MultiGraph") -> TraceEvent:
    """Event ``i`` of a trace on ``graph``, from its line; each field is read as
    its declared type, each agent id must be in 0..n-1, each good id in 0..m-1,
    and each color, t and phase a nonnegative integer."""
    kind = obj.get("type")
    cls = EVENT_KINDS.get(kind)
    if cls is None:
        raise InputError(f"unknown trace event type {kind!r}")
    checks = {Agent: _id_check(i, "agent", graph.vertex_count),
              Good: _id_check(i, "good", graph.edge_count),
              Count: _id_check(i, "count", None)}
    return _read(cls, obj, checks)
