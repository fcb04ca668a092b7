"""Per-iteration solver trace events, used for step-by-step invariant auditing.

Traces serialize to JSON-lines, one event per line.  The field types below are
the one description of every event: ``Agent`` and ``Good`` mark ids, ``Count``
marks colors, t and phases, and ``Branch`` a branch name.  The JSON reader is
generic over them, and checks each id and name where it reads it.

A step event (all but ``ColoringUsed``) holds ``changes``, the bundles its
step changed, as ``StructureResolved`` describes.  Its line holds ``snapshot``
instead, every bundle after the step: the writer folds the events' changes
into a running snapshot, and the reader diffs each snapshot line against the
one before it.  This module is the only one that knows the file's form.
"""

from __future__ import annotations

import json
from bisect import bisect_left, insort
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, NewType, Optional, Union
from typing import get_args, get_origin, get_type_hints

from .allocation import Allocation
from .errors import InputError

if TYPE_CHECKING:
    from .multigraph import MultiGraph

Agent = NewType("Agent", int)
Good = NewType("Good", int)
Count = NewType("Count", int)
Branch = NewType("Branch", str)

BRANCH_SAME_KEEP = "same_bundle_keep"
BRANCH_SAME_LEFTOVERS = "same_bundle_leftovers"
BRANCH_DIFFERENT = "different_bundles"
BRANCHES = (BRANCH_SAME_KEEP, BRANCH_SAME_LEFTOVERS, BRANCH_DIFFERENT)


@dataclass(frozen=True)
class ColoringUsed:
    """First event of a phase-based run: the vertex coloring driving the phases."""

    kind = "coloring_used"
    colors: dict[Agent, Count]
    t: Count


@dataclass(frozen=True)
class StructureResolved:
    """One root's star of right-neighbour edge loops was fully assigned.

    ``changes`` maps each agent whose bundle the step changed to its new
    bundle, empty for a bundle that was emptied.  The first step event of a
    later component in a component-wise solve also empties every bundle of
    the earlier ones, so the bundles held after an event are those of the
    component being solved.  ``transfers`` lists goods that moved from an
    existing bundle, as (good, from_agent, to_agent).  ``favourite`` is None
    for a root with no unallocated right-neighbour edges.
    """

    kind = "structure_resolved"
    phase: Count
    root: Agent
    favourite: Optional[Agent]
    branch: Optional[Branch]  # one of BRANCHES
    changes: dict[Agent, frozenset[Good]]
    transfers: tuple[tuple[Good, Agent, Agent], ...]


@dataclass(frozen=True)
class LeafAttached:
    """Tree solver: a leaf took its piece of the leaf-parent edge loop."""

    kind = "leaf_attached"
    leaf: Agent
    parent: Agent
    pieces: tuple[frozenset[Good], frozenset[Good]]  # (leaf's piece, complement)
    leftover_to: Agent
    changes: dict[Agent, frozenset[Good]]


@dataclass(frozen=True)
class CycleResolved:
    """Bundles were shifted one step along a directed envy cycle."""

    kind = "cycle_resolved"
    cycle: tuple[Agent, ...]
    changes: dict[Agent, frozenset[Good]]


TraceEvent = Union[ColoringUsed, StructureResolved, LeafAttached, CycleResolved]

# The ``type`` tag of each event on a trace line, and each event's fields and their types.
EVENT_KINDS = {cls.kind: cls for cls in get_args(TraceEvent)}
_FIELDS = {cls: tuple(get_type_hints(cls).items()) for cls in EVENT_KINDS.values()}


@lru_cache(maxsize=None)
def _shape(tp) -> tuple:
    """(origin, args) of a field type; origin None for an id or a name."""
    return get_origin(tp), get_args(tp)


def _key(k: str) -> Union[int, str]:
    """A JSON object key as the integer it spells, when it is that integer's own
    text; otherwise the key itself, which no id check accepts."""
    try:
        n = int(k)
    except ValueError:
        return k
    return n if str(n) == k else k


class _NotShape(Exception):
    """A JSON value that is not the list or the object its field's type needs."""


def _read(tp, x, checks: dict):
    """``x``, a value read from JSON, as a value of type ``tp``, each id or name
    of role r passed through ``checks[r]``.

    A dict must be a JSON object and a set or a tuple a JSON list, or
    _NotShape is raised.  A dict key is read as an int, and a fixed-length
    tuple of the wrong length raises ValueError.
    """
    origin, args = _shape(tp)
    if origin is None:  # an id or a name, checked by its role
        return checks[tp](x)
    if origin is Union:  # Optional[T]
        return None if x is None else _read(args[0], x, checks)
    if origin is dict:
        if type(x) is not dict:
            raise _NotShape(f"{json.dumps(x)}, not a JSON object")
        return {_read(args[0], _key(k), checks): _read(args[1], v, checks) for k, v in x.items()}
    if type(x) is not list:
        raise _NotShape(f"{json.dumps(x)}, not a JSON list")
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


def _branch_check(i: int) -> Callable[[str], str]:
    """The identity on the names in BRANCHES; raises InputError naming event ``i`` otherwise."""

    def check(x):
        if x not in BRANCHES:
            raise InputError(f"trace event {i} names branch {x!r}, not {', '.join(BRANCHES)}"
                             " or null")
        return x

    return check


def _text(x) -> str:
    """``x`` as JSON: an id, null, a branch name, a set of ids as a sorted list,
    a tuple of these as a list, and a dict with string keys sorted."""
    if x is None:
        return "null"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, frozenset):
        return "[" + ", ".join(map(str, sorted(x))) + "]"
    if isinstance(x, tuple):
        return "[" + ", ".join(map(_text, x)) + "]"
    if isinstance(x, dict):  # ColoringUsed.colors
        return json.dumps({str(k): v for k, v in x.items()}, sort_keys=True)
    return json.dumps(x)


def event_line(ev: TraceEvent, held: dict) -> str:
    """One trace line: the event as a JSON object with sorted keys, its ``type``
    tag beside its fields, a dict with string keys, a set as a sorted list and
    a tuple as a list.

    A step event's ``changes`` are written as its ``snapshot``, every
    non-empty bundle after the step.  ``held`` is that running snapshot: a
    writer passes one empty dict for a whole trace, and each call applies
    the event's changes to it.  It maps each agent holding goods to its
    bundle's text, ``"agent": [goods]``, and None to the list of those texts
    in sorted order, which is kept with one removal and one insertion per
    changed agent.  A '"' sorts before every digit, so sorting the texts
    sorts them by their agent strings.
    """
    texts = {"type": f'"{ev.kind}"'}
    for f, v in vars(ev).items():
        if f == "changes":
            snapshot = held.setdefault(None, [])
            for u, b in v.items():
                old = held.pop(u, None)
                if old is not None:
                    del snapshot[bisect_left(snapshot, old)]
                if b:
                    held[u] = new = f'"{u}": [{", ".join(map(str, sorted(b)))}]'
                    insort(snapshot, new)
            texts["snapshot"] = "{" + ", ".join(snapshot) + "}"
        else:
            texts[f] = _text(v)
    return "{" + ", ".join(f'"{f}": {text}' for f, text in sorted(texts.items())) + "}"


def event_from_json(obj: dict, i: int, graph: "MultiGraph", held: dict) -> TraceEvent:
    """Event ``i`` of a trace on ``graph``, from its line.

    Each field is read as its declared type: each agent id must be in
    0..n-1, each good id in 0..m-1, each color, t and phase a nonnegative
    integer, a branch one of BRANCHES or null, a dict a JSON object, and a
    set or a tuple a JSON list.  ``held`` is the snapshot before the event,
    agent -> bundle: a reader passes one dict for a whole trace, and it
    becomes the snapshot on a step event's line.  That event's ``changes``
    are the agents whose bundle differs between the two, in the line's
    order, then the agents the line leaves out.  Two bundles of a snapshot
    that meet raise what ``Allocation`` raises on the line.
    """
    kind = obj.get("type")
    cls = EVENT_KINDS.get(kind)
    if cls is None:
        raise InputError(f"unknown trace event type {kind!r}")
    checks = {Agent: _id_check(i, "agent", graph.vertex_count),
              Good: _id_check(i, "good", graph.edge_count),
              Count: _id_check(i, "count", None),
              Branch: _branch_check(i)}
    fields = {}
    for f, ft in _FIELDS[cls]:
        key = "snapshot" if f == "changes" else f
        try:
            fields[f] = _read(ft, obj[key], checks)
        except _NotShape as exc:
            raise InputError(f"trace event {i} gives {key} {exc}") from None
    if "changes" in fields:
        snapshot = Allocation(bundles=fields["changes"]).bundles
        changes = {u: b for u, b in snapshot.items() if held.get(u) != b}
        changes.update((u, frozenset()) for u in held if u not in snapshot)
        held.clear()
        held.update(snapshot)
        fields["changes"] = changes
    return cls(**fields)
