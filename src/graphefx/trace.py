"""Per-iteration solver trace events, and the one schema walk that reads every file.

Traces serialize to JSON-lines, one event per line.  The field types below are
the one description of every event: ``Agent`` and ``Good`` mark ids, ``Count``
marks colors, t and phases, and ``Branch`` a branch name.  ``Natural`` marks
a nonnegative integer that names nothing, such as a value in an instance.

A step event (all but ``ColoringUsed``) holds ``moves``, as ``StructureResolved``
describes.  Its line holds ``snapshot`` instead, every bundle after the step, and
a structure line also ``transfers``: the writer folds the moves into a running
snapshot, and the reader diffs each snapshot into moves and checks the transfers
against them.  This module is the only one that knows the file's form.

``read_json`` reads these lines, and the instance, allocation and
``--coloring`` documents of ``jsonio``, each by a declared shape.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right, insort
from collections import deque
from functools import lru_cache
from itertools import accumulate, chain, islice, repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Literal, NewType, Optional, Union
from typing import get_args, get_origin, get_type_hints

from .errors import InputError
from .frozen import Frozen

if TYPE_CHECKING:
    from .multigraph import MultiGraph

Agent = NewType("Agent", int)
Good = NewType("Good", int)
Count = NewType("Count", int)
Branch = NewType("Branch", str)
Name = NewType("Name", str)  # a declared agent name in a document
Natural = NewType("Natural", int)

BRANCH_SAME_KEEP = "same_bundle_keep"
BRANCH_SAME_LEFTOVERS = "same_bundle_leftovers"
BRANCH_DIFFERENT = "different_bundles"
BRANCHES = (BRANCH_SAME_KEEP, BRANCH_SAME_LEFTOVERS, BRANCH_DIFFERENT)


class ColoringUsed(Frozen):
    """First event of a phase-based run: the vertex coloring driving the phases."""

    kind = "coloring_used"
    colors: dict[Agent, Count]
    t: Count


class StructureResolved(Frozen):
    """One root's star of right-neighbour edge loops was fully assigned.

    ``moves`` maps each good whose holder the step changed to its new holder,
    None for no holder.  The first step event of a later component in a
    component-wise solve also moves every good of the earlier ones to None, so
    the bundles held after an event are those of the component being solved.
    Its transfers, the moves of goods held before it, come only from the keep
    branch: the root's prior bundle goes to its favourite.  ``favourite`` is
    None for a root with no unallocated right-neighbour edges.
    """

    kind = "structure_resolved"
    phase: Count
    root: Agent
    favourite: Optional[Agent]
    branch: Optional[Branch]  # one of BRANCHES
    moves: dict[Good, Optional[Agent]]


class LeafAttached(Frozen):
    """Tree solver: a leaf took its piece of the leaf-parent edge loop."""

    kind = "leaf_attached"
    leaf: Agent
    parent: Agent
    pieces: tuple[frozenset[Good], frozenset[Good]]  # (leaf's piece, complement)
    leftover_to: Agent
    moves: dict[Good, Optional[Agent]]


class CycleResolved(Frozen):
    """Bundles were shifted one step along a directed envy cycle."""

    kind = "cycle_resolved"
    cycle: tuple[Agent, ...]
    moves: dict[Good, Optional[Agent]]


TraceEvent = Union[ColoringUsed, StructureResolved, LeafAttached, CycleResolved]

EVENT_KINDS = {cls.kind: cls for cls in get_args(TraceEvent)}


class Record:
    """A JSON object with exactly the keys of ``fields`` (key -> shape), read as
    the tuple of their values; a key of ``defaults`` may be left out.  With
    ``tagged``, ``fields`` maps each "type" tag to the fields after the tag.  In
    a dict or list its place is ``place`` formatted with the place around it,
    its key or index, and its integer "id" (else that index) as {place}, {key},
    {id}; a Record without a place is a whole document."""

    def __init__(self, place: Optional[str], fields: dict, defaults: Optional[dict] = None,
                 tagged: bool = False):
        self.place, self.fields, self.defaults = place, fields, defaults or {}
        self.allowed = frozenset(fields)
        self.required = self.allowed - frozenset(self.defaults)
        self.kinds = tagged and {tag: Record(place, {"type": object, **tag_fields})
                                 for tag, tag_fields in fields.items()}
        self.tag = tagged and Literal[tuple(fields)]


def _line_fields(cls) -> dict:
    """The fields of a line of ``cls`` after its type tag: the event's own, with
    ``snapshot`` for ``moves``, and on a structure line ``transfers`` as (good, from, to)."""
    fields = {f: tp for f, tp in get_type_hints(cls).items() if f != "moves"}
    if "moves" in cls.fields:
        fields["snapshot"] = dict[Agent, frozenset[Good]]
    if cls is StructureResolved:
        fields["transfers"] = tuple[tuple[Good, Agent, Agent], ...]
    return fields


_LINE = Record(None, {kind: _line_fields(cls) for kind, cls in EVENT_KINDS.items()}, tagged=True)
_INTS = (int, Agent, Good, Count, Natural)
_NOUNS = {Agent: "agent", Good: "good", Count: "count", Branch: "branch", Name: "agent"}
_FREE = object()  # the bound of a role that ``roles`` leaves out
_BOUNDS = {Agent: "n", Good: "m", Natural: "t"}  # the letter of a bounded role's bound


def _key(k: str) -> Union[int, str]:
    """The integer a JSON object key spells if it is that integer's own text; else the key."""
    try:
        return int(k) if str(int(k)) == k else k
    except ValueError:
        return k


def _screen(role, xs, roles: dict) -> bool:
    """Whether every one of ``xs`` is a value of leaf ``role``, by C-level loops."""
    bound = roles.get(role, _FREE)
    if role in _INTS:
        return set(map(type, xs)) <= {int} and (bound is _FREE or not xs or min(xs) >= 0 and (
            bound is None or max(xs) < bound))
    return set(map(type, xs)) <= {str} and (bound is _FREE or all(map(bound.__contains__, xs)))


# The walk's errors, one wording per kind.  ``at`` is (place, path, key): the
# place, such as "edge 3", the path inside it, such as 'values["2"]' (empty
# for the place itself), and the key or index of the value in its container.
def _fail(at: tuple, x, expected: str, noun: Optional[str] = None):
    """Raise InputError: the JSON value ``x`` at ``at`` is not ``expected``: a
    wrong container, leaf or literal, or, with the ``noun`` of what ``x``
    names, an id, agent name or branch that is wrong or not declared."""
    place, path, _ = at
    shown = json.dumps(x)
    if noun:
        raise InputError(f"{place} names {noun} {shown}{path and f' in {path}'}, not {expected}")
    raise InputError(f"{place} {f'gives {path}' if path else 'is'} {shown}, not {expected}")


def twice(items) -> object:
    """The first of ``items``, all hashable, that equals an earlier one."""
    seen: set = set()
    return next(x for x in items if x in seen or seen.add(x))


def _repeated(at: tuple, x, noun: str):
    """Raise InputError: the value at ``at`` names ``x``, a ``noun``, a second time."""
    place, path, _ = at
    raise InputError(f"{place} names {noun} {json.dumps(x)} twice{path and f' in {path}'}")


def _bad_keys(place: str, x: dict, allowed, wanted):
    """Raise InputError naming a key of ``x`` not in ``allowed``, else one of ``wanted`` it lacks."""
    stray = next((k for k in x if k not in allowed), None)
    if stray is not None:
        raise InputError(f"{place} has unknown key {json.dumps(stray)}")
    raise InputError(f"{place} has no key {json.dumps(next(k for k in wanted if k not in x))}")


def _bad_leaf(role, xs: list, where: Callable, roles: dict, is_key: bool = False):
    """Raise InputError naming the first of ``xs`` that is not a value of ``role``."""
    j = next(j for j, x in enumerate(xs) if not _screen(role, [x], roles))
    x, bound = xs[j], roles.get(role, _FREE)
    if role in _INTS and bound is _FREE:
        expected = "an integer's own text" if is_key else "an integer"
    elif role in _INTS:
        expected = ("a nonnegative integer" if type(x) is not int or x < 0
                    else f"in 0..{bound - 1}" if bound  # 0..-1 would read as a typo
                    else f"in 0..{_BOUNDS[role]}-1: {_BOUNDS[role]} is 0")
    else:
        expected = ("a string" if bound is _FREE else "a declared agent name" if role is Name
                    else f"{', '.join(BRANCHES)} or null")
    _fail(where(j), x, expected, _NOUNS.get(role))


def _place(rec: Record, x, at: tuple) -> str:
    """The place of the JSON value ``x`` that ``rec`` reads at ``at``."""
    outer, _, key = at
    if key is None or rec.place is None:
        return outer
    eid = x.get("id") if type(x) is dict else None
    return rec.place.format(place=outer, key=key, id=eid if type(eid) is int else key)


def _inside(at: tuple, key) -> tuple:
    """``at`` of the item at ``key`` (a dict's key or a list's index) of the value at ``at``."""
    place, path, _ = at
    return place, f"{path}[{json.dumps(key)}]", key


@lru_cache(maxsize=None)
def _shape(shape) -> tuple:
    """(origin, args) of a shape."""
    return get_origin(shape), get_args(shape)


def _read(shape, xs: list, where: Callable[[int], tuple], roles: dict) -> list:
    """Each of ``xs`` read as ``shape`` by C-level loops over them all.  Only to
    word an error, ``where(j)`` gives ``at`` of ``xs[j]``, as ``_fail`` reads it."""
    origin, args = _shape(shape)
    if shape is object:
        return xs
    if origin is None and not isinstance(shape, Record):  # a leaf role
        if not _screen(shape, xs, roles):
            _bad_leaf(shape, xs, where, roles)
        return xs
    if origin is Literal:  # one of the values ``args``
        if not all(map(args.__contains__, xs)):
            j = next(j for j, x in enumerate(xs) if x not in args)
            _fail(where(j), xs[j], " or ".join(map(json.dumps, args)))
        return xs
    if origin is Union:  # Optional[T]
        js = [j for j, x in enumerate(xs) if x is not None]
        values = iter(_read(args[0], [xs[j] for j in js], lambda i: where(js[i]), roles))
        return [None if x is None else next(values) for x in xs]
    container = dict if origin is dict or isinstance(shape, Record) else list
    length = len(args) if origin is tuple and args[-1] is not Ellipsis else None
    if not set(map(type, xs)) <= {container} or length and set(map(len, xs)) - {length}:
        j = next(j for j, x in enumerate(xs)
                 if type(x) is not container or length and len(x) != length)
        at = (_place(shape, xs[j], where(j)), "", None) if isinstance(shape, Record) else where(j)
        _fail(at, xs[j], "a JSON object" if container is dict
              else f"a JSON list of {length} items" if length else "a JSON list")
    if isinstance(shape, Record):
        def place(j):
            return _place(shape, xs[j], where(j))

        if shape.kinds:  # read the objects of each tag together
            if not all(map(dict.__contains__, xs, repeat("type"))):  # name it missing
                j = next(j for j, x in enumerate(xs) if "type" not in x)
                _bad_keys(place(j), xs[j], xs[j].keys(), ("type",))
            tags = _read(shape.tag, list(map(itemgetter("type"), xs)),
                         lambda j: (place(j), "type", "type"), roles)
            if len(set(tags)) == 1:
                return _read(shape.kinds[tags[0]], xs, where, roles)
            out = list(xs)
            for tag in set(tags):
                js = [j for j, t in enumerate(tags) if t == tag]
                part = _read(shape.kinds[tag], [xs[j] for j in js], lambda i: where(js[i]), roles)
                deque(map(out.__setitem__, js, part), maxlen=0)
            return out
        try:  # a required key missing raises KeyError
            columns = [list(map(itemgetter(k), xs)) if k in shape.required
                       else list(map(dict.get, xs, repeat(k), repeat(shape.defaults[k])))
                       for k in shape.fields]
        except KeyError:
            columns = None
        if columns is None or not (all(map(shape.allowed.issuperset, xs)) if shape.defaults
                                   else set(map(len, xs)) <= {len(shape.fields)}):
            j = next(j for j, x in enumerate(xs)
                     if not shape.required <= x.keys() <= shape.allowed)
            _bad_keys(place(j), xs[j], shape.allowed, shape.fields)
        return list(zip(*[_read(value_shape, column, lambda i, k=k: (place(i), k, k), roles)
                          for (k, value_shape), column in zip(shape.fields.items(), columns)]))
    if length:  # a fixed-length tuple, read position by position
        return list(zip(*[_read(a, list(c), lambda j, p=p: _inside(where(j), p), roles)
                          for p, (a, c) in enumerate(zip(args, zip(*xs)))]))

    def owner(i):  # the list or dict of xs holding item i of them all, and i's index in it
        starts = list(accumulate(map(len, xs), initial=0))
        j = bisect_right(starts, i) - 1
        return j, i - starts[j]

    texts = items = list(chain.from_iterable(xs))  # the items of lists, the keys of dicts
    if origin is dict:
        role = args[0]
        if role in _INTS:
            try:
                items = list(map(int, texts))
            except ValueError:
                items = None
            items = items if items is not None and list(map(str, items)) == texts else None
        if items is None or not _screen(role, items, roles):
            _bad_leaf(role, list(map(_key, texts)) if role in _INTS else texts,
                      lambda i: where(owner(i)[0]), roles, is_key=True)
        keys, items = items, list(chain.from_iterable(map(dict.values, xs)))
    values = _read(args[1] if origin is dict else args[0], items, lambda i: _inside(
        where(owner(i)[0]), texts[i] if origin is dict else owner(i)[1]), roles)
    if origin is not dict:
        if values is items and origin is list:  # no item changed
            return xs
        out = list(map(origin, xs if values is items
                       else map(islice, repeat(iter(values)), map(len, xs))))
        if origin is frozenset and sum(map(len, out)) != len(items):  # an item named twice
            j = next(j for j, (s, x) in enumerate(zip(out, xs)) if len(s) != len(x))
            _repeated(where(j), twice(xs[j]), _NOUNS.get(args[0], "item"))
        return out
    set_of, set_args = _shape(args[1])
    if set_of is frozenset and len(frozenset().union(*values)) != sum(map(len, values)):
        sets = iter(values)  # the sets of one dict meet: name the first item named twice
        for j, x in enumerate(xs):
            seen: set = set()
            for k, s in zip(x, sets):
                if not seen.isdisjoint(s):
                    _repeated(_inside(where(j), k), next(i for i in x[k] if i in seen),
                              _NOUNS.get(set_args[0], "item"))
                seen |= s
    if values is items and keys is texts:  # no item changed
        return xs
    lens, keys, values = list(map(len, xs)), iter(keys), iter(values)
    return list(map(dict, map(zip, map(islice, repeat(keys), lens),
                              map(islice, repeat(values), lens))))


def read_json(shape, x, place: str, roles: Optional[dict] = None):
    """``x``, a value read from JSON, read as ``shape``; an error names ``place``
    and the path inside it.

    A shape is a leaf role (``object``, any value; ``int``; ``str``; ``Name``;
    an id role); ``Literal[v, ...]``, one of those values; ``list[T]``,
    ``frozenset[T]`` or ``tuple[T, ...]``, a JSON list, which for a frozenset
    names no item twice; ``tuple[A, B]``, one of that length; ``dict[K, V]``,
    a JSON object whose keys are read as K (an integer's key is its own text:
    "3", not "03") and whose sets, for V a frozenset, name no item twice
    between them; ``Optional[T]``; or a ``Record``.  ``roles`` bounds roles:
    an id role or ``Natural`` to integers below its bound (None: any
    nonnegative one), ``Branch`` and ``Name`` to a collection; others take
    any JSON integer or string.
    The result may share parts of ``x``.
    """
    return _read(shape, [x], lambda j: (place, "", None), roles or {})[0]


def _ids(xs) -> str:
    """A set of ids as its sorted JSON list."""
    return f"[{', '.join(map(str, sorted(xs)))}]"


def _snapshot(moves: dict, held: dict) -> tuple[str, list[tuple[int, int, int]]]:
    """The text of the running snapshot ``held`` after ``moves``, and the
    transfers those moves make; see ``event_line``."""
    holder, bundles, texts, ordered = held.setdefault(None, ({}, {}, {}, []))
    changed, transfers = set(), []
    for g, y in moves.items():
        x = holder.get(g)
        if x == y:
            continue
        if x is not None:
            bundles[x].remove(g)
            changed.add(x)
            if y is not None:
                transfers.append((g, x, y))
        if y is None:
            del holder[g]
        else:
            holder[g] = y
            bundles.setdefault(y, set()).add(g)
            changed.add(y)
    for u in changed:
        old = texts.pop(u, None)
        if old is not None:
            del ordered[bisect_left(ordered, old)]
        if bundles[u]:
            texts[u] = new = f'"{u}": {_ids(bundles[u])}'
            insort(ordered, new)
        else:
            del bundles[u]
    return "{" + ", ".join(ordered) + "}", transfers


# One template per event class, its keys in sorted order.
def _coloring_line(ev: ColoringUsed, held: dict) -> str:
    colors = json.dumps({str(u): c for u, c in ev.colors.items()}, sort_keys=True)
    return f'{{"colors": {colors}, "t": {ev.t}, "type": "{ev.kind}"}}'


def _structure_line(ev: StructureResolved, held: dict) -> str:
    favourite = "null" if ev.favourite is None else ev.favourite
    branch = "null" if ev.branch is None else encode_basestring_ascii(ev.branch)
    snapshot, transfers = _snapshot(ev.moves, held)
    transfers = ", ".join([f"[{g}, {x}, {y}]" for g, x, y in sorted(transfers)])
    return (f'{{"branch": {branch}, "favourite": {favourite}, "phase": {ev.phase}, '
            f'"root": {ev.root}, "snapshot": {snapshot}, '
            f'"transfers": [{transfers}], "type": "{ev.kind}"}}')


def _leaf_line(ev: LeafAttached, held: dict) -> str:
    piece, complement = ev.pieces
    return (f'{{"leaf": {ev.leaf}, "leftover_to": {ev.leftover_to}, "parent": {ev.parent}, '
            f'"pieces": [{_ids(piece)}, {_ids(complement)}], '
            f'"snapshot": {_snapshot(ev.moves, held)[0]}, "type": "{ev.kind}"}}')


def _cycle_line(ev: CycleResolved, held: dict) -> str:
    return (f'{{"cycle": [{", ".join(map(str, ev.cycle))}], '
            f'"snapshot": {_snapshot(ev.moves, held)[0]}, "type": "{ev.kind}"}}')


_TEMPLATES = {ColoringUsed: _coloring_line, StructureResolved: _structure_line,
              LeafAttached: _leaf_line, CycleResolved: _cycle_line}


def event_line(ev: TraceEvent, held: dict) -> str:
    """One trace line: the event as a JSON object with sorted keys, its ``type``
    tag beside its fields, a dict with string keys, a set as a sorted list and
    a tuple as a list.  Each event class has its own template, which writes
    the bytes ``json.dumps(..., sort_keys=True)`` writes for that object.

    A step event's ``moves`` are written as its ``snapshot``, every non-empty
    bundle after the step, and a structure event's also as its ``transfers``.
    ``held`` is that running snapshot: a writer passes one empty dict for a
    whole trace, and each call applies the event's moves to it.  Its None
    entry holds each good's holder, each holding agent's goods and bundle
    text, ``"agent": [goods]``, and those texts sorted, which is by agent
    string, since a '"' sorts before every digit.
    """
    return _TEMPLATES[ev.__class__](ev, held)


def event_from_json(obj: dict, i: int, graph: "MultiGraph", held: dict) -> TraceEvent:
    """Event ``i`` of a trace on ``graph``, from its line.  ``held`` maps each
    good of the snapshot before the event to its agent: a reader passes one
    dict for a whole trace, and it becomes the snapshot on a step event's
    line.  That event's ``moves`` are the goods whose holder differs between
    the two, in the line's order, then the goods the line leaves out, to
    None.  A structure line's ``transfers``, as a set, must be its moves of
    goods held before it to an agent.  ``read_json`` rejects a snapshot that
    names one good in two bundles."""
    row = read_json(_LINE, obj, f"trace event {i}", {
        Agent: graph.vertex_count, Good: graph.edge_count, Count: None, Branch: BRANCHES})
    fields = dict(zip(_LINE.kinds[row[0]].fields, row))
    cls = EVENT_KINDS[fields.pop("type")]
    if "snapshot" in fields:
        holder = {g: u for u, b in fields.pop("snapshot").items() for g in b}
        moves = {g: u for g, u in holder.items() if held.get(g) != u}
        moves.update((g, None) for g in held if g not in holder)
        if "transfers" in fields:
            listed = set(fields.pop("transfers"))
            made = {(g, held[g], u) for g, u in holder.items() if held.get(g, u) != u}
            if listed != made:
                raise InputError(f"trace event {i} gives transfers that its snapshot does not"
                                 f" make, first at good {min(listed ^ made)[0]}")
        held.clear()
        held.update(holder)
        fields["moves"] = moves
    return cls(**fields)
