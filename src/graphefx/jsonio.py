"""JSON encodings: instance documents, allocation files, ``--coloring`` files
and JSON-lines traces.  Every file the package reads is read here.

Files speak in agent names; the core library speaks in integer indices with a
stable name -> index mapping given by declaration order.
"""

from __future__ import annotations

import json
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import eq, itemgetter
from pathlib import Path
from typing import Literal, Union

from .allocation import Allocation
from .errors import InputError
from .multigraph import Coloring, MultiGraph
from .solvers import Instance
from .trace import (Good, Name, Natural, Record, TraceEvent, event_from_json, event_line,
                    read_json, twice)
from .valuation import KINDS, Table, Valuation

FORMAT_VERSION = "1"

# The shapes of the documents, as ``trace.read_json`` reads them.
_ENTRY = Record("entry {key} of the {place}", {"goods": frozenset[Good], "value": Natural})
_VALUE_SHAPES = {"values": dict[Good, Natural], "cap": Natural, "entries": list[_ENTRY]}
# Each valuation type's object: its tag and the fields of its class.
_VALUATION = Record("valuation of agent {key!r}", {
    kind: {f: _VALUE_SHAPES[f] for f in cls.fields} for kind, cls in KINDS.items()}, tagged=True)
_EDGE = Record("edge {id}", {"id": int, "endpoints": tuple[Name, Name]})
# An instance is read twice: its agent names, then the parts that name agents.
_AGENTS = Record(None, {"version": Literal[FORMAT_VERSION], "agents": list[str],
                        "edges": object, "valuations": object}, {"version": FORMAT_VERSION})
_NAMED = Record(None, {"version": object, "agents": object, "edges": list[_EDGE],
                       "valuations": dict[Name, _VALUATION]}, {"version": FORMAT_VERSION})
_ALLOCATION = Record(None, {"version": Literal[FORMAT_VERSION],
                            "bundles": dict[Name, frozenset[Good]]}, {"version": FORMAT_VERSION})
# A --coloring file is read twice: its t, then the colors that t bounds.
_COLORS = Record(None, {"colors": object, "t": Natural})
_COLORING = Record(None, {"colors": dict[Name, Natural], "t": object})


def _valuation_to_json(val: Valuation) -> dict:
    if isinstance(val, Table):
        entries = sorted(((sorted(s), v) for s, v in val.entries.items()), key=lambda e: (len(e[0]), e[0]))
        return {"type": "table", "entries": [{"goods": s, "value": v} for s, v in entries]}
    if getattr(val, "kind", None) not in KINDS:
        raise InputError(f"cannot serialize valuation {val!r}")
    values = {str(g): v for g, v in sorted(val.values.items())}
    return {"type": val.kind, **vars(val), "values": values}


def _valuation_from_json(row: tuple, agent: str) -> Valuation:
    """The valuation of ``agent`` that ``read_json`` read as ``_VALUATION``."""
    tag, *fields = row
    if tag != Table.kind:
        return KINDS[tag](*fields)
    entries = dict(fields[0])
    if len(entries) != len(fields[0]):
        repeated = sorted(twice(map(itemgetter(0), fields[0])))
        raise InputError(f"valuation of agent {agent!r} lists set {json.dumps(repeated)} twice")
    try:
        return Table(entries=entries)
    except InputError as exc:
        raise InputError(f"valuation of agent {agent!r}: {exc}") from None


def instance_to_json(inst: Instance, names: list[str]) -> dict:
    return {
        "version": FORMAT_VERSION,
        "agents": list(names),
        "edges": [
            {"id": eid, "endpoints": [names[a], names[b]]}
            for eid, (a, b) in enumerate(inst.graph.edges)
        ],
        "valuations": {
            names[u]: _valuation_to_json(inst.valuations[u])
            for u in range(inst.graph.vertex_count)
        },
    }


def _index(names: list[str]) -> dict[str, int]:
    return {name: i for i, name in enumerate(names)}


def instance_from_json(obj: dict) -> tuple[Instance, list[str]]:
    names = read_json(_AGENTS, obj, "instance document")[1]
    if len(set(names)) != len(names):
        raise InputError("agent names must be unique")
    index = _index(names)
    _, _, edges, val_objs = read_json(_NAMED, obj, "instance document",
                                      {Name: index, Natural: None})
    edges = sorted(edges)
    if list(map(itemgetter(0), edges)) != list(range(len(edges))):
        raise InputError("edge ids must be dense 0..m-1")
    if len(val_objs) != len(names):
        missing = next(name for name in names if name not in val_objs)
        raise InputError(f"missing valuation for agent {missing!r}")
    vals = {index[name]: _valuation_from_json(val_objs[name], name) for name in names}
    ends = list(map(index.__getitem__, chain.from_iterable(map(itemgetter(1), edges))))
    firsts, seconds = ends[::2], ends[1::2]
    if any(map(eq, firsts, seconds)):
        eid, (name, _) = next(e for e in edges if e[1][0] == e[1][1])
        raise InputError(f"edge {eid} names agent {json.dumps(name)} twice in endpoints")
    graph = MultiGraph(len(names), list(zip(firsts, seconds)))
    for u, val in vals.items():
        stray = val.support - graph.incident_edges(u)
        if stray:
            raise InputError(f"valuation of agent {names[u]!r} names good {min(stray)},"
                             " not an incident good")
    return Instance(graph=graph, valuations=vals), names


def allocation_to_json(alloc: Allocation, names: list[str]) -> dict:
    return {
        "version": FORMAT_VERSION,
        "bundles": {names[u]: sorted(b) for u, b in sorted(alloc.bundles.items())},
    }


def allocation_from_json(obj: dict, names: list[str], edge_count: int) -> Allocation:
    index = _index(names)
    bundles = read_json(_ALLOCATION, obj, "allocation document",
                        {Name: index, Good: edge_count})[1]
    return Allocation(bundles=dict(zip(map(index.__getitem__, bundles), bundles.values())))


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """The JSON object of ``pairs``; raises ValueError when a key repeats, which
    would otherwise silently keep its last value."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        raise ValueError(f"key {json.dumps(twice(map(itemgetter(0), pairs)))} appears twice"
                         " in one object")
    return obj


def load_json(path: Union[str, Path]) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except (OSError, ValueError, RecursionError) as exc:  # a JSON or UTF-8 error is a ValueError
        raise InputError(f"cannot read {path}: {exc}") from exc


def _write(path: Union[str, Path], chunks) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def dump_json(obj: dict, path: Union[str, Path]) -> None:
    _write(path, [json.dumps(obj, indent=2, sort_keys=True) + "\n"])


def load_instance(path: Union[str, Path]) -> tuple[Instance, list[str]]:
    return instance_from_json(load_json(path))


def save_instance(inst: Instance, names: list[str], path: Union[str, Path]) -> None:
    dump_json(instance_to_json(inst, names), path)


def load_allocation(path: Union[str, Path], names: list[str], edge_count: int) -> Allocation:
    return allocation_from_json(load_json(path), names, edge_count)


def load_coloring(path: Union[str, Path], names: list[str]) -> Coloring:
    """A ``--coloring`` file: declared agent name -> color in 0..t-1 for every
    agent, and t."""
    obj, index, place = load_json(path), _index(names), f"coloring file {path}"
    t = read_json(_COLORS, obj, place, {Natural: None})[1]
    colors = read_json(_COLORING, obj, place, {Name: index, Natural: t})[0]
    if len(colors) != len(names):
        missing = next(name for name in names if name not in colors)
        raise InputError(f"{place} has no key {json.dumps(missing)} in colors")
    return Coloring(colors=dict(zip(map(index.__getitem__, colors), colors.values())), t=t)


def save_allocation(alloc: Allocation, names: list[str], path: Union[str, Path]) -> None:
    """Write the bytes ``dump_json(allocation_to_json(alloc, names), path)``
    writes, by C-level joins: ``json.dumps`` serves ``indent`` only from its
    pure-Python encoder.  Rows are sorted by the raw agent name, as
    ``sort_keys`` sorts them, and each name is quoted by the C function that
    ``json.dumps`` quotes with.  A bundle is never empty."""
    rows = sorted(zip(map(names.__getitem__, alloc.bundles), alloc.bundles.values()),
                  key=itemgetter(0))
    bundles = ",\n".join(["    " + encode_basestring_ascii(name) + ": [\n      "
                          + ",\n      ".join(map(str, sorted(b))) + "\n    ]" for name, b in rows])
    _write(path, ['{\n  "bundles": ' + ("{\n" + bundles + "\n  }" if rows else "{}")
                  + ',\n  "version": ' + encode_basestring_ascii(FORMAT_VERSION) + "\n}\n"])


def save_trace(trace: list[TraceEvent], path: Union[str, Path]) -> None:
    held: dict = {}  # the running snapshot, as ``event_line`` keeps it
    _write(path, (event_line(ev, held) + "\n" for ev in trace))


def load_trace(path: Union[str, Path], graph: MultiGraph) -> list[TraceEvent]:
    events = []
    held: dict = {}  # good -> its agent in the running snapshot
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    obj = json.loads(line, object_pairs_hook=_unique_keys)
                    events.append(event_from_json(obj, len(events), graph, held))
    except (OSError, ValueError, RecursionError) as exc:
        raise InputError(f"cannot read trace {path}: {exc}") from exc
    return events
