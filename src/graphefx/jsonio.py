"""JSON encodings: instance documents, allocation files and JSON-lines traces.

Files speak in agent names; the core library speaks in integer indices with a
stable name -> index mapping given by declaration order.
"""

from __future__ import annotations

import json
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import Annotated, Literal, Union

from .allocation import Allocation
from .audit import check_trace
from .errors import InputError
from .multigraph import MultiGraph
from .solvers import Instance
from .trace import Good, Name, Record, TraceEvent, event_from_json, event_line, read_json
from .valuation import KINDS, Table, Valuation

FORMAT_VERSION = "1"

# The shapes of the documents, as ``trace.read_json`` reads them.  A sentence
# beside a shape words its error where tests name the older wording.
_ENTRY = Record("entry {key} of the {place}", {
    "goods": Annotated[list[Good], "{place} gives set {x}, not a JSON list of goods"],
    "value": int})
_VALUE_SHAPES = {"values": dict[Good, int], "cap": int, "entries": list[_ENTRY]}
# Each valuation type's object: its tag and the fields of its class.
_VALUATION = Record("valuation of agent {key!r}", {
    kind: {f: _VALUE_SHAPES[f] for f in cls.fields} for kind, cls in KINDS.items()},
    noun="valuation")
_EDGE = Record("edge {id}", {
    "id": Annotated[int, "edge id {x} is not an integer"],
    "endpoints": Annotated[tuple[str, str],
                           "{place} endpoints must be a JSON list of two agent names, got {x}"]})
# Valuations are keyed by agent names, so they are read once the agents are known.
_INSTANCE = Record(None, {
    "version": Annotated[Literal[FORMAT_VERSION], f"unknown instance format version {{x}},"
                                                  f" expected {json.dumps(FORMAT_VERSION)}"],
    "agents": Annotated[list[Annotated[str, "agent name {x} is not a string"]],
                        "agents must be a JSON list of strings, got {x}"],
    "edges": Annotated[list[_EDGE], "edges must be a JSON list of edge objects, got {x}"],
    "valuations": object,
}, {"version": FORMAT_VERSION})
_VALUATIONS = Annotated[dict[Annotated[Name, "valuation for undeclared agent {x}"], _VALUATION],
                        "valuations must be a JSON object keyed by agent names, got {x}"]
_ALLOCATION = Record(None, {
    "version": Annotated[Literal[FORMAT_VERSION], f"unknown allocation format version {{x}},"
                                                  f" expected {json.dumps(FORMAT_VERSION)}"],
    "bundles": dict[Name, Annotated[
        list[Good], "bundle of agent {key!r} must be a JSON list of good ids, got {x}"]],
}, {"version": FORMAT_VERSION})


def _valuation_to_json(val: Valuation) -> dict:
    if isinstance(val, Table):
        entries = sorted(((sorted(s), v) for s, v in val.entries.items()), key=lambda e: (len(e[0]), e[0]))
        return {"type": "table", "entries": [{"goods": s, "value": v} for s, v in entries]}
    if getattr(val, "kind", None) not in KINDS:
        raise InputError(f"cannot serialize valuation {val!r}")
    values = {str(g): v for g, v in sorted(val.values.items())}
    return {"type": val.kind, **vars(val), "values": values}


def _twice(goods: list) -> int:
    """The first good that a list of good ids names a second time."""
    return next(g for i, g in enumerate(goods) if g in goods[:i])


def _valuation_from_json(row: tuple, agent: str) -> Valuation:
    """The valuation of ``agent`` that ``read_json`` read as ``_VALUATION``."""
    tag, *fields = row
    if tag != Table.kind:
        return KINDS[tag](*fields)
    entries = {}
    for goods, value in fields[0]:
        key = frozenset(goods)
        if len(key) != len(goods):
            raise InputError(f"valuation of agent {agent!r} names good {_twice(goods)}"
                             f" twice in set {json.dumps(goods)}")
        if key in entries:
            raise InputError(f"valuation of agent {agent!r} lists set"
                             f" {json.dumps(sorted(key))} twice")
        entries[key] = value
    return Table(entries=entries)


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


def instance_from_json(obj: dict) -> tuple[Instance, list[str]]:
    try:
        _, names, edges, val_objs = read_json(_INSTANCE, obj, "instance document")
        if len(set(names)) != len(names):
            raise InputError("agent names must be unique")
        index = {name: i for i, name in enumerate(names)}
        edges = sorted(edges)
        if list(map(itemgetter(0), edges)) != list(range(len(edges))):
            raise InputError("edge ids must be dense 0..m-1")
        val_objs = read_json(_VALUATIONS, val_objs, "instance document", {Name: index})
        missing = next((name for name in names if name not in val_objs), None)
        if missing is not None:
            raise InputError(f"missing valuation for agent {missing!r}")
        vals = {index[name]: _valuation_from_json(val_objs[name], name) for name in names}
        try:
            ends = list(map(index.__getitem__, chain.from_iterable(map(itemgetter(1), edges))))
        except KeyError:
            bad = next(eid for eid, pair in edges if not index.keys() >= set(pair))
            raise InputError(f"edge {bad} references undeclared agent") from None
        graph = MultiGraph(len(names), list(zip(ends[::2], ends[1::2])))
        return Instance(graph=graph, valuations=vals), names
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed instance document: {exc}") from exc


def allocation_to_json(alloc: Allocation, names: list[str]) -> dict:
    return {
        "version": FORMAT_VERSION,
        "bundles": {names[u]: sorted(b) for u, b in sorted(alloc.bundles.items())},
    }


def allocation_from_json(obj: dict, names: list[str]) -> Allocation:
    index = {name: i for i, name in enumerate(names)}
    try:
        _, bundle_objs = read_json(_ALLOCATION, obj, "allocation document", {Name: index})
        bundles = {}
        for name, goods in bundle_objs.items():
            bundles[index[name]] = frozenset(goods)
            if len(bundles[index[name]]) != len(goods):
                raise InputError(f"bundle of agent {name!r} names good {_twice(goods)} twice")
        return Allocation(bundles=bundles)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise InputError(f"malformed allocation document: {exc}") from exc


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """The JSON object of ``pairs``; raises ValueError when a key repeats, which
    would otherwise silently keep its last value."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        raise ValueError(f"key {json.dumps(_twice([k for k, _ in pairs]))} appears twice"
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


def load_allocation(path: Union[str, Path], names: list[str]) -> Allocation:
    return allocation_from_json(load_json(path), names)


def save_allocation(alloc: Allocation, names: list[str], path: Union[str, Path]) -> None:
    dump_json(allocation_to_json(alloc, names), path)


def save_trace(trace: list[TraceEvent], path: Union[str, Path]) -> None:
    held: dict = {}  # agent -> its bundle's text in the running snapshot
    _write(path, (event_line(ev, held) + "\n" for ev in trace))


def load_trace(path: Union[str, Path], graph: MultiGraph) -> list[TraceEvent]:
    events = []
    held: dict = {}  # agent -> its bundle in the running snapshot
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    obj = json.loads(line, object_pairs_hook=_unique_keys)
                    events.append(event_from_json(obj, len(events), graph, held))
    except (OSError, ValueError, KeyError, IndexError, TypeError, AttributeError,
            RecursionError) as exc:
        raise InputError(f"cannot read trace {path}: {exc}") from exc
    check_trace(events, graph)
    return events
