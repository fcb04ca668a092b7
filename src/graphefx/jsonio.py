"""JSON encodings: instance documents, allocation files and JSON-lines traces.

Files speak in agent names; the core library speaks in integer indices with a
stable name -> index mapping given by declaration order.
"""

from __future__ import annotations

import json
from dataclasses import fields
from itertools import chain
from pathlib import Path
from typing import Union

from .allocation import Allocation
from .audit import check_trace
from .errors import InputError
from .multigraph import MultiGraph
from .solvers import Instance
from .trace import TraceEvent, _key, _stray_key, event_from_json, event_line
from .valuation import KINDS, Table, Valuation

FORMAT_VERSION = "1"
# The keys of each valuation type's object: its tag and its fields.
_VALUATION_KEYS = {cls: ("type", *(f.name for f in fields(cls))) for cls in KINDS.values()}


def _valuation_to_json(val: Valuation) -> dict:
    if isinstance(val, Table):
        entries = sorted(((sorted(s), v) for s, v in val.entries.items()), key=lambda e: (len(e[0]), e[0]))
        return {"type": "table", "entries": [{"goods": s, "value": v} for s, v in entries]}
    if getattr(val, "kind", None) not in KINDS:
        raise InputError(f"cannot serialize valuation {val!r}")
    values = {str(g): v for g, v in sorted(val.values.items())}
    return {"type": val.kind, **vars(val), "values": values}


def _non_ints(xs: list) -> list:
    """The items of ``xs`` that are not JSON integers (a bool is not one), after a C-level screen."""
    return [] if set(map(type, xs)) <= {int} else [x for x in xs if type(x) is not int]


def _twice(goods: list) -> int:
    """The first good that a list of good ids names a second time."""
    return next(g for i, g in enumerate(goods) if g in goods[:i])


def _valuation_from_json(obj: dict, agent: str) -> Valuation:
    try:
        cls = KINDS.get(obj["type"])
        if cls is not None and len(obj) != len(_VALUATION_KEYS[cls]):
            _stray_key(obj, _VALUATION_KEYS[cls], f"valuation of agent {agent!r}")
        if cls is Table:
            sets = [e["goods"] for e in obj["entries"]]
            shape = [goods for goods in sets if type(goods) is not list]
            if shape:
                raise InputError(f"valuation of agent {agent!r} gives set {json.dumps(shape[0])},"
                                 " not a JSON list of goods")
            bad = _non_ints(list(chain.from_iterable(sets)))
            if bad:
                raise InputError(f"valuation of agent {agent!r} names good {json.dumps(bad[0])},"
                                 " not an integer")
            entries = {}
            for j, (goods, e) in enumerate(zip(sets, obj["entries"])):
                if len(e) != 2:
                    _stray_key(e, ("goods", "value"),
                               f"entry {j} of the valuation of agent {agent!r}")
                key = frozenset(goods)
                if len(key) != len(goods):
                    raise InputError(f"valuation of agent {agent!r} names good {_twice(goods)}"
                                     f" twice in set {json.dumps(goods)}")
                if key in entries:
                    raise InputError(f"valuation of agent {agent!r} lists set"
                                     f" {json.dumps(sorted(key))} twice")
                entries[key] = e["value"]
            return Table(entries=entries)
        if cls is not None:
            try:
                values = {int(g): v for g, v in obj["values"].items()}
            except ValueError:
                values = None
            if values is None or list(map(str, values)) != list(obj["values"]):
                bad = next(k for k in obj["values"] if _key(k) == k)
                raise InputError(f"valuation of agent {agent!r} names good {json.dumps(bad)},"
                                 " not an integer's own text")
            rest = {f.name: obj[f.name] for f in fields(cls) if f.name != "values"}
            return cls(values=values, **rest)
    except (KeyError, TypeError, AttributeError) as exc:
        raise InputError(f"malformed valuation object: {exc}") from exc
    raise InputError(f"unknown valuation type {obj.get('type')!r}")


def _check_version(obj: dict, document: str) -> None:
    """A document may omit ``version``; if it has one, it must be this format's."""
    if "version" in obj and obj["version"] != FORMAT_VERSION:
        raise InputError(f"unknown {document} format version {json.dumps(obj['version'])},"
                         f" expected {json.dumps(FORMAT_VERSION)}")


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
        _check_version(obj, "instance")
        names = obj["agents"]
        if len(obj) != 3 + ("version" in obj):
            _stray_key(obj, ("version", "agents", "edges", "valuations"), "instance document")
        if type(names) is not list:
            raise InputError(f"agents must be a JSON list of strings, got {json.dumps(names)}")
        bad = [name for name in names if type(name) is not str]
        if bad:
            raise InputError(f"agent name {json.dumps(bad[0])} is not a string")
        if len(set(names)) != len(names):
            raise InputError("agent names must be unique")
        index = {name: i for i, name in enumerate(names)}
        edge_objs = obj["edges"]
        if type(edge_objs) is not list:
            raise InputError("edges must be a JSON list of edge objects,"
                             f" got {json.dumps(edge_objs)}")
        bad = _non_ints([e["id"] for e in edge_objs])
        if bad:
            raise InputError(f"edge id {json.dumps(bad[0])} is not an integer")
        edge_objs = sorted(edge_objs, key=lambda e: e["id"])
        if [e["id"] for e in edge_objs] != list(range(len(edge_objs))):
            raise InputError("edge ids must be dense 0..m-1")
        pairs = []
        for e in edge_objs:
            if len(e) != 2:
                _stray_key(e, ("id", "endpoints"), f"edge {e['id']}")
            ends = e["endpoints"]
            if type(ends) is not list or len(ends) != 2:
                raise InputError(f"edge {e['id']} endpoints must be a JSON list of two agent"
                                 f" names, got {json.dumps(ends)}")
            a, b = ends
            if a not in index or b not in index:
                raise InputError(f"edge {e['id']} references undeclared agent")
            pairs.append((index[a], index[b]))
        graph = MultiGraph(len(names), pairs)
        val_objs = obj["valuations"]
        if type(val_objs) is not dict:
            raise InputError("valuations must be a JSON object keyed by agent names,"
                             f" got {json.dumps(val_objs)}")
        stray = next((name for name in val_objs if name not in index), None)
        if stray is not None:
            raise InputError(f"valuation for undeclared agent {stray!r}")
        vals = {}
        for name in names:
            if name not in val_objs:
                raise InputError(f"missing valuation for agent {name!r}")
            vals[index[name]] = _valuation_from_json(val_objs[name], name)
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
        _check_version(obj, "allocation")
        bundle_objs = obj["bundles"]
        if len(obj) != 1 + ("version" in obj):
            _stray_key(obj, ("version", "bundles"), "allocation document")
        bundles = {}
        for name, goods in bundle_objs.items():
            if name not in index:
                raise InputError(f"allocation references unknown agent {name!r}")
            if type(goods) is not list:
                raise InputError(f"bundle of agent {name!r} must be a JSON list of good ids,"
                                 f" got {json.dumps(goods)}")
            if not all(isinstance(g, int) and not isinstance(g, bool) for g in goods):
                raise TypeError(f"good ids of agent {name!r} are not all integers: {goods!r}")
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
