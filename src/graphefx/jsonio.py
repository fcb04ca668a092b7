"""JSON encodings: instance documents, allocation files and JSON-lines traces.

Files speak in agent names; the core library speaks in integer indices with a
stable name -> index mapping given by declaration order.
"""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path
from typing import Union

from .allocation import Allocation
from .errors import InputError
from .multigraph import MultiGraph
from .solvers import Instance
from .trace import TraceEvent, event_from_json, event_to_json
from .valuation import KINDS, Table, Valuation

FORMAT_VERSION = "1"


def _valuation_to_json(val: Valuation) -> dict:
    if isinstance(val, Table):
        entries = sorted(((sorted(s), v) for s, v in val.entries.items()), key=lambda e: (len(e[0]), e[0]))
        return {"type": "table", "entries": [{"goods": s, "value": v} for s, v in entries]}
    if getattr(val, "kind", None) not in KINDS:
        raise InputError(f"cannot serialize valuation {val!r}")
    values = {str(g): v for g, v in sorted(val.values.items())}
    return {"type": val.kind, **vars(val), "values": values}


def _valuation_from_json(obj: dict) -> Valuation:
    try:
        cls = KINDS.get(obj["type"])
        if cls is Table:
            return Table(entries={frozenset(e["goods"]): e["value"] for e in obj["entries"]})
        if cls is not None:
            values = {int(g): v for g, v in obj["values"].items()}
            rest = {f.name: obj[f.name] for f in fields(cls) if f.name != "values"}
            return cls(values=values, **rest)
    except (KeyError, TypeError, AttributeError) as exc:
        raise InputError(f"malformed valuation object: {exc}") from exc
    raise InputError(f"unknown valuation type {obj.get('type')!r}")


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
        names = list(obj["agents"])
        if len(set(names)) != len(names):
            raise InputError("agent names must be unique")
        index = {name: i for i, name in enumerate(names)}
        edge_objs = sorted(obj["edges"], key=lambda e: e["id"])
        if [e["id"] for e in edge_objs] != list(range(len(edge_objs))):
            raise InputError("edge ids must be dense 0..m-1")
        pairs = []
        for e in edge_objs:
            a, b = e["endpoints"]
            if a not in index or b not in index:
                raise InputError(f"edge {e['id']} references undeclared agent")
            pairs.append((index[a], index[b]))
        graph = MultiGraph(len(names), pairs)
        vals = {}
        for name in names:
            if name not in obj["valuations"]:
                raise InputError(f"missing valuation for agent {name!r}")
            vals[index[name]] = _valuation_from_json(obj["valuations"][name])
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
        bundles = {}
        for name, goods in obj["bundles"].items():
            if name not in index:
                raise InputError(f"allocation references unknown agent {name!r}")
            bundles[index[name]] = frozenset(int(g) for g in goods)
        return Allocation(bundles=bundles)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise InputError(f"malformed allocation document: {exc}") from exc


def load_json(path: Union[str, Path]) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def dump_json(obj: dict, path: Union[str, Path]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_instance(path: Union[str, Path]) -> tuple[Instance, list[str]]:
    return instance_from_json(load_json(path))


def save_instance(inst: Instance, names: list[str], path: Union[str, Path]) -> None:
    dump_json(instance_to_json(inst, names), path)


def load_allocation(path: Union[str, Path], names: list[str]) -> Allocation:
    return allocation_from_json(load_json(path), names)


def save_allocation(alloc: Allocation, names: list[str], path: Union[str, Path]) -> None:
    dump_json(allocation_to_json(alloc, names), path)


def save_trace(trace: list[TraceEvent], path: Union[str, Path]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for ev in trace:
            fh.write(json.dumps(event_to_json(ev), sort_keys=True) + "\n")


def load_trace(path: Union[str, Path]) -> list[TraceEvent]:
    events = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    events.append(event_from_json(json.loads(line)))
    except (OSError, ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        raise InputError(f"cannot read trace {path}: {exc}") from exc
    return events
