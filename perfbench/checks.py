"""Output checks written against the file formats alone.

The EFX predicate here reads the instance and allocation documents and
evaluates the four valuation types itself; it shares no code with
``graphefx.is_efx``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Optional


def digest(path: Path) -> str:
    """The first 64 bits of the file's sha256, in hex."""
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def _valuer(spec: dict):
    kind = spec["type"]
    if kind == "table":
        table = {frozenset(e["goods"]): e["value"] for e in spec["entries"]}
        support = frozenset().union(*table)
        return lambda bundle: table[frozenset(bundle) & support]
    values = {int(g): v for g, v in spec["values"].items()}
    if kind == "additive":
        return lambda bundle: sum(values.get(g, 0) for g in bundle)
    if kind == "unit_demand":
        return lambda bundle: max((values.get(g, 0) for g in bundle), default=0)
    if kind == "budget_additive":
        cap = spec["cap"]
        return lambda bundle: min(cap, sum(values.get(g, 0) for g in bundle))
    raise ValueError(f"unknown valuation type {kind!r}")


def efx_problem(instance_doc: dict, alloc_doc: dict) -> Optional[str]:
    """None when the allocation is complete and EFX, else what is wrong."""
    agents = instance_doc["agents"]
    goods = len(instance_doc["edges"])
    bundles = {a: frozenset(alloc_doc["bundles"].get(a, ())) for a in agents}
    unknown = set(alloc_doc["bundles"]) - set(agents)
    if unknown:
        return f"allocation names unknown agents {sorted(unknown)}"
    held = [g for b in bundles.values() for g in b]
    if sorted(held) != list(range(goods)):
        return "allocation is not a partition of all goods"
    for u in agents:
        value = _valuer(instance_doc["valuations"][u])
        own = value(bundles[u])
        for w in agents:
            other = bundles[w]
            if w == u or own >= value(other):
                continue
            for x in sorted(other):
                if own < value(other - {x}):
                    return f"{u} envies {w} even without good {x}"
    return None


def load(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))
