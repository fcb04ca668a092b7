"""Spans and counts for the traced run, recorded from outside the library.

``Tracer.install`` replaces each public function of every layer module with a
timing wrapper, in every ``graphefx`` namespace that binds it: the package
imports with ``from .x import y``, so patching only the defining module would
miss calls.  Valuation queries are counted by wrapping ``value`` on the four
concrete valuation classes rather than with proxy objects, because the
dispatcher and ``cac`` choose their path with ``isinstance(val, Table)``.

Spans stay in memory until the run ends.  Counts are kept per thread and
summed at the end, so they are exact under ``solve --batch`` threads too.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import os
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from metrics import self_time

LAYERS = (
    "cli", "jsonio", "multigraph", "solvers", "partition",
    "allocation", "audit", "oracle", "valuation", "trace",
)
# Structural queries of MultiGraph.  Its O(1) accessors (endpoints,
# neighbours, ...) run once per good and are left unwrapped.
GRAPH_METHODS = (
    "bipartition", "is_multitree", "girth", "shortest_cycle",
    "validate_coloring", "find_coloring", "connected_components",
)
VALUATION_CLASSES = ("Additive", "BudgetAdditive", "Table", "UnitDemand")
QUERY_LAYERS = ("allocation", "audit", "partition", "solvers", "oracle")


@dataclass(frozen=True)
class Span:
    id: int
    name: str  # <layer>.<function>
    start_ns: int
    end_ns: int
    parent: Optional[int]
    instance: Optional[str]


def _bound(fn: Callable, args: tuple, kwargs: dict) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


# Per-call counts taken at a layer boundary: (counts, arguments, result).
def _envy_pairs(counts: Counter, a: dict, result) -> None:
    inst, alloc = a["inst"], a["alloc"]
    n = inst.graph.vertex_count
    holder = {g: w for w, bundle in alloc.bundles.items() for g in bundle}
    counts["allocation.envy_graph.pairs"] += n * (n - 1)
    for u in range(n):
        held = {holder[g] for g in inst.valuations[u].support if g in holder}
        held.discard(u)
        counts["allocation.envy_graph.local_pairs"] += len(held)


def _audit_events(counts: Counter, a: dict, result) -> None:
    counts["audit.events"] += len(a["trace"])


def _components(counts: Counter, a: dict, result) -> None:
    counts["solvers.components"] += len(result)


def _cac_goods(counts: Counter, a: dict, result) -> None:
    counts["partition.cac.goods"] += len(result.piece1) + len(result.piece2)


def _oracle_searched(counts: Counter, a: dict, result) -> None:
    counts["oracle.searched"] += result.searched
    counts["oracle.efx_count"] += result.efx_count


def _trace_bytes(counts: Counter, a: dict, result) -> None:
    counts["jsonio.trace_bytes"] += os.path.getsize(a["path"])


def _trace_event(counts: Counter, a: dict, result) -> None:
    counts["trace.events"] += 1
    snapshot = getattr(a["ev"], "snapshot", {})
    counts["trace.snapshot_goods"] += sum(len(b) for b in snapshot.values())


HOOKS = {
    "allocation.envy_graph": _envy_pairs,
    "audit.audit_trace": _audit_events,
    "multigraph.connected_components": _components,
    "partition.cac": _cac_goods,
    "oracle.brute_force_efx": _oracle_searched,
    "jsonio.save_trace": _trace_bytes,
    "trace.event_to_json": _trace_event,
}


class Tracer:
    """Records spans and counts while installed; ``uninstall`` restores everything."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.instance: Optional[str] = None  # the harness's current operation
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_top: Optional[int] = None  # innermost open span of the main thread
        self._thread_counts: list[Counter] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- per-thread state -------------------------------------------------
    def _thread(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []  # (span id, query counter key)
            local.counts = Counter()
            local.instance = None
            with self._lock:
                self._thread_counts.append(local.counts)
        return local

    def counts(self) -> Counter:
        total: Counter = Counter()
        for c in self._thread_counts:
            total.update(c)
        return total

    # -- wrappers ---------------------------------------------------------
    def _span_wrapper(self, name: str, fn: Callable) -> Callable:
        tracer = self
        layer = name.split(".", 1)[0]
        query_key = "valuation.queries." + layer
        hook = HOOKS.get(name)
        sets_instance = name == "jsonio.load_instance"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = tracer._thread()
            stack = local.stack
            on_main = threading.current_thread() is tracer._main
            if sets_instance and not on_main:
                # worker threads of solve --batch: one instance file each
                path = _bound(fn, args, kwargs)["path"]
                local.instance = Path(path).name.split(".instance.json")[0]
            # A worker thread's outermost span hangs under the main thread's
            # innermost open span: the one that started the pool.
            parent = stack[-1][0] if stack else tracer._main_top
            sid = next(tracer._ids)
            instance = tracer.instance if on_main else local.instance
            stack.append((sid, query_key))
            if on_main:
                tracer._main_top = sid
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                if on_main:
                    tracer._main_top = stack[-1][0] if stack else None
                tracer.spans.append(
                    Span(sid, name, start, end, parent, instance)
                )
            if hook is not None:
                hook(local.counts, _bound(fn, args, kwargs), result)
            return result

        return traced

    def _value_wrapper(self, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def value(val, bundle):
            local = tracer._thread()
            stack = local.stack
            local.counts[stack[-1][1] if stack else "valuation.queries.none"] += 1
            return fn(val, bundle)

        return value

    # -- installation -----------------------------------------------------
    def _patch(self, owner: object, attr: str, new: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "graphefx" or n.startswith("graphefx.")]
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"graphefx.{layer}"]
            for fname, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not fname.startswith("_")):
                    wrappers[obj] = self._span_wrapper(f"{layer}.{fname}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])
        graph_cls = sys.modules["graphefx.multigraph"].MultiGraph
        for meth in GRAPH_METHODS:
            self._patch(graph_cls, meth,
                        self._span_wrapper(f"multigraph.{meth}", vars(graph_cls)[meth]))
        valuation = sys.modules["graphefx.valuation"]
        for cls_name in VALUATION_CLASSES:
            cls = getattr(valuation, cls_name)
            self._patch(cls, "value", self._value_wrapper(vars(cls)["value"]))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def self_times_ms(spans: list[Span]) -> dict[str, float]:
    """Total self time per span name, in milliseconds."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start_ns, s.end_ns))
    totals: dict[str, float] = defaultdict(float)
    for s in spans:
        totals[s.name] += self_time(s.start_ns, s.end_ns, children.get(s.id, ())) / 1e6
    return totals


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer) -> tuple[dict[str, float], set[str]]:
    """Per-layer metrics of a traced run, and the layers that recorded work.

    A metric of a layer the workload never reaches reads 0.
    """
    ms = self_times_ms(tracer.spans)
    calls = Counter(s.name for s in tracer.spans)
    c = tracer.counts()
    values = {
        "allocation.envy_graph.calls": calls["allocation.envy_graph"],
        "allocation.envy_graph.ms": ms["allocation.envy_graph"],
        "allocation.envy_graph.pairs": c["allocation.envy_graph.pairs"],
        "allocation.envy_graph.local_ratio": _ratio(
            c["allocation.envy_graph.local_pairs"], c["allocation.envy_graph.pairs"]),
        "allocation.is_efx.calls": calls["allocation.is_efx"],
        "allocation.is_efx.ms": ms["allocation.is_efx"],
        "allocation.find_envy_cycle.ms": ms["allocation.find_envy_cycle"],
        "allocation.find_source_with_path.ms": ms["allocation.find_source_with_path"],
        "allocation.resolve_cycle.calls": calls["allocation.resolve_cycle"],
        "audit.audit_trace.ms": ms["audit.audit_trace"],
        "audit.events": c["audit.events"],
        "multigraph.shortest_cycle.calls": calls["multigraph.shortest_cycle"],
        "multigraph.shortest_cycle.ms": ms["multigraph.shortest_cycle"],
        "multigraph.bipartition.ms": ms["multigraph.bipartition"],
        "multigraph.find_coloring.calls": calls["multigraph.find_coloring"],
        "multigraph.find_coloring.ms": ms["multigraph.find_coloring"],
        "multigraph.connected_components.ms": ms["multigraph.connected_components"],
        "solvers.solve.ms": ms["solvers.solve"],
        "solvers.tree_efx.ms": ms["solvers.tree_efx"],
        "solvers.bipartite_efx.ms": ms["solvers.bipartite_efx"],
        "solvers.chromatic_efx.ms": ms["solvers.chromatic_efx"],
        "solvers.components": c["solvers.components"],
        "partition.cac.calls": calls["partition.cac"],
        "partition.cac.ms": ms["partition.cac"],
        "partition.cac.goods": c["partition.cac.goods"],
        "oracle.brute_force_efx.ms": ms["oracle.brute_force_efx"],
        "oracle.searched": c["oracle.searched"],
        "oracle.efx_ratio": _ratio(c["oracle.efx_count"], c["oracle.searched"]),
        "valuation.queries": sum(v for k, v in c.items() if k.startswith("valuation.queries.")),
        "jsonio.load_instance.ms": ms["jsonio.load_instance"],
        "jsonio.save_allocation.ms": ms["jsonio.save_allocation"],
        "jsonio.save_trace.ms": ms["jsonio.save_trace"],
        "jsonio.trace_bytes": c["jsonio.trace_bytes"],
        "trace.events": c["trace.events"],
        "trace.snapshot_goods": c["trace.snapshot_goods"],
        "cli.main.ms": ms["cli.main"],
    }
    for layer in QUERY_LAYERS:
        values[f"valuation.queries.{layer}"] = c[f"valuation.queries.{layer}"]
    # Each layer's busy time: the self time of all its spans.
    for layer in LAYERS:
        if layer != "valuation":
            values[f"{layer}.ms"] = sum(v for k, v in ms.items() if k.startswith(layer + "."))
    seen = {s.name.split(".", 1)[0] for s in tracer.spans}
    if any(c[f"valuation.queries.{layer}"] for layer in QUERY_LAYERS):
        seen.add("valuation")
    return values, seen
