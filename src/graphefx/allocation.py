"""Allocations, the envy graph, the EFX verifier and envy-cycle machinery."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from .errors import InputError, PreconditionError

if TYPE_CHECKING:
    from .solvers import Instance


@dataclass(frozen=True)
class Allocation:
    """A (possibly partial) partition of edges among agents.

    Agents absent from ``bundles`` hold the empty bundle.
    """

    bundles: dict[int, frozenset[int]]

    def __post_init__(self):
        clean = {u: frozenset(b) for u, b in self.bundles.items() if b}
        seen: set[int] = set()
        for u, b in clean.items():
            if seen & b:
                raise InputError(f"bundles are not disjoint at agent {u}")
            seen |= b
        object.__setattr__(self, "bundles", clean)

    def bundle(self, u: int) -> frozenset[int]:
        return self.bundles.get(u, frozenset())

    @property
    def assigned_edges(self) -> frozenset[int]:
        out: frozenset[int] = frozenset()
        for b in self.bundles.values():
            out |= b
        return out

    def is_complete(self, inst: "Instance") -> bool:
        return self.assigned_edges == frozenset(range(inst.graph.edge_count))

    @staticmethod
    def empty() -> "Allocation":
        return Allocation(bundles={})


@dataclass(frozen=True)
class EnvyGraph:
    """Directed envy relation: (u, w) present iff u strictly prefers w's bundle."""

    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    _out: dict[int, list[int]] = field(init=False, repr=False, compare=False)
    _in: dict[int, list[int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        out: dict[int, list[int]] = {}
        into: dict[int, list[int]] = {}
        for a, b in self.edges:
            out.setdefault(a, []).append(b)
            into.setdefault(b, []).append(a)
        object.__setattr__(self, "_out", out)
        object.__setattr__(self, "_in", into)

    def out_neighbours(self, u: int) -> list[int]:
        return list(self._out.get(u, ()))

    def in_neighbours(self, w: int) -> list[int]:
        return list(self._in.get(w, ()))


@dataclass(frozen=True)
class EfxVerdict:
    ok: bool
    witness: Optional[tuple[int, int, int]]  # (envier, envied, good whose removal fails)


def validate_allocation(inst: "Instance", alloc: Allocation) -> None:
    m = inst.graph.edge_count
    n = inst.graph.vertex_count
    for u, b in alloc.bundles.items():
        if not (0 <= u < n):
            raise InputError(f"allocation references unknown agent {u}")
        for g in b:
            if not (0 <= g < m):
                raise InputError(f"allocation references unknown edge {g}")


def envy_graph(inst: "Instance", alloc: Allocation) -> EnvyGraph:
    """Exact envy relation, edges in lexicographic order.

    Agent u is compared only with the other holders of goods incident to u.
    Every valuation's support lies within the agent's incident edges, so any
    other bundle is worth v_u(empty set) <= v_u(own bundle) by monotonicity:
    u can neither envy it nor violate EFX against it.
    """
    validate_allocation(inst, alloc)
    holder = {g: w for w, b in alloc.bundles.items() for g in b}
    edges = []
    for u in range(inst.graph.vertex_count):
        rivals = {holder[g] for g in inst.graph.incident_edges(u) if g in holder} - {u}
        if not rivals:
            continue
        val = inst.valuations[u]
        own = val.value(alloc.bundle(u))
        edges.extend((u, w) for w in sorted(rivals) if own < val.value(alloc.bundle(w)))
    return EnvyGraph(vertex_count=inst.graph.vertex_count, edges=tuple(edges))


def is_efx(inst: "Instance", alloc: Allocation, envy: Optional[EnvyGraph] = None) -> EfxVerdict:
    """Exact EFX check; first witness in (envier, envied, good) order.

    Only envied bundles can fail, so the check walks the edges of ``envy``,
    the allocation's envy graph, which is built here when not given.
    """
    if envy is None:
        envy = envy_graph(inst, alloc)
    for u in range(envy.vertex_count):
        envied = envy.out_neighbours(u)
        if not envied:
            continue
        val = inst.valuations[u]
        own = val.value(alloc.bundle(u))
        for w in envied:
            other = alloc.bundle(w)
            for x in sorted(other):
                if own < val.value(other - {x}):
                    return EfxVerdict(ok=False, witness=(u, w, x))
    return EfxVerdict(ok=True, witness=None)


def resolve_cycle(alloc: Allocation, cycle: list[int]) -> Allocation:
    """Shift bundles one step along ``cycle``: each agent takes its successor's."""
    if len(cycle) < 2:
        raise InputError("cycle must contain at least 2 agents")
    if len(set(cycle)) != len(cycle):
        raise InputError("cycle must not repeat agents")
    bundles = dict(alloc.bundles)
    shifted = {}
    for i, u in enumerate(cycle):
        succ = cycle[(i + 1) % len(cycle)]
        shifted[u] = alloc.bundle(succ)
    for u, b in shifted.items():
        if b:
            bundles[u] = b
        else:
            bundles.pop(u, None)
    return Allocation(bundles=bundles)


def find_envy_cycle(eg: EnvyGraph) -> Optional[list[int]]:
    """One directed cycle in the envy graph, or None.  Deterministic DFS."""
    color = {}  # 0 visiting, 1 done
    stack_path: list[int] = []

    def dfs(v: int) -> Optional[list[int]]:
        color[v] = 0
        stack_path.append(v)
        for w in sorted(eg.out_neighbours(v)):
            if w not in color:
                found = dfs(w)
                if found is not None:
                    return found
            elif color[w] == 0:
                return stack_path[stack_path.index(w):]
        stack_path.pop()
        color[v] = 1
        return None

    for v in range(eg.vertex_count):
        if v not in color:
            found = dfs(v)
            if found is not None:
                return list(found)
    return None


def find_source_with_path(eg: EnvyGraph, target: int) -> Optional[tuple[int, list[int]]]:
    """A source of the envy graph with a directed path to ``target``.

    Returns None when the target is itself a source.  Deterministic: BFS
    backward from the target, expanding lowest-index predecessors first.
    Raises if the target's ancestry contains a cycle and no source reaches it.
    """
    preds = {v: sorted(eg.in_neighbours(v)) for v in range(eg.vertex_count)}
    if not preds[target]:
        return None
    succ_on_path = {target: None}
    queue = deque([target])
    while queue:
        v = queue.popleft()
        if not preds[v] and v != target:
            path = [v]
            while succ_on_path[path[-1]] is not None:
                path.append(succ_on_path[path[-1]])
            return v, path
        for p in preds[v]:
            if p not in succ_on_path:
                succ_on_path[p] = v
                queue.append(p)
    raise PreconditionError(
        f"no source reaches agent {target}: the envy graph ancestry contains a cycle"
    )
