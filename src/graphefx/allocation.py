"""Allocations, the envy graph, the EFX verifier and envy-cycle machinery."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, Mapping, Optional

from .errors import InputError, PreconditionError

if TYPE_CHECKING:
    from .solvers import Instance
    from .valuation import Valuation

_NOTHING: frozenset[int] = frozenset()  # the empty bundle, shared


@dataclass(frozen=True)
class Allocation:
    """A (possibly partial) partition of edges among agents.

    Agents absent from ``bundles`` hold the empty bundle.  ``bundles`` is a
    read-only view, so the disjointness checked on construction holds for
    the allocation's whole life.
    """

    bundles: Mapping[int, frozenset[int]]

    def __post_init__(self):
        # Solvers build one allocation per step, so the common case runs in
        # C-level loops; the per-agent loop only names the first overlap.
        clean = dict(zip(self.bundles.keys(), map(frozenset, self.bundles.values())))
        if not all(clean.values()):
            clean = {u: b for u, b in clean.items() if b}
        if len(frozenset().union(*clean.values())) != sum(map(len, clean.values())):
            seen: set[int] = set()
            for u, b in clean.items():
                if seen & b:
                    raise InputError(f"bundles are not disjoint at agent {u}")
                seen |= b
        object.__setattr__(self, "bundles", MappingProxyType(clean))

    def __reduce__(self):
        return Allocation, (self.bundles.copy(),)

    def bundle(self, u: int) -> frozenset[int]:
        return self.bundles.get(u, _NOTHING)

    @property
    def assigned_edges(self) -> frozenset[int]:
        return frozenset().union(*self.bundles.values())

    def is_complete(self, inst: "Instance") -> bool:
        return self.assigned_edges == frozenset(range(inst.graph.edge_count))

    @staticmethod
    def empty() -> "Allocation":
        return Allocation(bundles={})


@dataclass(frozen=True)
class EfxVerdict:
    ok: bool
    witness: Optional[tuple[int, int, int]]  # (envier, envied, good whose removal fails)


def _validate_bundles(inst: "Instance", bundles: Iterable[tuple[int, Iterable[int]]]) -> None:
    n, m = inst.graph.vertex_count, inst.graph.edge_count
    for u, bundle in bundles:
        if not (0 <= u < n):
            raise InputError(f"allocation references unknown agent {u}")
        for g in bundle:
            if not (0 <= g < m):
                raise InputError(f"allocation references unknown edge {g}")


def validate_allocation(inst: "Instance", alloc: Allocation) -> None:
    _validate_bundles(inst, alloc.bundles.items())


# The envy rule of ``EnvyGraph``, both when it is built and when it is
# updated.  Agent u is compared only with its rivals, the other holders of
# goods incident to u, and values only the part of a rival's bundle among
# those goods.  Both are exact because every valuation's support lies within
# the agent's incident edges: the rest of a bundle is worth nothing to u, and
# any other bundle is worth v_u(empty set) <= v_u(own bundle) by
# monotonicity, so u can neither envy it nor violate EFX against it.  Callers
# look up u's incident goods once.

def _rivals(holder: Mapping[int, int], u: int, incident: frozenset[int]) -> set[int]:
    return {holder[g] for g in incident if g in holder} - {u}


def _envied(alloc: Allocation, val: "Valuation", incident: frozenset[int], own: int,
            others: Iterable[int]) -> list[int]:
    """The agents in ``others``, in their order, that an agent with valuation
    ``val``, incident goods ``incident`` and own value ``own`` envies."""
    return [w for w in others if own < val.value(alloc.bundle(w) & incident)]


class EnvyGraph:
    """Directed envy relation of an allocation: (u, w) present iff u strictly
    prefers w's bundle.

    ``EnvyGraph(inst, alloc)`` decides every rival pair once.  After that,
    ``update(alloc, changed)`` moves to a new allocation in which only the
    agents in ``changed`` hold different bundles, and re-decides only the
    pairs that change can affect: every rival of a changed agent, and
    (z, y) for each changed y and each unchanged z that is an endpoint of a
    good y held before or after.  Any other unchanged z has neither goods of
    y's bundles among its incident edges nor a new bundle of its own, so its
    verdict on y stays "no envy".

    ``find_cycle`` skips the search while no envy edge has appeared since a
    search found none: a subgraph of an acyclic graph is acyclic.
    """

    def __init__(self, inst: "Instance", alloc: Allocation):
        validate_allocation(inst, alloc)
        self.inst = inst
        self.alloc = alloc
        self._holder = holder = {g: w for w, b in alloc.bundles.items() for g in b}
        self._own: dict[int, int] = {}  # agent -> value of its bundle, filled on demand
        self._out: dict[int, set[int]] = {}  # only agents with an out-edge
        self._in: dict[int, set[int]] = {}  # only agents with an in-edge
        self._acyclic = False
        for u in range(inst.graph.vertex_count):
            incident = inst.graph.incident_edges(u)
            rivals = _rivals(holder, u, incident)
            if rivals:
                val = inst.valuations[u]
                own = self._own[u] = val.value(alloc.bundle(u))
                envied = _envied(alloc, val, incident, own, rivals)
                if envied:
                    self._out[u] = set(envied)
                    for w in envied:
                        self._in.setdefault(w, set()).add(u)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Every envy edge, in lexicographic order."""
        return tuple((u, w) for u in sorted(self._out) for w in sorted(self._out[u]))

    def out_neighbours(self, u: int) -> list[int]:
        """The agents ``u`` envies, ascending."""
        return sorted(self._out.get(u, ()))

    def in_neighbours(self, w: int) -> list[int]:
        """The agents that envy ``w``, ascending."""
        return sorted(self._in.get(w, ()))

    def envious(self) -> list[int]:
        """The agents with an out-edge, ascending."""
        return sorted(self._out)

    def envies(self, u: int, w: int) -> bool:
        return w in self._out.get(u, ())

    def find_cycle(self) -> Optional[list[int]]:
        """``find_envy_cycle`` on the current envy graph."""
        if self._acyclic:
            return None
        cycle = find_envy_cycle(self)
        self._acyclic = cycle is None
        return cycle

    def update(self, alloc: Allocation, changed: Iterable[int]) -> None:
        """Move to ``alloc``, in which only the agents in ``changed`` hold new bundles."""
        inst, old = self.inst, self.alloc
        changed = set(changed)
        _validate_bundles(inst, [(y, alloc.bundle(y)) for y in changed])  # before any state changes
        for y in changed:
            for g in old.bundle(y):
                del self._holder[g]
        for y in changed:
            self._holder.update(dict.fromkeys(alloc.bundle(y), y))
            self._own.pop(y, None)
        self.alloc = alloc

        outside: dict[int, set[int]] = {}  # unchanged z -> the changed agents to re-decide
        for y in changed:
            self._redecide_rivals(y)
            for g in old.bundle(y) | alloc.bundle(y):
                for z in inst.graph.endpoints(g):
                    if z not in changed:
                        outside.setdefault(z, set()).add(y)
        for z, ys in outside.items():
            self._redecide(z, ys)

    def _own_value(self, u: int) -> int:
        own = self._own.get(u)
        if own is None:
            own = self._own[u] = self.inst.valuations[u].value(self.alloc.bundle(u))
        return own

    def _redecide_rivals(self, u: int) -> None:
        rivals = _rivals(self._holder, u, self.inst.graph.incident_edges(u))
        for w in self._out.get(u, set()) - rivals:
            self._set(u, w, False)
        if rivals:
            self._redecide(u, rivals)

    def _redecide(self, u: int, others: set[int]) -> None:
        envied = set(_envied(self.alloc, self.inst.valuations[u], self.inst.graph.incident_edges(u),
                             self._own_value(u), others))
        for w in others:
            self._set(u, w, w in envied)

    def _set(self, u: int, w: int, envy: bool) -> None:
        out = self._out.get(u, ())
        if envy and w not in out:
            self._out.setdefault(u, set()).add(w)
            self._in.setdefault(w, set()).add(u)
            self._acyclic = False
        elif not envy and w in out:
            for adj, a, b in ((self._out, u, w), (self._in, w, u)):
                adj[a].discard(b)
                if not adj[a]:
                    del adj[a]


def envy_graph(inst: "Instance", alloc: Allocation) -> EnvyGraph:
    """Exact envy relation of ``alloc``, built from scratch."""
    return EnvyGraph(inst, alloc)


def is_efx(inst: "Instance", alloc: Allocation, envy: Optional[EnvyGraph] = None) -> EfxVerdict:
    """Exact EFX check; first witness in (envier, envied, good) order.

    Only envied bundles can fail, so the check walks the edges of ``envy``,
    the allocation's envy graph, which is built here when not given.  Like
    the envy rule, it values only the part ``seen`` of a rival's bundle among
    u's incident goods: removing a good outside ``seen`` leaves u's envy
    intact, so that good is a witness without a query.
    """
    if envy is None:
        envy = envy_graph(inst, alloc)
    for u in envy.envious():
        val = inst.valuations[u]
        own = val.value(alloc.bundle(u))
        incident = inst.graph.incident_edges(u)
        for w in envy.out_neighbours(u):
            other = alloc.bundle(w)
            seen = other & incident
            for x in sorted(other):
                if x not in seen or own < val.value(seen - {x}):
                    return EfxVerdict(ok=False, witness=(u, w, x))
    return EfxVerdict(ok=True, witness=None)


def resolve_cycle(alloc: Allocation, cycle: list[int]) -> Allocation:
    """Shift bundles one step along ``cycle``: each agent takes its successor's."""
    if len(cycle) < 2:
        raise InputError("cycle must contain at least 2 agents")
    if len(set(cycle)) != len(cycle):
        raise InputError("cycle must not repeat agents")
    bundles = alloc.bundles.copy()
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
    """One directed cycle in the envy graph, or None.

    Deterministic DFS with an explicit stack: roots in ascending order,
    successors in ascending order, and the first edge back onto the current
    path closes the cycle.  Roots without out-edges are skipped; they could
    only close a cycle through an out-edge.
    """
    done: set[int] = set()
    on_path: dict[int, int] = {}  # vertex -> its index in path
    for root in eg.envious():
        if root in done:
            continue
        path = [root]
        on_path[root] = 0
        stack = [iter(eg.out_neighbours(root))]
        while stack:
            for w in stack[-1]:
                if w in on_path:
                    return path[on_path[w]:]
                if w not in done:
                    on_path[w] = len(path)
                    path.append(w)
                    stack.append(iter(eg.out_neighbours(w)))
                    break
            else:
                stack.pop()
                v = path.pop()
                del on_path[v]
                done.add(v)
    return None


def find_source_with_path(eg: EnvyGraph, target: int) -> Optional[tuple[int, list[int]]]:
    """A source of the envy graph with a directed path to ``target``.

    Returns None when the target is itself a source.  Deterministic: BFS
    backward from the target, expanding lowest-index predecessors first.
    Only the target's ancestors are visited.  Raises if the target's
    ancestry contains a cycle and no source reaches it.
    """
    if not eg.in_neighbours(target):
        return None
    succ_on_path = {target: None}
    queue = deque([target])
    while queue:
        v = queue.popleft()
        preds = eg.in_neighbours(v)
        if not preds and v != target:
            path = [v]
            while succ_on_path[path[-1]] is not None:
                path.append(succ_on_path[path[-1]])
            return v, path
        for p in preds:
            if p not in succ_on_path:
                succ_on_path[p] = v
                queue.append(p)
    raise PreconditionError(
        f"no source reaches agent {target}: the envy graph ancestry contains a cycle"
    )
