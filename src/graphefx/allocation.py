"""Allocations, the envy graph, the EFX verifier and envy-cycle machinery."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain
from types import MappingProxyType
from typing import TYPE_CHECKING, AbstractSet, Iterable, Mapping, Optional

from .errors import InputError, PreconditionError

if TYPE_CHECKING:
    from .solvers import Instance
    from .valuation import Valuation

_NOTHING: frozenset[int] = frozenset()  # the empty bundle, shared


def _raise_overlap(bundles: Mapping[int, frozenset[int]]) -> None:
    """Raise InputError naming the first agent, in mapping order, whose bundle
    meets an earlier one; return when there is none."""
    seen: set[int] = set()
    for u, b in bundles.items():
        if seen & b:
            raise InputError(f"bundles are not disjoint at agent {u}")
        seen |= b


@dataclass(frozen=True)
class Allocation:
    """A (possibly partial) partition of edges among agents.

    Agents absent from ``bundles`` hold the empty bundle.  ``bundles`` is a
    read-only view, so the disjointness checked on construction holds for
    the allocation's whole life.
    """

    bundles: Mapping[int, frozenset[int]]

    def __post_init__(self):
        # The full check runs in C-level loops; ``with_bundles`` checks a step.
        clean = dict(zip(self.bundles.keys(), map(frozenset, self.bundles.values())))
        if not all(clean.values()):
            clean = {u: b for u, b in clean.items() if b}
        if len(frozenset().union(*clean.values())) != sum(map(len, clean.values())):
            _raise_overlap(clean)
        object.__setattr__(self, "bundles", MappingProxyType(clean))

    def with_bundles(self, changes: Mapping[int, Iterable[int]],
                     holder: Optional[Mapping[int, int]] = None) -> "Allocation":
        """This allocation with the bundles of the agents in ``changes`` replaced.

        It equals ``Allocation(bundles={**self.bundles, **changes})``, but
        checks disjointness on the goods that changed hands only: no two
        replaced agents gain the same good, and a gained good that no
        replaced agent gave up is held by no one.  ``holder``, the agent of
        each good of this allocation (``EnvyGraph.holder``), answers that per
        good; without it such goods are looked for in every bundle.  An
        overlap raises what the full constructor raises on the merged mapping.
        """
        return self._replaced(changes, holder)[0]

    def _replaced(self, changes: Mapping[int, Iterable[int]], holder: Optional[Mapping[int, int]]
                  ) -> tuple["Allocation", dict[int, frozenset[int]], dict[int, frozenset[int]]]:
        """``with_bundles``, and each replaced agent's gained and lost goods."""
        new = dict(zip(changes.keys(), map(frozenset, changes.values())))
        gained = {u: b - self.bundle(u) for u, b in new.items()}
        lost = {u: self.bundle(u) - b for u, b in new.items()}
        got = frozenset().union(*gained.values())
        fresh = got.difference(*lost.values())  # gained goods that no replaced agent gave up
        bundles = self.bundles.copy()  # a dict: copied without a lookup per key
        bundles.update(new)
        clash = len(got) != sum(map(len, gained.values()))
        if fresh and not clash:
            clash = (any(map(holder.__contains__, fresh)) if holder is not None
                     else not fresh.isdisjoint(chain.from_iterable(self.bundles.values())))
        if clash:
            _raise_overlap(bundles)
        for u in [u for u, b in new.items() if not b]:
            del bundles[u]
        alloc = object.__new__(Allocation)
        object.__setattr__(alloc, "bundles", MappingProxyType(bundles))
        return alloc, gained, lost

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
        if bundle and not (0 <= min(bundle) and max(bundle) < m):  # a C-level screen first
            for g in bundle:
                if not (0 <= g < m):
                    raise InputError(f"allocation references unknown edge {g}")


def validate_allocation(inst: "Instance", alloc: Allocation) -> None:
    _validate_bundles(inst, alloc.bundles.items())


# The envy rule of ``EnvyGraph``, both when it is built and when it is
# stepped.  Agent u is compared only with its rivals, the other holders of
# goods incident to u, and values only the part of a rival's bundle among
# those goods.  Both are exact because every valuation's support lies within
# the agent's incident edges: the rest of a bundle is worth nothing to u, and
# any other bundle is worth v_u(empty set) <= v_u(own bundle) by
# monotonicity, so u can neither envy it nor violate EFX against it.

def _envied(alloc: Allocation, val: "Valuation", incident: frozenset[int], own: int,
            others: Iterable[int]) -> list[int]:
    """The agents in ``others``, in their order, that an agent with valuation
    ``val``, incident goods ``incident`` and own value ``own`` envies."""
    return [w for w in others if own < val.value(alloc.bundle(w) & incident)]


class EnvyGraph:
    """Directed envy relation of an allocation: (u, w) present iff u strictly
    prefers w's bundle.

    ``EnvyGraph(inst, alloc)`` decides every rival pair once.  After that,
    ``step(changes)`` replaces the bundles of the agents in ``changes``,
    computing each one's gained and lost goods once, and re-decides only the
    pairs that the step can affect:

    * (z, y) for each changed y and each unchanged z that is an endpoint of
      a good y gained or lost.  Any other unchanged z keeps its own value
      and sees the same part of y's bundle among its incident goods, where
      its whole support lies, so its verdict on y stands.
    * (y, w) for each changed y and each rival w of y.  When y's bundle only
      grew, just its current out-edges and its changed rivals: valuations
      are monotone, so y's own value did not fall, and its envy of a rival
      with the same bundle can only have vanished.

    Each agent's rival set is kept until a good incident to it moves; the
    agent is one of that good's two endpoints.  ``find_cycle`` skips the
    search while no envy edge has appeared since a search found none: a
    subgraph of an acyclic graph is acyclic.
    """

    def __init__(self, inst: "Instance", alloc: Allocation):
        validate_allocation(inst, alloc)
        self.inst = inst
        self.alloc = alloc
        # good -> the agent holding it; read-only outside the class
        self.holder = holder = {g: w for w, b in alloc.bundles.items() for g in b}
        self._own: dict[int, int] = {}  # agent -> value of its bundle, filled on demand
        self._rivals: dict[int, frozenset[int]] = {}  # agent -> its rivals, filled on demand
        self._out: dict[int, set[int]] = {}  # only agents with an out-edge
        self._in: dict[int, set[int]] = {}  # only agents with an in-edge
        self._acyclic = False
        # Only an endpoint of a held good can have a rival.
        for u in set(chain.from_iterable(map(inst.graph.edges.__getitem__, holder))):
            rivals = self.rivals(u)
            if rivals:
                val = inst.valuations[u]
                own = self._own[u] = val.value(alloc.bundle(u))
                envied = _envied(alloc, val, inst.graph.incident_edges(u), own, rivals)
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

    def rivals(self, u: int) -> frozenset[int]:
        """The agents other than ``u`` that hold a good incident to ``u``."""
        rivals = self._rivals.get(u)
        if rivals is None:
            incident = self.inst.graph.incident_edges(u)
            rivals = self._rivals[u] = frozenset(map(self.holder.get, incident)) - {None, u}
        return rivals

    def find_cycle(self) -> Optional[list[int]]:
        """``find_envy_cycle`` on the current envy graph."""
        if self._acyclic:
            return None
        cycle = find_envy_cycle(self)
        self._acyclic = cycle is None
        return cycle

    def step(self, changes: Mapping[int, Iterable[int]]) -> frozenset[int]:
        """Move to ``self.alloc.with_bundles(changes, self.holder)``; return the
        goods that changed hands.

        An overlap raises what that call raises, and an unknown agent or good
        raises InputError, before any state changes.
        """
        inst = self.inst
        alloc, gained, lost = self.alloc._replaced(changes, self.holder)
        _validate_bundles(inst, [(y, alloc.bundle(y)) for y in gained])
        changed = set(gained)
        for g in chain.from_iterable(lost.values()):
            del self.holder[g]
        for y in changed:
            self.holder.update(dict.fromkeys(gained[y], y))
            self._own.pop(y, None)
        self.alloc = alloc

        edges = inst.graph.edges
        touched: dict[int, set[int]] = {}  # endpoint of a moved good -> the changed agents it sees
        for y in changed:
            for z in set(chain.from_iterable(map(edges.__getitem__, lost[y] | gained[y]))):
                touched.setdefault(z, set()).add(y)
        for z in touched:
            self._rivals.pop(z, None)
        for y in changed:
            self._redecide_rivals(y, None if lost[y] else changed)
        for z, ys in touched.items():
            if z not in changed:
                self._redecide(z, ys)
        return frozenset().union(*lost.values(), *gained.values())

    def _own_value(self, u: int) -> int:
        own = self._own.get(u)
        if own is None:
            own = self._own[u] = self.inst.valuations[u].value(self.alloc.bundle(u))
        return own

    def _redecide_rivals(self, u: int, grown_among: Optional[set[int]]) -> None:
        """Re-decide u against its rivals; when u's bundle only grew, against
        those it envied and those in ``grown_among``, the changed agents."""
        out = self._out.get(u, set())
        rivals = self.rivals(u)
        for w in out - rivals:
            self._set(u, w, False)
        if grown_among is not None:
            rivals = rivals & (out | grown_among)
        if rivals:
            self._redecide(u, rivals)

    def _redecide(self, u: int, others: AbstractSet[int]) -> None:
        envied = set(_envied(self.alloc, self.inst.valuations[u], self.inst.graph.incident_edges(u),
                             self._own_value(u), others))
        for w in others:
            self._set(u, w, w in envied)

    def efx_witness(self, u: int, w: int) -> Optional[int]:
        """For an envy edge (u, w): the least good of w's bundle whose removal
        leaves u envious, or None when every removal ends the envy.

        Like the envy rule, it values only the part ``seen`` of w's bundle
        among u's incident goods: removing a good outside ``seen`` leaves the
        envy intact, so that good is a witness without a query.
        """
        val = self.inst.valuations[u]
        own = self._own_value(u)
        other = self.alloc.bundle(w)
        seen = other & self.inst.graph.incident_edges(u)
        for x in sorted(other):
            if x not in seen or own < val.value(seen - {x}):
                return x
        return None

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
    the allocation's envy graph, which is built here when not given, and
    asks each for its ``efx_witness``.
    """
    if envy is None:
        envy = envy_graph(inst, alloc)
    for u, w in envy.edges:
        x = envy.efx_witness(u, w)
        if x is not None:
            return EfxVerdict(ok=False, witness=(u, w, x))
    return EfxVerdict(ok=True, witness=None)


def resolve_cycle(alloc: Allocation, cycle: list[int]) -> Allocation:
    """Shift bundles one step along ``cycle``: each agent takes its successor's."""
    if len(cycle) < 2:
        raise InputError("cycle must contain at least 2 agents")
    if len(set(cycle)) != len(cycle):
        raise InputError("cycle must not repeat agents")
    return alloc.with_bundles({u: alloc.bundle(cycle[(i + 1) % len(cycle)])
                               for i, u in enumerate(cycle)})


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
