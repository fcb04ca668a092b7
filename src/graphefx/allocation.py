"""Allocations, the envy graph and the EFX verifier."""

from __future__ import annotations

from types import MappingProxyType
from typing import TYPE_CHECKING, AbstractSet, Iterable, Mapping, Optional

from .errors import InputError
from .frozen import Frozen

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


class Allocation(Frozen):
    """A (possibly partial) partition of edges among agents.

    Agents absent from ``bundles`` hold the empty bundle.  ``bundles`` is a
    read-only view, so the disjointness checked on construction holds for
    the allocation's whole life.
    """

    bundles: Mapping[int, frozenset[int]]

    def __init__(self, bundles: Mapping[int, Iterable[int]]):
        # The full check runs in C-level loops.
        clean = dict(zip(bundles.keys(), map(frozenset, bundles.values())))
        if not all(clean.values()):
            clean = {u: b for u, b in clean.items() if b}
        if len(frozenset().union(*clean.values())) != sum(map(len, clean.values())):
            _raise_overlap(clean)
        self._set(MappingProxyType(clean))

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


class EfxVerdict(Frozen):
    ok: bool
    witness: Optional[tuple[int, int, int]]  # (envier, envied, good whose removal fails)

    def __init__(self, ok: bool, witness: Optional[tuple[int, int, int]]):
        self._set(ok, witness)


def _validate_bundles(inst: "Instance", bundles: Iterable[tuple[int, Iterable[int]]]) -> None:
    n, m = inst.graph.vertex_count, inst.graph.edge_count
    for u, bundle in bundles:
        if not (0 <= u < n):
            raise InputError(f"allocation references unknown agent {u}")
        if bundle and not (0 <= min(bundle) and max(bundle) < m):  # a C-level screen first
            for g in bundle:
                if not (0 <= g < m):
                    raise InputError(f"allocation references unknown edge {g}")


# The envy rule of ``EnvyGraph``, both when it is built and when it is
# stepped.  Agent u is compared only with its rivals, the other holders of
# goods incident to u, and values only the part of a rival's bundle among
# those goods.  Both are exact because every valuation's support lies within
# the agent's incident edges: the rest of a bundle is worth nothing to u, and
# any other bundle is worth v_u(empty set) <= v_u(own bundle) by
# monotonicity, so u can neither envy it nor violate EFX against it.

class EnvyGraph:
    """Directed envy relation of an allocation: (u, w) present iff u strictly
    prefers w's bundle.

    The graph owns the running allocation: a map from each agent that holds
    goods to its bundle (``bundle(u)`` reads it) and ``holder``, the agent of
    each held good.  It also keeps, per agent u, how many of u's incident
    goods each rival of u holds; ``step`` updates these counts at both
    endpoints of each moved good.  ``EnvyGraph(inst, alloc)`` decides every
    rival pair once.  After that, ``step(changes)`` replaces the bundles of
    the agents in ``changes`` in place, walking each moved good once, and
    re-decides only the pairs that the step can affect:

    * (z, y) for each changed y and each unchanged z that is an endpoint of
      a good y gained or lost.  Any other unchanged z keeps its own value
      and sees the same part of y's bundle among its incident goods, where
      its whole support lies, so its verdict on y stands.
    * (y, w) for each changed y and each rival w of y.  When y's bundle only
      grew, just its current out-edges and its changed rivals: valuations
      are monotone, so y's own value did not fall, and its envy of a rival
      with the same bundle can only have vanished.

    ``alloc`` builds an ``Allocation`` of the map each time it is asked for.
    Its constructor checks the map again and copies it, so the result is
    never a live view of the map.  Every id in the map has been checked, so
    the graph's edge and incidence tables are read without range checks.
    """

    def __init__(self, inst: "Instance", alloc: Allocation):
        _validate_bundles(inst, alloc.bundles.items())
        self.inst = inst
        self._incident = inst.graph._incident  # agent -> its incident goods
        self._bundles = dict(alloc.bundles)  # agent -> its bundle, nonempty only
        # good -> the agent holding it; read-only outside the class
        self.holder = holder = {g: w for w, b in alloc.bundles.items() for g in b}
        self._own: dict[int, int] = {}  # agent -> value of its bundle, filled on demand
        # agent u -> {rival w: how many of u's incident goods w holds}
        self._count: dict[int, dict[int, int]] = {}
        self._out: dict[int, set[int]] = {}  # only agents with an out-edge
        self._in: dict[int, set[int]] = {}  # only agents with an in-edge
        ends = inst.graph.edges
        for g, w in holder.items():
            for z in ends[g]:
                if z != w:
                    count = self._count.setdefault(z, {})
                    count[w] = count.get(w, 0) + 1
        for u, count in self._count.items():
            self._redecide(u, count)

    def bundle(self, u: int) -> frozenset[int]:
        """The bundle ``u`` holds now."""
        return self._bundles.get(u, _NOTHING)

    @property
    def alloc(self) -> Allocation:
        """The current allocation, checked and copied from the bundle map."""
        return Allocation(bundles=self._bundles)

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

    def envies(self, u: int, w: int) -> bool:
        return w in self._out.get(u, ())

    def rivals(self, u: int) -> AbstractSet[int]:
        """The agents other than ``u`` that hold a good incident to ``u``: a live
        view, which the next ``step`` may change."""
        return self._count.setdefault(u, {}).keys()

    def step(self, changes: Mapping[int, Iterable[int]]) -> frozenset[int]:
        """Give each agent in ``changes`` its new bundle; return the goods that
        changed hands.

        Only the goods an agent gains are checked.  An overlap raises what
        ``Allocation(bundles={**self.alloc.bundles, **changes})`` raises, and
        an unknown agent or good raises InputError, before any state changes.
        """
        bundles, holder = self._bundles, self.holder
        new: dict[int, frozenset[int]] = {}
        gained: dict[int, int] = {}  # good -> the changed agent that gains it
        lost: dict[int, int] = {}  # good -> the changed agent that gives it up
        shrank: set[int] = set()  # the changed agents that give up a good
        n_gained, n, known = 0, len(self._incident), True
        for y, b in changes.items():
            if not 0 <= y < n:
                known = False
            b = new[y] = frozenset(b)
            old = bundles.get(y, _NOTHING)
            got, gave = b - old, old - b
            if got:
                n_gained += len(got)
                gained.update(dict.fromkeys(got, y))
            if gave:
                lost.update(dict.fromkeys(gave, y))
                shrank.add(y)
        # a good gained twice, or gained while an agent that keeps it holds it
        if len(gained) != n_gained or not (holder.keys().isdisjoint(gained)
                                           or holder.keys() & gained.keys() <= lost.keys()):
            _raise_overlap({**bundles, **new})
        ends, counts = self.inst.graph.edges, self._count
        if not known or gained and not (0 <= min(gained) and max(gained) < len(ends)):
            _validate_bundles(self.inst, new.items())

        touched: dict[int, set[int]] = {}  # unchanged endpoint of a moved good -> who moved it
        for g, y in lost.items():
            del holder[g]
            for z in ends[g]:
                if z != y:
                    count = counts[z]
                    if count[y] == 1:
                        del count[y]
                    else:
                        count[y] -= 1
                    if z not in new:
                        touched.setdefault(z, set()).add(y)
        for g, y in gained.items():
            holder[g] = y
            for z in ends[g]:
                if z != y:
                    count = counts.setdefault(z, {})
                    count[y] = count.get(y, 0) + 1
                    if z not in new:
                        touched.setdefault(z, set()).add(y)
        for y, b in new.items():
            if b:
                bundles[y] = b
            else:
                bundles.pop(y, None)
            self._own.pop(y, None)

        for y in new:
            count = counts.setdefault(y, {})
            out = self._out.get(y, _NOTHING)
            stale = [w for w in out if w not in count] if out else ()
            if y in shrank:
                self._redecide(y, count, stale)
            else:  # y's own value did not fall: its envy of an unchanged rival can only end
                others = count.keys() & new.keys()
                others |= out
                others.difference_update(stale)
                self._redecide(y, others, stale)
        for z, ys in touched.items():
            self._redecide(z, ys)
        return frozenset(gained).union(lost)

    def _own_value(self, u: int) -> int:
        own = self._own.get(u)
        if own is None:
            own = self._own[u] = self.inst.valuations[u].value(self.bundle(u))
        return own

    def _redecide(self, u: int, others: Iterable[int], stale: Iterable[int] = ()) -> None:
        """Re-decide the pairs (u, w) for each w in ``others`` by the envy rule,
        and drop the envy edges (u, w) for each w in ``stale``."""
        out = self._out.get(u, _NOTHING)
        flips = stale
        if others:
            val, incident, bundles = self.inst.valuations[u], self._incident[u], self._bundles
            own = self._own_value(u)
            flips = [w for w in others
                     if (own < val.value(bundles.get(w, _NOTHING) & incident)) != (w in out)]
            if stale:
                flips += stale
        if not flips:
            return
        out, into = self._out.setdefault(u, set()), self._in
        for w in flips:
            if w in out:
                out.remove(w)
                into[w].remove(u)
                if not into[w]:
                    del into[w]
            else:
                out.add(w)
                into.setdefault(w, set()).add(u)
        if not out:
            del self._out[u]

    def efx_witness(self, u: int, w: int) -> Optional[int]:
        """For an envy edge (u, w): the least good of w's bundle whose removal
        leaves u envious, or None when every removal ends the envy.

        Like the envy rule, it values only the part ``seen`` of w's bundle
        among u's incident goods: removing a good outside ``seen`` leaves the
        envy intact, so that good is a witness without a query.
        """
        val = self.inst.valuations[u]
        own = self._own_value(u)
        other = self.bundle(w)
        seen = other & self._incident[u]
        for x in sorted(other):
            if x not in seen or own < val.value(seen - {x}):
                return x
        return None


def envy_graph(inst: "Instance", alloc: Allocation) -> EnvyGraph:
    """Exact envy relation of ``alloc``, built from scratch."""
    return EnvyGraph(inst, alloc)


def is_efx(inst: "Instance", alloc: Allocation) -> EfxVerdict:
    """Exact EFX check; first witness in (envier, envied, good) order.

    Only envied bundles can fail, so the check builds the allocation's envy
    graph and asks each of its edges for its ``efx_witness``.
    """
    envy = envy_graph(inst, alloc)
    for u, w in envy.edges:
        x = envy.efx_witness(u, w)
        if x is not None:
            return EfxVerdict(ok=False, witness=(u, w, x))
    return EfxVerdict(ok=True, witness=None)

