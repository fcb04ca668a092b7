"""Allocations, the envy graph and the EFX verifier."""

from __future__ import annotations

from collections import defaultdict
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, Mapping, Optional

from .errors import InputError
from .frozen import Frozen

if TYPE_CHECKING:
    from .solvers import Instance

_NOTHING: frozenset[int] = frozenset()  # the empty bundle, shared


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
            seen: set[int] = set()  # name the first agent whose bundle meets an earlier one
            for u, b in clean.items():
                if seen & b:
                    raise InputError(f"bundles are not disjoint at agent {u}")
                seen |= b
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


# The envy rule of ``EnvyGraph.step``, the graph's only builder.  Agent u is
# compared only with its rivals, the other holders of goods incident to u,
# and values only the part of a rival's bundle among those goods.  Both are
# exact because every valuation's support lies within the agent's incident
# edges: the rest of a bundle is worth nothing to u, and any other bundle is
# worth v_u(empty set) <= v_u(own bundle) by monotonicity, so u can neither
# envy it nor violate EFX against it.

class EnvyGraph:
    """Directed envy relation of an allocation: (u, w) present iff u strictly
    prefers w's bundle.

    The graph owns the running allocation: a map from each agent that holds
    goods to the set of its goods (``bundle(u)`` reads a copy) and
    ``holder``, the agent of each held good.  ``step(moves)`` gives each
    moved good its new holder in place, walking each moved good once, and
    re-decides only the pairs that the step can affect:

    * (z, y) for each changed y and each unchanged z that is an endpoint of
      a good y gained or lost.  Any other unchanged z keeps its own value
      and sees the same part of y's bundle among its incident goods, where
      its whole support lies, so its verdict on y stands.
    * (y, w) for each changed y and each rival w of y.  When y's bundle only
      grew, just its current out-edges and the rivals that gained or lost a
      good incident to y: valuations are monotone, so y's own value did not
      fall, and its envy of a rival whose part among y's goods is the same
      can only have vanished.

    ``EnvyGraph(inst, alloc)`` steps from the empty allocation by the
    allocation's goods, so every holder only gains: it decides each rival
    pair once.

    ``alloc`` copies the map into a new ``Allocation`` each time it is asked
    for.  Every id in the map has been checked, so the graph's edge and
    incidence tables are read without range checks.
    """

    def __init__(self, inst: "Instance", alloc: Allocation):
        self.inst = inst
        self._incident = inst.graph._incident  # agent -> its incident goods
        self._bundles: dict[int, set[int]] = {}  # agent -> its goods, nonempty only
        # good -> the agent holding it; read-only outside the class
        self.holder: dict[int, int] = {}
        self._own: dict[int, int] = {}  # agent -> value of its bundle, filled on demand
        self._out: dict[int, set[int]] = {}  # only agents with an out-edge
        self._in: dict[int, set[int]] = {}  # only agents with an in-edge
        self.step({g: u for u, b in alloc.bundles.items() for g in b})

    def bundle(self, u: int) -> frozenset[int]:
        """The bundle ``u`` holds now."""
        return frozenset(self._bundles.get(u, _NOTHING))

    @property
    def alloc(self) -> Allocation:
        """The current allocation, copied from the bundle map."""
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

    def step(self, moves: Mapping[int, Optional[int]]) -> tuple[set[int], set[int]]:
        """Give each good in ``moves`` to its new holder, or to no one for None;
        return the goods that changed hands and the agents that gave one up.

        A move to the good's holder, or of a good no one holds to None, does
        nothing.  An unknown good or agent raises InputError before any state
        changes.
        """
        bundles, holder = self._bundles, self.holder
        ends, incident = self.inst.graph.edges, self._incident
        for g, y in moves.items():  # every id, before any state changes
            if y is not None and not 0 <= y < len(incident):
                raise InputError(f"allocation references unknown agent {y}")
            if not 0 <= g < len(ends):
                raise InputError(f"allocation references unknown edge {g}")

        # the goods that change hands, the agents that give one up, all whose bundles change
        moved, shrank, changed = set(), set(), set()
        touched = defaultdict(set)  # endpoint of a moved good -> the others who moved it
        for g, y in moves.items():
            x = holder.get(g)
            if x == y:
                continue
            moved.add(g)
            a, b = ends[g]
            if x is not None:
                bundles[x].remove(g)
                if not bundles[x]:
                    del bundles[x]
                shrank.add(x)
                if a != x:
                    touched[a].add(x)
                if b != x:
                    touched[b].add(x)
            if y is None:
                del holder[g]
                continue
            holder[g] = y
            bundles.setdefault(y, set()).add(g)
            changed.add(y)
            if a != y:
                touched[a].add(y)
            if b != y:
                touched[b].add(y)
        changed |= shrank
        for y in changed:
            self._own.pop(y, None)
            out = self._out.get(y, _NOTHING)
            # the agents y envied that no longer hold any of y's incident goods
            stale = ([w for w in out if bundles.get(w, _NOTHING).isdisjoint(incident[y])]
                     if out else ())
            movers = touched.pop(y, set())
            if y in shrank:
                self._redecide(y, set(map(holder.get, incident[y])) - {y, None}, stale)
            else:  # y's own value did not fall: a new envy edge needs a rival that moved y's goods
                movers |= out
                movers.difference_update(stale)
                self._redecide(y, movers, stale)
        for z, ys in touched.items():  # the unchanged endpoints: the loop above took the rest
            self._redecide(z, ys)
        return moved, shrank

    def own_value(self, u: int) -> int:
        """The value ``u`` puts on its own bundle; asked of its valuation once per bundle."""
        own = self._own.get(u)
        if own is None:
            own = self._own[u] = self.inst.valuations[u].value(self._bundles.get(u, _NOTHING))
        return own

    def _redecide(self, u: int, others: Iterable[int], stale: Iterable[int] = ()) -> None:
        """Re-decide the pairs (u, w) for each w in ``others`` by the envy rule,
        and drop the envy edges (u, w) for each w in ``stale``."""
        out = self._out.get(u, _NOTHING)
        flips = stale
        if others:
            val, incident, bundles = self.inst.valuations[u], self._incident[u], self._bundles
            own = self.own_value(u)
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
        own = self.own_value(u)
        other = self._bundles.get(w, _NOTHING)
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

