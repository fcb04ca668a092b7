"""Exhaustive ground truth: search every complete allocation of a tiny instance.

Every good may go to any agent, including agents that do not value it; the
solvers themselves hand leftover bundles to non-endpoint agents, so an
orientation-only search would be wrong.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Optional, Sequence

from .allocation import Allocation
from .errors import CapacityError
from .frozen import Frozen
from .multigraph import Component

if TYPE_CHECKING:
    from .solvers import Instance

BRUTE_FORCE_MAX = 10 ** 7


class OracleReport(Frozen):
    efx_count: int
    sample: Optional[Allocation]  # lexicographically first EFX allocation
    searched: int  # n^m, the size of the space

    def __init__(self, efx_count: int, sample: Optional[Allocation], searched: int):
        self._set(efx_count, sample, searched)


def _efx_masks(inst: "Instance", agents: Sequence[int], goods: Sequence[int]) -> Iterator[list[int]]:
    """The bundle masks of every EFX assignment of ``goods``, the edges of
    the component ``agents``, to its agents.

    Agent and good i are ``agents[i]`` and ``goods[i]``: mask i has bit j
    when agent i holds good j.  Assignments come in
    ``itertools.product(range(n), repeat=m)`` order, the last good varying
    fastest: a depth-first search gives goods 0..m-1 to agents in index
    order.  The yielded list is updated in place; copy it to keep it.  Above
    the capacity guard, the first step raises CapacityError.

    An agent u is checked only against a rival that holds a good incident to
    u, with the bundle valued through u's incident goods.  Once all of u's
    incident goods are placed, u is *closed*: its own value and its value of
    every bundle are final.  Two rules prune only subtrees without an EFX
    completion:

    (a) A violation of a closed u against a rival is final, since the rival
        can only gain goods outside u's incident goods, each a removal that
        keeps the envy.
    (b) A closed u that envies w would violate as soon as w gains a later
        good, all of which are outside u's incident goods, so w gets none.

    Each agent is checked once, when it closes; by (b) no bundle it envies
    changes afterwards, so every assignment that reaches the last good is EFX.
    """
    n, m = len(agents), len(goods)
    if n ** m > BRUTE_FORCE_MAX:
        raise CapacityError(f"{n}^{m} allocations exceed the {BRUTE_FORCE_MAX} capacity guard")
    index = {g: j for j, g in enumerate(goods)}
    inc_goods = [sorted(map(index.__getitem__, inst.graph.incident_edges(u))) for u in agents]
    inc_mask = [sum(1 << j for j in js) for js in inc_goods]
    closes: list[list[int]] = [[] for _ in range(m)]  # agents whose last incident good is j
    for u, js in enumerate(inc_goods):
        if js:
            closes[js[-1]].append(u)
    # Value cache per agent, keyed by bundle mask & incident mask.
    caches: list[dict[int, int]] = [{0: 0} for _ in range(n)]
    vals = [inst.valuations[u] for u in agents]

    def value_of(u: int, key: int) -> int:
        got = caches[u].get(key)
        if got is None:
            got = vals[u].value(goods[j] for j in inc_goods[u] if key >> j & 1)
            caches[u][key] = got
        return got

    masks = [0] * n
    holder = [0] * m
    barred = [0] * (m + 1)  # barred[g]: agents that may receive no good >= g, by rule (b)
    g = h = 0  # the next good to place, and the next agent to try for it
    while True:
        if g == m:
            yield masks
            h = n
        if h == n:  # every agent tried for good g: back up to good g - 1
            if g == 0:
                return
            g -= 1
            h = holder[g]
            masks[h] ^= 1 << g
            h += 1
            continue
        if barred[g] >> h & 1:
            h += 1
            continue
        masks[h] |= 1 << g
        holder[g] = h
        bar = barred[g]
        for u in closes[g]:
            inc = inc_mask[u]
            own = value_of(u, masks[u] & inc)
            for w in {holder[x] for x in inc_goods[u]} - {u}:
                key = masks[w] & inc
                if own >= value_of(u, key):
                    continue
                if key != masks[w] or any(  # w holds a good outside u's incident goods
                    own < value_of(u, key ^ 1 << x) for x in inc_goods[u] if key >> x & 1
                ):
                    bar = -1  # rule (a)
                    break
                bar |= 1 << w  # rule (b)
            if bar < 0:
                break
        if bar < 0:
            masks[h] ^= 1 << g
            h += 1
            continue
        barred[g + 1] = bar
        g += 1
        h = 0


def _allocation(masks: list[int], agents: Sequence[int], goods: Sequence[int]) -> Allocation:
    return Allocation(bundles={
        agents[i]: frozenset(goods[j] for j in range(mask.bit_length()) if mask >> j & 1)
        for i, mask in enumerate(masks)
    })


def brute_force_efx(inst: "Instance") -> OracleReport:
    """Count the EFX allocations of ``inst`` with the pruned search of ``_efx_masks``."""
    agents, goods = inst.graph.vertices(), inst.graph.edges_of()
    found = _efx_masks(inst, agents, goods)
    first = next(found, None)
    sample = None if first is None else _allocation(first, agents, goods)  # before ``found`` moves on
    efx_count = (first is not None) + sum(1 for _ in found)
    return OracleReport(efx_count=efx_count, sample=sample, searched=len(agents) ** len(goods))


def first_efx_allocation(inst: "Instance", component: Component = None) -> Optional[Allocation]:
    """``brute_force_efx(inst).sample``, without counting the rest; given a
    component, the same for that component alone."""
    agents, goods = inst.graph.vertices(component), inst.graph.edges_of(component)
    first = next(_efx_masks(inst, agents, goods), None)
    return None if first is None else _allocation(first, agents, goods)
