"""Exhaustive ground truth: search every complete allocation of a tiny instance.

Every good may go to any agent, including agents that do not value it; the
solvers themselves hand leftover bundles to non-endpoint agents, so an
orientation-only search would be wrong.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional

from .allocation import Allocation
from .errors import CapacityError

if TYPE_CHECKING:
    from .solvers import Instance

BRUTE_FORCE_MAX = 10 ** 7


@dataclass(frozen=True)
class OracleReport:
    efx_count: int
    sample: Optional[Allocation]  # lexicographically first EFX allocation
    searched: int  # n^m, the size of the space


def _space(inst: "Instance") -> int:
    """n^m, the number of complete allocations, or CapacityError above the guard."""
    n = inst.graph.vertex_count
    m = inst.graph.edge_count
    if n ** m > BRUTE_FORCE_MAX:
        raise CapacityError(f"{n}^{m} allocations exceed the {BRUTE_FORCE_MAX} capacity guard")
    return n ** m


def _efx_masks(inst: "Instance") -> Iterator[list[int]]:
    """The bundle masks (bit g: holds good g) of every EFX assignment of ``inst``.

    Assignments come in ``itertools.product(range(n), repeat=m)`` order, the
    last good varying fastest: a depth-first search gives goods 0..m-1 to
    agents in index order.  The yielded list is updated in place; copy it to
    keep it.

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
    n = inst.graph.vertex_count
    m = inst.graph.edge_count
    inc_goods = [sorted(inst.graph.incident_edges(u)) for u in range(n)]
    inc_mask = [sum(1 << g for g in goods) for goods in inc_goods]
    closes: list[list[int]] = [[] for _ in range(m)]  # agents whose last incident good is g
    for u, goods in enumerate(inc_goods):
        if goods:
            closes[goods[-1]].append(u)
    # Value cache per agent, keyed by bundle mask & incident mask.
    caches: list[dict[int, int]] = [{0: 0} for _ in range(n)]
    vals = [inst.valuations[u] for u in range(n)]

    def value_of(u: int, key: int) -> int:
        got = caches[u].get(key)
        if got is None:
            got = vals[u].value(g for g in inc_goods[u] if key >> g & 1)
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


def _allocation(masks: list[int]) -> Allocation:
    return Allocation(bundles={
        u: frozenset(g for g in range(mask.bit_length()) if mask >> g & 1)
        for u, mask in enumerate(masks)
    })


def brute_force_efx(inst: "Instance") -> OracleReport:
    """Count the EFX allocations of ``inst`` with the pruned search of ``_efx_masks``."""
    searched = _space(inst)
    found = _efx_masks(inst)
    first = next(found, None)
    if first is None:
        return OracleReport(efx_count=0, sample=None, searched=searched)
    sample = _allocation(first)
    return OracleReport(efx_count=1 + sum(1 for _ in found), sample=sample, searched=searched)


def first_efx_allocation(inst: "Instance") -> Optional[Allocation]:
    """``brute_force_efx(inst).sample``, without counting the rest."""
    _space(inst)
    first = next(_efx_masks(inst), None)
    return None if first is None else _allocation(first)
