"""Exhaustive ground truth: enumerate every complete allocation of a tiny instance.

Every good may go to any agent, including agents that do not value it; the
solvers themselves hand leftover bundles to non-endpoint agents, so an
orientation-only search would be wrong.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import TYPE_CHECKING, Optional

from .allocation import Allocation
from .errors import CapacityError

if TYPE_CHECKING:
    from .solvers import Instance

BRUTE_FORCE_MAX = 10 ** 7


@dataclass(frozen=True)
class OracleReport:
    efx_count: int
    sample: Optional[Allocation]  # lexicographically first EFX allocation
    searched: int


def brute_force_efx(inst: "Instance") -> OracleReport:
    """Count all EFX allocations of ``inst`` by full n^m enumeration."""
    n = inst.graph.vertex_count
    m = inst.graph.edge_count
    searched = n ** m if n > 0 or m == 0 else 0
    if searched > BRUTE_FORCE_MAX:
        raise CapacityError(f"{n}^{m} allocations exceed the {BRUTE_FORCE_MAX} capacity guard")
    if m == 0:
        empty = Allocation.empty()
        return OracleReport(efx_count=1, sample=empty, searched=1)
    if n == 0:
        return OracleReport(efx_count=0, sample=None, searched=0)

    inc_mask = [0] * n
    for v in range(n):
        for g in inst.graph.incident_edges(v):
            inc_mask[v] |= 1 << g
    # (holder-relative) value cache per agent, keyed by bundle-mask & incident
    caches: list[dict[int, int]] = [{0: 0} for _ in range(n)]
    vals = [inst.valuations[v] for v in range(n)]

    def value_of(u: int, mask: int) -> int:
        key = mask & inc_mask[u]
        cache = caches[u]
        got = cache.get(key)
        if got is None:
            got = vals[u].value(g for g in range(m) if key >> g & 1)
            cache[key] = got
        return got

    endpoints = [inst.graph.endpoints(g) for g in range(m)]
    count = 0
    sample: Optional[Allocation] = None

    for assign in product(range(n), repeat=m):
        masks = [0] * n
        for g, holder in enumerate(assign):
            masks[holder] |= 1 << g
        ok = True
        for g, holder in enumerate(assign):
            for u in endpoints[g]:
                if u == holder:
                    continue
                own = value_of(u, masks[u])
                held = masks[holder]
                if own >= value_of(u, held):
                    continue
                # u envies the holder: removal of every single good must cure it
                for x in range(m):
                    if held >> x & 1 and own < value_of(u, held & ~(1 << x)):
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            count += 1
            if sample is None:
                bundles = {
                    v: frozenset(g for g in range(m) if masks[v] >> g & 1) for v in range(n)
                }
                sample = Allocation(bundles=bundles)
    return OracleReport(efx_count=count, sample=sample, searched=searched)
