"""Monotone valuation oracles over incident edges, plus a brute-force cancellability check.

All values are nonnegative integers; arithmetic is exact throughout.  Goods the
valuation knows nothing about contribute zero marginal value and are silently
ignored, which is what lets solvers pass whole bundles around without filtering.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable, Optional

from .errors import CapacityError, InputError
from .frozen import Frozen

CANCELLABLE_CHECK_MAX = 12


class Valuation(ABC):
    """A monotone set function over goods (edge ids)."""

    @abstractmethod
    def value(self, bundle: Iterable[int]) -> int:
        """Value of a bundle; non-incident goods contribute nothing."""

    @property
    @abstractmethod
    def support(self) -> frozenset[int]:
        """Edge ids that can carry nonzero marginal value."""


class PerGood(Frozen, Valuation):
    """Base of the valuations given by one nonnegative value per good."""

    values: dict[int, int]

    def __init__(self, values: dict[int, int]):
        values = dict(values)
        # A C-level screen passes exact nonnegative ints; anything else is checked one by one.
        if not (set(map(type, values.values())) <= {int} and min(values.values(), default=0) >= 0):
            for eid, v in values.items():
                if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                    raise InputError(f"value for edge {eid} must be a nonnegative integer")
        self._set(values)

    @property
    def support(self) -> frozenset[int]:
        return frozenset(self.values)


class Additive(PerGood):
    kind = "additive"

    def value(self, bundle: Iterable[int]) -> int:
        return sum(self.values.get(g, 0) for g in bundle)


class UnitDemand(PerGood):
    kind = "unit_demand"

    def value(self, bundle: Iterable[int]) -> int:
        return max((self.values.get(g, 0) for g in bundle), default=0)


class BudgetAdditive(PerGood):
    kind = "budget_additive"
    cap: int

    def __init__(self, values: dict[int, int], cap: int):
        super().__init__(values)
        if not isinstance(cap, int) or isinstance(cap, bool) or cap < 0:
            raise InputError("cap must be a nonnegative integer")
        self._set(self.values, cap)

    def value(self, bundle: Iterable[int]) -> int:
        return min(self.cap, sum(self.values.get(g, 0) for g in bundle))


class Table(Frozen, Valuation):
    """Explicit monotone set function, given as one entry per subset.

    Entries must cover every subset of the support, include the empty set with
    value 0, and be monotone nondecreasing; all three are validated here so
    downstream code may assume them.
    """

    kind = "table"
    entries: dict[frozenset[int], int]

    def __init__(self, entries: dict[frozenset[int], int]):
        entries = {frozenset(k): v for k, v in entries.items()}
        support = frozenset().union(*entries) if entries else frozenset()
        goods = sorted(support)
        if len(entries) != 2 ** len(goods):
            raise InputError("table must have one entry per subset of its support")
        for v in entries.values():
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise InputError("table values must be nonnegative integers")
        if entries.get(frozenset(), None) != 0:
            raise InputError("table must map the empty set to 0")
        for s, v in entries.items():
            for g in goods:
                if g not in s and entries[s | {g}] < v:
                    raise InputError(
                        f"table is not monotone: adding {g} to {sorted(s)} decreases value"
                    )
        self._set(entries)
        object.__setattr__(self, "_support", support)

    def value(self, bundle: Iterable[int]) -> int:
        return self.entries[frozenset(bundle) & self._support]

    @property
    def support(self) -> frozenset[int]:
        return self._support


# The ``type`` tag of each valuation in instance documents.
KINDS = {cls.kind: cls for cls in (Additive, UnitDemand, BudgetAdditive, Table)}


def _value_table(val: Valuation, goods: list[int]) -> list[int]:
    """Values of every subset of ``goods``, indexed by bitmask."""
    vs = [0] * (1 << len(goods))
    for mask in range(1, 1 << len(goods)):
        vs[mask] = val.value(g for i, g in enumerate(goods) if mask >> i & 1)
    return vs


def _mask_to_set(mask: int, goods: list[int]) -> frozenset[int]:
    return frozenset(g for i, g in enumerate(goods) if mask >> i & 1)


def is_cancellable_bruteforce(
    val: Valuation, incident: Iterable[int]
) -> tuple[bool, Optional[tuple[frozenset[int], frozenset[int], int]]]:
    """Exhaustive cancellability check: v(S) >= v(T) implies v(S+g) >= v(T+g).

    Returns (True, None) or (False, (S, T, g)) with the first violation in
    deterministic order: S by ascending bitmask, then T, then g.
    """
    goods = sorted(incident)
    k = len(goods)
    if k > CANCELLABLE_CHECK_MAX:
        raise CapacityError(f"cancellability check limited to {CANCELLABLE_CHECK_MAX} goods")
    vs = _value_table(val, goods)
    if _cancellable_screen(vs, k):
        return True, None
    for s_mask in range(1 << k):
        vS = vs[s_mask]
        for t_mask in range(1 << k):
            if vS < vs[t_mask]:
                continue
            for i in range(k):
                bit = 1 << i
                if (s_mask | t_mask) & bit:
                    continue
                if vs[s_mask | bit] < vs[t_mask | bit]:
                    return False, (
                        _mask_to_set(s_mask, goods),
                        _mask_to_set(t_mask, goods),
                        goods[i],
                    )
    return True, None


def _cancellable_screen(vs: list[int], k: int) -> bool:
    """Exact cancellability test by sorting, without a witness.

    For each good i, sort the subsets S without i by v(S).  Cancellability
    holds iff v(S+i) never decreases along that order and is equal within
    ties of v(S).  Sorting by the pair (v(S), v(S+i)) puts every tie in
    ascending v(S+i), so comparing neighbours checks both conditions.
    """
    for i in range(k):
        bit = 1 << i
        pairs = sorted((vs[s], vs[s | bit]) for s in range(1 << k) if not s & bit)
        for (v_s, up_s), (v_t, up_t) in zip(pairs, pairs[1:]):
            if up_t < up_s or (v_t == v_s and up_t != up_s):
                return False
    return True
