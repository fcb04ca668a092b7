"""Cut-and-choose primitives.

``cac`` splits a bundle into two pieces that are both EFX-feasible under the
cutter's own valuation; ``cut_and_choose`` lets a second agent pick first.
Tie-breaking is fully pinned down so every downstream solver is deterministic:
the poorer piece on a value tie is piece1, goods tie to the lowest edge id,
and under double indifference the chooser takes piece2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import CapacityError
from .valuation import Table, Valuation

TABLE_CUT_MAX = 16


@dataclass(frozen=True)
class CutResult:
    piece1: frozenset[int]
    piece2: frozenset[int]
    cutter_pref: int  # 1 or 2, the cutter's weakly preferred piece (ties -> 1)
    cutter_indifferent: bool

    def piece(self, idx: int) -> frozenset[int]:
        return self.piece1 if idx == 1 else self.piece2


def _is_efx_pair(val: Valuation, a: frozenset[int], b: frozenset[int]) -> bool:
    """EFX between two identical agents with valuation ``val``."""
    va, vb = val.value(a), val.value(b)
    if va < vb and any(va < val.value(b - {x}) for x in b):
        return False
    if vb < va and any(vb < val.value(a - {x}) for x in a):
        return False
    return True


def _cac_greedy(cutter_val: Valuation, bundle: frozenset[int]) -> tuple[frozenset[int], frozenset[int]]:
    # The poorer piece repeatedly receives the remaining good of maximum
    # marginal value.  Correct for cancellable valuations.
    p1: set[int] = set()
    p2: set[int] = set()
    v1 = v2 = 0
    remaining = sorted(bundle)
    while remaining:
        piece, base = (p1, v1) if v1 <= v2 else (p2, v2)
        best_g = None
        best_marginal = -1
        for g in remaining:
            marginal = cutter_val.value(piece | {g}) - base
            if marginal > best_marginal:
                best_marginal = marginal
                best_g = g
        piece.add(best_g)
        remaining.remove(best_g)
        if piece is p1:
            v1 = base + best_marginal
        else:
            v2 = base + best_marginal
    return frozenset(p1), frozenset(p2)


def _cac_exhaustive(cutter_val: Valuation, bundle: frozenset[int]) -> tuple[frozenset[int], frozenset[int]]:
    # General monotone valuations: first bipartition (by ascending piece1
    # bitmask over sorted goods) that is EFX for two identical cutters.
    goods = sorted(bundle)
    if len(goods) > TABLE_CUT_MAX:
        raise CapacityError(f"exhaustive cut limited to {TABLE_CUT_MAX} goods")
    for mask in range(1 << len(goods)):
        p1 = frozenset(g for i, g in enumerate(goods) if mask >> i & 1)
        p2 = bundle - p1
        if _is_efx_pair(cutter_val, p1, p2):
            return p1, p2
    raise AssertionError("an EFX bipartition always exists for monotone valuations")


def cac(cutter_val: Valuation, bundle: Iterable[int]) -> CutResult:
    """Split ``bundle`` into two pieces, both EFX-feasible for the cutter.

    Cancellable families use the greedy construction; table valuations fall
    back to exhaustive search over all bipartitions.
    """
    bundle = frozenset(bundle)
    if isinstance(cutter_val, Table):
        p1, p2 = _cac_exhaustive(cutter_val, bundle)
    else:
        p1, p2 = _cac_greedy(cutter_val, bundle)
    v1, v2 = cutter_val.value(p1), cutter_val.value(p2)
    return CutResult(
        piece1=p1,
        piece2=p2,
        cutter_pref=1 if v1 >= v2 else 2,
        cutter_indifferent=v1 == v2,
    )


def cut_and_choose(
    cutter_val: Valuation, chooser_val: Valuation, bundle: Iterable[int]
) -> tuple[frozenset[int], frozenset[int], bool]:
    """Two-agent cut-and-choose: the cutter runs ``cac``, the chooser picks first.

    Returns (chooser_piece, cutter_piece, same_pref), where same_pref says
    that both agents strictly prefer the chooser's piece.  An indifferent
    chooser takes the piece the cutter prefers less, and under double
    indifference the chooser takes piece2.
    """
    cut = cac(cutter_val, bundle)
    vc1, vc2 = chooser_val.value(cut.piece1), chooser_val.value(cut.piece2)
    if vc1 != vc2:
        s = 1 if vc1 > vc2 else 2
    elif not cut.cutter_indifferent:
        s = 3 - cut.cutter_pref
    else:
        s = 2
    same_pref = not cut.cutter_indifferent and s == cut.cutter_pref
    return cut.piece(s), cut.piece(3 - s), same_pref
