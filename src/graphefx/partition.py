"""Two-agent cut-and-choose, the one entry point of the partition layer.

``cut_and_choose`` has the cutter split a bundle into two pieces that are both
EFX-feasible under its own valuation, greedily for the cancellable families
(``_cac_greedy``) and by exhaustive search for a table (``_cac_exhaustive``),
and lets a second agent pick first.  Tie-breaking is fully pinned down so
every downstream solver is deterministic: the poorer piece on a value tie is
piece1, goods tie to the lowest edge id, and under double indifference the
chooser takes piece2.
"""

from __future__ import annotations

from typing import Iterable

from .errors import CapacityError
from .valuation import Table, Valuation

TABLE_CUT_MAX = 16


def _is_efx_pair(val: Valuation, a: frozenset[int], b: frozenset[int]) -> bool:
    """EFX between two identical agents with valuation ``val``."""
    va, vb = val.value(a), val.value(b)
    if va < vb and any(va < val.value(b - {x}) for x in sorted(b)):
        return False
    if vb < va and any(vb < val.value(a - {x}) for x in sorted(a)):
        return False
    return True


def _cac_greedy(cutter_val: Valuation, bundle: frozenset[int]
                ) -> tuple[frozenset[int], frozenset[int], int, int]:
    # The poorer piece repeatedly receives the remaining good of maximum
    # marginal value.  Correct for cancellable valuations.  Each piece comes
    # with the value queried when it was last extended; a piece never
    # extended is empty and is valued once at the end.
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
    piece1, piece2 = frozenset(p1), frozenset(p2)
    return (piece1, piece2, v1 if p1 else cutter_val.value(piece1),
            v2 if p2 else cutter_val.value(piece2))


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


def cut_and_choose(
    cutter_val: Valuation, chooser_val: Valuation, bundle: Iterable[int]
) -> tuple[frozenset[int], frozenset[int], bool, int]:
    """Two-agent cut-and-choose: the cutter splits ``bundle`` into two pieces
    that are both EFX-feasible under its own valuation, and the chooser picks first.

    Cancellable families use the greedy construction, whose running piece
    values are reused; table valuations fall back to exhaustive search over
    all bipartitions, and their pieces are valued afterwards.

    Returns (chooser_piece, cutter_piece, same_pref, chooser_value), where
    same_pref says that both agents strictly prefer the chooser's piece and
    chooser_value is the chooser's value of its piece.  The chooser takes the
    piece it strictly prefers, else the piece the cutter strictly prefers
    less, and under double indifference piece2.
    """
    bundle = frozenset(bundle)
    if isinstance(cutter_val, Table):
        p1, p2 = _cac_exhaustive(cutter_val, bundle)
        v1, v2 = cutter_val.value(p1), cutter_val.value(p2)
    else:
        p1, p2, v1, v2 = _cac_greedy(cutter_val, bundle)
    vc1, vc2 = chooser_val.value(p1), chooser_val.value(p2)
    if vc1 > vc2 or vc1 == vc2 and v1 < v2:
        return p1, p2, v1 > v2, vc1
    return p2, p1, v2 > v1, vc2
