import random
from collections import Counter
from itertools import product

import pytest

from graphefx import Additive, CapacityError, Table, cut_and_choose
from graphefx.partition import _cac_exhaustive, _cac_greedy, _is_efx_pair

from .conftest import CountingValuation, random_family_valuation, reference_cut_preferences


def test_cac_greedy_example():
    val = Additive(values={0: 5, 1: 4, 2: 3, 3: 2, 4: 1})
    p1, p2, v1, v2 = _cac_greedy(val, frozenset({0, 1, 2, 3, 4}))
    assert p1 == {0, 3, 4} and p2 == {1, 2}
    assert (v1, v2) == (8, 7) == (val.value(p1), val.value(p2))


# The three tie rules of the module docstring, one test each.
def test_cac_greedy_ties_goods_to_the_lowest_id():
    # Every good is worth 1, so at every step all remaining goods tie: the
    # poorer piece takes the lowest remaining id.
    val = Additive(values=dict.fromkeys((1, 4, 6, 9), 1))
    assert _cac_greedy(val, frozenset({1, 4, 6, 9})) == (frozenset({1, 6}), frozenset({4, 9}), 2, 2)


def test_cac_greedy_extends_piece1_on_a_value_tie():
    # Goods have distinct values.  Both pieces are worth 0 before the first
    # good and 5 before the last, and piece1 takes the good both times.
    val = Additive(values={0: 5, 1: 3, 2: 2, 3: 1})
    assert _cac_greedy(val, frozenset({0, 1, 2, 3})) == (frozenset({0, 3}), frozenset({1, 2}), 6, 5)


def test_cut_and_choose_gives_piece2_under_double_indifference():
    # The cutter splits {0, 1, 2} into {0} and {1, 2}, both worth 4 to it,
    # and the chooser values both pieces at 2.
    cutter = Additive(values={0: 4, 1: 3, 2: 1})
    chooser = Additive(values={0: 2, 1: 1, 2: 1})
    assert _cac_greedy(cutter, frozenset({0, 1, 2}))[:2] == (frozenset({0}), frozenset({1, 2}))
    assert cut_and_choose(cutter, chooser, {0, 1, 2}) == (frozenset({1, 2}), frozenset({0}), False, 2)


def test_cac_singleton_and_empty():
    val = Additive(values={0: 3})
    assert _cac_greedy(val, frozenset({0})) == (frozenset({0}), frozenset(), 3, 0)
    assert _cac_greedy(val, frozenset()) == (frozenset(), frozenset(), 0, 0)


def test_cac_table_exhaustive(noncancellable_table):
    p1, p2 = _cac_exhaustive(noncancellable_table, frozenset({0, 1, 2}))
    assert p1 | p2 == {0, 1, 2}
    assert not (p1 & p2)
    assert _is_efx_pair(noncancellable_table, p1, p2)
    chooser_piece, cutter_piece, _, _ = cut_and_choose(noncancellable_table, noncancellable_table,
                                                       {0, 1, 2})
    assert {chooser_piece, cutter_piece} == {p1, p2}


def test_cac_table_capacity():
    big = Table(entries={frozenset(): 0, frozenset({0}): 1})
    with pytest.raises(CapacityError):
        cut_and_choose(big, big, range(17))


def test_cut_and_choose_indifferent_cutter():
    cutter = Additive(values={0: 3, 1: 3})
    chooser = Additive(values={0: 8, 1: 1})
    chooser_piece, cutter_piece, same, value = cut_and_choose(cutter, chooser, {0, 1})
    assert chooser_piece == {0} and cutter_piece == {1}
    assert not same and value == 8


def test_cut_and_choose_aligned_preferences():
    val = Additive(values={0: 6, 1: 1})
    chooser_piece, cutter_piece, same, value = cut_and_choose(val, val, {0, 1})
    assert chooser_piece == {0} and cutter_piece == {1}
    assert same and value == 6


def test_cut_and_choose_empty():
    val = Additive(values={})
    chooser_piece, cutter_piece, same, value = cut_and_choose(val, val, set())
    assert chooser_piece == frozenset() and cutter_piece == frozenset() and value == 0
    assert not same  # double indifference splits the (index-distinct) pieces


def test_cac_pieces_efx_feasible_vs_exhaustive():
    # greedy output must sit inside the nonempty exhaustive EFX-bipartition set
    rng = random.Random(101)
    for _ in range(200):
        kind = rng.choice(["additive", "unit_demand", "budget_additive"])
        goods = rng.sample(range(20), rng.randint(0, 8))
        val = random_family_valuation(rng, kind, goods)
        chooser_piece, cutter_piece, _, _ = cut_and_choose(val, val, goods)
        assert chooser_piece | cutter_piece == frozenset(goods)
        assert not (chooser_piece & cutter_piece)
        efx_pairs = []
        for mask in range(1 << len(goods)):
            p1 = frozenset(g for i, g in enumerate(goods) if mask >> i & 1)
            p2 = frozenset(goods) - p1
            if _is_efx_pair(val, p1, p2):
                efx_pairs.append((p1, p2))
        assert efx_pairs
        assert (chooser_piece, cutter_piece) in efx_pairs or (cutter_piece, chooser_piece) in efx_pairs


def test_cut_and_choose_chooser_ef_cutter_efx():
    rng = random.Random(41)
    for _ in range(300):
        goods = rng.sample(range(16), rng.randint(0, 6))
        cutter = random_family_valuation(rng, rng.choice(["additive", "unit_demand", "budget_additive"]), goods)
        chooser = random_family_valuation(rng, rng.choice(["additive", "unit_demand", "budget_additive"]), goods)
        cp, kp, _, value = cut_and_choose(cutter, chooser, goods)
        assert value == chooser.value(cp) >= chooser.value(kp)
        for x in cp:
            assert cutter.value(kp) >= cutter.value(cp - {x})


def test_determinism():
    rng = random.Random(77)
    for _ in range(50):
        goods = rng.sample(range(12), rng.randint(1, 8))
        val = random_family_valuation(rng, "additive", goods)
        chooser = random_family_valuation(rng, "additive", goods)
        first = cut_and_choose(val, chooser, goods)
        assert cut_and_choose(val, chooser, set(goods)) == first


def test_cac_greedy_reuses_its_running_piece_values():
    # The greedy values k, k-1, ..., 1 candidate pieces; each piece's final
    # value is the one its last extension queried, so only a piece the greedy
    # never extended is valued afterwards.
    rng = random.Random(59)
    empties = Counter()
    for _ in range(300):
        kind = rng.choice(["additive", "unit_demand", "budget_additive"])
        goods = rng.sample(range(20), rng.randint(0, 8))
        val = random_family_valuation(rng, kind, goods, value_max=rng.choice((0, 3, 20)))
        chooser = random_family_valuation(rng, kind, goods)
        counter = [0]
        cut = cut_and_choose(CountingValuation(val, counter), chooser, goods)
        assert cut == cut_and_choose(val, chooser, goods)
        k = len(goods)
        empty = (not cut[0]) + (not cut[1])
        assert counter[0] == k * (k + 1) // 2 + empty
        empties[k > 0, empty] += 1
    assert empties[True, 0] and empties[True, 1] and empties[False, 2], empties


# Each cutter splits {0, 1, 2} into piece1 {0} and piece2 {1, 2}, greedily and
# exhaustively, and values them as named; each chooser compares piece1 with piece2 as named.
_CUTTERS = {">": {0: 4, 1: 2, 2: 1}, "<": {0: 3, 1: 2, 2: 2}, "=": {0: 2, 1: 1, 2: 1}}
_CHOOSERS = {">": {0: 5, 1: 1, 2: 1}, "<": {0: 1, 1: 1, 2: 1}, "=": {0: 2, 1: 1, 2: 1}}
# (chooser, cutter) -> (the chooser's piece index, same_pref)
_PICKS = {(">", ">"): (1, True), (">", "<"): (1, False), (">", "="): (1, False),
          ("<", ">"): (2, False), ("<", "<"): (2, True), ("<", "="): (2, False),
          ("=", ">"): (2, False), ("=", "<"): (1, False), ("=", "="): (2, False)}


def _as_table(values):
    goods = sorted(values)
    return Table(entries={frozenset(g for i, g in enumerate(goods) if mask >> i & 1):
                          sum(values[g] for i, g in enumerate(goods) if mask >> i & 1)
                          for mask in range(1 << len(goods))})


@pytest.mark.parametrize("family", ["additive", "table"])
@pytest.mark.parametrize("chooser_cmp, cutter_cmp", sorted(product("><=", repeat=2)))
def test_cut_and_choose_tie_table(family, chooser_cmp, cutter_cmp):
    cutter = Additive(values=_CUTTERS[cutter_cmp])
    if family == "table":
        cutter = _as_table(_CUTTERS[cutter_cmp])
    chooser = Additive(values=_CHOOSERS[chooser_cmp])
    pieces = (frozenset({0}), frozenset({1, 2}))
    s, same = _PICKS[chooser_cmp, cutter_cmp]
    chooser_piece, cutter_piece, same_pref, value = cut_and_choose(cutter, chooser, {0, 1, 2})
    assert (chooser_piece, cutter_piece) == (pieces[s - 1], pieces[2 - s])
    assert same_pref is same and value == chooser.value(chooser_piece)
    halves, ref_s, ref_t = reference_cut_preferences(cutter, chooser, {0, 1, 2})
    assert halves == pieces and ref_s == s
    assert same_pref == (ref_s == ref_t)


def _monotone_table(rng, goods):
    """A random monotone table over ``goods``, built up by bitmask."""
    vs = [0] * (1 << len(goods))
    for mask in range(1, 1 << len(goods)):
        below = max(vs[mask & ~(1 << i)] for i in range(len(goods)) if mask >> i & 1)
        vs[mask] = below + rng.randint(0, 3)
    return vs


def test_table_cut_query_count_does_not_depend_on_the_good_ids(monkeypatch):
    # Relabelling goods by an increasing map keeps their order, so the cut and
    # every query it makes correspond.  A search that stopped at the first
    # removal in a set's hash order would count differently: 8 and 5 iterate
    # as 8, 5 in a small set.
    counter = [0]
    table_value = Table.value

    def counted(self, bundle):
        counter[0] += 1
        return table_value(self, bundle)

    monkeypatch.setattr(Table, "value", counted)
    rng = random.Random(13)
    ids = [1, 5, 8, 13, 16, 21, 24, 29]
    for _ in range(150):
        k = rng.randint(0, 6)
        vs = _monotone_table(rng, list(range(k)))
        weights = [rng.randint(0, 3) for _ in range(k)]
        relabelled = sorted(rng.sample(ids, k))
        counts, cuts = [], []
        for goods in (list(range(k)), relabelled):
            table = Table(entries={frozenset(g for i, g in enumerate(goods) if mask >> i & 1): v
                                   for mask, v in enumerate(vs)})
            chooser = Additive(values={g: w for g, w in zip(goods, weights)})
            counter[0] = 0
            chooser_piece, cutter_piece, same_pref, value = cut_and_choose(table, chooser, goods)
            counts.append(counter[0])
            piece1 = _cac_exhaustive(table, frozenset(goods))[0]
            cuts.append([sorted(goods.index(g) for g in p)
                         for p in (piece1, chooser_piece, cutter_piece)] + [same_pref, value])
        assert counts[0] == counts[1]
        assert cuts[0] == cuts[1]
