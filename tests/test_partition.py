import random
from collections import Counter

import pytest

from graphefx import Additive, CapacityError, Table, cac, cut_and_choose
from graphefx.partition import _is_efx_pair

from .conftest import CountingValuation, random_family_valuation


def test_cac_greedy_example():
    val = Additive(values={0: 5, 1: 4, 2: 3, 3: 2, 4: 1})
    cut = cac(val, {0, 1, 2, 3, 4})
    assert cut.piece1 == {0, 3, 4}
    assert cut.piece2 == {1, 2}
    assert val.value(cut.piece1) == 8 and val.value(cut.piece2) == 7
    assert cut.cutter_pref == 1 and not cut.cutter_indifferent


def test_cac_singleton_and_empty():
    val = Additive(values={0: 3})
    cut = cac(val, {0})
    assert (cut.piece1, cut.piece2) == (frozenset({0}), frozenset())
    cut = cac(val, set())
    assert (cut.piece1, cut.piece2) == (frozenset(), frozenset())
    assert cut.cutter_indifferent


def test_cac_table_exhaustive(noncancellable_table):
    cut = cac(noncancellable_table, {0, 1, 2})
    assert cut.piece1 | cut.piece2 == {0, 1, 2}
    assert not (cut.piece1 & cut.piece2)
    assert _is_efx_pair(noncancellable_table, cut.piece1, cut.piece2)


def test_cac_table_capacity():
    big = Table(entries={frozenset(): 0, frozenset({0}): 1})
    with pytest.raises(CapacityError):
        cac(big, range(17))


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
        cut = cac(val, goods)
        assert cut.piece1 | cut.piece2 == frozenset(goods)
        assert not (cut.piece1 & cut.piece2)
        efx_pairs = []
        for mask in range(1 << len(goods)):
            p1 = frozenset(g for i, g in enumerate(goods) if mask >> i & 1)
            p2 = frozenset(goods) - p1
            if _is_efx_pair(val, p1, p2):
                efx_pairs.append((p1, p2))
        assert efx_pairs
        assert (cut.piece1, cut.piece2) in efx_pairs or (cut.piece2, cut.piece1) in efx_pairs


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
        first = cac(val, goods)
        assert cac(val, set(goods)) == first


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
        counter = [0]
        cut = cac(CountingValuation(val, counter), goods)
        assert cut == cac(val, goods)
        k = len(goods)
        empty = (not cut.piece1) + (not cut.piece2)
        assert counter[0] == k * (k + 1) // 2 + empty
        empties[k > 0, empty] += 1
    assert empties[True, 0] and empties[True, 1] and empties[False, 2], empties


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
        relabelled = sorted(rng.sample(ids, k))
        counts, cuts = [], []
        for goods in (list(range(k)), relabelled):
            table = Table(entries={frozenset(g for i, g in enumerate(goods) if mask >> i & 1): v
                                   for mask, v in enumerate(vs)})
            counter[0] = 0
            cut = cac(table, goods)
            counts.append(counter[0])
            cuts.append([sorted(goods.index(g) for g in p) for p in (cut.piece1, cut.piece2)]
                        + [cut.cutter_pref, cut.cutter_indifferent])
        assert counts[0] == counts[1]
        assert cuts[0] == cuts[1]
