import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphefx import (
    Additive,
    BudgetAdditive,
    CapacityError,
    InputError,
    Table,
    UnitDemand,
    is_cancellable_bruteforce,
)

from .conftest import random_family_valuation, reference_per_good_value


def test_value_ignores_non_incident():
    val = Additive(values={0: 3, 1: 4})
    assert val.value({0, 1, 9}) == 7


def test_budget_additive_cap_binds():
    val = BudgetAdditive(values={0: 6, 1: 7}, cap=10)
    assert val.value({0, 1}) == 10
    assert val.value({0}) == 6


def test_unit_demand_max():
    val = UnitDemand(values={0: 2, 1: 5})
    assert val.value({0, 1}) == 5
    assert val.value(set()) == 0


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(st.dictionaries(st.integers(0, 20), st.integers(0, 2**70), max_size=8),
       st.one_of(st.just(0), st.integers(0, 2**71)),
       st.lists(st.integers(0, 30), unique=True, max_size=10))
def test_per_good_value_matches_the_generator_formulas(values, cap, goods):
    # Each value is a plain loop; the formulas it replaced are the reference.
    # Goods 21-30 and those the drawn values leave out are outside the support.
    for val in (Additive(values=values), UnitDemand(values=values),
                BudgetAdditive(values=values, cap=cap)):
        for bundle in (goods, [], [g + 100 for g in goods], goods + [g + 100 for g in goods]):
            want = reference_per_good_value(val, bundle)
            assert val.value(frozenset(bundle)) == want
            assert val.value(bundle) == want
            assert val.value(g for g in bundle) == want


def test_negative_values_rejected():
    with pytest.raises(InputError):
        Additive(values={0: -1})
    with pytest.raises(InputError):
        BudgetAdditive(values={0: 1}, cap=-2)


def test_table_validation():
    with pytest.raises(InputError):
        Table(entries={frozenset(): 0, frozenset({0}): 1, frozenset({1}): 1})
    with pytest.raises(InputError):
        Table(entries={frozenset(): 1, frozenset({0}): 2})
    with pytest.raises(InputError):
        Table(entries={frozenset(): 0, frozenset({0}): 2, frozenset({1}): 0,
                       frozenset({0, 1}): 1})


def test_cancellable_additive_and_unit_demand():
    ok, _ = is_cancellable_bruteforce(Additive(values={0: 1, 1: 9, 2: 4}), {0, 1, 2})
    assert ok
    ok, _ = is_cancellable_bruteforce(UnitDemand(values={0: 2, 1: 5, 2: 9}), {0, 1, 2})
    assert ok


def test_cancellable_table_witness(noncancellable_table):
    # 3 = v({0}) >= v({1}) = 2 but v({0,2}) = 3 < 5 = v({1,2})
    ok, witness = is_cancellable_bruteforce(noncancellable_table, {0, 1, 2})
    assert not ok
    assert witness == (frozenset({0}), frozenset({1}), 2)


def test_cancellable_capacity():
    with pytest.raises(CapacityError):
        is_cancellable_bruteforce(Additive(values={}), range(13))


def _naive_cancellable(val, goods):
    # independent triple loop over explicit subsets
    for r1 in range(len(goods) + 1):
        for s in itertools.combinations(goods, r1):
            S = frozenset(s)
            for r2 in range(len(goods) + 1):
                for t in itertools.combinations(goods, r2):
                    T = frozenset(t)
                    if val.value(S) < val.value(T):
                        continue
                    for g in goods:
                        if g in S or g in T:
                            continue
                        if val.value(S | {g}) < val.value(T | {g}):
                            return False
    return True


def test_cancellable_agrees_with_naive_reimplementation():
    rng = random.Random(7)
    goods = list(range(5))
    for _ in range(40):
        kind = rng.choice(["additive", "unit_demand", "budget_additive"])
        val = random_family_valuation(rng, kind, goods, value_max=6)
        ok, _ = is_cancellable_bruteforce(val, goods)
        assert ok == _naive_cancellable(val, goods)


def test_cancellable_fast_screen_matches_slow_path(noncancellable_table):
    # the sorting screen runs first; cancellable families must pass it
    rng = random.Random(9)
    goods = list(range(6))
    for kind in ("additive", "unit_demand", "budget_additive"):
        for _ in range(10):
            val = random_family_valuation(rng, kind, goods, value_max=9)
            ok, witness = is_cancellable_bruteforce(val, goods)
            assert ok and witness is None


def test_union_property_for_cancellable_families():
    # v(S1)>=v(T1) and v(S2)>=v(T2) on disjoint pairs imply the union inequality
    rng = random.Random(31)
    goods = list(range(5))
    for kind in ("additive", "unit_demand", "budget_additive"):
        val = random_family_valuation(rng, kind, goods, value_max=8)
        masks = range(1 << len(goods))
        values = [val.value(g for i, g in enumerate(goods) if m >> i & 1) for m in masks]
        union = [
            val.value(g for i, g in enumerate(goods) if (a | b) >> i & 1)
            for a in masks for b in masks
        ]
        k = 1 << len(goods)
        for m1 in masks:
            for m2 in masks:
                if m1 & m2:
                    continue
                for t1 in masks:
                    if values[m1] < values[t1]:
                        continue
                    for t2 in masks:
                        if t1 & t2 or values[m2] < values[t2]:
                            continue
                        assert union[m1 * k + m2] >= union[t1 * k + t2]


def test_value_restricted_to_support():
    rng = random.Random(13)
    for kind in ("additive", "unit_demand", "budget_additive"):
        val = random_family_valuation(rng, kind, [2, 5, 7])
        for extra in ({}, {0}, {0, 1, 3}):
            bundle = {2, 7} | set(extra)
            assert val.value(bundle) == val.value(bundle & val.support)


def test_cancellable_exact_beyond_64_bits():
    assert is_cancellable_bruteforce(Additive(values={g: 2**62 for g in range(6)}), range(6)) == (
        True, None)


def test_cancellable_screen_matches_naive_on_tables():
    from graphefx.generators import _random_table
    from graphefx.valuation import _cancellable_screen, _value_table

    rng = random.Random(5)
    verdicts = set()
    for _ in range(80):
        goods = list(range(rng.randint(1, 4)))
        table = _random_table(rng, goods, value_max=rng.choice((1, 3, 9)))
        want = _naive_cancellable(table, goods)
        assert _cancellable_screen(_value_table(table, goods), len(goods)) == want
        ok, witness = is_cancellable_bruteforce(table, goods)
        assert ok == want and (witness is None) == want
        verdicts.add(want)
    assert verdicts == {True, False}

