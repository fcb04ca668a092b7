"""Deterministic instance generators for the four benchmark families.

All randomness flows from a 64-bit seed through ``random.Random``; edge
probabilities are integer rationals so generated files are identical across
platforms.
"""

from __future__ import annotations

import random
from typing import Optional

from .errors import InputError
from .multigraph import MultiGraph
from .solvers import Instance
from .valuation import KINDS, Additive, BudgetAdditive, Table, UnitDemand, Valuation

VALUATION_KINDS = tuple(KINDS)
TABLE_SUPPORT_MAX = 4

PETERSEN_EDGES = [
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),       # outer 5-cycle
    (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),       # inner pentagram
    (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),       # spokes
]


def _names(n: int) -> list[str]:
    return [f"a{i}" for i in range(n)]


def _random_table(rng: random.Random, goods: list[int], value_max: int) -> Table:
    # Monotone by construction: each subset adds a nonnegative increment to
    # the max over its one-smaller subsets.
    entries: dict[frozenset[int], int] = {frozenset(): 0}
    for size in range(1, len(goods) + 1):
        for mask in range(1 << len(goods)):
            subset = frozenset(g for i, g in enumerate(goods) if mask >> i & 1)
            if len(subset) != size:
                continue
            floor = max(entries[subset - {g}] for g in subset)
            entries[subset] = floor + rng.randint(0, value_max)
    return Table(entries=entries)


def _make_valuation(
    rng: random.Random, kind: str, incident: list[int], value_max: int
) -> Valuation:
    if kind not in KINDS:
        raise InputError(f"unknown valuation kind {kind!r}")
    if kind == "table" and len(incident) <= TABLE_SUPPORT_MAX:
        return _random_table(rng, sorted(incident), value_max)
    values = {g: rng.randint(0, value_max) for g in incident}
    if kind == "budget_additive":
        return BudgetAdditive(values=values, cap=rng.randint(1, max(1, sum(values.values()))))
    # tables are capped at a small support: a table agent above it gets additive values
    return (UnitDemand if kind == "unit_demand" else Additive)(values=values)


def _finish(
    rng: random.Random, n: int, pairs: list[tuple[int, int]], kind: str, value_max: int
) -> tuple[Instance, list[str]]:
    if value_max < 0:
        raise InputError(f"value_max must be >= 0, got {value_max}")
    graph = MultiGraph(n, pairs)
    vals = {
        u: _make_valuation(rng, kind, sorted(graph.incident_edges(u)), value_max)
        for u in range(n)
    }
    return Instance(graph=graph, valuations=vals), _names(n)


def gen_bipartite(
    seed: int,
    n_left: int,
    n_right: int,
    edge_prob: tuple[int, int] = (1, 2),
    max_parallel: int = 3,
    value_max: int = 100,
    valuation_kind: str = "additive",
) -> tuple[Instance, list[str]]:
    if n_left < 1 or n_right < 1 or max_parallel < 1:
        raise InputError("bipartite generator needs n_left, n_right, max_parallel >= 1")
    p, q = edge_prob
    if not (0 <= p <= q) or q < 1:
        raise InputError("edge probability must be a rational p/q with 0 <= p <= q")
    if valuation_kind == "table":
        raise InputError("table valuations are only generated for multi-trees")
    rng = random.Random(seed)
    pairs = []
    for u in range(n_left):
        for w in range(n_left, n_left + n_right):
            if rng.randrange(q) < p:
                pairs.extend((u, w) for _ in range(rng.randint(1, max_parallel)))
    return _finish(rng, n_left + n_right, pairs, valuation_kind, value_max)


def gen_multitree(
    seed: int,
    n: int,
    max_parallel: int = 3,
    value_max: int = 100,
    valuation_kind: str = "additive",
) -> tuple[Instance, list[str]]:
    if n < 2 or max_parallel < 1:
        raise InputError("multitree generator needs n >= 2 and max_parallel >= 1")
    rng = random.Random(seed)
    pairs = []
    for v in range(1, n):
        parent = rng.randrange(v)
        pairs.extend((parent, v) for _ in range(rng.randint(1, max_parallel)))
    return _finish(rng, n, pairs, valuation_kind, value_max)


def gen_multicycle(
    seed: int,
    length: int,
    max_parallel: int = 3,
    value_max: int = 100,
    valuation_kind: str = "additive",
) -> tuple[Instance, list[str]]:
    if length < 3 or max_parallel < 1:
        raise InputError("multicycle generator needs length >= 3 and max_parallel >= 1")
    if valuation_kind == "table":
        raise InputError("table valuations are only generated for multi-trees")
    rng = random.Random(seed)
    pairs = []
    for v in range(length):
        w = (v + 1) % length
        pairs.extend((v, w) for _ in range(rng.randint(1, max_parallel)))
    return _finish(rng, length, pairs, valuation_kind, value_max)


def gen_petersen(
    seed: int,
    parallel_copies: int = 2,
    value_max: int = 100,
    valuation_kind: str = "additive",
) -> tuple[Instance, list[str]]:
    if parallel_copies < 1:
        raise InputError("petersen generator needs parallel_copies >= 1")
    if valuation_kind == "table":
        raise InputError("table valuations are only generated for multi-trees")
    rng = random.Random(seed)
    pairs = [pair for pair in PETERSEN_EDGES for _ in range(parallel_copies)]
    return _finish(rng, 10, pairs, valuation_kind, value_max)


def generate(family: str, seed: int, valuation_kind: str = "additive", **params):
    """Dispatch by family name; see the family generators for parameters."""
    table = {
        "bipartite": gen_bipartite,
        "multitree": gen_multitree,
        "multicycle": gen_multicycle,
        "petersen": gen_petersen,
    }
    if family not in table:
        raise InputError(f"unknown family {family!r}; expected one of {sorted(table)}")
    return table[family](seed=seed, valuation_kind=valuation_kind, **params)
