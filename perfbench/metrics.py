"""The benchmark's own arithmetic: percentiles, span self time, error rate,
and the machine-speed probe that wall times are scaled by.

Apart from the probe, pure functions over plain numbers, so the tests can pin
every rule down.
"""

from __future__ import annotations

import math
import time
from typing import Iterable, Sequence

TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
TAIL_MIN_PERCENTILE = 50


def nearest_rank(samples: Sequence[float], percentile: float) -> float:
    """The nearest-rank ``percentile`` of ``samples``: the ceil(p/100 * n)-th smallest."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(percentile / 100 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(samples: Sequence[float]) -> tuple[int, float, int]:
    """The highest whole percentile with at least ten samples beyond it.

    Returns (percentile, value, samples beyond).  Percentiles below the
    median are not a tail, so fewer than 20 samples is refused.
    """
    n = len(samples)
    for p in range(99, TAIL_MIN_PERCENTILE - 1, -1):
        beyond = n - math.ceil(p / 100 * n)
        if beyond >= TAIL_BEYOND:
            return p, nearest_rank(samples, p), beyond
    raise ValueError(
        f"{n} samples are too few for a tail percentile: p{TAIL_MIN_PERCENTILE}"
        f" needs at least {TAIL_BEYOND} samples beyond it"
    )


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by the union of half-open [start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(start: float, end: float, children: Iterable[tuple[float, float]]) -> float:
    """A span's duration minus the part of it that its child spans cover.

    Children may overlap each other (threads under ``solve --batch``); the
    union of their intervals, clipped to the parent, is subtracted once.
    """
    clipped = [(max(s, start), min(e, end)) for s, e in children if min(e, end) > max(s, start)]
    return (end - start) - union_length(clipped)


def error_rate(failed: int, attempted: int) -> float:
    """Failed operations over attempted operations; the base must be positive."""
    if attempted <= 0:
        raise ValueError("error rate needs at least one attempted operation")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed count {failed} outside 0..{attempted}")
    return failed / attempted


# The reference machine (2 vCPUs) changes speed by up to 2x in phases of 5 to
# 40 seconds, and a whole run can fall inside one slow phase.  A fixed probe
# of the same kind of work as the program (dict, set and frozenset
# operations in pure Python) is timed right before and after every
# operation; the operation's wall time is scaled by how much slower than
# nominal the probe ran.  PROBE_NOMINAL_S is the probe's time on that machine
# when it runs at full speed, so scaled times read as milliseconds there.
PROBE_NOMINAL_S = 0.0013


def speed_probe() -> float:
    """Seconds one fixed slice of dict and set work takes right now."""
    start = time.perf_counter()
    table = {i: i * 7 for i in range(2000)}
    total = 0
    for r in range(12):
        goods = frozenset(range(r, 2000, 3))
        total += sum(table.get(g, 0) for g in goods)
        total += sum(1 for g in goods if g in table)
    return time.perf_counter() - start


def scaled(seconds: float, probe_seconds: float) -> float:
    """Wall time rescaled to the machine running at nominal speed."""
    if probe_seconds <= 0:
        raise ValueError("probe time must be positive")
    return seconds * PROBE_NOMINAL_S / probe_seconds
