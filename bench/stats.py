"""Order statistics used by the benchmark and by ``compare.py``.

Quartiles follow ``statistics.quantiles(values, n=4)`` (the exclusive method),
so the spread the benchmark reports is the one its acceptance rule uses.
"""

from __future__ import annotations

import math
import statistics

MIN_BEYOND_TAIL = 10
# A gain is claimed only when the change wins this share of all pairs run.
WIN_SHARE = 0.9


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    values = list(values)
    if len(values) == 1:
        return (float(values[0]),) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def relative_spread(values) -> float:
    """Distance between the first and third quartile as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


def nearest_rank(values, pct: float) -> float:
    """Nearest-rank percentile: the smallest value with at least pct% of the
    samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def samples_beyond(n: int, pct: float) -> int:
    """How many of n samples lie above the nearest-rank pct percentile."""
    return n - max(1, math.ceil(pct / 100.0 * n))


def tail_percentile(values, pct: float) -> float:
    """The pct percentile, refused unless at least ten samples lie beyond it."""
    values = list(values)
    beyond = samples_beyond(len(values), pct)
    if beyond < MIN_BEYOND_TAIL:
        raise ValueError(
            f"p{pct:g} of {len(values)} samples has {beyond} beyond it; "
            f"need {MIN_BEYOND_TAIL}"
        )
    return nearest_rank(values, pct)


def paired_gain(parent, change, better: str) -> bool:
    """The rule for claiming a gain from paired runs of parent and change.

    The change must win at least nine tenths of all pairs (ties count for
    neither side), and its median must beat the parent's by more than the
    parent's own quartile distance.
    """
    parent, change = list(parent), list(change)
    if len(parent) != len(change) or not parent:
        raise ValueError("paired_gain needs two equal, non-empty lists of runs")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', not {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    q1, _, q3 = quartiles(parent)
    improvement = sign * (median(parent) - median(change))
    return wins >= WIN_SHARE * len(parent) and improvement > (q3 - q1)
