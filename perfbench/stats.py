"""Order statistics used by the benchmark (standard library only)."""

from __future__ import annotations

import math
import statistics

# Percentiles a tail is reported at, lowest first.
LADDER = (50.0, 90.0, 99.0, 99.9)
# A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10


def _rank(n: int, q: float) -> int:
    """1-based nearest rank of the q-th percentile of n samples."""
    # rounding first keeps 99.9% of 10000 at rank 9990, not 9991
    return max(1, math.ceil(round(q * n / 100.0, 9)))


def percentile(samples, q: float) -> float:
    """The q-th percentile by the nearest-rank rule (q in (0, 100])."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[_rank(len(ordered), q) - 1]


def beyond(n: int, q: float) -> int:
    """How many of n samples lie above the nearest-rank q-th percentile."""
    return n - _rank(n, q)


def highest_percentile(samples, ladder=LADDER) -> tuple[float, float, int] | None:
    """(q, value, n) for the highest q in ladder with >= MIN_BEYOND samples beyond it.

    Returns None when even the lowest rung has too few samples beyond it.
    """
    n = len(samples)
    best = None
    for q in ladder:
        if beyond(n, q) >= MIN_BEYOND:
            best = q
    if best is None:
        return None
    return best, percentile(samples, best), n


def quartile_spread(samples) -> float:
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles(n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / q2
