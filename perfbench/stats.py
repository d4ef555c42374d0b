"""Summary statistics the benchmark reports.

Timings are reported as a median plus the highest percentile the sample
supports: a percentile counts as supported only when at least
:data:`MIN_BEYOND` samples lie beyond it, so a "p99" is never read off
the single largest of 200 samples.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence

#: Samples that must lie strictly beyond a reported percentile.
MIN_BEYOND = 10

#: Percentiles tried, highest first, by :func:`highest_supported`.
PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _rank(p: float, n: int) -> int:
    """1-based nearest-rank position of the *p*-th percentile of *n*."""
    # Rounded first: 99.9 / 100 * 10000 is 9990.000000000002 in floats.
    return max(1, math.ceil(round(p / 100.0 * n, 6)))


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank *p*-th percentile (``0 < p <= 100``) of *values*."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    return ordered[_rank(p, len(ordered)) - 1]


def supported(n: int, p: float) -> bool:
    """Whether *n* samples leave :data:`MIN_BEYOND` beyond the *p*-th."""
    return n > 0 and n - _rank(p, n) >= MIN_BEYOND


def highest_supported(n: int, ladder: Iterable[float] = PERCENTILE_LADDER) -> Optional[float]:
    """The highest percentile of *ladder* that *n* samples support."""
    for p in ladder:
        if supported(n, p):
            return p
    return None


def geomean(values: Sequence[float]) -> float:
    """Geometric mean of positive *values*."""
    if not values:
        raise ValueError("geomean of an empty sample")
    if any(value <= 0 for value in values):
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(value) for value in values) / len(values))
