"""Order statistics: medians, quartiles and tail percentiles.

Quartiles are the ones :func:`statistics.quantiles` gives with ``n=4``
(its default exclusive method), so spreads computed here match any
other tool that reads the same result files that way.  A tail
percentile is only reported when at least :data:`MIN_BEYOND` samples
lie beyond it; fewer would make it the noise of a handful of requests.
"""

from __future__ import annotations

import math
import statistics
from fractions import Fraction

#: Samples that must lie strictly beyond a reported tail percentile.
MIN_BEYOND = 10


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` of ``values`` (one value gives it thrice)."""
    values = [float(v) for v in values]
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def median(values) -> float:
    return quartiles(values)[1]


def spread(values) -> float:
    """Interquartile range as a share of the median (``inf`` at 0)."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else math.inf


def _rank(n: int, pct: float) -> int:
    """1-based nearest rank of the ``pct``-th percentile of ``n``
    samples, in exact arithmetic (``0.99 * 1000`` must be 990)."""
    return max(1, math.ceil(Fraction(str(pct)) * n / 100))


def beyond(n: int, pct: float) -> int:
    """Samples strictly above the ``pct``-th percentile of ``n``."""
    return n - _rank(n, pct)


def samples_for(pct: float) -> int:
    """Fewest samples that keep :data:`MIN_BEYOND` beyond ``pct``."""
    n = MIN_BEYOND
    while beyond(n, pct) < MIN_BEYOND:
        n += 1
    return n


def percentile(samples, pct: float) -> float:
    """Nearest-rank ``pct``-th percentile of ``samples``.

    Raises ``ValueError`` when fewer than :data:`MIN_BEYOND` samples
    lie beyond it.
    """
    ordered = sorted(float(s) for s in samples)
    n = len(ordered)
    if beyond(n, pct) < MIN_BEYOND:
        raise ValueError(
            f"p{pct} of {n} samples keeps only {beyond(n, pct)} beyond "
            f"it; need {samples_for(pct)} samples for {MIN_BEYOND}")
    return ordered[_rank(n, pct) - 1]
