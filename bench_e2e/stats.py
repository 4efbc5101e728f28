"""The two statistics the benchmark reports: medians, and a tail percentile
that is refused unless enough samples lie beyond it."""

from __future__ import annotations

import statistics

__all__ = ["MIN_BEYOND", "median", "percentile", "tail_percentile"]

#: A percentile above the median needs this many samples beyond it.
MIN_BEYOND = 10


def median(values) -> float:
    """Median, 0.0 for an empty sample (a layer that never ran)."""
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile.  Raises ``ValueError`` when
    ``q`` is above the median and fewer than :data:`MIN_BEYOND` samples lie
    beyond it — a p99 of 60 samples is one sample, not a statistic."""
    data = sorted(values)
    n = len(data)
    if n == 0:
        raise ValueError("percentile of an empty sample")
    if q > 50 and n * (100.0 - q) / 100.0 < MIN_BEYOND:
        raise ValueError(f"p{q:g} of {n} samples has fewer than "
                         f"{MIN_BEYOND} samples beyond it")
    pos = (n - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return float(data[lo] + (data[hi] - data[lo]) * (pos - lo))


def tail_percentile(values, ladder=(99, 95, 90, 75)) -> tuple[float, float]:
    """``(q, value)`` for the highest ``q`` on ``ladder`` the sample
    supports; ``(50, median)`` when it supports none."""
    values = list(values)
    for q in ladder:
        try:
            return float(q), percentile(values, q)
        except ValueError:
            continue
    return 50.0, median(values)
