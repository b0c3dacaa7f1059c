"""Order statistics for the benchmark's reports."""

from __future__ import annotations

import statistics


def percentile(values, p: float) -> float:
    """The ``p``-th percentile, interpolating linearly between the
    closest ranks (the ``inclusive`` method of :mod:`statistics`); 0.0
    for no samples, which is what a layer the run never entered reports."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = (len(ordered) - 1) * p / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def backed_percentile(samples: int, candidates=(50, 75, 90, 95, 99, 99.9)):
    """The highest candidate percentile with at least ten samples
    beyond it, or ``None`` when not even the median has ten."""
    backed = [p for p in candidates if samples * (100 - p) / 100.0 >= 10]
    return max(backed) if backed else None


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3
