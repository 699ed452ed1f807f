"""Order statistics for the benchmark: percentiles that count failures,
and the spread measure the bounds are stated in."""

from __future__ import annotations

import math
import statistics

INF = math.inf


def percentile(samples, q: float, failed: int = 0) -> float:
    """Nearest-rank *q*-th percentile (0 < q <= 100) of *samples*.

    *failed* requests count as ``+inf`` samples: a request that errored,
    was refused or was never answered misses every latency limit, so it
    pushes the tail out instead of silently shrinking the sample.
    """
    total = len(samples) + failed
    if total == 0:
        raise ValueError("no samples")
    rank = max(1, math.ceil(q / 100.0 * total))
    if rank > len(samples):
        return INF
    return sorted(samples)[rank - 1]


def median(values) -> float:
    return statistics.median(values)


def iqr(values) -> float:
    """Distance between the first and third quartile, as the driver
    computes it (``statistics.quantiles(values, n=4)``)."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def relative_spread(values) -> float:
    """IQR as a share of the median (0 for a single value)."""
    mid = median(values)
    if not mid or math.isinf(mid):
        return INF if len(values) > 1 else 0.0
    return iqr(values) / abs(mid)


def relative_range(values) -> float:
    """(max - min) / median: the spread the bounds were derived from."""
    mid = median(values)
    if not mid or math.isinf(mid):
        return INF
    return (max(values) - min(values)) / abs(mid)
