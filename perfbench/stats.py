"""Summary statistics for the benchmark: medians, quartiles, spreads and
latency percentiles.

Quartiles use Python's ``statistics.quantiles(values, n=4)`` (the
"exclusive" method), the same rule the steadiness check applies to the
benchmark's own runs.
"""

import math
import statistics

# Percentiles a latency tail may be reported at, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)
# A percentile is only reported when at least this many samples lie
# beyond it; otherwise it is the maximum of a handful of samples.
MIN_BEYOND = 10


def quartiles(values):
    """(q1, median, q3) of a non-empty sample."""
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summary(values):
    """Median, quartiles and sample count of a non-empty sample."""
    q1, med, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def spread(values):
    """Interquartile distance as a share of the median (0 for a median
    of 0, where a share is undefined)."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of
    the samples at or below it."""
    if not values:
        raise ValueError("no samples")
    if not 0 < p <= 100:
        raise ValueError("percentile must be in (0, 100]")
    ordered = sorted(values)
    return ordered[rank(len(ordered), p) - 1]


def rank(n, p):
    """1-based nearest rank of the p-th percentile of n samples. The
    product is rounded first so that, say, 99.9 % of 10 000 is rank
    9990, not 9991 through floating-point error."""
    return max(1, math.ceil(round(p / 100 * n, 6)))


def beyond(n, p):
    """Samples strictly above the nearest-rank p-th percentile of n."""
    return n - rank(n, p)


def tail_percentile(values, candidates=TAIL_PERCENTILES):
    """The highest candidate percentile with at least MIN_BEYOND samples
    beyond it, as (percentile, value, samples beyond); None when even
    the lowest candidate has too few."""
    for p in candidates:
        if beyond(len(values), p) >= MIN_BEYOND:
            return p, percentile(values, p), beyond(len(values), p)
    return None
