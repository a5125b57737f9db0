"""Order statistics used by the benchmark report."""

import statistics

LADDER = (50.0, 90.0, 99.0, 99.9)
# A reported tail percentile has at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(values, q):
    """Nearest-rank q-th percentile, and how many samples lie beyond it."""
    ordered = sorted(values)
    permille = round(q * 10)
    rank = max(1, -(-permille * len(ordered) // 1000))
    return ordered[rank - 1], len(ordered) - rank


def tail_percentile(values):
    """The highest percentile of LADDER with at least MIN_BEYOND samples
    beyond it, as (q, value); None when even the median has fewer."""
    best = None
    for q in LADDER:
        value, beyond = percentile(values, q)
        if beyond >= MIN_BEYOND:
            best = (q, value)
    return best


def spread(values):
    """Distance between the first and third quartile, over the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
