"""Order statistics used to reduce benchmark samples.

Every reported figure is a median with its quartiles; timings also carry
the highest percentile that still has at least ten samples beyond it, so
a tail figure never rests on one or two outliers.
"""

import math

# Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


def percentile(values, q):
    """Linear-interpolated q-th percentile (0 <= q <= 100) of `values`.

    Matches numpy's default ("linear") method: rank = q/100 * (n - 1).
    Raises ValueError on an empty sample.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError("percentile out of range: %r" % q)
    ordered = sorted(values)
    rank = q / 100.0 * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return float(ordered[low])
    frac = rank - low
    return ordered[low] * (1.0 - frac) + ordered[high] * frac


def median(values):
    return percentile(values, 50.0)


def samples_beyond(n, q):
    """How many of n samples lie strictly above the q-th percentile rank."""
    return n - 1 - math.floor(q / 100.0 * (n - 1))


def tail_percentile(n):
    """Highest ladder percentile with >= MIN_BEYOND of n samples beyond it.

    Returns None when even the median lacks that support.
    """
    for q in TAIL_LADDER:
        if samples_beyond(n, q) >= MIN_BEYOND:
            return q
    return None


def summarize(values):
    """Median, quartiles, sample count and supported tail of a sample."""
    n = len(values)
    if n == 0:
        return {"n": 0}
    out = {
        "n": n,
        "median": median(values),
        "q1": percentile(values, 25.0),
        "q3": percentile(values, 75.0),
    }
    tail = tail_percentile(n)
    if tail is not None:
        out["tail_q"] = tail
        out["tail"] = percentile(values, tail)
    return out

