"""Statistics for the repository benchmark (run.py).

Kept apart from run.py so test_stats.py can check them without a build.
"""

import statistics

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3


def median(values):
    """Median of a non-empty sequence."""
    return statistics.median(values)


def quartiles(values):
    """(Q1, Q2, Q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail_percentile(values, beyond=10):
    """The highest percentile that has at least `beyond` samples above it.

    Returns (percentile, value), or None when there are too few samples.
    With n sorted samples, the value at 0-based index n - beyond - 1 has
    exactly `beyond` samples above it; it sits at percentile
    100 * (n - beyond) / n.
    """
    n = len(values)
    if n <= beyond:
        return None
    ordered = sorted(values)
    return 100.0 * (n - beyond) / n, ordered[n - beyond - 1]


def best_times(rounds):
    """Per-point fastest time over the rounds.

    `rounds` is a list of rounds, each a list with one time per point.
    The fastest run of each point is the one least disturbed by other
    tenants of the host, whose contention comes and goes in phases of
    seconds; the sum of these times is the time one undisturbed round
    would take.
    """
    return [min(r[i] for r in rounds) for i in range(len(rounds[0]))]


def fold(sim):
    """FNV-1a 64 over the sorted `key=value` lines of a dict of simulated
    results, as 16 hex digits: one fingerprint for a whole workload."""
    h = FNV_OFFSET
    for key in sorted(sim):
        for byte in f"{key}={sim[key]}\n".encode():
            h ^= byte
            h = (h * FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    return f"{h:016x}"
