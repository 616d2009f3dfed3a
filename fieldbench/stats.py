"""Derivations the benchmark's metrics rest on, kept free of I/O so tests
can pin them: pooled percentiles, span self time, simulated device time
and run-to-run spread."""

from __future__ import annotations

import math
import statistics

from repro.storage.stats import RANDOM_READ_MS, SEQUENTIAL_READ_MS

#: A percentile is reported only when at least this many samples lie
#: beyond it, so one outlier cannot set it (a p90 needs 100 samples).
MIN_BEYOND = 10


def min_samples(p: float) -> int:
    """Fewest pooled samples that leave MIN_BEYOND beyond the p-th
    percentile."""
    n = 1
    while n - math.ceil(p / 100.0 * n) < MIN_BEYOND:
        n += 1
    return n


def percentile(samples, p: float) -> float:
    """Nearest-rank p-th percentile of all pooled samples.

    Raises ValueError when fewer than MIN_BEYOND samples lie beyond the
    percentile's rank.
    """
    if not 0.0 < p < 100.0:
        raise ValueError(f"percentile must be in (0, 100), got {p}")
    values = sorted(samples)
    n = len(values)
    rank = math.ceil(p / 100.0 * n)
    if n - rank < MIN_BEYOND:
        raise ValueError(
            f"p{p:g} of {n} samples leaves {n - rank} beyond it; "
            f"need {MIN_BEYOND} (at least {min_samples(p)} samples)")
    return values[rank - 1]


def covered_ns(intervals, t0: int, t1: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[t0, t1]``."""
    clipped = sorted((max(a, t0), min(b, t1)) for a, b in intervals
                     if b > t0 and a < t1)
    total = 0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_time_ns(t0: int, t1: int, children) -> int:
    """A span's duration minus the part of it its children cover."""
    return (t1 - t0) - covered_ns(children, t0, t1)


def device_ms(io) -> float:
    """Simulated device time of an ``IOStats`` delta, in ms.

    Uses the repository's own cost model (``IOStats.simulated_cost``):
    RANDOM_READ_MS per random page read, SEQUENTIAL_READ_MS per
    sequential read and per page the head streams past on a short
    forward hop.
    """
    return io.simulated_cost(random_read=RANDOM_READ_MS,
                             sequential_read=SEQUENTIAL_READ_MS)


def spread(values) -> float:
    """Quartile distance of ``values`` as a share of their median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else math.inf
