"""The benchmark's own derivations: percentiles, self time, device time."""

import statistics

import pytest

from fieldbench.stats import (MIN_BEYOND, covered_ns, device_ms,
                              min_samples, percentile, self_time_ns, spread)
from repro.storage import IOStats
from repro.storage.stats import RANDOM_READ_MS, SEQUENTIAL_READ_MS


def test_percentile_is_nearest_rank_over_all_samples():
    samples = list(range(1, 101))          # 1..100
    assert percentile(samples, 50) == 50
    assert percentile(samples, 90) == 90
    # Pooled: the order samples arrive in (pass by pass) is irrelevant.
    assert percentile(samples[::-1], 90) == 90


def test_percentile_needs_ten_samples_beyond_it():
    assert MIN_BEYOND == 10
    assert min_samples(90) == 100
    assert min_samples(50) == 20
    percentile(range(100), 90)
    with pytest.raises(ValueError, match="need 10"):
        percentile(range(99), 90)
    percentile(range(20), 50)
    with pytest.raises(ValueError):
        percentile(range(19), 50)


def test_percentile_rejects_out_of_range_p():
    with pytest.raises(ValueError):
        percentile(range(1000), 100)


def test_self_time_subtracts_child_coverage_once():
    # Overlapping children cover [10, 50]; the third is clipped to
    # [90, 100]: 50 ns of the 100 ns span are covered.
    children = [(10, 30), (20, 50), (90, 120)]
    assert covered_ns(children, 0, 100) == 50
    assert self_time_ns(0, 100, children) == 50


def test_self_time_without_children_is_the_duration():
    assert self_time_ns(5, 25, []) == 20
    assert self_time_ns(5, 25, [(30, 40)]) == 20


def test_device_ms_uses_the_repository_constants():
    io = IOStats(page_reads=5, random_reads=2, sequential_reads=3,
                 skipped_pages=4)
    want = 2 * RANDOM_READ_MS + (3 + 4) * SEQUENTIAL_READ_MS
    assert device_ms(io) == pytest.approx(want)
    assert RANDOM_READ_MS == 8.5 and SEQUENTIAL_READ_MS == 0.2


def test_spread_is_quartile_distance_over_median():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.0, 12.0, 8.0, 10.0, 10.2]
    q1, med, q3 = statistics.quantiles(values, n=4)
    assert spread(values) == pytest.approx((q3 - q1) / med)
