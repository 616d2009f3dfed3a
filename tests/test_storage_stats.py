"""Unit tests for IOStats counters."""

from repro.storage import IOStats


def test_reset_zeroes_everything():
    s = IOStats(page_reads=5, sequential_reads=2, random_reads=3,
                skipped_pages=4, page_writes=1, pages_allocated=9,
                cache_hits=7)
    s.reset()
    assert s == IOStats()


def test_snapshot_is_independent_copy():
    s = IOStats(page_reads=1)
    snap = s.snapshot()
    s.page_reads = 10
    assert snap.page_reads == 1


def test_diff_returns_deltas():
    s = IOStats(page_reads=10, random_reads=4, sequential_reads=6,
                skipped_pages=2, cache_hits=1)
    earlier = IOStats(page_reads=3, random_reads=1, sequential_reads=2,
                      skipped_pages=1)
    d = s.diff(earlier)
    assert d.page_reads == 7
    assert d.random_reads == 3
    assert d.sequential_reads == 4
    assert d.skipped_pages == 1
    assert d.cache_hits == 1


def test_simulated_cost_weights_random_higher():
    s = IOStats(random_reads=1, sequential_reads=10)
    assert s.simulated_cost() == 8.5 + 10 * 0.2


def test_simulated_cost_counts_skipped_as_sequential():
    s = IOStats(sequential_reads=1, skipped_pages=3)
    assert s.simulated_cost(random_read=1.0, sequential_read=0.1) == \
        (1 + 3) * 0.1


def test_simulated_cost_custom_weights():
    s = IOStats(random_reads=2, sequential_reads=4)
    assert s.simulated_cost(random_read=8.5, sequential_read=0.2) == \
        2 * 8.5 + 4 * 0.2
