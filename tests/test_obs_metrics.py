"""Tests for the metrics registry and the instrumented publish sites."""

import pytest

from repro.core import IHilbertIndex, LinearScanIndex, ValueQuery
from repro.obs.metrics import MetricsRegistry, REGISTRY


@pytest.fixture
def registry():
    return MetricsRegistry()


@pytest.fixture
def live_registry():
    """The process-wide registry, enabled and restored afterwards."""
    REGISTRY.reset()
    REGISTRY.enable()
    yield REGISTRY
    REGISTRY.disable()
    REGISTRY.reset()


# -- metric primitives -------------------------------------------------------

def test_counter_accumulates_per_label_set(registry):
    c = registry.counter("reads", "total reads")
    c.inc(1, disk="data")
    c.inc(2, disk="data")
    c.inc(5, disk="tree")
    assert c.value(disk="data") == 3
    assert c.value(disk="tree") == 5
    assert c.value(disk="absent") == 0.0


def test_counter_rejects_negative(registry):
    c = registry.counter("c")
    with pytest.raises(ValueError):
        c.inc(-1)


def test_gauge_set_and_inc(registry):
    g = registry.gauge("frames")
    g.set(10, pool="data")
    g.inc(-3, pool="data")
    assert g.value(pool="data") == 7


def test_histogram_buckets_and_moments(registry):
    h = registry.histogram("pages", buckets=(1, 10, 100))
    for v in (0.5, 5, 5, 50, 500):
        h.observe(v)
    assert h.value() == 5
    assert h.sum() == 560.5
    assert h.mean() == pytest.approx(112.1)
    dump = h.collect()["series"][0]
    # Cumulative per-bucket counts: <=1, <=10, <=100, +inf.
    assert dump["bucket_counts"] == [1, 2, 1, 1]
    assert dump["count"] == 5


def test_histogram_needs_buckets(registry):
    with pytest.raises(ValueError):
        registry.histogram("bad", buckets=())


def test_registration_is_idempotent_but_typed(registry):
    c1 = registry.counter("x")
    c2 = registry.counter("x")
    assert c1 is c2
    with pytest.raises(ValueError):
        registry.gauge("x")
    assert "x" in registry
    assert registry.get("x") is c1


def test_reset_keeps_registrations(registry):
    c = registry.counter("x")
    c.inc(4)
    registry.reset()
    assert c.value() == 0.0
    assert registry.get("x") is c


# -- export ------------------------------------------------------------------

def test_collect_skips_empty_families(registry):
    registry.counter("silent")
    touched = registry.counter("touched")
    touched.inc(1, kind="a")
    names = [m["name"] for m in registry.collect()["metrics"]]
    assert names == ["touched"]


# -- instrumented sites ------------------------------------------------------

def test_disabled_registry_records_nothing(smooth_dem):
    REGISTRY.reset()
    assert not REGISTRY.enabled
    index = IHilbertIndex(smooth_dem)
    vr = smooth_dem.value_range
    index.query(ValueQuery(vr.lo, vr.hi))
    assert REGISTRY.collect()["metrics"] == []


def test_query_publishes_per_method(smooth_dem, live_registry):
    vr = smooth_dem.value_range
    q = ValueQuery(vr.lo, vr.lo + 0.3 * (vr.hi - vr.lo))
    ih = IHilbertIndex(smooth_dem)
    scan = LinearScanIndex(smooth_dem)
    ih.query(q)
    ih.query(q)
    scan.query(q)

    queries = live_registry.get("repro_queries_total")
    assert queries.value(method="I-Hilbert") == 2
    assert queries.value(method="LinearScan") == 1

    pages = live_registry.get("repro_query_page_reads")
    assert pages.value(method="I-Hilbert") == 2
    assert pages.sum(method="LinearScan") > 0


def test_disk_reads_split_by_kind(smooth_dem, live_registry):
    index = LinearScanIndex(smooth_dem)
    index.clear_caches()
    vr = smooth_dem.value_range
    result = index.query(ValueQuery(vr.lo, vr.hi))

    reads = live_registry.get("repro_disk_page_reads_total")
    sequential = reads.value(disk="data", kind="sequential")
    random = reads.value(disk="data", kind="random")
    assert sequential + random == result.io.page_reads
    assert random == result.io.random_reads
