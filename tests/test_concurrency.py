"""Thread-safety hammers for the shared mutable state.

The batch engine's workers serialize *fetches*, but the buffer pool and
the metrics registry are still shared objects that concurrent code paths
may touch; their internal locks must keep every counter exact — these
tests assert precise totals, not merely "no crash".
"""

import threading

import pytest

from repro.obs.metrics import REGISTRY
from repro.storage import (BufferPool, DiskManager, PoolCounters,
                           TenantCounters)

N_THREADS = 8
ROUNDS = 400


def _hammer(worker):
    """Run ``worker(thread_index)`` on N_THREADS threads, via a barrier."""
    barrier = threading.Barrier(N_THREADS)
    errors = []

    def runner(t):
        try:
            barrier.wait()
            worker(t)
        except BaseException as exc:   # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=runner, args=(t,))
               for t in range(N_THREADS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors


def test_buffer_pool_hammer_keeps_exact_counters():
    disk = DiskManager(page_size=80)
    n_pages = 16
    disk.allocate_many(n_pages)
    for pid in range(n_pages):
        disk.write(pid, bytes([pid]) * 16)
    pool = BufferPool(disk, capacity=n_pages)

    def worker(t):
        for i in range(ROUNDS):
            pid = (t * 7 + i) % n_pages
            assert bytes(pool.read(pid)[:16]) == bytes([pid]) * 16

    _hammer(worker)
    counters = pool.counters()
    total = N_THREADS * ROUNDS
    # Every access is either a hit or a miss — none lost to a race.
    assert counters.hits + counters.misses == total
    # Capacity covers the working set: each page misses at most once per
    # load, and every miss is exactly one accounted disk read.
    assert counters.evictions == 0
    assert disk.stats.page_reads == counters.misses
    assert n_pages <= counters.misses <= total


def test_buffer_pool_hammer_with_evictions():
    disk = DiskManager(page_size=80)
    n_pages = 32
    disk.allocate_many(n_pages)
    for pid in range(n_pages):
        disk.write(pid, bytes([pid]) * 16)
    pool = BufferPool(disk, capacity=4)    # far below the working set

    def worker(t):
        for i in range(ROUNDS):
            pid = (t + 3 * i) % n_pages
            assert bytes(pool.read(pid)[:16]) == bytes([pid]) * 16

    _hammer(worker)
    counters = pool.counters()
    assert counters.hits + counters.misses == N_THREADS * ROUNDS
    assert disk.stats.page_reads == counters.misses
    assert counters.evictions == counters.misses - len(pool)
    assert len(pool) == 4


def test_pool_counters_sum_is_componentwise():
    a = PoolCounters(hits=1, misses=2, evictions=3)
    b = PoolCounters(hits=10, misses=20, evictions=30)
    assert a + b == PoolCounters(hits=11, misses=22, evictions=33)


def _tenant_pool(n_pages=16, capacity=None, page_size=80):
    disk = DiskManager(page_size=page_size)
    disk.allocate_many(n_pages)
    for pid in range(n_pages):
        disk.write(pid, bytes([pid]) * 16)
    return BufferPool(disk, capacity=n_pages if capacity is None
                      else capacity)


def test_tenant_counters_pin_exact_totals():
    """Per-tenant hits/misses/bytes must sum exactly to the pool's."""
    pool = _tenant_pool(n_pages=8)
    page_bytes = len(pool.read(0, tenant="alice"))   # 1 miss
    for pid in range(1, 8):
        pool.read(pid, tenant="alice")       # 7 more misses
    for pid in range(8):
        pool.read(pid, tenant="alice")       # 8 hits
    for pid in range(4):
        pool.read(pid, tenant="bob")         # 4 hits
    pool.read(0)                             # unattributed hit

    tenants = pool.tenant_counters()
    assert tenants["alice"] == TenantCounters(hits=8, misses=8,
                                              bytes_read=16 * page_bytes)
    assert tenants["bob"] == TenantCounters(hits=4, misses=0,
                                            bytes_read=4 * page_bytes)
    counters = pool.counters()
    assert counters.hits == 13 and counters.misses == 8
    # Attributed accesses can never exceed the pool's own accounting.
    attributed = sum(t.accesses for t in tenants.values())
    assert attributed == counters.accesses - 1    # the unattributed read


def test_tenant_residency_never_double_counts_shared_pages():
    """A page resident for several tenants is counted once, not per
    tenant — the serve-layer regression this subsystem exists for."""
    pool = _tenant_pool(n_pages=8)
    page_bytes = len(pool.read(0, tenant="alice"))
    for pid in range(1, 6):
        pool.read(pid, tenant="alice")        # alice touches 0..5
    for pid in range(4, 8):
        pool.read(pid, tenant="bob")          # bob touches 4..7
    pool.read(3)                              # tenant-less re-read: no-op

    residency = pool.tenant_residency()
    alice = residency["tenants"]["alice"]
    bob = residency["tenants"]["bob"]
    # Pages 4 and 5 are shared; they appear in each tenant's shared
    # figure (visibility) but once in the pool-level totals.
    assert alice == {"exclusive_pages": 4,
                     "exclusive_bytes": 4 * page_bytes,
                     "shared_pages": 2, "shared_bytes": 2 * page_bytes}
    assert bob == {"exclusive_pages": 2,
                   "exclusive_bytes": 2 * page_bytes,
                   "shared_pages": 2, "shared_bytes": 2 * page_bytes}
    assert residency["shared_pages"] == 2
    assert residency["unattributed_pages"] == 0
    assert residency["resident_pages"] == len(pool) == 8
    # The no-double-count invariant: exclusive + shared + unattributed
    # partitions the resident set exactly.
    assert (alice["exclusive_pages"] + bob["exclusive_pages"]
            + residency["shared_pages"]
            + residency["unattributed_pages"]) \
        == residency["resident_pages"]
    assert (alice["exclusive_bytes"] + bob["exclusive_bytes"]
            + residency["shared_bytes"]
            + residency["unattributed_bytes"]) \
        == residency["resident_bytes"]


def test_tenant_residency_forgets_evicted_and_invalidated_pages():
    pool = _tenant_pool(n_pages=8, capacity=2)
    for pid in range(8):
        pool.read(pid, tenant="alice")
    residency = pool.tenant_residency()
    # Only the two resident frames may be attributed, however many
    # pages alice has touched in her lifetime.
    assert residency["resident_pages"] == 2
    assert residency["tenants"]["alice"]["exclusive_pages"] == 2
    pool.invalidate(7)
    residency = pool.tenant_residency()
    assert residency["tenants"]["alice"]["exclusive_pages"] == 1
    assert residency["resident_pages"] == 1
    # Traffic counters survive; residency reflects the present only.
    assert pool.tenant_counters()["alice"].misses == 8
    pool.clear()
    assert pool.tenant_residency()["resident_pages"] == 0


def test_tenant_hammer_keeps_exact_per_tenant_counters():
    """Concurrent tenants on one shared pool: per-tenant counters and
    residency totals stay exact under the hammer."""
    n_pages = 16
    pool = _tenant_pool(n_pages=n_pages)
    tenants = [f"tenant-{t % 4}" for t in range(N_THREADS)]

    def worker(t):
        tenant = tenants[t]
        for i in range(ROUNDS):
            pid = (t * 5 + i) % n_pages
            data = pool.read(pid, tenant=tenant)
            assert bytes(data[:16]) == bytes([pid]) * 16

    _hammer(worker)
    per_tenant = pool.tenant_counters()
    counters = pool.counters()
    total = N_THREADS * ROUNDS
    # Every access was attributed — and none twice.
    assert sum(t.accesses for t in per_tenant.values()) == total
    assert counters.accesses == total
    assert sum(t.hits for t in per_tenant.values()) == counters.hits
    assert sum(t.misses for t in per_tenant.values()) == counters.misses
    # 2 threads share each tenant name: 4 tenants, exact byte totals.
    assert set(per_tenant) == {f"tenant-{i}" for i in range(4)}
    page_bytes = len(pool.read(0))
    assert sum(t.bytes_read for t in per_tenant.values()) \
        == total * page_bytes
    # Every page was read by several tenants and stayed resident, so
    # the residency report must classify all frames as shared.
    residency = pool.tenant_residency()
    assert residency["resident_pages"] == n_pages
    assert residency["shared_pages"] == n_pages
    assert residency["unattributed_pages"] == 0
    for entry in residency["tenants"].values():
        assert entry["exclusive_pages"] == 0


def test_metrics_hammer_counts_every_increment():
    REGISTRY.enable()
    REGISTRY.reset()
    try:
        counter = REGISTRY.counter("repro_test_hammer_total", "test")
        gauge = REGISTRY.gauge("repro_test_hammer_gauge", "test")
        histogram = REGISTRY.histogram("repro_test_hammer_hist", "test")

        def worker(t):
            for i in range(ROUNDS):
                counter.inc(1, shard=str(t % 2))
                gauge.inc(2)
                histogram.observe(float(i % 10))

        _hammer(worker)
        total = N_THREADS * ROUNDS
        assert counter.value(shard="0") + counter.value(shard="1") == total
        assert gauge.value() == 2 * total
        assert histogram.value() == total      # observation count
        # Each thread observed 0..9 repeated ROUNDS/10 times: the sum is
        # exact, so no observation was lost or double-counted.
        assert histogram.sum() \
            == pytest.approx(N_THREADS * (ROUNDS // 10) * 45)
        assert histogram.mean() == pytest.approx(4.5)
    finally:
        REGISTRY.disable()
        REGISTRY.reset()


def test_metrics_snapshots_stay_consistent_under_publishers():
    """collect() taken mid-hammer must be internally consistent: for the
    paired counter each snapshot's shard values sum to a multiple of the
    per-iteration increment, and the histogram's bucket counts always
    sum to its count field — a torn read would break either."""
    registry = REGISTRY
    registry.enable()
    registry.reset()
    stop = threading.Event()
    snapshots = []
    try:
        counter = registry.counter("repro_test_snap_total", "test")
        histogram = registry.histogram("repro_test_snap_hist", "test",
                                       buckets=(2, 4, 8))

        def reader():
            while not stop.is_set():
                snapshots.append({m["name"]: m
                                  for m in registry.collect()["metrics"]})

        reader_thread = threading.Thread(target=reader)
        reader_thread.start()

        def worker(t):
            for i in range(ROUNDS):
                # Two series bumped by the same amount per iteration.
                counter.inc(3, shard="a")
                counter.inc(3, shard="b")
                histogram.observe(float(i % 10))

        _hammer(worker)
        stop.set()
        reader_thread.join()
        snapshots.append({m["name"]: m
                          for m in registry.collect()["metrics"]})

        assert snapshots
        for snap in snapshots:
            hist = snap.get("repro_test_snap_hist")
            if hist is not None:
                for row in hist["series"]:
                    # Per-metric locking: a row is never half-updated.
                    assert sum(row["bucket_counts"]) == row["count"]
            count = snap.get("repro_test_snap_total")
            if count is not None:
                for row in count["series"]:
                    assert row["value"] % 3 == 0
        # The final snapshot carries the exact totals.
        final = snapshots[-1]["repro_test_snap_total"]["series"]
        assert sum(r["value"] for r in final) == N_THREADS * ROUNDS * 6
    finally:
        stop.set()
        registry.disable()
        registry.reset()


def test_metrics_toggling_mid_flight_never_corrupts():
    """enable()/disable() racing instrumented publishers: the guarded
    sites may or may not record each round (the flag is advisory), but
    the registry must stay structurally sound and every recorded value
    must be a full, untorn increment."""
    registry = REGISTRY
    registry.enable()
    registry.reset()
    try:
        counter = registry.counter("repro_test_toggle_total", "test")

        def worker(t):
            if t == 0:
                # One thread flips the switch as fast as it can.
                for _ in range(ROUNDS):
                    registry.disable()
                    registry.enable()
            else:
                for _ in range(ROUNDS):
                    if registry.enabled:     # the instrumented-site idiom
                        counter.inc(5)
                    registry.collect()       # concurrent scrapes

        _hammer(worker)
        assert registry.enabled
        # Whatever subset of rounds saw enabled=True, each one landed as
        # exactly one +5 — no partial or doubled increments.
        value = counter.value()
        assert value % 5 == 0
        assert 0 <= value <= (N_THREADS - 1) * ROUNDS * 5
        # Collection still works and reflects the same value.
        (family,) = [m for m in registry.collect()["metrics"]
                     if m["name"] == "repro_test_toggle_total"]
        assert family["series"][0]["value"] == value
    finally:
        REGISTRY.enable()
        REGISTRY.disable()
        REGISTRY.reset()
