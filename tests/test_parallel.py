"""Batch engine workers: one-worker equivalence, determinism, tracing.

The contract of :class:`~repro.core.batch.BatchQueryEngine` is that its
worker count is *invisible* in every output: answers, per-query I/O
attribution, total page counts, pool counters and fault semantics must
be identical to ``workers=1`` at every worker count, on both storage
backends.  Only wall time may differ.
"""

import threading

import pytest

from repro.core import (
    BatchQueryEngine,
    BatchResult,
    DeviceModel,
    IAllIndex,
    IHilbertIndex,
    LinearScanIndex,
    ValueQuery,
)
from repro.core import batch as batch_module
from repro.obs.trace import NULL_TRACER, Tracer
from repro.storage import CorruptPageError, FaultInjector, IOStats
from repro.synth.queries import value_query_workload

METHODS = {
    "LinearScan": LinearScanIndex,
    "I-All": IAllIndex,
    "I-Hilbert": IHilbertIndex,
}


def _workload(field, count=12, seed=9):
    """A mixed workload: random bands plus overlapping wide queries."""
    vr = field.value_range
    queries = value_query_workload(vr, 0.1, count=count, seed=seed)
    # Two overlapping wide bands exercise merging without collapsing the
    # whole workload into a single group.
    queries += [ValueQuery(vr.lo, vr.lo + 0.3 * vr.length),
                ValueQuery(vr.lo + 0.25 * vr.length,
                           vr.lo + 0.45 * vr.length)]
    return queries


def _serial_reference(index, queries, estimate="area"):
    index.clear_caches()
    index.stats.reset()
    return BatchQueryEngine(index, workers=1, cache_pages=0,
                            merge=True).run(queries, estimate=estimate)


# -- construction ------------------------------------------------------------


def test_rejects_bad_worker_count(smooth_dem):
    index = LinearScanIndex(smooth_dem)
    with pytest.raises(ValueError):
        BatchQueryEngine(index, workers=0)


def test_rejects_negative_cache_pages(smooth_dem):
    index = LinearScanIndex(smooth_dem)
    with pytest.raises(ValueError):
        BatchQueryEngine(index, workers=4, cache_pages=-1)


def test_rejects_unknown_fault_mode(smooth_dem):
    engine = BatchQueryEngine(LinearScanIndex(smooth_dem), workers=4)
    with pytest.raises(ValueError):
        engine.run(_workload(smooth_dem), on_fault="ignore")


def test_empty_batch(smooth_dem):
    result = BatchQueryEngine(LinearScanIndex(smooth_dem),
                              workers=4).run([])
    assert isinstance(result, BatchResult)
    assert result.results == []
    assert result.workers == 0
    assert result.io == IOStats()


# -- serial equivalence ------------------------------------------------------


@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("method", sorted(METHODS))
def test_matches_serial_engine_exactly(method, workers, smooth_dem):
    queries = _workload(smooth_dem)
    index = METHODS[method](smooth_dem)
    serial = _serial_reference(index, queries)

    index.clear_caches()
    index.stats.reset()
    par = BatchQueryEngine(index, workers=workers,
                           cache_pages=0).run(queries)

    assert par.groups == serial.groups
    for s, p in zip(serial.results, par.results):
        assert p.candidate_count == s.candidate_count
        assert p.area == s.area
        assert p.io == s.io
    # Total accounting is byte-identical, not merely close.
    assert par.io == serial.io
    assert par.pool == serial.pool
    assert sum(par.worker_io, IOStats()) == par.io


@pytest.mark.parametrize("workers", [1, 4])
def test_mmap_backend_matches_serial(workers, smooth_dem):
    queries = _workload(smooth_dem)
    index = IHilbertIndex(smooth_dem, disk_backend="mmap")
    serial = _serial_reference(index, queries)

    index.clear_caches()
    index.stats.reset()
    par = BatchQueryEngine(index, workers=workers,
                           cache_pages=0).run(queries)
    assert [r.candidate_count for r in par.results] \
        == [r.candidate_count for r in serial.results]
    assert [r.area for r in par.results] == [r.area for r in serial.results]
    assert par.io == serial.io


def test_unmerged_batches_match_too(smooth_dem):
    queries = _workload(smooth_dem)
    index = IAllIndex(smooth_dem)
    index.clear_caches()
    index.stats.reset()
    serial = BatchQueryEngine(index, workers=1, cache_pages=0,
                              merge=False).run(queries)
    index.clear_caches()
    index.stats.reset()
    par = BatchQueryEngine(index, workers=4, cache_pages=0,
                           merge=False).run(queries)
    assert par.groups == len(queries)
    assert [r.io for r in par.results] == [r.io for r in serial.results]
    assert par.io == serial.io


def test_shared_cache_equivalence(smooth_dem):
    # With a shared buffer pool the ticketed fetch order must reproduce
    # the one-worker cache-hit pattern exactly.
    queries = _workload(smooth_dem)
    index = IHilbertIndex(smooth_dem)
    index.clear_caches()
    index.stats.reset()
    serial = BatchQueryEngine(index, workers=1,
                              cache_pages=64).run(queries)
    assert serial.io.cache_hits > 0

    index.clear_caches()
    index.stats.reset()
    par = BatchQueryEngine(index, workers=4, cache_pages=64).run(queries)
    assert [r.io for r in par.results] == [r.io for r in serial.results]
    assert par.io == serial.io
    assert par.pool == serial.pool


def test_worker_count_is_clamped_to_groups(smooth_dem):
    vr = smooth_dem.value_range
    index = LinearScanIndex(smooth_dem)
    par = BatchQueryEngine(index, workers=8).run(
        [ValueQuery(vr.lo, vr.hi)])
    assert par.groups == 1
    assert par.workers == 1
    assert len(par.worker_io) == 1


def test_device_model_converts_io_to_seconds():
    device = DeviceModel(random_read_ms=10.0, sequential_read_ms=1.0,
                         scale=0.5)
    io = IOStats(page_reads=7, random_reads=2, sequential_reads=4,
                 skipped_pages=1)
    assert device.delay_s(io) == pytest.approx((20.0 + 5.0) * 0.5 / 1000)


def test_device_waits_do_not_change_results(smooth_dem):
    queries = _workload(smooth_dem, count=4)
    index = IHilbertIndex(smooth_dem)
    serial = _serial_reference(index, queries)
    index.clear_caches()
    index.stats.reset()
    par = BatchQueryEngine(
        index, workers=4, cache_pages=0,
        device=DeviceModel(scale=0.01)).run(queries)
    assert par.io == serial.io
    assert [r.candidate_count for r in par.results] \
        == [r.candidate_count for r in serial.results]
    assert all(w >= 0.0 for w in par.worker_wall_s)


# -- determinism -------------------------------------------------------------


def test_two_runs_are_bit_identical(smooth_dem):
    queries = _workload(smooth_dem)

    def run():
        index = IHilbertIndex(smooth_dem)
        par = BatchQueryEngine(index, workers=4,
                               cache_pages=0).run(queries)
        return ([r.candidate_count for r in par.results],
                [r.area for r in par.results],
                par.io, par.worker_io)

    assert run() == run()


def test_worker_io_is_a_static_partition(smooth_dem):
    # Worker w owns groups g ≡ w (mod workers); its I/O total is a pure
    # function of the workload, never of thread scheduling.
    queries = _workload(smooth_dem)
    index = IAllIndex(smooth_dem)
    first = BatchQueryEngine(index, workers=3,
                             cache_pages=0).run(queries)
    index.clear_caches()
    index.stats.reset()
    second = BatchQueryEngine(index, workers=3,
                              cache_pages=0).run(queries)
    assert first.worker_io == second.worker_io
    assert len(first.worker_io) == first.workers


# -- tracing -----------------------------------------------------------------


def test_span_tree_nests_workers_under_batch(smooth_dem):
    queries = _workload(smooth_dem, count=6)
    index = IHilbertIndex(smooth_dem)
    tracer = Tracer().attach(index)
    try:
        par = BatchQueryEngine(index, workers=2,
                               cache_pages=0).run(queries)
    finally:
        Tracer.detach(index)

    assert [r.name for r in tracer.roots] == ["batch"]
    bspan = tracer.roots[0]
    assert bspan.attrs["workers"] == 2
    names = [c.name for c in bspan.children]
    assert names[0] == "merge"
    assert names[1:] == ["worker[0]", "worker[1]"]
    for w, wspan in enumerate(bspan.children[1:]):
        # Grafted worker roots carry that worker's fetch I/O.
        assert wspan.io == par.worker_io[w]
        owned = [c.name for c in wspan.children]
        assert owned == [f"group[{g}]"
                         for g in range(w, par.groups, par.workers)]
        for gspan in wspan.children:
            assert gspan.io is not None
            assert {"lo", "hi", "size"} <= set(gspan.attrs)
    # Per-group fetch I/O over all workers adds up to the batch total.
    group_io = sum((g.io for w in bspan.children[1:]
                    for g in w.children), IOStats())
    assert group_io == par.io


def test_one_worker_runs_inline_without_threads_or_tickets(
        smooth_dem, monkeypatch):
    queries = _workload(smooth_dem, count=6)
    index = IHilbertIndex(smooth_dem)
    fetch_threads = []
    candidates = index._candidates

    def recording(lo, hi):
        fetch_threads.append(threading.current_thread())
        return candidates(lo, hi)

    def refuse(*args, **kwargs):
        raise AssertionError("one worker must not start a thread "
                             "or take a ticket")

    monkeypatch.setattr(index, "_candidates", recording)
    monkeypatch.setattr(batch_module, "_FetchTickets", refuse)
    monkeypatch.setattr(batch_module.threading, "Thread", refuse)
    tracer = Tracer().attach(index)
    try:
        result = BatchQueryEngine(index, workers=1,
                                  cache_pages=0).run(queries)
    finally:
        Tracer.detach(index)

    assert result.workers == 1
    assert fetch_threads == [threading.current_thread()] * result.groups
    assert result.worker_io == [result.io]
    # batch → merge, group[i]: no worker span in between.
    root = tracer.roots[0]
    assert root.name == "batch"
    assert [c.name for c in root.children] == (
        ["merge"] + [f"group[{g}]" for g in range(result.groups)])


def test_index_tracer_is_restored_after_the_batch(smooth_dem):
    index = IHilbertIndex(smooth_dem)
    assert index.tracer is NULL_TRACER
    BatchQueryEngine(index, workers=2).run(_workload(smooth_dem, count=4))
    assert index.tracer is NULL_TRACER

    tracer = Tracer().attach(index)
    try:
        BatchQueryEngine(index, workers=2).run(
            _workload(smooth_dem, count=4))
        assert index.tracer is tracer
    finally:
        Tracer.detach(index)


# -- faults ------------------------------------------------------------------


@pytest.mark.parametrize("backend", ["list", "mmap"])
def test_raise_mode_propagates_the_serial_error(backend, smooth_dem):
    queries = _workload(smooth_dem)
    index = IHilbertIndex(smooth_dem, disk_backend=backend)
    pid = index.store.page_ids[1]
    index.data_disk._flip_bit(pid, byte_index=3, bit=2)

    index.clear_caches()
    with pytest.raises(CorruptPageError) as serial_exc:
        BatchQueryEngine(index, workers=1, cache_pages=0).run(queries)

    index.clear_caches()
    with pytest.raises(CorruptPageError) as par_exc:
        BatchQueryEngine(index, workers=4, cache_pages=0).run(queries)
    # Ticketed fetches fail in group order, so four workers surface
    # exactly the error one worker raised.
    assert par_exc.value.page_id == serial_exc.value.page_id
    assert par_exc.value.disk == serial_exc.value.disk
    # A failed batch leaves the index usable (tracer/fault mode reset).
    assert index.tracer is NULL_TRACER
    index.clear_caches()
    vr = smooth_dem.value_range
    band = ValueQuery(vr.lo, vr.lo + 0.1 * vr.length)
    assert index.query(band).candidate_count >= 0


@pytest.mark.parametrize("backend", ["list", "mmap"])
def test_skip_mode_matches_serial_degradation(backend, smooth_dem):
    queries = _workload(smooth_dem)
    index = IHilbertIndex(smooth_dem, disk_backend=backend)
    pid = index.store.page_ids[1]
    index.data_disk._flip_bit(pid, byte_index=3, bit=2)

    index.clear_caches()
    index.stats.reset()
    serial = BatchQueryEngine(index, workers=1, cache_pages=0).run(
        queries, on_fault="skip")
    index.clear_caches()
    index.stats.reset()
    par = BatchQueryEngine(index, workers=4, cache_pages=0).run(
        queries, on_fault="skip")

    assert [r.degraded for r in par.results] \
        == [r.degraded for r in serial.results]
    assert [[f.page_id for f in r.faults] for r in par.results] \
        == [[f.page_id for f in r.faults] for r in serial.results]
    assert [r.candidate_count for r in par.results] \
        == [r.candidate_count for r in serial.results]
    assert [r.io for r in par.results] == [r.io for r in serial.results]
    assert par.io == serial.io
    assert par.pool == serial.pool
    assert any(r.degraded for r in par.results)


def test_transient_faults_retry_identically(smooth_dem):
    from repro.storage import RetryPolicy
    queries = _workload(smooth_dem)

    def run(workers):
        index = IHilbertIndex(
            smooth_dem, retry_policy=RetryPolicy(max_attempts=5),
            disk_backend="mmap")
        injector = index.inject_faults(FaultInjector(seed=17))
        injector.add("read_error", max_faults=4)
        batch = BatchQueryEngine(index, workers=workers,
                                 cache_pages=0).run(queries)
        return ([r.candidate_count for r in batch.results], batch.io,
                [(e.kind, e.page_id, e.op_index) for e in injector.events])

    serial_out = run(workers=1)
    par_out = run(workers=4)
    # Ticketed fetches keep the injector's op counter on the one-worker
    # schedule, so the same faults hit the same operations.
    assert par_out == serial_out
    assert serial_out[1].read_retries == 4
