"""Failure-matrix tests: fault kind × access method × workload.

The contract under test: a query against faulty storage returns the
exact answer or raises a typed error (`TransientIOError`,
`CorruptPageError`) — it never returns a silently wrong answer.  With
``on_fault="skip"`` it may instead return an explicitly *degraded*
answer that reports every skipped page.  All fault schedules are driven
by one seeded RNG, so every test here is exactly reproducible.

Everything is parametrized over both page-file backends: the in-memory
``list`` backend (:class:`~repro.storage.disk.DiskManager`) and the
``remote`` object-store tier must be indistinguishable under every
fault kind — same typed errors, same counters, same degraded answers.
"""

import pytest

from repro.core import (
    BatchQueryEngine,
    IAllIndex,
    IHilbertIndex,
    ITreeIndex,
    LinearScanIndex,
    PlannedIndex,
    ValueQuery,
)
from repro.obs.metrics import REGISTRY
from repro.shard import ShardedEngine
from repro.storage import (
    CorruptPageError,
    FaultInjector,
    FaultSpec,
    PageFault,
    RetryPolicy,
    SimulatedObjectStore,
    TransientIOError,
)

from .backends import BACKENDS, REMOTE_CACHE_PAGES, disk_backend

METHODS = {
    "LinearScan": LinearScanIndex,
    "I-All": IAllIndex,
    "I-Hilbert": IHilbertIndex,
    "I-Hilbert+planner": PlannedIndex,
}



def _workloads(field) -> list[ValueQuery]:
    """Three query shapes: full-range, narrow band, exact value."""
    vr = field.value_range
    mid = (vr.lo + vr.hi) / 2
    return [
        ValueQuery(vr.lo, vr.hi),
        ValueQuery(vr.lo + 0.3 * vr.length, vr.lo + 0.4 * vr.length),
        ValueQuery.exact(mid),
    ]


# -- FaultSpec / FaultInjector mechanics ------------------------------------


def test_fault_spec_rejects_unknown_kind():
    with pytest.raises(ValueError):
        FaultSpec(kind="gamma_ray")


def test_fault_spec_rejects_bad_probability():
    with pytest.raises(ValueError):
        FaultSpec(kind="read_error", probability=1.5)


def _one_page_disk(payload=b"stored payload", backend="list"):
    disk = disk_backend(backend)(page_size=80)
    pid = disk.allocate()
    disk.write(pid, payload)
    return disk, pid


@pytest.mark.parametrize("backend", BACKENDS)
def test_schedule_fires_at_exact_operations(backend):
    disk, pid = _one_page_disk(backend=backend)
    injector = FaultInjector(seed=0)
    injector.add("read_error", schedule={1})
    disk.fault_injector = injector
    disk.read(pid)                      # op 0: clean
    with pytest.raises(TransientIOError):
        disk.read(pid)                  # op 1: scheduled fault
    disk.read(pid)                      # op 2: clean again
    assert [e.op_index for e in injector.events] == [1]
    assert injector.events[0].kind == "read_error"
    assert injector.events[0].page_id == pid


@pytest.mark.parametrize("backend", BACKENDS)
def test_page_targeting_limits_blast_radius(backend):
    disk = disk_backend(backend)(page_size=80)
    a, b = disk.allocate(), disk.allocate()
    disk.write(a, b"page a")
    disk.write(b, b"page b")
    injector = FaultInjector(seed=0)
    injector.add("read_error", page_ids={b})
    disk.fault_injector = injector
    assert disk.read(a)[:6] == b"page a"
    with pytest.raises(TransientIOError):
        disk.read(b)


@pytest.mark.parametrize("backend", BACKENDS)
def test_max_faults_bounds_the_injection(backend):
    disk, pid = _one_page_disk(backend=backend)
    disk.fault_injector = FaultInjector(seed=0)
    disk.fault_injector.add("read_error", max_faults=2)
    for _ in range(2):
        with pytest.raises(TransientIOError):
            disk.read(pid)
    # Budget spent: reads succeed from now on.
    assert disk.read(pid)[:6] == b"stored"
    assert len(disk.fault_injector.events) == 2


@pytest.mark.parametrize("backend", BACKENDS)
def test_latency_is_accounted_not_fatal(backend):
    disk, pid = _one_page_disk(backend=backend)
    injector = FaultInjector(seed=0)
    injector.add("latency", latency_ms=2.5, schedule={0, 1})
    disk.fault_injector = injector
    disk.read(pid)
    disk.read(pid)
    disk.read(pid)
    assert injector.injected_latency_ms == pytest.approx(5.0)
    assert [e.kind for e in injector.events] == ["latency", "latency"]


@pytest.mark.parametrize("backend", BACKENDS)
def test_bit_flip_damage_is_permanent(backend):
    disk, pid = _one_page_disk(backend=backend)
    disk.fault_injector = FaultInjector(seed=5)
    disk.fault_injector.add("bit_flip", max_faults=1)
    with pytest.raises(CorruptPageError):
        disk.read(pid)
    # Detaching the injector does not heal the page: the stored bytes
    # themselves are damaged, exactly like real bit rot.
    disk.fault_injector = None
    with pytest.raises(CorruptPageError):
        disk.read(pid)
    assert disk.stats.checksum_failures == 2


@pytest.mark.parametrize("backend", BACKENDS)
def test_torn_write_detected_on_next_read(backend):
    disk, pid = _one_page_disk(b"first version of this page",
                               backend=backend)
    injector = FaultInjector(seed=3)
    injector.add("torn_write")
    disk.fault_injector = injector
    disk.write(pid, bytes(range(64)))
    disk.fault_injector = None
    assert [e.kind for e in injector.events] == ["torn_write"]
    # The new header landed but only a prefix of the new payload did;
    # the checksum catches the mixture.
    with pytest.raises(CorruptPageError):
        disk.read(pid)


@pytest.mark.parametrize("backend", BACKENDS)
def test_disk_level_fault_sequence_is_seed_deterministic(backend):
    def run(seed):
        disk = disk_backend(backend)(page_size=80)
        for i in range(8):
            disk.write(disk.allocate(), bytes([i]) * 10)
        injector = FaultInjector(seed=seed)
        injector.add("read_error", probability=0.4)
        disk.fault_injector = injector
        outcomes = []
        for pid in list(range(8)) * 4:
            try:
                disk.read(pid)
                outcomes.append("ok")
            except TransientIOError:
                outcomes.append("fault")
        return outcomes, injector.events

    outcomes_a, events_a = run(seed=42)
    outcomes_b, events_b = run(seed=42)
    assert outcomes_a == outcomes_b
    assert events_a == events_b
    assert "fault" in outcomes_a and "ok" in outcomes_a
    _outcomes_c, events_c = run(seed=43)
    assert events_c != events_a


# -- retry policy ------------------------------------------------------------


def test_retry_policy_backoff_is_exponential():
    policy = RetryPolicy(max_attempts=4, backoff_base_ms=1.0,
                         backoff_factor=2.0)
    assert [policy.backoff_ms(a) for a in (1, 2, 3)] == [1.0, 2.0, 4.0]


def test_retry_policy_rejects_zero_attempts():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)


@pytest.mark.parametrize("backend", BACKENDS)
def test_retries_cure_transient_faults(backend):
    disk = disk_backend(backend)(
        page_size=80, retry_policy=RetryPolicy(max_attempts=4))
    pid = disk.allocate()
    disk.write(pid, b"survives")
    disk.fault_injector = FaultInjector(seed=0)
    disk.fault_injector.add("read_error", max_faults=2)
    assert disk.read(pid)[:8] == b"survives"
    assert disk.stats.read_retries == 2
    # Every attempt is an accounted transfer.
    assert disk.stats.page_reads == 3
    assert disk.simulated_backoff_ms == pytest.approx(1.0 + 2.0)


@pytest.mark.parametrize("backend", BACKENDS)
def test_retry_exhaustion_raises_typed_error(backend):
    disk = disk_backend(backend)(
        page_size=80, retry_policy=RetryPolicy(max_attempts=3))
    pid = disk.allocate()
    disk.fault_injector = FaultInjector(seed=0)
    disk.fault_injector.add("read_error")   # every attempt fails
    with pytest.raises(TransientIOError):
        disk.read(pid)
    assert disk.stats.read_retries == 2     # 3 attempts = 2 retries


@pytest.mark.parametrize("backend", BACKENDS)
def test_corruption_is_never_retried(backend):
    disk = disk_backend(backend)(
        page_size=80, retry_policy=RetryPolicy(max_attempts=4))
    pid = disk.allocate()
    disk.write(pid, b"rotten")
    disk._flip_bit(pid, byte_index=2, bit=4)
    with pytest.raises(CorruptPageError):
        disk.read(pid)
    # Re-reading rotten bytes cannot help; exactly one attempt was made.
    assert disk.stats.read_retries == 0
    assert disk.stats.page_reads == 1


# -- the failure matrix ------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kind", ["read_error", "bit_flip"])
@pytest.mark.parametrize("method", sorted(METHODS))
def test_matrix_exact_answer_or_typed_error(method, kind, backend,
                                            smooth_dem):
    """Under random faults every query is exactly right or typed-fails."""
    clean = METHODS[method](smooth_dem,
                            disk_backend=disk_backend(backend))
    queries = _workloads(smooth_dem)
    expected = []
    for q in queries:
        clean.clear_caches()
        expected.append(clean.query(q).candidate_count)

    faulty = METHODS[method](smooth_dem,
                             disk_backend=disk_backend(backend))
    injector = faulty.inject_faults(FaultInjector(seed=11))
    injector.add(kind, probability=0.25)
    outcomes = []
    for q, want in zip(queries, expected):
        faulty.clear_caches()
        try:
            got = faulty.query(q).candidate_count
        except (TransientIOError, CorruptPageError):
            outcomes.append("error")
        else:
            assert got == want, (
                f"{method}/{kind}: survived the fault schedule but "
                f"answered {got} instead of {want}")
            outcomes.append("exact")
    # The schedule actually fired; the seed makes this reproducible.
    assert injector.events


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("method", sorted(METHODS))
def test_matrix_retry_policy_recovers_exact_answers(method, backend,
                                                    smooth_dem):
    """With retries enabled, transient faults cost I/O, not correctness."""
    clean = METHODS[method](smooth_dem)
    policy = RetryPolicy(max_attempts=5, backoff_base_ms=0.5)
    faulty = METHODS[method](smooth_dem, retry_policy=policy,
                             disk_backend=disk_backend(backend))
    injector = faulty.inject_faults(FaultInjector(seed=3))
    injector.add("read_error", max_faults=3)
    for q in _workloads(smooth_dem):
        clean.clear_caches()
        faulty.clear_caches()
        assert (faulty.query(q).candidate_count
                == clean.query(q).candidate_count)
    assert faulty.stats.read_retries == 3
    assert len(injector.events) == 3


@pytest.mark.parametrize("backend", BACKENDS)
def test_matrix_fault_sequence_is_seed_deterministic(backend, smooth_dem):
    def run(seed):
        index = IHilbertIndex(smooth_dem,
                              disk_backend=disk_backend(backend))
        injector = index.inject_faults(FaultInjector(seed=seed))
        injector.add("read_error", probability=0.5)
        outcomes = []
        for q in _workloads(smooth_dem):
            index.clear_caches()
            try:
                outcomes.append(index.query(q).candidate_count)
            except TransientIOError as exc:
                outcomes.append(("transient", exc.disk, exc.page_id))
        return outcomes, injector.events

    outcomes_a, events_a = run(seed=21)
    outcomes_b, events_b = run(seed=21)
    assert outcomes_a == outcomes_b
    assert events_a == events_b


def test_backends_agree_on_fault_outcomes(smooth_dem):
    """Same seed, same schedule: both backends fail identically."""
    def run(backend):
        index = IHilbertIndex(smooth_dem,
                              disk_backend=disk_backend(backend))
        injector = index.inject_faults(FaultInjector(seed=21))
        injector.add("read_error", probability=0.5)
        outcomes = []
        for q in _workloads(smooth_dem):
            index.clear_caches()
            try:
                outcomes.append(index.query(q).candidate_count)
            except TransientIOError as exc:
                outcomes.append(("transient", exc.disk, exc.page_id))
        return outcomes, [(e.kind, e.page_id, e.op_index)
                          for e in injector.events]

    assert run("list") == run("remote")


# -- graceful degradation (on_fault="skip") ----------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_skip_mode_is_an_explicit_lower_bound(backend, smooth_dem):
    index = LinearScanIndex(smooth_dem, disk_backend=disk_backend(backend))
    vr = smooth_dem.value_range
    q = ValueQuery(vr.lo, vr.hi)
    total = index.query(q).candidate_count
    assert total == len(index.store)

    lost = len(index.store.read_page(2))
    pid = index.store.page_ids[2]
    index.data_disk._flip_bit(pid, byte_index=5, bit=1)
    index.clear_caches()
    result = index.query(q, on_fault="skip")
    assert result.degraded
    assert result.candidate_count == total - lost
    assert [f.page_id for f in result.faults] == [pid]
    assert result.faults[0].kind == "CorruptPageError"
    assert result.faults[0].disk == "data"
    # The default mode refuses to answer from the same damage.
    index.clear_caches()
    with pytest.raises(CorruptPageError):
        index.query(q)


def test_clean_query_is_never_marked_degraded(smooth_dem):
    index = LinearScanIndex(smooth_dem)
    result = index.query(_workloads(smooth_dem)[0], on_fault="skip")
    assert not result.degraded
    assert result.faults == []


@pytest.mark.parametrize(
    "method, backend",
    [(m, b) for b in BACKENDS
     for m in ("I-All", "I-Hilbert", "I-Hilbert+planner")]
    # I-Tree has no disk_backend option: it always runs on the list.
    + [("I-Tree", "list")])
def test_skip_mode_indexed_methods_report_the_page(method, backend,
                                                   smooth_dem):
    if method == "I-Tree":
        index = ITreeIndex(smooth_dem)
    else:
        index = METHODS[method](smooth_dem,
                                disk_backend=disk_backend(backend))
    q = _workloads(smooth_dem)[0]
    clean_count = index.query(q).candidate_count
    pid = index.store.page_ids[1]
    index.data_disk._flip_bit(pid, byte_index=0, bit=7)
    index.clear_caches()
    result = index.query(q, on_fault="skip")
    assert result.degraded
    assert result.candidate_count < clean_count
    assert {f.page_id for f in result.faults} == {pid}
    assert all(isinstance(f, PageFault) for f in result.faults)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("method", ["I-All", "I-Hilbert"])
def test_index_page_faults_always_raise(method, backend, smooth_dem):
    # A damaged tree cannot bound what it missed, so skip mode still
    # raises for index-file pages.
    index = METHODS[method](smooth_dem,
                            disk_backend=disk_backend(backend))
    index.index_disk._flip_bit(index.tree.manifest()["root_id"],
                               byte_index=0, bit=0)
    index.clear_caches()
    with pytest.raises(CorruptPageError):
        index.query(_workloads(smooth_dem)[0], on_fault="skip")


def test_query_rejects_unknown_fault_mode(smooth_dem):
    index = LinearScanIndex(smooth_dem)
    with pytest.raises(ValueError):
        index.query(_workloads(smooth_dem)[0], on_fault="ignore")


_RESET_CASES = [(entry, backend)
                for entry in ("query", "batch-1", "batch-2", "sharded")
                for backend in BACKENDS]


@pytest.mark.parametrize(
    "entry, backend", _RESET_CASES,
    ids=[b if e == "query" else f"{e}-{b}" for e, b in _RESET_CASES])
def test_fault_mode_is_reset_after_a_degraded_query(entry, backend,
                                                    smooth_dem):
    if entry == "sharded":
        store = SimulatedObjectStore() if backend == "remote" else None
        index = ShardedEngine(smooth_dem, n_shards=2, remote_store=store,
                              remote_cache_pages=REMOTE_CACHE_PAGES)
        indexes = [index] + [rt.index for rt in index.shards]
    else:
        index = LinearScanIndex(smooth_dem,
                                disk_backend=disk_backend(backend))
        indexes = [index]
    victim = indexes[-1]
    victim.data_disk._flip_bit(victim.store.page_ids[0], byte_index=1,
                               bit=1)
    if entry.startswith("batch"):
        # Two disjoint queries: two groups, so two workers both run.
        engine = BatchQueryEngine(index, workers=int(entry[-1]))
        queries = _workloads(smooth_dem)[1:]

        def run(**kwargs):
            return engine.run(queries, **kwargs)
    else:
        def run(**kwargs):
            return index.query(_workloads(smooth_dem)[0], **kwargs)

    def assert_reset():
        for ix in indexes:
            assert (ix._fault_mode, ix._query_faults) == ("raise", [])

    run(on_fault="skip")
    assert_reset()
    # Neither the skip mode nor an escaped raise-mode error leaks into
    # the next default-mode call.
    for _ in range(2):
        index.clear_caches()
        with pytest.raises(CorruptPageError):
            run()
        assert_reset()


# -- batch engine ------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_batch_skip_attaches_faults_to_the_fetching_member(backend,
                                                           smooth_dem):
    index = IHilbertIndex(smooth_dem, disk_backend=disk_backend(backend))
    vr = smooth_dem.value_range
    pid = index.store.page_ids[1]
    index.data_disk._flip_bit(pid, byte_index=3, bit=2)
    index.clear_caches()
    engine = BatchQueryEngine(index)
    # Two overlapping queries merge into one group; the fault belongs
    # to the member that performed the group's fetch.
    queries = [ValueQuery(vr.lo, vr.hi),
               ValueQuery(vr.lo, (vr.lo + vr.hi) / 2)]
    batch = engine.run(queries, on_fault="skip")
    assert batch.groups == 1
    flagged = [r for r in batch.results if r.faults]
    assert len(flagged) == 1
    assert flagged[0].io.page_reads > 0
    assert flagged[0].faults[0].page_id == pid


@pytest.mark.parametrize("backend", BACKENDS)
def test_batch_default_mode_raises(backend, smooth_dem):
    index = IHilbertIndex(smooth_dem, disk_backend=disk_backend(backend))
    pid = index.store.page_ids[1]
    index.data_disk._flip_bit(pid, byte_index=3, bit=2)
    index.clear_caches()
    engine = BatchQueryEngine(index)
    vr = smooth_dem.value_range
    with pytest.raises(CorruptPageError):
        engine.run([ValueQuery(vr.lo, vr.hi)])


def test_batch_rejects_unknown_fault_mode(smooth_dem):
    engine = BatchQueryEngine(LinearScanIndex(smooth_dem))
    with pytest.raises(ValueError):
        engine.run(_workloads(smooth_dem), on_fault="ignore")


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("method", sorted(METHODS))
def test_batch_fault_outcomes_do_not_depend_on_workers(method, backend,
                                                       smooth_dem):
    """One and four workers fail with the same error in raise mode and
    degrade identically in skip mode: answers, skipped pages, per-query
    and batch I/O, pool counters."""
    vr = smooth_dem.value_range
    # Three merged groups, two of them with two members.
    queries = [ValueQuery(vr.lo + a * vr.length, vr.lo + b * vr.length)
               for a, b in ((0.0, 0.2), (0.1, 0.3), (0.5, 0.6),
                            (0.55, 0.7), (0.9, 1.0))]

    def run(workers, on_fault):
        index = METHODS[method](smooth_dem,
                                disk_backend=disk_backend(backend))
        index.data_disk._flip_bit(index.store.page_ids[1], byte_index=3,
                                  bit=2)
        engine = BatchQueryEngine(index, workers=workers, cache_pages=0)
        try:
            batch = engine.run(queries, on_fault=on_fault)
        except CorruptPageError as exc:
            return "error", exc.disk, exc.page_id
        return ([(r.candidate_count, r.area, r.io,
                  [f.page_id for f in r.faults]) for r in batch.results],
                batch.io, batch.pool)

    assert run(1, "raise")[0] == "error"
    assert run(4, "raise") == run(1, "raise")
    degraded = run(1, "skip")
    assert any(faults for *_, faults in degraded[0])
    assert run(4, "skip") == degraded


# -- metrics -----------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_fault_counters_reach_the_registry(backend, smooth_dem):
    REGISTRY.enable()
    REGISTRY.reset()
    try:
        index = LinearScanIndex(smooth_dem,
                                retry_policy=RetryPolicy(max_attempts=4),
                                disk_backend=disk_backend(backend))
        injector = index.inject_faults(FaultInjector(seed=0))
        injector.add("read_error", max_faults=2)
        pid = index.store.page_ids[0]
        index.data_disk._flip_bit(pid, byte_index=0, bit=0)
        result = index.query(_workloads(smooth_dem)[0], on_fault="skip")
        assert result.degraded
        retries = REGISTRY.get("repro_disk_read_retries_total")
        assert retries.value(disk="data") == 2
        injected = REGISTRY.get("repro_disk_injected_faults_total")
        assert injected.value(disk="data", kind="read_error") == 2
        corrupt = REGISTRY.get("repro_disk_corrupt_pages_total")
        assert corrupt.value(disk="data") == 1
        degraded = REGISTRY.get("repro_queries_degraded_total")
        assert degraded.value(method="LinearScan") == 1
    finally:
        REGISTRY.disable()
        REGISTRY.reset()


# -- the remote tier ---------------------------------------------------------
#
# Cold pages live in a latency-modeled object store and are fetched on
# demand into a per-disk local cache.  The same fault contract applies:
# transient fetch errors are retried with backoff, permanent corruption
# surfaces as a typed `CorruptPageError` on the first attempt, and
# `on_fault="skip"` degrades one shard without poisoning the gather.

from repro.core.query import ValueQuery as _VQ  # noqa: E402
from repro.field import DEMField  # noqa: E402
from repro.storage import (  # noqa: E402
    NamespaceTakenError,
    RemoteDiskManager,
    RemoteFetchError,
    remote_backend,
)


def _remote_disk(**kwargs):
    store = SimulatedObjectStore()
    disk = RemoteDiskManager(
        page_size=80, store=store, cache_pages=0, **kwargs)
    pid = disk.allocate()
    disk.write(pid, b"cold bytes")
    return store, disk, pid


def test_remote_transient_fetch_errors_are_retried_with_backoff():
    store, disk, pid = _remote_disk(
        retry_policy=RetryPolicy(max_attempts=4))
    store.fail_next_gets([0, 1])        # first two fetches fail
    assert disk.read(pid)[:10] == b"cold bytes"
    assert disk.stats.read_retries == 2
    assert disk.simulated_backoff_ms == pytest.approx(1.0 + 2.0)
    assert store.counters()["failed_gets"] == 2
    # Every attempt was a charged round-trip to the store.
    assert store.counters()["gets"] == 3


def test_remote_fetch_exhaustion_raises_typed_error():
    store, disk, pid = _remote_disk(
        retry_policy=RetryPolicy(max_attempts=3))
    store.fail_next_gets(range(10))
    with pytest.raises(TransientIOError):
        disk.read(pid)
    assert disk.stats.read_retries == 2


def test_remote_fetch_error_is_a_transient_io_error():
    assert issubclass(RemoteFetchError, TransientIOError)


def test_remote_permanent_corruption_is_typed_and_never_retried():
    store, disk, pid = _remote_disk(
        retry_policy=RetryPolicy(max_attempts=4))
    store.corrupt(disk._key(pid), byte_index=1, bit=2)
    with pytest.raises(CorruptPageError):
        disk.read(pid)
    assert disk.stats.read_retries == 0


def test_remote_bit_flip_on_an_unwritten_page_is_a_typed_error():
    # An allocated page that was never written has no stored frame and,
    # with no local cache, no cached entry either; bit rot injected
    # there must still surface as a checksum failure.
    disk = RemoteDiskManager(page_size=80, store=SimulatedObjectStore(),
                             cache_pages=0)
    pid = disk.allocate()
    disk.fault_injector = FaultInjector(seed=0)
    disk.fault_injector.add("bit_flip", max_faults=1)
    with pytest.raises(CorruptPageError):
        disk.read(pid)
    assert disk.stats.checksum_failures == 1


def test_remote_backend_answers_match_local_backend(smooth_dem):
    """An index whose pages live in the object store answers exactly
    like one on local storage, under a transient-fault schedule."""
    plain = IHilbertIndex(smooth_dem)
    store = SimulatedObjectStore()
    remote = IHilbertIndex(
        smooth_dem, retry_policy=RetryPolicy(max_attempts=5),
        disk_backend=remote_backend(store, cache_pages=2))
    store.fail_next_gets([0, 3, 7])
    for query in _workloads(smooth_dem):
        expected = plain.query(query)
        got = remote.query(query)
        assert got.candidate_count == expected.candidate_count
        assert got.area == expected.area
    assert store.counters()["failed_gets"] == 3


def test_indexes_sharing_a_store_keep_their_own_frames(smooth_dem,
                                                       rough_dem):
    """Each ``remote_backend`` call claims a fresh namespace, so two
    indexes on one store answer like local twins, also after one of
    them rebuilt its tree by compaction; a namespace is claimed once."""
    store = SimulatedObjectStore()
    first = IHilbertIndex(DEMField(smooth_dem.heights.copy()),
                          disk_backend=remote_backend(store, cache_pages=0))
    second = IHilbertIndex(rough_dem,
                           disk_backend=remote_backend(store, cache_pages=0))
    first.apply_updates([0, 40, 300], [900.0, -900.0, 50.0])
    assert first.compact()["stale_runs"] > 0
    twins = [IHilbertIndex(DEMField(first.field.heights.copy())),
             IHilbertIndex(rough_dem)]
    for index, twin in zip((first, second), twins):
        for query in _workloads(index.field):
            got, want = index.query(query), twin.query(query)
            assert got.candidate_count == want.candidate_count
            assert got.area == pytest.approx(want.area)
    with pytest.raises(NamespaceTakenError, match="'ns-0'"):
        remote_backend(store, namespace="ns-0")


def test_sharded_engines_sharing_a_store_keep_their_own_frames(
        smooth_dem, rough_dem):
    store = SimulatedObjectStore()
    engines = [ShardedEngine(field, n_shards=4, method="I-Hilbert",
                             remote_store=store, remote_cache_pages=0)
               for field in (smooth_dem, rough_dem)]
    for engine in engines:
        local = IHilbertIndex(engine.field)
        for query in _workloads(engine.field):
            got, want = engine.query(query), local.query(query)
            assert (got.candidate_count, got.area) \
                == (want.candidate_count, want.area)


def test_remote_cache_fetch_and_eviction_accounting(smooth_dem):
    store = SimulatedObjectStore()
    engine = ShardedEngine(smooth_dem, n_shards=2, method="I-Hilbert",
                           remote_store=store, remote_cache_pages=1)
    vr = smooth_dem.value_range
    engine.query(_VQ(vr.lo, vr.hi))
    engine.clear_caches()
    engine.query(_VQ(vr.lo, vr.hi))
    counters = engine.remote_counters()
    assert counters["total"]["fetches"] > 0
    assert counters["total"]["evictions"] > 0
    assert counters["store"]["gets"] == counters["total"]["fetches"]
    # Per-shard attribution covers every shard and sums to the total.
    assert set(counters["shards"]) == {rt.name for rt in engine.shards}
    assert sum(c.get("fetches", 0) for c in counters["shards"].values()) \
        == counters["total"]["fetches"]


def test_remote_skip_degrades_one_shard_without_poisoning_gather(
        smooth_dem):
    store = SimulatedObjectStore()
    engine = ShardedEngine(smooth_dem, n_shards=4, method="I-Hilbert",
                           remote_store=store, remote_cache_pages=0)
    victim = engine.shards[2]
    store.corrupt(victim.index.data_disk._key(0), byte_index=5, bit=1)
    vr = smooth_dem.value_range
    with pytest.raises(CorruptPageError):
        engine.query(_VQ(vr.lo, vr.hi))
    result = engine.query(_VQ(vr.lo, vr.hi), on_fault="skip")
    assert result.degraded
    assert len(result.faults) == 1
    # Healthy shards contributed all their cells.
    missing = smooth_dem.num_cells - result.candidate_count
    assert 0 < missing <= engine.shard_map.page_quantum
