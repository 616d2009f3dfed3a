"""One page-read path, pinned against a page-at-a-time reference.

Every accounted page read runs ``BufferPool.read_many`` →
``DiskManager.read_many``, whatever the fault regime.  The reference
model kept here is the loop those batched reads must be
indistinguishable from: one pool access per page id, each miss one disk
read with its own head classification, injector hook, checksum and
retry loop, and in skip mode a failed page recorded as a ``PageFault``
with a ``None`` payload.  Hypothesis drives both over twin page files
and compares payloads, faults, ``IOStats``, pool counters, resident
frames in LRU order, tenant rows and the injector's event log after
every batch.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import IHilbertIndex, LinearScanIndex, ValueQuery
from repro.storage import (BufferPool, CorruptPageError, DiskManager,
                           FaultInjector, PageFault, RecordStore,
                           RemoteDiskManager, RetryPolicy,
                           SimulatedObjectStore, TransientIOError)
from repro.synth import roseburg_like

PAGE_SIZE = 64                      # 48 payload bytes: small and fast
USABLE = PAGE_SIZE - 16


class PageAtATime:
    """Reference: a loop of single-page pool accesses and disk reads."""

    def __init__(self, pool: BufferPool) -> None:
        self.pool = pool

    def read_many(self, page_ids, tenant=None, faults=None) -> list:
        return [self._access(pid, tenant, faults) for pid in page_ids]

    def _access(self, pid, tenant, faults):
        pool = self.pool
        frames = pool._frames
        if pid in frames:
            frames.move_to_end(pid)
            pool.hits += 1
            pool.disk.stats.cache_hits += 1
            self._attribute(tenant, pid, frames[pid], hit=True)
            return frames[pid]
        pool.misses += 1
        try:
            data = self._disk_read(pid)
        except (CorruptPageError, TransientIOError) as exc:
            if faults is None:
                raise
            faults.append(PageFault(exc.disk, exc.page_id,
                                    type(exc).__name__, str(exc)))
            return None
        if pool.capacity:
            frames[pid] = data
            while len(frames) > pool.capacity:
                evicted, _ = frames.popitem(last=False)
                pool._page_tenants.pop(evicted, None)
                pool.evictions += 1
        self._attribute(tenant, pid, data, hit=False)
        return data

    def _attribute(self, tenant, pid, data, hit):
        if tenant is None:
            return
        row = self.pool._tenant_rows.setdefault(tenant, [0, 0, 0])
        row[0 if hit else 1] += 1
        row[2] += len(data)
        if pid in self.pool._frames:
            self.pool._page_tenants.setdefault(pid, set()).add(tenant)

    def _disk_read(self, pid):
        disk = self.pool.disk
        stats = disk.stats
        attempt = 1
        while True:
            stats.page_reads += 1
            last = disk._last_read
            gap = pid - last - 1 if last is not None else -1
            if 0 <= gap <= disk.near_window:
                stats.sequential_reads += 1
                stats.skipped_pages += gap
            else:
                stats.random_reads += 1
            disk._last_read = pid
            try:
                if disk.fault_injector is not None:
                    disk.fault_injector.on_read(disk, pid)
                return disk._verified_payload(pid)
            except TransientIOError:
                policy = disk.retry_policy
                if policy is None or attempt >= policy.max_attempts:
                    raise
                stats.read_retries += 1
                disk.simulated_backoff_ms += policy.backoff_ms(attempt)
                attempt += 1


def make_pool(case) -> BufferPool:
    """One of the twin page files of ``case``, behind a fresh pool."""
    kwargs = dict(name="data", page_size=PAGE_SIZE,
                  retry_policy=case["retry"])
    if case["backend"] == "list":
        disk = DiskManager(**kwargs)
    else:
        disk = RemoteDiskManager(**kwargs, store=SimulatedObjectStore(),
                                 cache_pages=2)
    disk.allocate_many(case["pages"])
    for pid in range(case["pages"]):
        disk.write(pid, bytes([pid + 1]) * (pid % USABLE + 1))
    for pid, byte, bit in case["rot"]:
        disk._flip_bit(pid, byte, bit)
    disk.fault_injector = FaultInjector(seed=case["seed"])
    for spec in case["specs"]:
        disk.fault_injector.add(**spec)
    disk.stats.reset()
    return BufferPool(disk, capacity=case["capacity"])


def run(reader, ids, tenant, mode):
    faults = [] if mode == "skip" else None
    try:
        out = ("ok", reader.read_many(ids, tenant, faults=faults))
    except (CorruptPageError, TransientIOError) as exc:
        out = ("raised", type(exc), exc.page_id, str(exc))
    return out, faults


def state(pool: BufferPool) -> dict:
    disk = pool.disk
    seen = {
        "stats": disk.stats.snapshot(),
        "backoff_ms": disk.simulated_backoff_ms,
        "head": disk._last_read,
        "counters": pool.counters(),
        "frames": list(pool._frames.items()),
        "tenants": pool.tenant_counters(),
        "residency": pool.tenant_residency(),
        "events": list(disk.fault_injector.events),
        "latency_ms": disk.fault_injector.injected_latency_ms,
    }
    if isinstance(disk, RemoteDiskManager):
        seen["remote"] = disk.remote_counters()
        seen["store"] = disk.store.counters()
    return seen


@st.composite
def fault_specs(draw, pages: int):
    kind = draw(st.sampled_from(["read_error", "bit_flip", "latency"]))
    return {
        "kind": kind,
        "probability": draw(st.sampled_from([1.0, 0.5, 0.25])),
        "page_ids": draw(st.none() | st.sets(st.integers(0, pages - 1),
                                             min_size=1)),
        "schedule": draw(st.none() | st.sets(st.integers(0, 40),
                                             min_size=1, max_size=6)),
        "max_faults": draw(st.none() | st.integers(1, 3)),
        "latency_ms": 1.5 if kind == "latency" else 0.0,
    }


@st.composite
def cases(draw):
    pages = draw(st.integers(1, 10))
    page = st.integers(0, pages - 1)
    batches = draw(st.lists(
        st.tuples(st.lists(page, max_size=14),
                  st.sampled_from([None, "alpha", "beta"])),
        min_size=1, max_size=3))
    longest = max(len(ids) for ids, _ in batches)
    capacity = draw(st.sampled_from(
        [0, 1, max(1, longest // 2), longest + 3]))
    return {
        "backend": draw(st.sampled_from(["list", "remote"])),
        "pages": pages,
        "batches": batches,
        "capacity": capacity,
        "mode": draw(st.sampled_from(["raise", "skip"])),
        "retry": draw(st.none() | st.builds(
            RetryPolicy, max_attempts=st.integers(1, 3))),
        "seed": draw(st.integers(0, 2**16)),
        "specs": draw(st.lists(fault_specs(pages), max_size=3)),
        "rot": draw(st.lists(st.tuples(page, st.integers(0, USABLE - 1),
                                       st.integers(0, 7)), max_size=2)),
    }


@given(case=cases())
@settings(max_examples=300, deadline=None)
def test_batched_reads_equal_the_page_at_a_time_loop(case):
    batched = make_pool(case)
    reference = make_pool(case)
    model = PageAtATime(reference)
    for ids, tenant in case["batches"]:
        got = run(batched, ids, tenant, case["mode"])
        want = run(model, ids, tenant, case["mode"])
        assert got == want
        assert state(batched) == state(reference)


def test_skipped_page_is_left_out_of_the_decoded_run():
    dtype = np.dtype([("key", "<i8")])
    store = RecordStore(DiskManager(page_size=PAGE_SIZE), dtype)
    store.extend(np.array([(k,) for k in range(18)], dtype=dtype))
    store.disk._flip_bit(store.page_ids[1], byte_index=0, bit=0)
    faults: list = []
    run_keys = store.read_pages(0, 2, faults)["key"].tolist()
    assert run_keys == [0, 1, 2, 3, 4, 5, 12, 13, 14, 15, 16, 17]
    records, pages, offsets = store.read_page_set([2, 1, 0, 2], faults)
    assert pages.tolist() == [0, 2]
    assert records["key"][offsets].tolist() == [0, 12]
    assert [f.page_id for f in faults] == [store.page_ids[1]] * 2
    with pytest.raises(CorruptPageError):
        store.read_pages(0, 2)


@pytest.mark.parametrize("method", [LinearScanIndex, IHilbertIndex])
@pytest.mark.parametrize("cache_pages, frames", [(0, 0), (1024, 5)])
def test_a_failed_cold_query_accounts_the_pages_it_read(method, cache_pages,
                                                        frames):
    """A whole-range query over 33 data pages whose 6th is corrupt
    stops at that page: 6 reads and 6 pool misses, and with a cache the
    5 pages before it stay resident, as a page-at-a-time loop leaves
    them."""
    field = roseburg_like(cells_per_side=64)
    index = method(field, cache_pages=cache_pages)
    assert index.data_pages == 33
    index.data_disk._flip_bit(index.store.page_ids[5], byte_index=0, bit=0)
    index.clear_caches()
    index.stats.reset()
    vr = field.value_range
    with pytest.raises(CorruptPageError):
        index.query(ValueQuery(vr.lo, vr.hi))
    pool = index.store.pool
    assert (pool.hits, pool.misses) == (0, 6)
    assert len(pool) == frames
    assert index.stats.checksum_failures == 1
    tree_reads = index.tree.pool.misses if index.index_pages else 0
    assert index.stats.page_reads == 6 + tree_reads
