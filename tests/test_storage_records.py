"""Unit and property tests for the fixed-size RecordStore."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import DiskManager, FaultInjector, RecordStore

DTYPE = np.dtype([("key", np.int64), ("value", np.float64)])


def make_store(page_size=80, cache_pages=0):
    # 80-byte pages leave 64 usable bytes after the 16-byte frame
    # header: 4 of the 16-byte test records per page.
    disk = DiskManager(page_size=page_size)
    return RecordStore(disk, DTYPE, cache_pages=cache_pages)


def test_records_per_page_from_usable_page_size():
    store = make_store(page_size=80)
    assert store.disk.usable_page_size == 64
    assert store.records_per_page == 4   # 16-byte records


def test_record_too_large_rejected():
    disk = DiskManager(page_size=24)   # 8 usable bytes < one record
    with pytest.raises(ValueError):
        RecordStore(disk, DTYPE)


def test_append_returns_sequential_rids():
    store = make_store()
    assert store.append((1, 1.0)) == 0
    assert store.append((2, 2.0)) == 1
    assert len(store) == 2


def test_get_roundtrip():
    store = make_store()
    store.append((7, 3.5))
    rec = store.get(0)
    assert rec["key"] == 7
    assert rec["value"] == 3.5


def test_get_out_of_range():
    store = make_store()
    with pytest.raises(IndexError):
        store.get(0)
    store.append((1, 1.0))
    with pytest.raises(IndexError):
        store.get(1)
    with pytest.raises(IndexError):
        store.get(-1)


def test_partial_page_then_fill_reuses_page():
    store = make_store(page_size=80)   # 4 records per page
    store.append((0, 0.0))
    assert store.num_pages == 1
    for k in range(1, 4):
        store.append((k, float(k)))
    # The page was filled in place, not duplicated.
    assert store.num_pages == 1
    store.append((4, 4.0))
    assert store.num_pages == 2
    assert [int(store.get(i)["key"]) for i in range(5)] == [0, 1, 2, 3, 4]


def test_extend_bulk_matches_appends():
    a = make_store()
    b = make_store()
    rows = [(k, k * 0.5) for k in range(23)]
    for row in rows:
        a.append(row)
    rids = b.extend(np.array(rows, dtype=DTYPE))
    assert rids == range(0, 23)
    for i in range(23):
        assert a.get(i) == b.get(i)


def test_extend_after_partial_tail():
    store = make_store(page_size=80)
    store.append((100, 1.0))
    store.extend(np.array([(k, 0.0) for k in range(10)], dtype=DTYPE))
    assert len(store) == 11
    assert int(store.get(0)["key"]) == 100
    assert [int(store.get(i)["key"]) for i in range(1, 11)] == list(range(10))


def test_read_page_contents_and_lengths():
    store = make_store(page_size=80)
    store.extend(np.array([(k, 0.0) for k in range(6)], dtype=DTYPE))
    assert len(store.read_page(0)) == 4
    assert len(store.read_page(1)) == 2
    assert list(store.read_page(1)["key"]) == [4, 5]


def test_read_page_out_of_range():
    store = make_store()
    with pytest.raises(IndexError):
        store.read_page(0)


def test_scan_visits_all_records_in_order():
    store = make_store(page_size=80)
    store.extend(np.array([(k, 0.0) for k in range(13)], dtype=DTYPE))
    seen = [int(k) for page in store.scan() for k in page["key"]]
    assert seen == list(range(13))


def test_scan_is_sequential_io():
    store = make_store(page_size=80)
    store.extend(np.array([(k, 0.0) for k in range(16)], dtype=DTYPE))
    store.disk.stats.reset()
    store.disk.reset_head()
    list(store.scan())
    assert store.disk.stats.random_reads == 1
    assert store.disk.stats.sequential_reads == 3


def test_read_range_inclusive():
    store = make_store(page_size=80)
    store.extend(np.array([(k, 0.0) for k in range(12)], dtype=DTYPE))
    block = store.read_range(3, 9)
    assert list(block["key"]) == list(range(3, 10))


def test_read_range_single_record():
    store = make_store(page_size=80)
    store.extend(np.array([(k, 0.0) for k in range(5)], dtype=DTYPE))
    assert list(store.read_range(2, 2)["key"]) == [2]


def test_read_range_empty_when_inverted():
    store = make_store(page_size=80)
    store.append((0, 0.0))
    assert len(store.read_range(1, 0)) == 0


def test_read_range_out_of_bounds():
    store = make_store(page_size=80)
    store.append((0, 0.0))
    with pytest.raises(IndexError):
        store.read_range(0, 1)


def test_read_range_mid_page_boundaries():
    # 4 records per page: rids 5..14 start mid-page 1 and end mid-page 3.
    # The first and last page slices must be trimmed before the
    # concatenate, so no neighbouring record leaks in at either edge.
    store = make_store(page_size=80)
    store.extend(np.array([(k, float(k)) for k in range(20)], dtype=DTYPE))
    block = store.read_range(5, 14)
    assert list(block["key"]) == list(range(5, 15))
    assert len(block) == 10
    # Whole-page interior slices are untouched by the trimming.
    assert list(store.read_range(4, 11)["key"]) == list(range(4, 12))
    # Start and end inside the same page.
    assert list(store.read_range(9, 10)["key"]) == [9, 10]
    # End lands on the partially filled tail page.
    assert list(store.read_range(14, 19)["key"]) == list(range(14, 20))


def test_read_range_reads_each_page_once():
    store = make_store(page_size=80)
    store.extend(np.array([(k, 0.0) for k in range(20)], dtype=DTYPE))
    store.disk.stats.reset()
    store.disk.reset_head()
    store.read_range(5, 14)   # pages 1..3
    assert store.disk.stats.page_reads == 3


@settings(max_examples=50, deadline=None)
@given(n=st.integers(1, 30), cache_pages=st.sampled_from([0, 2, 16]),
       data=st.data())
def test_read_range_same_with_fault_injector(n, cache_pages, data):
    """An attached (empty) injector turns the batch into serial reads;
    records, IOStats and pool counters stay those of the batch, cold
    and warm."""
    start = data.draw(st.integers(0, n - 1))
    end = data.draw(st.integers(start, n - 1))
    rows = np.array([(k, float(k)) for k in range(n)], dtype=DTYPE)
    plain, injected = (make_store(cache_pages=cache_pages)
                       for _ in range(2))
    injected.disk.fault_injector = FaultInjector()
    for store in (plain, injected):
        store.extend(rows)
        store.disk.stats.reset()
        store.disk.reset_head()
    for _ in range(2):
        want = rows[start:end + 1].tobytes()
        assert plain.read_range(start, end).tobytes() == want
        assert injected.read_range(start, end).tobytes() == want
        assert plain.disk.stats == injected.disk.stats
        assert plain.pool.counters() == injected.pool.counters()


def test_page_ids_are_contiguous_for_burst_build():
    store = make_store(page_size=80)
    store.extend(np.array([(k, 0.0) for k in range(20)], dtype=DTYPE))
    ids = store.page_ids
    assert list(ids) == list(range(ids[0], ids[0] + len(ids)))


def test_cache_pages_serve_hits():
    store = make_store(page_size=80, cache_pages=2)
    store.extend(np.array([(k, 0.0) for k in range(4)], dtype=DTYPE))
    store.disk.stats.reset()
    store.read_page(0)
    store.read_page(0)
    assert store.disk.stats.page_reads == 1
    assert store.disk.stats.cache_hits == 1


def test_randomized_roundtrip_through_checksum_frames():
    """Seeded random workloads survive a full frame serialize/restore.

    Every page of a randomly grown store is exported as its on-disk
    frame (header + checksum + payload) and re-imported into a fresh
    disk; records must come back bit-identical, including the
    partially-filled tail page.
    """
    import random

    rng = random.Random(1234)
    for _round in range(20):
        store = make_store(page_size=80)
        count = rng.randrange(0, 30)
        rows = [(rng.randrange(-2**40, 2**40), rng.random())
                for _ in range(count)]
        for row in rows:
            if rng.random() < 0.5:
                store.append(row)
            else:
                store.extend(np.array([row], dtype=DTYPE))
        restored = DiskManager(page_size=80)
        for pid in range(store.disk.num_pages):
            restored.allocate()
            restored.store_frame(pid, store.disk.frame_bytes(pid))
        for page_no, page_id in enumerate(store.page_ids):
            n = len(store.read_page(page_no))
            got = np.frombuffer(restored.read(page_id), dtype=DTYPE,
                                count=n)
            expected = np.array(rows[page_no * 4:page_no * 4 + n],
                                dtype=DTYPE)
            assert (got == expected).all()


def test_roundtrip_edge_cases_max_payload_and_empty_page():
    # Max payload: a completely full page uses every usable byte.
    store = make_store(page_size=80)
    store.extend(np.array([(k, float(k)) for k in range(4)], dtype=DTYPE))
    assert store.num_pages == 1
    frame = store.disk.frame_bytes(store.page_ids[0])
    restored = DiskManager(page_size=80)
    restored.allocate()
    restored.store_frame(0, frame)
    back = np.frombuffer(restored.read(0), dtype=DTYPE, count=4)
    assert list(back["key"]) == [0, 1, 2, 3]
    # Empty page: an allocated-but-unwritten page round-trips as zeros.
    empty_disk = DiskManager(page_size=80)
    pid = empty_disk.allocate()
    restored2 = DiskManager(page_size=80)
    restored2.allocate()
    restored2.store_frame(0, empty_disk.frame_bytes(pid))
    assert restored2.read(0) == bytes(64)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 10), min_size=1, max_size=30))
def test_property_mixed_appends_match_reference(batch_sizes):
    """Arbitrary append/extend interleavings reproduce the flat list."""
    store = make_store(page_size=80)
    reference = []
    key = 0
    for size in batch_sizes:
        if size == 0:
            store.append((key, float(key)))
            reference.append(key)
            key += 1
        else:
            rows = [(key + i, float(key + i)) for i in range(size)]
            store.extend(np.array(rows, dtype=DTYPE))
            reference.extend(k for k, _v in rows)
            key += size
    assert len(store) == len(reference)
    seen = [int(k) for page in store.scan() for k in page["key"]]
    assert seen == reference
    # Random access agrees as well.
    for rid in range(0, len(reference), 7):
        assert int(store.get(rid)["key"]) == reference[rid]
