"""Unit tests for the simulated disk (DiskManager)."""

import pytest

from repro.storage import (
    DiskManager,
    IOStats,
    PAGE_HEADER_SIZE,
    PAGE_SIZE,
    PageError,
)

#: Payload capacity of a default page (the frame header takes the rest).
USABLE = PAGE_SIZE - PAGE_HEADER_SIZE


def test_allocate_returns_consecutive_ids():
    disk = DiskManager()
    assert disk.allocate() == 0
    assert disk.allocate() == 1
    assert disk.num_pages == 2


def test_allocate_many_contiguous():
    disk = DiskManager()
    first = disk.allocate_many(5)
    assert first == 0
    assert disk.num_pages == 5
    assert disk.allocate() == 5


def test_allocate_many_negative_raises():
    disk = DiskManager()
    with pytest.raises(PageError):
        disk.allocate_many(-1)


def test_usable_page_size_accounts_for_header():
    disk = DiskManager()
    assert disk.usable_page_size == USABLE
    assert disk.usable_page_size + PAGE_HEADER_SIZE == disk.page_size


def test_new_page_is_zeroed():
    disk = DiskManager()
    pid = disk.allocate()
    assert disk.read(pid) == bytes(USABLE)


def test_write_read_roundtrip():
    disk = DiskManager()
    pid = disk.allocate()
    disk.write(pid, b"hello")
    data = disk.read(pid)
    assert data[:5] == b"hello"
    assert len(data) == USABLE


def test_short_write_zero_padded():
    disk = DiskManager()
    pid = disk.allocate()
    disk.write(pid, b"x")
    assert disk.read(pid)[1:] == bytes(USABLE - 1)


def test_oversized_write_raises():
    disk = DiskManager()
    pid = disk.allocate()
    with pytest.raises(PageError):
        disk.write(pid, bytes(USABLE + 1))


def test_tiny_page_size_rejected():
    # A page must leave payload room after the frame header.
    with pytest.raises(PageError):
        DiskManager(page_size=PAGE_HEADER_SIZE)


def test_out_of_range_read_raises():
    disk = DiskManager()
    with pytest.raises(PageError):
        disk.read(0)
    disk.allocate()
    with pytest.raises(PageError):
        disk.read(1)
    with pytest.raises(PageError):
        disk.read(-1)


def test_first_read_is_random():
    disk = DiskManager()
    disk.allocate()
    disk.read(0)
    assert disk.stats.random_reads == 1
    assert disk.stats.sequential_reads == 0


def test_consecutive_reads_are_sequential():
    disk = DiskManager()
    disk.allocate_many(4)
    for pid in range(4):
        disk.read(pid)
    assert disk.stats.random_reads == 1
    assert disk.stats.sequential_reads == 3
    assert disk.stats.skipped_pages == 0


def test_backward_read_is_random():
    disk = DiskManager()
    disk.allocate_many(3)
    disk.read(2)
    disk.read(0)
    assert disk.stats.random_reads == 2


def test_rereading_same_page_is_random():
    disk = DiskManager()
    disk.allocate()
    disk.read(0)
    disk.read(0)
    # The head moved past page 0; re-reading costs a full rotation/seek.
    assert disk.stats.random_reads == 2


def test_near_seek_counts_sequential_with_skips():
    window = DiskManager.NEAR_WINDOW
    disk = DiskManager()
    disk.allocate_many(window + 10)
    disk.read(0)
    disk.read(3)   # gap of 2 pages, within window
    assert disk.stats.sequential_reads == 1
    assert disk.stats.skipped_pages == 2
    disk.read(window + 5)   # gap of window + 1 pages, outside window
    assert disk.stats.random_reads == 2


def test_near_window_edge_is_strict():
    window = DiskManager.NEAR_WINDOW
    disk = DiskManager()
    disk.allocate_many(2 * window + 4)
    disk.read(0)
    disk.read(window + 1)       # a gap of exactly the window
    disk.read(2 * window + 3)   # a gap of one page more
    assert disk.stats.sequential_reads == 1
    assert disk.stats.skipped_pages == window
    assert disk.stats.random_reads == 2


def test_reset_head_makes_next_read_random():
    disk = DiskManager()
    disk.allocate_many(2)
    disk.read(0)
    disk.reset_head()
    disk.read(1)
    assert disk.stats.random_reads == 2


def test_shared_stats_aggregate_across_files():
    stats = IOStats()
    a = DiskManager(stats=stats, name="a")
    b = DiskManager(stats=stats, name="b")
    a.allocate()
    b.allocate()
    a.read(0)
    b.read(0)
    assert stats.page_reads == 2


def test_write_counts():
    disk = DiskManager()
    pid = disk.allocate()
    disk.write(pid, b"d")
    assert disk.stats.page_writes == 1
    assert disk.stats.pages_allocated == 1


# -- checksum framing -------------------------------------------------------


def test_read_returns_stored_object_without_copying():
    # The no-fault read path must not allocate per read: the very bytes
    # object stored by write comes back on every read.
    disk = DiskManager()
    pid = disk.allocate()
    disk.write(pid, b"payload")
    assert disk.read(pid) is disk.read(pid)


def test_frame_roundtrip_preserves_payload_and_length():
    disk = DiskManager(page_size=80)
    pid = disk.allocate()
    disk.write(pid, b"abcdef")
    frame = disk.frame_bytes(pid)
    assert len(frame) == 80
    other = DiskManager(page_size=80)
    other.allocate()
    other.store_frame(0, frame)
    assert other.read(0) == disk.read(pid)
    assert other._lens[0] == 6


def test_frame_roundtrip_max_payload():
    disk = DiskManager(page_size=80)
    pid = disk.allocate()
    payload = bytes(range(64))
    disk.write(pid, payload)
    other = DiskManager(page_size=80)
    other.allocate()
    other.store_frame(0, disk.frame_bytes(pid))
    assert other.read(0) == payload


def test_frame_roundtrip_empty_page():
    # A never-written (all-zero) page frames and restores cleanly.
    disk = DiskManager(page_size=80)
    pid = disk.allocate()
    other = DiskManager(page_size=80)
    other.allocate()
    other.store_frame(0, disk.frame_bytes(pid))
    assert other.read(0) == bytes(64)
    assert other._lens[0] == 0


def test_store_frame_rejects_corrupted_payload():
    from repro.storage import CorruptPageError
    disk = DiskManager(page_size=80)
    pid = disk.allocate()
    disk.write(pid, b"good bytes")
    frame = bytearray(disk.frame_bytes(pid))
    frame[-1] ^= 0xFF   # damage the payload, keep the header
    other = DiskManager(page_size=80)
    other.allocate()
    with pytest.raises(CorruptPageError):
        other.store_frame(0, bytes(frame))


def test_store_frame_rejects_bad_magic():
    from repro.storage import CorruptPageError
    disk = DiskManager(page_size=80)
    disk.allocate()
    with pytest.raises(CorruptPageError):
        disk.store_frame(0, bytes(80))


def test_bit_flip_on_stored_page_raises_on_read():
    from repro.storage import CorruptPageError
    disk = DiskManager(page_size=80)
    pid = disk.allocate()
    disk.write(pid, b"important")
    disk._flip_bit(pid, byte_index=3, bit=5)
    with pytest.raises(CorruptPageError):
        disk.read(pid)
    assert disk.stats.checksum_failures == 1
    # The failed transfer still moved the head: the read was accounted.
    assert disk.stats.page_reads == 1


def test_verify_page_is_unaccounted():
    disk = DiskManager(page_size=80)
    pid = disk.allocate()
    disk.write(pid, b"x")
    reads_before = disk.stats.page_reads
    assert disk.verify_page(pid)
    disk._flip_bit(pid, 0, 0)
    assert not disk.verify_page(pid)
    assert disk.stats.page_reads == reads_before
    assert disk.stats.checksum_failures == 0


def test_custom_page_size():
    disk = DiskManager(page_size=80)
    assert disk.usable_page_size == 64
    pid = disk.allocate()
    disk.write(pid, bytes(64))
    assert len(disk.read(pid)) == 64
    with pytest.raises(PageError):
        disk.write(pid, bytes(65))
