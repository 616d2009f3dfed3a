"""Fixed-size record files packed into pages.

A :class:`RecordStore` lays numpy-structured records onto consecutive pages
of a :class:`~repro.storage.disk.DiskManager`.  Record ids are dense
integers; ``rid // records_per_page`` is the page index inside the store.
The store is the physical substrate for cell tables (LinearScan reads it
front to back; I-Hilbert reads clustered rid ranges out of it).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

from .buffer import BufferPool
from .codec import decode_pages, decode_records
from .disk import DiskManager


class RecordStore:
    """Append-only file of fixed-size records.

    Parameters
    ----------
    disk:
        Backing page file.  Pages are allocated on demand, in order, so a
        store built in one burst is physically contiguous.
    dtype:
        numpy structured dtype describing one record.
    cache_pages:
        LRU buffer-pool capacity used for reads (0 = uncached).
    """

    def __init__(self, disk: DiskManager, dtype: np.dtype,
                 cache_pages: int = 0) -> None:
        self.disk = disk
        self.dtype = np.dtype(dtype)
        if self.dtype.itemsize > disk.usable_page_size:
            raise ValueError(
                f"record of {self.dtype.itemsize} bytes does not fit in "
                f"the {disk.usable_page_size} usable bytes of a "
                f"{disk.page_size}-byte page (frame header included)")
        # Capacity derives from the *usable* page size: the checksummed
        # frame header claims the first bytes of every page.
        self.records_per_page = disk.usable_page_size // self.dtype.itemsize
        self.pool = BufferPool(disk, capacity=cache_pages)
        self._page_ids: list[int] = []
        self._count = 0
        self._tail = np.empty(self.records_per_page, dtype=self.dtype)
        self._tail_len = 0
        self._tail_has_page = False

    def __len__(self) -> int:
        return self._count

    @property
    def num_pages(self) -> int:
        """Number of pages the store occupies (including a partial tail)."""
        return len(self._page_ids)

    @property
    def page_ids(self) -> tuple[int, ...]:
        """Physical page ids, in record order."""
        return tuple(self._page_ids)

    def append(self, record) -> int:
        """Append one record (tuple matching the dtype); return its rid."""
        self._tail[self._tail_len] = record
        self._tail_len += 1
        rid = self._count
        self._count += 1
        if self._tail_len == self.records_per_page:
            self._flush_tail()
        else:
            self._sync_partial_tail()
        return rid

    def extend(self, records: np.ndarray | Iterable) -> range:
        """Append many records; return the rid range they occupy."""
        arr = np.asarray(records, dtype=self.dtype)
        first = self._count
        for start in range(0, len(arr), self.records_per_page):
            chunk = arr[start:start + self.records_per_page]
            take = min(len(chunk), self.records_per_page - self._tail_len)
            self._tail[self._tail_len:self._tail_len + take] = chunk[:take]
            self._tail_len += take
            self._count += take
            if self._tail_len == self.records_per_page:
                self._flush_tail()
            rest = chunk[take:]
            if len(rest):
                self._tail[:len(rest)] = rest
                self._tail_len = len(rest)
                self._count += len(rest)
            self._sync_partial_tail()
        return range(first, self._count)

    def bulk_extend(self, records: np.ndarray | Iterable) -> range:
        """Append many records the bulk-load way; return their rid range.

        Byte-identical store layout to :meth:`extend` — same page ids,
        same page contents — but the full pages are allocated in one
        :meth:`DiskManager.allocate_many` call and written straight from
        slices of the input array, skipping the per-chunk tail-mirror
        copies.  A store whose tail page is partially filled falls back
        to :meth:`extend` (the bulk path only handles the page-aligned
        case, which is where bulk loading starts: an empty store).
        """
        arr = np.ascontiguousarray(np.asarray(records, dtype=self.dtype))
        if self._tail_len or not len(arr):
            return self.extend(arr)
        first = self._count
        rpp = self.records_per_page
        full, rem = divmod(len(arr), rpp)
        if full:
            first_page = self.disk.allocate_many(full)
            write = self.disk.write
            for k in range(full):
                write(first_page + k, arr[k * rpp:(k + 1) * rpp].tobytes())
            self._page_ids.extend(range(first_page, first_page + full))
            self._count += full * rpp
        if rem:
            self._tail[:rem] = arr[full * rpp:]
            self._tail_len = rem
            self._count += rem
            self._sync_partial_tail()
        return range(first, self._count)

    def update(self, rid: int, record) -> None:
        """Overwrite one record in place (read-modify-write of its page)."""
        self._check_rid(rid)
        page_no, slot = divmod(rid, self.records_per_page)
        current = np.array(self.read_page(page_no))
        current[slot] = record
        self.disk.write(self._page_ids[page_no], current.tobytes())
        # Keep the in-memory tail mirror coherent for later appends.
        if self._tail_has_page and page_no == len(self._page_ids) - 1:
            self._tail[:self._tail_len] = current
        # Only the written page's cached frame is stale; evicting the
        # whole pool would cold-start every other reader (and the batch
        # engine's cross-query cache) on each single-record update.
        self.pool.invalidate(self._page_ids[page_no])

    def get(self, rid: int) -> np.void:
        """Read a single record by id (one accounted page read)."""
        self._check_rid(rid)
        page_no, slot = divmod(rid, self.records_per_page)
        return self.read_page(page_no)[slot]

    def read_page(self, page_no: int) -> np.ndarray:
        """Return the records of one store page as a structured array."""
        if not 0 <= page_no < len(self._page_ids):
            raise IndexError(
                f"page {page_no} out of range (store has "
                f"{len(self._page_ids)} pages)")
        raw = self.pool.read(self._page_ids[page_no])
        n = self._records_on_page(page_no)
        return decode_records(raw, self.dtype, n)

    def read_pages(self, first_page: int, last_page: int) -> np.ndarray:
        """Decode a contiguous page run into one structured array.

        Inclusive on both ends.  The pages are fetched as one batch
        (:meth:`BufferPool.read_many`) with accounting identical to a
        serial :meth:`read_page` loop, then decoded in one pass by the
        shared codec — the vectorized query path's bulk fetch.
        """
        if first_page > last_page:
            return np.empty(0, dtype=self.dtype)
        for p in (first_page, last_page):
            if not 0 <= p < len(self._page_ids):
                raise IndexError(
                    f"page {p} out of range (store has "
                    f"{len(self._page_ids)} pages)")
        ids = self._page_ids[first_page:last_page + 1]
        payloads = self.pool.read_many(ids)
        counts = [self._records_on_page(p)
                  for p in range(first_page, last_page + 1)]
        return decode_pages(payloads, self.dtype, counts)

    def scan(self) -> Iterator[np.ndarray]:
        """Yield every page's records, front to back (sequential reads)."""
        for page_no in range(len(self._page_ids)):
            yield self.read_page(page_no)

    def read_range(self, rid_start: int, rid_end: int) -> np.ndarray:
        """Read records with ``rid_start <= rid <= rid_end`` (inclusive).

        The covering pages are one :meth:`read_pages` batch (accounted
        like a serial page loop), so a clustered range costs one random
        seek plus sequential reads — the access pattern subfields are
        designed to exploit — and one decode copy.  The result is a
        slice of that batch.
        """
        if rid_start > rid_end:
            return np.empty(0, dtype=self.dtype)
        self._check_rid(rid_start)
        self._check_rid(rid_end)
        first_page = rid_start // self.records_per_page
        block = self.read_pages(first_page, rid_end // self.records_per_page)
        start = rid_start - first_page * self.records_per_page
        return block[start:start + rid_end - rid_start + 1]

    def read_page_set(self, page_nos) -> tuple[np.ndarray, np.ndarray,
                                               np.ndarray]:
        """Fetch a set of store pages as one concatenated array.

        ``page_nos`` may repeat and is reduced to its sorted unique
        pages, which are fetched as one batch (same accounting as a
        serial ascending page loop).  Returns ``(records, unique_pages,
        offsets)``: ``records[offsets[i]:]`` starts the records of page
        ``unique_pages[i]``, so callers can gather arbitrary slots with
        ``records[offsets[searchsorted(unique_pages, page)] + slot]``.
        """
        upages = np.unique(np.asarray(page_nos, dtype=np.int64))
        if len(upages) and not (
                0 <= upages[0] and upages[-1] < len(self._page_ids)):
            raise IndexError(
                f"page {upages[0] if upages[0] < 0 else upages[-1]} out "
                f"of range (store has {len(self._page_ids)} pages)")
        ids = [self._page_ids[p] for p in upages.tolist()]
        payloads = self.pool.read_many(ids)
        counts = np.array([self._records_on_page(p)
                           for p in upages.tolist()], dtype=np.int64)
        records = decode_pages(payloads, self.dtype, counts.tolist())
        offsets = np.zeros(len(upages), dtype=np.int64)
        if len(counts) > 1:
            np.cumsum(counts[:-1], out=offsets[1:])
        return records, upages, offsets

    def _records_on_page(self, page_no: int) -> int:
        if page_no == len(self._page_ids) - 1:
            last = self._count - page_no * self.records_per_page
            return last
        return self.records_per_page

    def _flush_tail(self) -> None:
        if not self._tail_has_page:
            self._page_ids.append(self.disk.allocate())
        self.disk.write(self._page_ids[-1], self._tail.tobytes())
        self._tail_len = 0
        self._tail_has_page = False

    def _sync_partial_tail(self) -> None:
        if not self._tail_len:
            return
        if not self._tail_has_page:
            self._page_ids.append(self.disk.allocate())
            self._tail_has_page = True
        self.disk.write(self._page_ids[-1],
                        self._tail[:self._tail_len].tobytes())

    def _check_rid(self, rid: int) -> None:
        if not 0 <= rid < self._count:
            raise IndexError(
                f"rid {rid} out of range (store holds {self._count} records)")
