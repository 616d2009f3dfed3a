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
from .codec import decode_pages
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

    @classmethod
    def reopen(cls, disk: DiskManager, manifest: dict,
               cache_pages: int = 0) -> "RecordStore":
        """Reopen a store over ``disk`` from its :meth:`manifest`.

        The tail page, when partial, is read back once (through the
        pool) so later appends continue it.
        """
        store = cls(disk, _dtype_from_descr(manifest["record_dtype"]),
                    cache_pages=cache_pages)
        store._page_ids = list(manifest["store_page_ids"])
        store._count = manifest["record_count"]
        store._tail_len = store._count % store.records_per_page
        store._tail_has_page = store._tail_len > 0
        if store._tail_len:
            store._tail[:store._tail_len] = store.read_page(
                len(store._page_ids) - 1)
        return store

    def manifest(self) -> dict:
        """JSON-safe description :meth:`reopen` rebuilds the store from."""
        return {"record_dtype": self.dtype.descr,
                "record_count": self._count,
                "store_page_ids": list(self._page_ids)}

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
        """Append many records; return the rid range they occupy.

        A partially filled tail page is topped up first.  The full
        pages after it are allocated in one
        :meth:`DiskManager.allocate_many` call and written straight
        from slices of the input; the rest becomes the new tail.  The
        page ids and page bytes are those of an :meth:`append` loop.
        """
        arr = np.ascontiguousarray(np.asarray(records, dtype=self.dtype))
        first = self._count
        rpp = self.records_per_page
        if self._tail_len and len(arr):
            take = min(len(arr), rpp - self._tail_len)
            self._tail[self._tail_len:self._tail_len + take] = arr[:take]
            self._tail_len += take
            self._count += take
            if self._tail_len == rpp:
                self._flush_tail()
            else:
                self._sync_partial_tail()
            arr = arr[take:]
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
        current = self.read_page(page_no)
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
        """Return the records of one store page: a one-page
        :meth:`read_pages`."""
        return self.read_pages(page_no, page_no)

    def read_pages(self, first_page: int, last_page: int,
                   faults: list | None = None) -> np.ndarray:
        """Decode a contiguous page run into one structured array.

        Inclusive on both ends.  The pages are fetched as one
        :meth:`BufferPool.read_many` batch, then decoded in one pass
        by the shared codec.  With ``faults`` (a query's skip-mode
        fault list) a page that cannot be read is recorded there and
        left out.
        """
        if first_page > last_page:
            return np.empty(0, dtype=self.dtype)
        return self._fetch(list(range(first_page, last_page + 1)),
                           faults)[2]

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

    def read_page_set(self, page_nos, faults: list | None = None
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Fetch a set of store pages as one concatenated array.

        ``page_nos`` may repeat and is reduced to its sorted unique
        pages, which are fetched as one batch.  Returns ``(records,
        pages, offsets)``: ``records[offsets[i]:]`` starts the records
        of page ``pages[i]``, so callers can gather arbitrary slots
        with ``records[offsets[searchsorted(pages, page)] + slot]``.
        With ``faults`` (skip mode) a page that cannot be read is
        recorded there and missing from ``pages``.
        """
        pages, counts, records = self._fetch(
            np.unique(np.asarray(page_nos, dtype=np.int64)).tolist(), faults)
        offsets = np.zeros(len(pages), dtype=np.int64)
        if len(counts) > 1:
            np.cumsum(counts[:-1], out=offsets[1:])
        return records, np.array(pages, dtype=np.int64), offsets

    def _fetch(self, page_nos: list[int], faults: list | None
               ) -> tuple[list[int], list[int], np.ndarray]:
        """Read ascending store pages as one pool batch and decode what
        came back: ``(pages, record counts, records)``."""
        last = len(self._page_ids) - 1
        if page_nos and not (0 <= page_nos[0] and page_nos[-1] <= last):
            raise IndexError(
                f"page {page_nos[0] if page_nos[0] < 0 else page_nos[-1]} "
                f"out of range (store has {last + 1} pages)")
        payloads = self.pool.read_many(
            [self._page_ids[p] for p in page_nos], faults=faults)
        if faults:      # skip mode after a fault: drop the failed pages
            page_nos = [p for p, raw in zip(page_nos, payloads)
                        if raw is not None]
            payloads = [raw for raw in payloads if raw is not None]
        counts = [self.records_per_page] * len(page_nos)
        if page_nos and page_nos[-1] == last:   # the tail may be partial
            counts[-1] = self._count - last * self.records_per_page
        return page_nos, counts, decode_pages(payloads, self.dtype, counts)

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


def _dtype_from_descr(descr: list) -> np.dtype:
    """Rebuild a structured dtype from its JSON-roundtripped descr."""
    return np.dtype([tuple(entry[:2]) if len(entry) == 2
                     else (entry[0], entry[1], tuple(entry[2]))
                     for entry in descr])
