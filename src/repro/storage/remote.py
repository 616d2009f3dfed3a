"""Tiered storage: a simulated object store behind a local page cache.

Production field databases outgrow one node's disk long before they
outgrow one node's CPU; the standard answer (Neon, Aurora, BigQuery) is
to demote cold pages to a cheap, slow, durable *object store* and keep a
bounded local cache of hot pages in front of it.  This module simulates
that tier with the same determinism discipline as the rest of the
storage layer:

* :class:`SimulatedObjectStore` — a latency-modeled key/value store of
  page frames.  Every ``get``/``put`` is counted and charged simulated
  milliseconds; transient fetch errors fire on an explicit operation
  schedule (so a failing run is exactly reproducible) and permanent
  damage is planted with :meth:`SimulatedObjectStore.corrupt`.
* :class:`RemoteDiskManager` — a :class:`~repro.storage.disk.DiskManager`
  whose authoritative copy lives in an object store.  Writes go through
  to the store; reads are served from a bounded LRU frame cache and
  fall back to an accounted *remote fetch* on a miss, evicting the
  least-recently-used frame when the cache is full.  Checksums are
  verified on every read exactly like the local disk, so bit rot in
  the remote tier surfaces as the same typed
  :class:`~repro.storage.faults.CorruptPageError`, and with a
  ``retry_policy`` transient fetch errors are retried with exponential
  backoff like any other transient fault.
* :func:`remote_backend` — binds a store + cache budget into a disk
  factory that plugs straight into
  :class:`~repro.core.base.ValueIndex`'s ``disk_backend`` parameter, so
  any access method can run over the remote tier unchanged.

Frames are namespaced (``namespace/file/page``), so many disks — e.g.
every shard of a sharded field — can share one store while their fetch
and eviction counters stay attributable per disk.
"""

from __future__ import annotations

import functools
import itertools
import threading
from collections import OrderedDict
from collections.abc import Callable, Iterable

from .disk import (DiskManager, PAGE_HEADER_SIZE, _FRAME, _FRAME_MAGIC,
                   CHECKSUM_ALGO, FRAME_VERSION, PAGE_SIZE, RetryPolicy,
                   page_checksum, parse_frame)
from .faults import CorruptPageError, PageError, TransientIOError
from .stats import IOStats

#: Default simulated service times for one object-store round trip,
#: modeled on an intra-region object store (a few ms per GET, slightly
#: more per PUT) — one to two orders of magnitude slower than the local
#: sequential page read the cache saves.
REMOTE_GET_MS = 4.0
REMOTE_PUT_MS = 6.0


class RemoteFetchError(TransientIOError):
    """A remote GET failed transiently (timeout, throttle, 5xx).

    A :class:`~repro.storage.faults.TransientIOError`, so a disk's
    retry policy cures it; carries the object key for reports.
    """

    def __init__(self, disk: str, page_id: int, key: str) -> None:
        super().__init__(disk, page_id,
                         f"transient remote fetch error for {key!r}")
        self.key = key


class NamespaceTakenError(ValueError):
    """A key namespace was claimed twice in one object store; two
    owners of one namespace would overwrite each other's frames."""


class SimulatedObjectStore:
    """Deterministic in-memory object store for page frames.

    Parameters
    ----------
    get_ms / put_ms:
        Simulated service time charged per operation (accumulated in
        :attr:`simulated_ms`, never slept).
    fail_gets:
        0-based GET operation indices (counted across all keys) that
        raise :class:`RemoteFetchError` instead of returning data — the
        deterministic analogue of the fault injector's ``schedule``.
    """

    def __init__(self, get_ms: float = REMOTE_GET_MS,
                 put_ms: float = REMOTE_PUT_MS,
                 fail_gets: Iterable[int] | None = None) -> None:
        self.get_ms = float(get_ms)
        self.put_ms = float(put_ms)
        self._objects: dict[str, bytes] = {}
        self._fail_gets = set() if fail_gets is None else set(fail_gets)
        self.gets = 0
        self.puts = 0
        self.get_bytes = 0
        self.put_bytes = 0
        self.failed_gets = 0
        self.simulated_ms = 0.0
        self._namespaces: set[str] = set()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._objects)

    def __contains__(self, key: str) -> bool:
        return key in self._objects

    def fail_next_gets(self, schedule: Iterable[int],
                       relative: bool = True) -> None:
        """Arm transient failures at the given GET indices.

        With ``relative=True`` (default) the indices are counted from
        the *current* GET count, so ``fail_next_gets([0, 1])`` fails
        exactly the next two fetches regardless of history.
        """
        base = self.gets if relative else 0
        self._fail_gets.update(base + int(i) for i in schedule)

    def claim(self, namespace: str | None = None) -> str:
        """Reserve a key namespace for one owner and return it.

        ``None`` takes a fresh ``ns-<n>``; a namespace claimed before
        raises :class:`NamespaceTakenError` naming it.
        """
        with self._lock:
            if namespace is None:
                namespace = next(f"ns-{n}" for n in itertools.count()
                                 if f"ns-{n}" not in self._namespaces)
            elif namespace in self._namespaces:
                raise NamespaceTakenError(
                    f"namespace {namespace!r} is already taken in this "
                    f"object store")
            self._namespaces.add(namespace)
            return namespace

    def put(self, key: str, frame: bytes) -> None:
        """Store one object (an accounted, latency-charged PUT)."""
        with self._lock:
            self._objects[key] = bytes(frame)
            self.puts += 1
            self.put_bytes += len(frame)
            self.simulated_ms += self.put_ms

    def get(self, key: str, *, disk: str = "remote",
            page_id: int = -1) -> bytes:
        """Fetch one object (an accounted, latency-charged GET).

        ``disk``/``page_id`` only label the typed errors.  Raises
        :class:`RemoteFetchError` when this GET index is on the failure
        schedule (the failed round trip is still charged), and
        :class:`~repro.storage.faults.PageError` for a missing key.
        """
        with self._lock:
            op_index = self.gets
            self.gets += 1
            self.simulated_ms += self.get_ms
            if op_index in self._fail_gets:
                self.failed_gets += 1
                raise RemoteFetchError(disk, page_id, key)
            try:
                frame = self._objects[key]
            except KeyError:
                raise PageError(
                    f"{disk}: page {page_id}: no object {key!r} in the "
                    f"remote store") from None
            self.get_bytes += len(frame)
            return frame

    def delete(self, key: str) -> None:
        """Drop one object (idempotent)."""
        with self._lock:
            self._objects.pop(key, None)

    def corrupt(self, key: str, byte_index: int = 0, bit: int = 0) -> None:
        """Flip one payload bit of a stored frame (permanent bit rot).

        The frame header (checksum included) is left intact, so the
        next read of the page fails verification with a typed
        :class:`~repro.storage.faults.CorruptPageError` — retrying
        refetches the same rotten bytes, exactly like local rot.
        """
        with self._lock:
            frame = bytearray(self._objects[key])
            frame[PAGE_HEADER_SIZE + byte_index] ^= 1 << bit
            self._objects[key] = bytes(frame)

    def counters(self) -> dict:
        """JSON-safe snapshot of the store-wide traffic counters."""
        with self._lock:
            return {"objects": len(self._objects), "gets": self.gets,
                    "puts": self.puts, "get_bytes": self.get_bytes,
                    "put_bytes": self.put_bytes,
                    "failed_gets": self.failed_gets,
                    "simulated_ms": self.simulated_ms}


def _pack_frame(payload: bytes, crc: int, length: int) -> bytes:
    header = _FRAME.pack(_FRAME_MAGIC, FRAME_VERSION, CHECKSUM_ALGO,
                         length, crc)
    return header + payload


class RemoteDiskManager(DiskManager):
    """A page file whose authoritative copy lives in an object store.

    Writes are write-through: the full checksummed frame is PUT to the
    store and mirrored into a bounded local LRU frame cache.  Reads hit
    the local cache first; a miss performs an accounted *remote fetch*
    (latency-charged GET + frame parse + checksum verification) and
    admits the frame, evicting the least-recently-used one beyond
    ``cache_pages``.  Pages allocated but never written are sparse:
    they serve the zero payload without a round trip, like holes in an
    object-store layer file.

    I/O accounting is unchanged from the base class — a page read is a
    page read wherever the bytes came from — while the remote traffic
    lands in dedicated counters (:meth:`remote_counters`) so the tiering
    cost is visible separately.

    Parameters
    ----------
    store:
        The shared :class:`SimulatedObjectStore` holding cold frames.
    cache_pages:
        Local frame-cache capacity (0 = every read is a remote fetch).
    namespace:
        Key prefix isolating this disk's frames inside a shared store
        (e.g. ``"shard-3"``); keys are ``namespace/name/page_id``.

    The other parameters, ``retry_policy`` included, are
    :class:`~repro.storage.disk.DiskManager`'s.
    """

    def __init__(self, stats: IOStats | None = None, name: str = "disk",
                 page_size: int = PAGE_SIZE,
                 retry_policy: RetryPolicy | None = None, *,
                 store: SimulatedObjectStore,
                 cache_pages: int = 64,
                 namespace: str = "") -> None:
        if cache_pages < 0:
            raise PageError(
                f"cache_pages must be >= 0, got {cache_pages}")
        self.store = store
        self.cache_pages = cache_pages
        self.namespace = namespace
        self.remote_fetches = 0
        self.remote_evictions = 0
        self.local_hits = 0
        self.remote_puts = 0
        self.fetch_ms = 0.0
        self.put_ms = 0.0
        super().__init__(stats=stats, name=name, page_size=page_size,
                         retry_policy=retry_policy)

    def _init_storage(self) -> None:
        #: page_id -> (payload, crc, length); insertion order = LRU.
        self._local: OrderedDict[int, tuple[bytes, int, int]] = \
            OrderedDict()
        self._written: set[int] = set()
        self._num = 0

    @property
    def num_pages(self) -> int:
        return self._num

    @property
    def resident_pages(self) -> int:
        """Frames currently held in the local cache."""
        return len(self._local)

    def _key(self, page_id: int) -> str:
        return f"{self.namespace}/{self.name}/{page_id}"

    def _append_pages(self, count: int) -> None:
        # Allocation is metadata-only: unwritten pages are sparse holes
        # served as zeros, so building a store does not PUT empty pages.
        self._num += count

    # -- read path ----------------------------------------------------------

    def _entry(self, page_id: int,
               accounted: bool = True) -> tuple[bytes, int, int]:
        """Frame cache entry for a page, fetching on a miss.

        ``accounted=False`` (snapshot/scrub plumbing) still performs
        the fetch but leaves the tiering counters alone.
        """
        entry = self._local.get(page_id)
        if entry is not None:
            self._local.move_to_end(page_id)
            if accounted:
                self.local_hits += 1
            return entry
        if page_id not in self._written:
            entry = (self._zero_payload, self._zero_crc, 0)
        else:
            frame = self.store.get(self._key(page_id), disk=self.name,
                                   page_id=page_id)
            if accounted:
                self.remote_fetches += 1
                self.fetch_ms += self.store.get_ms
            length, crc, payload = parse_frame(self.name, page_id, frame,
                                               self.page_size)
            entry = (payload, crc, length)
        self._admit(page_id, entry)
        return entry

    def _admit(self, page_id: int, entry: tuple[bytes, int, int]) -> None:
        if self.cache_pages == 0:
            return
        self._local[page_id] = entry
        self._local.move_to_end(page_id)
        while len(self._local) > self.cache_pages:
            self._local.popitem(last=False)
            self.remote_evictions += 1

    def _verified_payload(self, page_id: int) -> bytes:
        payload, crc, _ = self._entry(page_id)
        if page_checksum(payload) != crc:
            self._checksum_failed(page_id)
        return payload

    # -- write path ---------------------------------------------------------

    def _store_payload(self, page_id: int, data: bytes, crc: int,
                       length: int) -> None:
        self.store.put(self._key(page_id), _pack_frame(data, crc, length))
        self.remote_puts += 1
        self.put_ms += self.store.put_ms
        self._written.add(page_id)
        self._admit(page_id, (data, crc, length))

    # -- unaccounted plumbing (pool admission, snapshots, scrub) -------------

    def page_payload(self, page_id: int) -> bytes:
        self._check(page_id)
        return self._entry(page_id, accounted=False)[0]

    def frame_bytes(self, page_id: int) -> bytes:
        self._check(page_id)
        payload, crc, length = self._entry(page_id, accounted=False)
        return _pack_frame(payload, crc, length)

    def store_frame(self, page_id: int, frame: bytes) -> None:
        self._check(page_id)
        length, crc, payload = parse_frame(self.name, page_id, frame,
                                           self.page_size)
        if page_checksum(payload) != crc:
            raise CorruptPageError(self.name, page_id)
        self.store.put(self._key(page_id),
                       _pack_frame(payload, crc, length))
        self._written.add(page_id)
        self._admit(page_id, (payload, crc, length))

    def verify_page(self, page_id: int) -> bool:
        self._check(page_id)
        payload, crc, _ = self._entry(page_id, accounted=False)
        return page_checksum(payload) == crc

    def _flip_bit(self, page_id: int, byte_index: int, bit: int) -> None:
        # Corrupt the authoritative copy, so eviction cannot heal the
        # rot; the local mirror is dropped and re-fetched on next read.
        if page_id in self._written:
            self.store.corrupt(self._key(page_id), byte_index, bit)
        else:
            payload, crc, length = self._entry(page_id, accounted=False)
            page = bytearray(payload)
            page[byte_index] ^= 1 << bit
            self.store.put(self._key(page_id),
                           _pack_frame(bytes(page), crc, length))
            self._written.add(page_id)
        self._local.pop(page_id, None)

    # -- reporting -----------------------------------------------------------

    def remote_counters(self) -> dict:
        """JSON-safe tiering counters of this disk."""
        return {"fetches": self.remote_fetches,
                "evictions": self.remote_evictions,
                "local_hits": self.local_hits,
                "puts": self.remote_puts,
                "resident_pages": len(self._local),
                "cache_pages": self.cache_pages,
                "fetch_ms": self.fetch_ms,
                "put_ms": self.put_ms}


def remote_backend(store: SimulatedObjectStore, cache_pages: int = 64,
                   namespace: str | None = None
                   ) -> Callable[..., RemoteDiskManager]:
    """Bind a store + cache budget into a ``disk_backend`` factory.

    The result plugs into :class:`~repro.core.base.ValueIndex` (and
    therefore every access method) as ``disk_backend=remote_backend(
    store, cache_pages)``: each disk the index creates — the data file,
    for indexed methods the tree file, and the tree a compaction
    rebuilds — lives in the object store behind its own
    ``cache_pages``-frame local cache, keyed under
    ``namespace/<file>/<page>``.

    Each call claims its namespace in the store
    (:meth:`SimulatedObjectStore.claim`): ``None`` (the default) takes
    a fresh one, and a namespace claimed before raises
    :class:`NamespaceTakenError`.  So indexes sharing one store never
    overwrite each other's frames, as long as each index gets its own
    factory.
    """
    return functools.partial(RemoteDiskManager, store=store,
                             cache_pages=cache_pages,
                             namespace=store.claim(namespace))
