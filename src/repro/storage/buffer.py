"""LRU buffer pool in front of a :class:`~repro.storage.disk.DiskManager`.

The pool caches decoded page bytes; a hit is charged to
``IOStats.cache_hits`` instead of a disk read.  Experiments that want cold
queries call :meth:`BufferPool.clear` between queries.

Besides the per-file ``IOStats`` accounting, every pool keeps its own
cumulative hit/miss/eviction counters (:meth:`BufferPool.counters`), and
its capacity can be changed in place with :meth:`BufferPool.resize` — the
batch query engine uses this to lend an index a large shared cache for the
duration of a batch and hand it back unchanged afterwards.

When several tenants share one pool (the serve layer multiplexes every
client of a field onto the field's pool), reads can additionally be
attributed to a *tenant*: per-tenant hits, misses and payload bytes
accumulate in :meth:`BufferPool.tenant_counters`, and
:meth:`BufferPool.tenant_residency` reports who is occupying the resident
frames.  Residency is computed over *distinct* pages: a page touched by
several tenants is shared, counted once in every total — summing the
per-tenant exclusive figures plus the shared pool never double-counts a
frame, so the report's totals always equal the pool's true footprint.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from ..obs.metrics import REGISTRY
from .disk import DiskManager
from .faults import CorruptPageError, TransientIOError

#: Stands for the payload of the miss whose disk read raised.
_FAILED = object()

_POOL_READS = REGISTRY.counter(
    "repro_pool_reads_total",
    "Buffer-pool read outcomes per backing file (event: hit|miss).")
_POOL_EVICTIONS = REGISTRY.counter(
    "repro_pool_evictions_total",
    "LRU evictions per backing file (capacity pressure only).")
_POOL_FRAMES = REGISTRY.gauge(
    "repro_pool_frames",
    "Resident frames per backing file at last update.")


@dataclass(frozen=True)
class PoolCounters:
    """Cumulative hit/miss/eviction counts of one :class:`BufferPool`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def accesses(self) -> int:
        """Total reads served (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of reads served from the pool (0.0 when unused)."""
        return self.hits / self.accesses if self.accesses else 0.0

    def diff(self, earlier: "PoolCounters") -> "PoolCounters":
        """Counter deltas accumulated since ``earlier``."""
        return PoolCounters(hits=self.hits - earlier.hits,
                            misses=self.misses - earlier.misses,
                            evictions=self.evictions - earlier.evictions)

    def __add__(self, other: "PoolCounters") -> "PoolCounters":
        return PoolCounters(hits=self.hits + other.hits,
                            misses=self.misses + other.misses,
                            evictions=self.evictions + other.evictions)


@dataclass(frozen=True)
class TenantCounters:
    """Cumulative per-tenant read traffic through one shared pool."""

    hits: int = 0
    misses: int = 0
    #: Payload bytes served to this tenant (hits and misses alike).
    bytes_read: int = 0

    @property
    def accesses(self) -> int:
        """Total reads served to this tenant."""
        return self.hits + self.misses

    def to_dict(self) -> dict:
        """JSON-safe form, for the serve layer's ``stats`` verb."""
        return {"hits": self.hits, "misses": self.misses,
                "bytes_read": self.bytes_read}


class BufferPool:
    """Write-through LRU cache of pages.

    Parameters
    ----------
    disk:
        Backing file.
    capacity:
        Maximum number of cached pages; ``0`` disables caching entirely,
        turning every access into a disk read.
    """

    def __init__(self, disk: DiskManager, capacity: int = 128) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.disk = disk
        self.capacity = capacity
        self._frames: OrderedDict[int, bytes] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        # Tenant attribution: per-tenant [hits, misses, bytes] rows and,
        # for every *resident* frame, the set of tenants that read it
        # while resident (dropped with the frame).
        self._tenant_rows: dict[str, list[int]] = {}
        self._page_tenants: dict[int, set[str]] = {}
        self._current_tenant: str | None = None
        # One coarse lock covers the frame map, the pool counters, and
        # the backing disk's IOStats accounting on the miss path, so
        # concurrent readers (the batch query engine's workers, or
        # any future caller) can never lose counter increments or
        # corrupt the LRU order.  Uncontended cost is one C-level
        # acquire/release per access.
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._frames)

    def read(self, page_id: int, tenant: str | None = None) -> bytes:
        """Return page bytes, from cache when resident: a one-page
        :meth:`read_many`."""
        return self.read_many((page_id,), tenant)[0]

    def read_many(self, page_ids, tenant: str | None = None,
                  faults: list | None = None) -> list:
        """Read pages in order, accounted exactly like one access each.

        Hits, misses, evictions, admissions, LRU order, tenant rows and
        the backing disk's ``IOStats`` come out as a page-at-a-time
        loop leaves them, also when a read fails mid-batch.  The batch
        is served in runs whose hits and misses are known before any
        page of the run is read (:meth:`_next_run`); each run's misses
        are one :meth:`DiskManager.read_many` call.

        ``tenant`` (or, when omitted, the pool's current tenant — see
        :meth:`set_tenant`) attributes the accesses to a tenant's
        counters; ``None`` leaves them unattributed.  ``faults`` goes
        to the disk: a page that fails there is a miss that is neither
        admitted nor attributed, and its payload is ``None``.  Without
        it the error propagates once the accesses before it, and its
        own miss, are accounted.
        """
        page_ids = list(page_ids)
        out: list = []
        with self._lock:
            if tenant is None:
                tenant = self._current_tenant
            while len(out) < len(page_ids):
                run, misses = self._next_run(page_ids, len(out))
                try:
                    fetched = (self.disk.read_many(misses, faults)
                               if misses else ())
                except (CorruptPageError, TransientIOError) as exc:
                    self._serve(run, exc.partial, tenant, out)
                    raise
                self._serve(run, fetched, tenant, out)
        return out

    def _next_run(self, page_ids: list, start: int) -> tuple[list, list]:
        """The longest run of ``page_ids`` from ``start`` whose hits and
        misses are known before it is read, and the pages it misses.

        Without capacity nothing is admitted, so the rest is one run of
        misses.  Otherwise a run ends before a page it already missed
        (a failed read would miss it again) and after a miss whose
        admission evicts (the frame it evicts may be read later).
        """
        if not self.capacity:
            rest = page_ids[start:]
            return rest, rest
        frames = self._frames
        room = self.capacity - len(frames)
        misses: dict[int, None] = {}
        for end in range(start, len(page_ids)):
            pid = page_ids[end]
            if pid in frames:
                continue
            if pid in misses:
                return page_ids[start:end], list(misses)
            misses[pid] = None
            if len(misses) > room:
                return page_ids[start:end + 1], list(misses)
        return page_ids[start:], list(misses)

    def _serve(self, run: list, fetched, tenant: str | None,
               out: list) -> None:
        """Account a run's accesses in order; its misses take the
        ``fetched`` payloads in turn.  A miss past the end of
        ``fetched`` is the read that raised: it ends the run."""
        frames = self._frames
        capacity = self.capacity
        fetched = iter(fetched)
        hits = misses = 0
        for pid in run:
            data = frames.get(pid)
            hit = data is not None
            if hit:
                frames.move_to_end(pid)
                hits += 1
            else:
                misses += 1
                data = next(fetched, _FAILED)
                if data is _FAILED:
                    break
                if data is not None and capacity:   # None: skipped
                    self._admit(pid, data)
            if data is not None and tenant is not None:
                self._attribute(tenant, pid, len(data), hit=hit)
            out.append(data)
        self.hits += hits
        self.misses += misses
        self.disk.stats.cache_hits += hits
        if REGISTRY.enabled:
            if hits:
                _POOL_READS.inc(hits, disk=self.disk.name, event="hit")
            if misses:
                _POOL_READS.inc(misses, disk=self.disk.name, event="miss")

    def write(self, page_id: int, data: bytes) -> None:
        """Write through to disk and refresh the cached copy."""
        with self._lock:
            self.disk.write(page_id, data)
            if page_id in self._frames or self.capacity:
                # Re-read nothing: the disk normalizes padding, so
                # mirror its stored payload.
                self._admit(page_id, self.disk.page_payload(page_id))

    def resize(self, capacity: int) -> None:
        """Change the pool capacity in place.

        Growing keeps every resident frame; shrinking evicts LRU frames
        (counted in :attr:`evictions`) until the new bound holds.
        """
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        with self._lock:
            self.capacity = capacity
            self._shrink()

    def counters(self) -> PoolCounters:
        """Snapshot of the cumulative hit/miss/eviction counters."""
        with self._lock:
            return PoolCounters(hits=self.hits, misses=self.misses,
                                evictions=self.evictions)

    # -- tenant accounting --------------------------------------------------

    def set_tenant(self, tenant: str | None) -> str | None:
        """Set the tenant that unattributed reads are charged to.

        Returns the previous tenant so callers can restore it.  The
        serve layer's facade brackets every engine call with this (its
        per-field lock serializes the calls, so the attribute cannot be
        clobbered mid-request); code that already knows its tenant can
        pass ``tenant=`` to :meth:`read` directly instead.
        """
        with self._lock:
            previous = self._current_tenant
            self._current_tenant = tenant
            return previous

    def tenant_counters(self) -> dict[str, TenantCounters]:
        """Per-tenant cumulative read traffic (tenant → counters)."""
        with self._lock:
            return {tenant: TenantCounters(hits=row[0], misses=row[1],
                                           bytes_read=row[2])
                    for tenant, row in sorted(self._tenant_rows.items())}

    def reset_tenant_counters(self) -> None:
        """Zero the per-tenant traffic counters (residency is kept)."""
        with self._lock:
            self._tenant_rows.clear()

    def tenant_residency(self) -> dict:
        """Who occupies the resident frames, without double counting.

        A frame read by exactly one tenant while resident is
        *exclusive* to it; a frame read by several tenants is *shared*
        and counted once in the shared figures (never once per tenant);
        frames nobody read through a tenant (e.g. admitted by writes)
        are *unattributed*.  The invariant this report maintains —
        pinned by ``tests/test_concurrency.py`` — is::

            sum(exclusive_pages) + shared_pages + unattributed_pages
                == resident_pages == len(pool)

        and likewise for bytes, so summing the per-tenant column can
        never exceed the pool's true footprint.  Each tenant's entry
        also reports ``shared_pages``/``shared_bytes`` — the shared
        frames *it* touched — for visibility; those overlap between
        tenants by construction and are excluded from the totals.
        """
        with self._lock:
            tenants: dict[str, dict] = {
                tenant: {"exclusive_pages": 0, "exclusive_bytes": 0,
                         "shared_pages": 0, "shared_bytes": 0}
                for tenant in self._tenant_rows
            }
            shared_pages = shared_bytes = 0
            unattributed_pages = unattributed_bytes = 0
            resident_bytes = 0
            for page_id, data in self._frames.items():
                size = len(data)
                resident_bytes += size
                readers = self._page_tenants.get(page_id)
                if not readers:
                    unattributed_pages += 1
                    unattributed_bytes += size
                elif len(readers) == 1:
                    entry = tenants.setdefault(
                        next(iter(readers)),
                        {"exclusive_pages": 0, "exclusive_bytes": 0,
                         "shared_pages": 0, "shared_bytes": 0})
                    entry["exclusive_pages"] += 1
                    entry["exclusive_bytes"] += size
                else:
                    shared_pages += 1
                    shared_bytes += size
                    for tenant in readers:
                        entry = tenants.setdefault(
                            tenant,
                            {"exclusive_pages": 0, "exclusive_bytes": 0,
                             "shared_pages": 0, "shared_bytes": 0})
                        entry["shared_pages"] += 1
                        entry["shared_bytes"] += size
            return {
                "tenants": dict(sorted(tenants.items())),
                "shared_pages": shared_pages,
                "shared_bytes": shared_bytes,
                "unattributed_pages": unattributed_pages,
                "unattributed_bytes": unattributed_bytes,
                "resident_pages": len(self._frames),
                "resident_bytes": resident_bytes,
            }

    def _attribute(self, tenant: str, page_id: int, size: int,
                   hit: bool) -> None:
        """Charge one read to ``tenant`` (caller holds the lock)."""
        row = self._tenant_rows.get(tenant)
        if row is None:
            row = self._tenant_rows[tenant] = [0, 0, 0]
        row[0 if hit else 1] += 1
        row[2] += size
        if page_id in self._frames:
            readers = self._page_tenants.get(page_id)
            if readers is None:
                readers = self._page_tenants[page_id] = set()
            readers.add(tenant)

    def reset_counters(self) -> None:
        """Zero the hit/miss/eviction counters (frames stay resident)."""
        with self._lock:
            self.hits = 0
            self.misses = 0
            self.evictions = 0

    def invalidate(self, page_id: int) -> None:
        """Drop one cached frame, if resident.

        Used after out-of-band page mutations (fault injection, snapshot
        restore) so the pool cannot serve bytes the disk no longer
        holds.  Not an eviction — invalidation is correctness, not
        capacity pressure.
        """
        with self._lock:
            self._frames.pop(page_id, None)
            self._page_tenants.pop(page_id, None)

    def clear(self) -> None:
        """Drop every cached frame (simulates a cold cache).

        A deliberate cold reset is not cache pressure, so it does not
        count toward :attr:`evictions`.
        """
        with self._lock:
            self._frames.clear()
            self._page_tenants.clear()

    def _admit(self, page_id: int, data: bytes) -> None:
        if not self.capacity:
            return
        self._frames[page_id] = data
        self._frames.move_to_end(page_id)
        self._shrink()

    def _shrink(self) -> None:
        evicted = 0
        while len(self._frames) > self.capacity:
            page_id, _ = self._frames.popitem(last=False)
            self._page_tenants.pop(page_id, None)
            self.evictions += 1
            evicted += 1
        if REGISTRY.enabled:
            if evicted:
                _POOL_EVICTIONS.inc(evicted, disk=self.disk.name)
            _POOL_FRAMES.set(len(self._frames), disk=self.disk.name)
