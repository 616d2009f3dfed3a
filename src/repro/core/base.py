"""Common machinery of the three access methods.

Every method stores the field's cell records in a paged
:class:`~repro.storage.records.RecordStore` and answers a value query in
the paper's two steps: *filter* (produce candidate cell records whose
interval intersects the query) and *estimate* (compute answer regions from
the candidates).  Subclasses only implement the filtering step; storage,
I/O accounting and estimation are shared, which guarantees the comparison
between methods is apples-to-apples.
"""

from __future__ import annotations

import abc
from collections.abc import Callable
from contextlib import contextmanager
from pathlib import Path
from typing import Literal

import numpy as np

from ..field.base import Field
from ..field.extraction import extract_regions, total_area
from ..obs.metrics import REGISTRY
from ..obs.trace import NULL_TRACER
from ..storage import (DiskManager, FaultInjector, IOStats, PAGE_SIZE,
                       PageFault, RecordStore, RetryPolicy, SimulatedCrash,
                       WAL_CRASH_POINTS, WriteAheadLog)
from .query import QueryResult, ValueQuery

EstimateMode = Literal["none", "area", "regions"]
FaultMode = Literal["raise", "skip"]
#: A page-file factory with :class:`~repro.storage.disk.DiskManager`'s
#: constructor signature: ``DiskManager`` itself, or a bound tier such
#: as :func:`repro.storage.remote.remote_backend`'s.
DiskBackend = Callable[..., DiskManager]

_QUERIES = REGISTRY.counter(
    "repro_queries_total",
    "Value queries executed, per access method.")
_QUERY_PAGES = REGISTRY.histogram(
    "repro_query_page_reads",
    "Accounted page reads per value query, per access method.")
_QUERY_CANDIDATES = REGISTRY.histogram(
    "repro_query_candidates",
    "Candidate cells produced by the filtering step, per access method.")
_QUERY_DEGRADED = REGISTRY.counter(
    "repro_queries_degraded_total",
    "Queries that skipped unreadable data pages (on_fault='skip'), "
    "per access method.")
_UPDATES = REGISTRY.counter(
    "repro_cell_updates_total",
    "Cell records rewritten by live updates, per access method.")
_MAINT_READS = REGISTRY.counter(
    "repro_maintenance_page_reads_total",
    "Page reads charged to index maintenance (never to queries), "
    "per access method.")
_MAINT_WRITES = REGISTRY.counter(
    "repro_maintenance_page_writes_total",
    "Page writes charged to index maintenance, per access method.")

#: Crash points honoured by :meth:`ValueIndex.update_cells`: the
#: index-level ``pre-wal`` (before anything is durable) and
#: ``wal-appended`` (the batch is acknowledged, no page written yet —
#: the window the WAL exists for), plus the WAL's own internal points.
UPDATE_CRASH_POINTS = ("pre-wal", "wal-appended") + WAL_CRASH_POINTS


def interval_mask(records: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Mask of the records whose ``[vmin, vmax]`` intersects ``[lo, hi]``.

    Compared in float64: float32 records against a float64 bound would
    otherwise round the bound to float32 (NEP 50), disagreeing with the
    R*-tree's float64 arithmetic.
    """
    return ((records["vmin"].astype(np.float64) <= hi)
            & (records["vmax"].astype(np.float64) >= lo))


def require_finite_records(records: np.ndarray) -> None:
    """Raise ``ValueError`` naming the first record with a NaN or ±inf
    (a NaN interval bound drops its cell from every query)."""
    for name in records.dtype.names or ():
        column = records[name]
        if column.dtype.kind != "f":
            continue
        bad = ~np.isfinite(column).reshape(len(records), -1).all(axis=1)
        if bad.any():
            row = int(np.flatnonzero(bad)[0])
            raise ValueError(
                f"records[{row}].{name} is not finite; updates must "
                f"carry finite values")


class FilterStep:
    """One filtering step of ``index`` under fault mode ``mode``.

    The one bracket around the index's fault state: every filtering
    step — a single query, a batch group, a shard of a scatter, a shard
    worker process — runs through :meth:`run`.
    """

    __slots__ = ("index", "mode", "io", "faults")

    def __init__(self, index: "ValueIndex", mode: FaultMode) -> None:
        self.index = index
        self.mode = mode
        self.io: IOStats | None = None
        self.faults: list[PageFault] = []

    def run(self, lo: float, hi: float) -> np.ndarray:
        """Set the fault mode, run ``_candidates``, restore ``"raise"``
        and an empty fault list.

        The step's :class:`~repro.storage.stats.IOStats` delta and its
        skipped-page faults land in :attr:`io` and :attr:`faults` also
        when the step raises, so a caller folding them into its own
        totals stays truthful after a typed error.
        """
        index = self.index
        before = index.stats.snapshot()
        index._fault_mode = self.mode
        index._query_faults = []
        try:
            return index._candidates(lo, hi)
        finally:
            self.io = index.stats.diff(before)
            self.faults = index._query_faults
            index._fault_mode = "raise"
            index._query_faults = []


class ValueIndex(abc.ABC):
    """Base class for field-value access methods.

    Parameters
    ----------
    field:
        The continuous field to index.  Its cell records are copied into
        paged storage at construction; queries run purely from pages.
    cache_pages:
        Buffer-pool capacity for the data file (0 = every access hits the
        simulated disk, the paper's cold setting).
    stats:
        Optional shared I/O counter (a private one is created otherwise).
    page_size:
        Page size of the simulated store (default 4 KiB, the paper's).
    retry_policy:
        When given, every disk this index creates retries transient
        read faults under this
        :class:`~repro.storage.disk.RetryPolicy`.  ``None`` (default)
        lets the first transient fault propagate.
    disk_backend:
        Factory of every page file this index creates, called with
        :class:`~repro.storage.disk.DiskManager`'s keyword arguments
        (``stats``, ``name``, ``page_size``, ``retry_policy``).  The
        default is the in-memory ``DiskManager``;
        :func:`~repro.storage.remote.remote_backend` puts the files in
        an object store instead.
    """

    #: Human-readable method name, as used in the paper's plots.
    name: str = "method"

    def __init__(self, field: Field, cache_pages: int = 0,
                 stats: IOStats | None = None,
                 page_size: int = PAGE_SIZE,
                 retry_policy: RetryPolicy | None = None,
                 disk_backend: DiskBackend = DiskManager) -> None:
        self._init_state(field, type(field), stats=stats,
                         page_size=page_size, retry_policy=retry_policy,
                         disk_backend=disk_backend)
        self.data_disk = self._make_disk("data")
        self.store = RecordStore(self.data_disk, field.record_dtype,
                                 cache_pages=cache_pages)

    def _init_state(self, field: Field | None, field_type: type | None, *,
                    stats: IOStats | None = None,
                    page_size: int = PAGE_SIZE,
                    retry_policy: RetryPolicy | None = None,
                    disk_backend: DiskBackend = DiskManager) -> None:
        """Write the protocol state every index carries, storage aside.

        The constructor, :func:`~repro.core.persist.load_index` and the
        shard coordinator (which owns no page file of its own) all start
        from here.
        """
        self.field = field
        self.field_type = field_type
        self.stats = stats if stats is not None else IOStats()
        #: I/O spent maintaining the index under updates — kept apart
        #: from :attr:`stats` so the paper's per-query page counts stay
        #: honest while the field is being written to.
        self.maint_stats = IOStats()
        #: Write-ahead log making update batches durable before any
        #: in-place page write; ``None`` until :meth:`attach_wal`.
        self.wal: WriteAheadLog | None = None
        self._updated = False
        self._stat_cache: dict[int, object] = {}
        #: Span recorder for the query lifecycle; the default no-op
        #: tracer is free — install a real one with ``Tracer.attach``.
        self.tracer = NULL_TRACER
        self.page_size = page_size
        self.retry_policy = retry_policy
        self.disk_backend = disk_backend
        self._fault_mode: FaultMode = "raise"
        self._query_faults: list[PageFault] = []

    def _make_disk(self, name: str) -> DiskManager:
        """Create a page file honouring this index's backend and retry
        policy."""
        return self.disk_backend(stats=self.stats, name=name,
                                 page_size=self.page_size,
                                 retry_policy=self.retry_policy)

    def inject_faults(self, injector: FaultInjector) -> FaultInjector:
        """Attach a fault injector to every disk this index owns.

        Covers the data file and, for indexed methods, the index file;
        returns the injector for chaining.  Pass ``None`` to detach.
        """
        self.data_disk.fault_injector = injector
        index_disk = getattr(self, "index_disk", None)
        if index_disk is not None:
            index_disk.fault_injector = injector
        return injector

    # -- query pipeline ----------------------------------------------------

    def query(self, query: ValueQuery,
              estimate: EstimateMode = "area",
              on_fault: FaultMode = "raise") -> QueryResult:
        """Run one field value query and return its result.

        ``estimate`` selects the estimation step output: ``"none"`` stops
        after filtering (candidates only), ``"area"`` computes the total
        answer area with the vectorized closed form, ``"regions"``
        additionally materializes exact answer polygons.

        ``on_fault`` selects how storage faults surface.  ``"raise"``
        (default) propagates the typed error
        (:class:`~repro.storage.faults.CorruptPageError` or
        :class:`~repro.storage.faults.TransientIOError`) — the query
        never returns a silently wrong answer.  ``"skip"`` degrades
        gracefully: a *data* page that cannot be read is skipped, the
        fault is reported in ``result.faults``, and the answer is an
        explicit lower bound (``result.degraded`` is True).  Index/tree
        page faults always raise — a damaged index cannot bound what it
        missed.

        With a real tracer installed (see
        :meth:`repro.obs.trace.Tracer.attach`), the run records a
        ``query`` span whose children cover the lifecycle phases
        (``plan``/``filter``/``fetch`` from the method's filtering step,
        ``estimate`` from the estimation step).
        """
        if on_fault not in ("raise", "skip"):
            raise ValueError(
                f"on_fault must be 'raise' or 'skip', got {on_fault!r}")
        tracer = self.tracer
        step = FilterStep(self, on_fault)
        if tracer.enabled:
            with tracer.span("query", {"method": self.name,
                                       "lo": query.lo,
                                       "hi": query.hi}) as span:
                candidates = step.run(query.lo, query.hi)
                with tracer.span("estimate", {"mode": estimate}):
                    result = self._finish(query, candidates, estimate)
                span.attrs["candidates"] = result.candidate_count
                if step.faults:
                    span.attrs["faults"] = len(step.faults)
        else:
            result = self._finish(query, step.run(query.lo, query.hi),
                                  estimate)
        result.faults = step.faults
        result.io = step.io
        if REGISTRY.enabled:
            _QUERIES.inc(1, method=self.name)
            _QUERY_PAGES.observe(result.io.page_reads, method=self.name)
            _QUERY_CANDIDATES.observe(result.candidate_count,
                                      method=self.name)
            if result.faults:
                _QUERY_DEGRADED.inc(1, method=self.name)
        return result

    def _skip_faults(self) -> list[PageFault] | None:
        """The fault list the storage reads take: the query's in skip
        mode, where an unreadable data page is recorded and left out,
        and None in raise mode, where its typed error propagates."""
        return self._query_faults if self._fault_mode == "skip" else None

    def _fetch_rids(self, rids) -> np.ndarray:
        """Records of the given record ids, in ascending rid order.

        The rids are sorted so page fetches are deduplicated and as
        sequential as the clustering permits; the page set is one
        :meth:`RecordStore.read_page_set` batch.
        """
        faults = self._skip_faults()
        rids = np.sort(np.asarray(rids, dtype=np.int64))
        per_page = self.store.records_per_page
        pages = rids // per_page
        slots = rids - pages * per_page
        records, upages, offsets = self.store.read_page_set(pages, faults)
        if faults:      # keep the rids whose page came back
            kept = np.isin(pages, upages)
            pages, slots = pages[kept], slots[kept]
        return records[offsets[np.searchsorted(upages, pages)] + slots]

    def _filter_runs(self, runs, lo: float, hi: float) -> np.ndarray:
        """Filter step over inclusive ``(first, last)`` store page runs.

        Each run is one :meth:`RecordStore.read_pages` batch, reduced
        to the records whose interval intersects ``[lo, hi]``; the
        result keeps store order.
        """
        faults = self._skip_faults()
        chunks = []
        for first, last in runs:
            block = self.store.read_pages(first, last, faults)
            mask = interval_mask(block, lo, hi)
            if mask.any():
                chunks.append(block[mask])
        if not chunks:
            return np.empty(0, dtype=self.store.dtype)
        if len(chunks) == 1:
            return chunks[0]
        return np.concatenate(chunks)

    def _scan_filter(self, lo: float, hi: float) -> np.ndarray:
        """Sequential-scan filter: every store page, front to back."""
        with self.tracer.span("fetch") as span:
            if span.enabled:
                span.attrs["path"] = "scan"
            pages = self.store.num_pages
            return self._filter_runs([(0, pages - 1)] if pages else [],
                                     lo, hi)

    def _finish(self, query: ValueQuery, candidates: np.ndarray,
                estimate: EstimateMode) -> QueryResult:
        """Estimation step: turn filtered candidates into a result.

        Shared by :meth:`query` and the batch engine, which produces the
        candidate set differently (one fetch per group of overlapping
        queries) but must estimate identically.
        """
        result = QueryResult(query=query,
                             candidate_count=int(len(candidates)))
        if estimate == "area":
            result.area = self.field_type.estimate_area(
                candidates, query.lo, query.hi)
        elif estimate == "regions":
            regions = extract_regions(self.field_type, candidates,
                                      query.lo, query.hi)
            result.regions = regions
            result.area = total_area(regions)
        elif estimate != "none":
            raise ValueError(f"unknown estimate mode: {estimate!r}")
        return result

    def clear_caches(self) -> None:
        """Drop every pool's frames and forget its disk's head position
        (cold-query setting)."""
        for pool in self.pools():
            pool.clear()
            pool.disk.reset_head()

    def _start_cold(self) -> None:
        """Leave no trace of setup I/O: drop every frame and disk head,
        and zero every pool's counters and the IOStats, as on an index
        no query has run on (the end of a reload)."""
        self.clear_caches()
        for pool in self.pools():
            pool.reset_counters()
        self.stats.reset()
        self.maint_stats.reset()

    def pools(self) -> list:
        """Every buffer pool a query reads through: the data file's and,
        for tree-backed methods, the index file's."""
        tree = getattr(self, "tree", None)
        if tree is None:
            return [self.store.pool]
        return [self.store.pool, tree.pool]

    # -- live updates -------------------------------------------------------

    @contextmanager
    def _maintenance(self):
        """Charge the enclosed I/O to :attr:`maint_stats`, not queries.

        The shared :attr:`stats` counter is snapshotted, the work runs,
        and the delta is moved wholesale to the maintenance counter —
        the same rollback idiom the EXPLAIN metadata scan uses, so
        nested maintenance sections compose (an inner section's delta
        is already gone when the outer one diffs).
        """
        before = self.stats.snapshot()
        try:
            yield
        finally:
            delta = self.stats.diff(before)
            self.stats.restore(before)
            self.maint_stats += delta
            if REGISTRY.enabled:
                if delta.page_reads:
                    _MAINT_READS.inc(delta.page_reads, method=self.name)
                if delta.page_writes:
                    _MAINT_WRITES.inc(delta.page_writes, method=self.name)

    def attach_wal(self, path, replay: bool = False) -> WriteAheadLog:
        """Open (creating if needed) a write-ahead log for this index.

        From here on every :meth:`update_cells` batch is logged and
        fsynced *before* any page is written — the acknowledgment
        point.  An existing log with pending batches is refused unless
        ``replay=True``, in which case they are re-applied first
        (idempotent, so replaying onto an index that already saw them
        is harmless).
        """
        wal = WriteAheadLog(path)
        if wal.pending and not replay:
            wal.close()
            raise ValueError(
                f"{path}: write-ahead log holds {len(wal.pending)} pending "
                f"batches; open with replay=True or checkpoint it first")
        for batch in wal.pending:
            self._apply_update_batch(batch.cell_ids,
                                     batch.decode(self.store.dtype))
        self.wal = wal
        return wal

    def apply_updates(self, vertex_ids, values,
                      crash_point: str | None = None) -> np.ndarray:
        """Ingest new vertex measurements; returns the dirty cell ids.

        The field maps vertices to the cells they touch
        (:meth:`~repro.field.base.Field.apply_updates`), then the dirty
        records flow through :meth:`update_cells`.  Values are absolute
        replacement samples, so applying the same batch to several
        indexes sharing one field object is safe and keeps them equal.
        """
        if self.field is None:
            raise ValueError(
                "index carries no in-memory field (reloaded from disk); "
                "feed it records directly with update_cells()")
        # Checked as the records will hold them, so a finite float64
        # that overflows the record dtype is refused too.
        with np.errstate(over="ignore"):
            stored = np.asarray(values, dtype=np.float64).ravel().astype(
                self.store.dtype["vmin"])
        bad = np.flatnonzero(~np.isfinite(stored))
        if len(bad):
            raise ValueError(
                f"values[{bad[0]}] is not a finite "
                f"{stored.dtype} sample; updates must carry finite values")
        dirty = self.field.apply_updates(vertex_ids, values)
        if len(dirty):
            self.update_cells(dirty, self.field.cell_records()[dirty],
                              crash_point=crash_point)
        return dirty

    def update_cells(self, cell_ids, records,
                     crash_point: str | None = None) -> None:
        """Replace cell records in place, WAL-first when a log is attached.

        Protocol: (1) append the batch to the WAL and fsync — the
        update is now acknowledged; (2) rewrite the data pages and
        migrate index structures, with the I/O charged to
        :attr:`maint_stats`; (3) drop derived statistics so planners
        see the new intervals.  A crash anywhere after (1) is
        recovered by replay on the next load.  ``crash_point`` (tests
        only) aborts at a named step of :data:`UPDATE_CRASH_POINTS`.
        """
        if crash_point is not None and crash_point not in \
                UPDATE_CRASH_POINTS:
            raise ValueError(
                f"unknown crash point {crash_point!r}; expected one of "
                f"{UPDATE_CRASH_POINTS}")
        cell_ids = np.asarray(cell_ids, dtype=np.int64).ravel()
        records = np.asarray(records, dtype=self.store.dtype).ravel()
        if len(cell_ids) != len(records):
            raise ValueError(
                f"{len(cell_ids)} cell ids vs {len(records)} records")
        if len(cell_ids) == 0:
            return
        # Validate before logging: a bad id or value must fail fast,
        # not poison the WAL and fail again on every replay.
        if cell_ids.min() < 0 or cell_ids.max() >= len(self.store):
            raise IndexError(
                f"cell ids must lie in [0, {len(self.store)}); got "
                f"[{cell_ids.min()}, {cell_ids.max()}]")
        require_finite_records(records)
        if crash_point == "pre-wal":
            raise SimulatedCrash("pre-wal")
        if self.wal is not None:
            self.wal.append(
                cell_ids, records,
                crash_point=(crash_point
                             if crash_point in WAL_CRASH_POINTS else None))
        if crash_point == "wal-appended":
            raise SimulatedCrash("wal-appended")
        self._apply_update_batch(cell_ids, records)

    def _apply_update_batch(self, cell_ids: np.ndarray,
                            records: np.ndarray) -> None:
        """Apply an already-durable batch (also the WAL replay path)."""
        with self._maintenance():
            self._apply_cell_updates(cell_ids, records)
        self._updated = True
        self._stat_cache.clear()
        if REGISTRY.enabled:
            _UPDATES.inc(len(cell_ids), method=self.name)

    def _apply_cell_updates(self, cell_ids: np.ndarray,
                            records: np.ndarray) -> None:
        """Method-specific page rewrite + index maintenance."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support live updates")

    def checkpoint(self, directory: str | Path) -> None:
        """Persist the index and truncate the WAL (see ``save_index``)."""
        from .persist import save_index
        save_index(self, directory)

    def statistics(self, bins: int = 64):
        """Interval statistics that stay fresh under updates.

        Built from the live field while the index is pristine; after
        the first update the ground truth is the record store, so the
        histogram is recomputed from a metadata scan whose counters
        are rolled back (statistics are planner metadata, not query
        work).  Cached per bin count; invalidated by every update.
        """
        cached = self._stat_cache.get(bins)
        if cached is not None:
            return cached
        from .statistics import FieldStatistics
        if self.field is not None and not self._updated:
            result = FieldStatistics.from_field(self.field, bins=bins)
        else:
            before = self.stats.snapshot()
            vmins, vmaxs = [], []
            for page in self.store.scan():
                vmins.append(page["vmin"].astype(np.float64))
                vmaxs.append(page["vmax"].astype(np.float64))
            self.stats.restore(before)
            self.clear_caches()
            result = FieldStatistics.from_intervals(
                np.concatenate(vmins), np.concatenate(vmaxs), bins=bins)
        self._stat_cache[bins] = result
        return result

    def aggregate(self, kind: str, lo: float, hi: float, *,
                  tolerance: float | None = None, mode: str = "exact"):
        """Exact COUNT/SUM/AVG/area over a value interval.

        The generic path filters candidates like a Q2 query and reduces
        them in one vectorized pass.  Model-accelerated modes need the
        per-subfield boundaries of the grouped index
        (:meth:`repro.core.grouped.GroupedIntervalIndex.aggregate`).
        """
        if mode != "exact":
            raise ValueError(
                f"{type(self).__name__} has no aggregate models; only "
                f"mode='exact' is supported (got {mode!r}). Use the "
                f"grouped access method for model/hybrid aggregates.")
        from .aggregate import exact_aggregate
        return exact_aggregate(self, kind, lo, hi)

    # -- introspection ------------------------------------------------------

    @property
    def data_pages(self) -> int:
        """Pages occupied by the cell records."""
        return self.store.num_pages

    @property
    def index_pages(self) -> int:
        """Pages occupied by index structures (0 for a plain scan)."""
        return 0

    def describe(self) -> dict:
        """Build-time summary used by reports and tests."""
        return {
            "method": self.name,
            "cells": len(self.store),
            "data_pages": self.data_pages,
            "index_pages": self.index_pages,
        }

    # -- to implement ---------------------------------------------------------

    @abc.abstractmethod
    def _candidates(self, lo: float, hi: float) -> np.ndarray:
        """Records of every cell whose value interval intersects [lo, hi]."""
