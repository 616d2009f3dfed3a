"""Scatter-gather coordinator over Hilbert-range shards.

:class:`ShardedEngine` presents N per-shard access methods as one
:class:`~repro.core.base.ValueIndex`: the same ``query()`` pipeline,
batch engines, facade verbs, and serve layer run over it unchanged,
while the filtering step fans out to the shards and the gather merges
their candidates back into **exactly** the byte sequence the unsharded
method would have produced.  That equivalence is the design anchor —
sharding must never change an answer — and rests on three invariants:

* shards slice the *global* Hilbert order at page-aligned cuts
  (:mod:`repro.shard.shardmap`), so shard record files partition the
  unsharded clustered file and per-page accounting adds up;
* each shard is an ordinary index over a
  :class:`~repro.shard.field.ShardFieldView`, whose value geometry
  delegates to the base field — cost-model parameters and grid keys are
  identical everywhere;
* a freshly built I-Hilbert shard *inherits* the global grouping: the
  §3.1.2 greedy pass runs once over the whole field, groups are clipped
  at shard cuts, and clipped pieces keep the parent group's interval,
  so the set of data pages any query touches is the unsharded set,
  merely distributed.

Each shard is wrapped in its own :class:`~repro.core.facade.EngineFacade`
handle, so it keeps a private WAL, compaction schedule, IOStats, and
buffer pools; the coordinator aggregates them behind
:class:`ValueIndex`-shaped shims (``store``/``pool``) for the facade and
batch engines.  Scatter-gather runs in-process by default and across
forked worker processes under :meth:`ShardedEngine.workers`.

Rebalancing (:meth:`ShardedEngine.rebalance`) splits a shard whose size
or §3.1.2 cost drift crosses a threshold and merges undersized
neighbours, rebuilding only the affected shards from their *live*
records and atomically re-committing the shard map.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from ..core.base import (FaultMode, PAGE_SIZE, ValueIndex,
                         require_finite_records)
from ..core.cost import CostBasedGrouping, group_cells
from ..core.facade import EngineFacade
from ..core.grouped import GroupedIntervalIndex
from ..core.iall import IAllIndex
from ..core.ihilbert import (default_curve_order, linearize, make_curve,
                             centroid_grid_coords)
from ..core.linearscan import LinearScanIndex
from ..core.persist import load_index, save_index
from ..core.subfield import Subfield
from ..field.base import Field
from ..geometry import Rect
from ..obs.trace import NULL_TRACER
from ..rstar import RStarTree
from ..storage import IOStats, PAGE_HEADER_SIZE, PoolCounters, TenantCounters
from ..storage.remote import SimulatedObjectStore, remote_backend
from .field import shard_field_view
from .shardmap import (ShardMap, aligned_cut, build_shard_map,
                       load_shard_map, save_shard_map)

#: Access methods the coordinator can build per shard.  The gather
#: merge key depends on the unsharded method's candidate order: the
#: clustered (grouped) layout emits candidates in global Hilbert order
#: — which shard concatenation preserves — while the cell-ordered
#: methods emit ascending cell id.
SHARD_METHODS = ("I-Hilbert", "I-All", "LinearScan")

_METHOD_ALIASES = {
    "i-hilbert": "I-Hilbert", "ihilbert": "I-Hilbert",
    "i-all": "I-All", "iall": "I-All",
    "linearscan": "LinearScan", "linear-scan": "LinearScan",
    "scan": "LinearScan",
}


class ShardError(Exception):
    """Sharding-layer failure (not an engine/storage fault)."""


def _canonical_method(method: str) -> str:
    name = _METHOD_ALIASES.get(str(method).lower())
    if name is None:
        raise ShardError(
            f"unknown shard method {method!r}; expected one of "
            f"{SHARD_METHODS}")
    return name


# -- aggregate shims ----------------------------------------------------------

class _FanoutPool:
    """Broadcast/aggregate view over every pool of every shard.

    Satisfies the slice of the :class:`~repro.storage.buffer.BufferPool`
    API the facade and batch engines drive: capacity lending (resize is
    broadcast, capacity reads uniform), counter aggregation, tenant
    attribution, and cache clearing.
    """

    def __init__(self, engine: "ShardedEngine") -> None:
        self._engine = engine

    def _pools(self) -> list:
        return [pool for rt in self._engine.shards for pool in rt.pools()]

    @property
    def capacity(self) -> int:
        pools = self._pools()
        return max((p.capacity for p in pools), default=0)

    def __len__(self) -> int:
        return sum(len(p) for p in self._pools())

    # Raw counter attributes, mirrored from BufferPool (the tracer and
    # exporters read these directly rather than through counters()).
    @property
    def hits(self) -> int:
        return sum(p.hits for p in self._pools())

    @property
    def misses(self) -> int:
        return sum(p.misses for p in self._pools())

    @property
    def evictions(self) -> int:
        return sum(p.evictions for p in self._pools())

    def resize(self, capacity: int) -> None:
        for pool in self._pools():
            pool.resize(capacity)

    def clear(self) -> None:
        for pool in self._pools():
            pool.clear()

    def invalidate(self, page_id: int) -> None:
        # Page ids are per shard file; a global invalidation hint can
        # only be conservative.
        for pool in self._pools():
            pool.invalidate(page_id)

    def counters(self) -> PoolCounters:
        total = PoolCounters()
        for pool in self._pools():
            total = total + pool.counters()
        return total

    def reset_counters(self) -> None:
        for pool in self._pools():
            pool.reset_counters()

    def set_tenant(self, tenant: str | None) -> str | None:
        previous = None
        for k, pool in enumerate(self._pools()):
            saved = pool.set_tenant(tenant)
            if k == 0:
                previous = saved
        return previous

    def tenant_counters(self) -> dict[str, TenantCounters]:
        merged: dict[str, TenantCounters] = {}
        for pool in self._pools():
            for tenant, counters in pool.tenant_counters().items():
                have = merged.get(tenant, TenantCounters())
                merged[tenant] = TenantCounters(
                    hits=have.hits + counters.hits,
                    misses=have.misses + counters.misses,
                    bytes_read=have.bytes_read + counters.bytes_read)
        return merged

    def reset_tenant_counters(self) -> None:
        for pool in self._pools():
            pool.reset_tenant_counters()

    def tenant_residency(self) -> dict:
        merged: dict = {}
        for pool in self._pools():
            _merge_numeric(merged, pool.tenant_residency())
        return merged


def _merge_numeric(into: dict, other: dict) -> None:
    for key, value in other.items():
        if isinstance(value, dict):
            _merge_numeric(into.setdefault(key, {}), value)
        else:
            into[key] = into.get(key, 0) + value


class _AggregateStore:
    """The coordinator's ``index.store`` shim: sums over shard stores."""

    def __init__(self, engine: "ShardedEngine") -> None:
        self._engine = engine
        self.pool = _FanoutPool(engine)

    @property
    def dtype(self) -> np.dtype:
        return self._engine.shards[0].index.store.dtype

    @property
    def records_per_page(self) -> int:
        return self._engine.shards[0].index.store.records_per_page

    def __len__(self) -> int:
        return sum(len(rt.index.store) for rt in self._engine.shards)

    @property
    def num_pages(self) -> int:
        return sum(rt.index.store.num_pages for rt in self._engine.shards)

    def scan(self):
        """Pages of every shard store, in shard (= global Hilbert) order."""
        for rt in self._engine.shards:
            yield from rt.index.store.scan()


# -- per-shard state ----------------------------------------------------------

class ShardRuntime:
    """One shard: its spec, index, and private engine facade.

    The facade handle is the shard's operational identity — its own
    WAL attachment, IOStats, buffer pools, tenant accounting, and
    compaction all live behind it, exactly as a single-field engine's
    would (ISSUE: each shard is a miniature engine, not a slice of a
    shared one).
    """

    __slots__ = ("spec", "uid", "index", "facade")

    def __init__(self, spec, uid: int, index: ValueIndex) -> None:
        self.spec = spec
        self.uid = uid
        self.index = index
        self.facade = EngineFacade(default_workers=1)
        self.facade.open_field(self.name, index)

    @property
    def name(self) -> str:
        """Stable shard name (``shard-<uid>``); uids survive splits."""
        return f"shard-{self.uid}"

    def pools(self) -> list:
        """This shard's buffer pools (data store + R*-tree, if any)."""
        return self.index.pools()

    def stats(self) -> dict:
        """The facade's serving statistics for this shard."""
        return self.facade.stats(self.name)


class _ShardGroupedIndex(GroupedIntervalIndex):
    """A shard's I-Hilbert index, optionally with inherited intervals.

    When a group of the *global* §3.1.2 grouping is clipped at a shard
    cut, each piece keeps the parent group's ``[lo, hi]`` interval
    (``forced_intervals``): a query then selects a piece exactly when
    the unsharded engine selects the parent group, so the union of
    fetched data pages is the unsharded set.  Updates and compaction
    recompute intervals exactly from the live records, shrinking the
    forced hulls — answers stay equal (an exact interval is contained
    in its hull), only the page-identity pinning is fresh-build-only.
    """

    name = "I-Hilbert"

    def __init__(self, field: Field, order, groups, *,
                 forced_intervals=None, **kwargs) -> None:
        super().__init__(field, order, groups, **kwargs)
        if forced_intervals is not None:
            self._force_intervals(forced_intervals)

    def _force_intervals(self, intervals) -> None:
        if len(intervals) != len(self.subfields):
            raise ShardError(
                f"{len(intervals)} forced intervals for "
                f"{len(self.subfields)} subfields")
        changed = False
        for sf, (lo, hi) in zip(list(self.subfields), intervals):
            lo, hi = float(lo), float(hi)
            if lo > sf.lo or hi < sf.hi:
                raise ShardError(
                    f"forced interval [{lo}, {hi}] does not contain "
                    f"subfield {sf.sf_id}'s exact [{sf.lo}, {sf.hi}]")
            if (lo, hi) != (sf.lo, sf.hi):
                self.subfields[sf.sf_id] = Subfield(
                    sf.sf_id, lo, hi, sf.ptr_start, sf.ptr_end)
                changed = True
        self._built_costs = [
            self._sf_cost(sf, si)
            for sf, si in zip(self.subfields, self._sf_si)]
        if not changed:
            return
        # Rebuild the 1-D R*-tree over the widened intervals (the
        # compact() rebuild idiom: fresh disk, same injector and cache).
        injector = self.index_disk.fault_injector
        cache_pages = self.tree.pool.capacity
        self.index_disk = self._make_disk("sf-tree")
        self.index_disk.fault_injector = injector
        self.tree = RStarTree(dim=1, disk=self.index_disk,
                              cache_pages=cache_pages)
        self.tree.bulk_load(
            [Rect.from_interval(sf.lo, sf.hi) for sf in self.subfields],
            range(len(self.subfields)))
        self.tree.flush()


# -- the coordinator ----------------------------------------------------------

class ShardedEngine(ValueIndex):
    """N Hilbert-range shards behind one ``ValueIndex`` interface.

    Parameters
    ----------
    field:
        The field to shard.  Its record dtype must carry a ``cell_id``
        column (all built-in field types do) — the gather merge key.
    n_shards:
        Requested shard count; cut alignment may collapse adjacent
        cuts, so the built count can be lower (never higher).
    method:
        Per-shard access method: ``"I-Hilbert"`` (default), ``"I-All"``
        or ``"LinearScan"``.
    curve:
        Linearization curve name (as in
        :class:`~repro.core.ihilbert.IHilbertIndex`).
    cache_pages:
        Buffer-pool capacity *per shard* (data file; and tree file for
        indexed methods).
    remote_store / remote_cache_pages:
        When a :class:`~repro.storage.remote.SimulatedObjectStore` is
        given, every shard's pages live in it — each shard disk behind
        its own ``remote_cache_pages``-frame local cache under the
        namespace ``shard-<uid>`` — and ``disk_backend`` is ignored.
    map_dir:
        When given, the shard map is committed there at build time and
        re-committed atomically after every rebalance.
    """

    name = "Sharded"

    def __init__(self, field: Field, n_shards: int = 4,
                 method: str = "I-Hilbert", curve: str = "hilbert",
                 cache_pages: int = 0,
                 page_size: int = PAGE_SIZE,
                 retry_policy=None,
                 disk_backend="list",
                 remote_store: SimulatedObjectStore | None = None,
                 remote_cache_pages: int = 64,
                 map_dir: str | Path | None = None) -> None:
        method = _canonical_method(method)
        if "cell_id" not in (field.record_dtype.names or ()):
            raise ShardError(
                f"{type(field).__name__} records carry no 'cell_id' "
                f"column; the gather merge key requires one")
        self._init_protocol(field, type(field), method, cache_pages,
                            page_size, retry_policy, disk_backend,
                            remote_store, remote_cache_pages)

        dim = field.cell_centroids().shape[1]
        curve_obj = make_curve(curve, default_curve_order(field, dim), dim)
        coords = centroid_grid_coords(field.cell_centroids(),
                                      curve_obj.side, field.bounds)
        keys = np.asarray(curve_obj.indices(coords), dtype=np.int64)
        order = np.argsort(keys, kind="stable")
        self._order = order
        self._inverse = np.empty(len(order), dtype=np.int64)
        self._inverse[order] = np.arange(len(order))
        self._sorted_keys = keys[order]
        quantum = max(1, (page_size - PAGE_HEADER_SIZE)
                      // field.record_dtype.itemsize)
        self.shard_map = build_shard_map(
            self._sorted_keys, n_shards, int(curve_obj.side) ** dim,
            curve_name=curve, curve_order=curve_obj.order, dim=dim,
            page_quantum=quantum)

        records = field.cell_records()
        global_groups = global_intervals = None
        self._grouping = None
        if method == "I-Hilbert":
            # One global §3.1.2 pass — identical inputs to the
            # unsharded IHilbertIndex build — then clip at the cuts.
            vmins = records["vmin"][order].astype(np.float64)
            vmaxs = records["vmax"][order].astype(np.float64)
            span = field.value_range.length
            self._grouping = CostBasedGrouping(
                unit=span if span > 0 else 1.0, avg_query=0.5 * span)
            global_groups = group_cells(vmins, vmaxs, self._grouping)
            global_intervals = [
                (float(vmins[s:e + 1].min()), float(vmaxs[s:e + 1].max()))
                for s, e in global_groups]

        self.shards: list[ShardRuntime] = []
        for spec in self.shard_map.shards:
            view = shard_field_view(field, spec,
                                    order[spec.start:spec.stop])
            groups = forced = None
            if method == "I-Hilbert":
                groups, forced = _clip_groups(
                    global_groups, global_intervals, spec.start, spec.stop)
            self.shards.append(self._make_runtime(view, spec,
                                                  groups=groups,
                                                  forced=forced))

        self._map_dir = Path(map_dir) if map_dir is not None else None
        if self._map_dir is not None:
            self._commit_map()

    # -- construction internals ---------------------------------------------

    def _init_protocol(self, field, field_type, method, cache_pages,
                       page_size, retry_policy, disk_backend,
                       remote_store, remote_cache_pages) -> None:
        """Set up the ``ValueIndex`` protocol surface by hand.

        Deliberately no ``super().__init__``: the coordinator owns no
        disk of its own — its ``store`` is an aggregate over the
        shards — but everything the query pipeline, batch engines, and
        facade touch (stats, tracer, fault mode, store/pool shims) is
        provided here.
        """
        self.field = field
        self.field_type = field_type
        self.method = method
        self.name = f"Sharded[{method}]"
        self.stats = IOStats()
        self.maint_stats = IOStats()
        self.wal = None
        self._updated = False
        self._stat_cache: dict[int, object] = {}
        self.tracer = NULL_TRACER
        self.page_size = page_size
        self.retry_policy = retry_policy
        self.disk_backend = disk_backend
        self.cache_pages = cache_pages
        self.remote_store = remote_store
        self.remote_cache_pages = remote_cache_pages
        self._fault_mode: FaultMode = "raise"
        self._query_faults = []
        self.shards = []
        self.store = _AggregateStore(self)
        self._gather_lock = threading.RLock()
        self._workers = None
        self._next_uid = 0
        self._map_dir = None
        self._wal_dir: Path | None = None
        self._injector = None
        self._order = None
        self._inverse = None
        self._sorted_keys = None
        self._grouping = None
        #: Per-shard IOStats deltas of the most recent gather — the
        #: bench derives the simulated scale-out speedup from these.
        self.last_shard_io: list[IOStats] = []

    def _shard_backend(self, uid: int):
        if self.remote_store is not None:
            return remote_backend(self.remote_store,
                                  self.remote_cache_pages,
                                  namespace=f"shard-{uid}")
        return self.disk_backend

    def _make_runtime(self, view, spec, *, groups=None,
                      forced=None) -> ShardRuntime:
        uid = self._next_uid
        self._next_uid += 1
        kwargs = dict(cache_pages=self.cache_pages,
                      page_size=self.page_size,
                      retry_policy=self.retry_policy,
                      disk_backend=self._shard_backend(uid))
        if self.method == "LinearScan":
            index = LinearScanIndex(view, **kwargs)
        elif self.method == "I-All":
            index = IAllIndex(view, **kwargs)
        else:
            if groups is None:
                recs = view.cell_records()
                groups = group_cells(recs["vmin"].astype(np.float64),
                                     recs["vmax"].astype(np.float64),
                                     self._grouping)
            index = _ShardGroupedIndex(
                view, np.arange(view.num_cells, dtype=np.int64), groups,
                forced_intervals=forced, grouping=self._grouping,
                **kwargs)
        # Estimation and persistence speak the real field type, not the
        # dynamically derived view type.
        index.field_type = self.field_type
        runtime = ShardRuntime(spec, uid, index)
        if self._injector is not None:
            index.inject_faults(self._injector)
        if self._wal_dir is not None:
            index.attach_wal(self._wal_dir / f"{runtime.name}.wal")
        return runtime

    def _commit_map(self, extra: dict | None = None) -> None:
        if self._map_dir is None:
            return
        payload = {"method": self.method,
                   "shards": [rt.name for rt in self.shards]}
        payload.update(extra or {})
        save_shard_map(self._map_dir, self.shard_map, extra=payload)

    # -- the scatter-gather filtering step -----------------------------------

    def _candidates(self, lo: float, hi: float) -> np.ndarray:
        with self._gather_lock:
            per_shard = []
            if self._workers is not None:
                chunks, deltas, faults = self._workers.fetch(
                    lo, hi, self._fault_mode)
                for delta in deltas:
                    self.stats += delta
                    per_shard.append(delta)
                self._query_faults.extend(faults)
            else:
                chunks = []
                with self.tracer.span("scatter",
                                      {"shards": len(self.shards)}):
                    for rt in self.shards:
                        chunks.append(
                            self._fetch_one(rt, lo, hi, per_shard))
            self.last_shard_io = per_shard
        merged = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
        if self.method == "I-Hilbert" or len(merged) < 2:
            # Shard concatenation already reproduces the clustered
            # (global Hilbert) candidate order.
            return merged
        # Cell-ordered methods emit ascending cell id when unsharded.
        return merged[np.argsort(merged["cell_id"], kind="stable")]

    def _fetch_one(self, rt: ShardRuntime, lo: float, hi: float,
                   per_shard: list) -> np.ndarray:
        """One shard's filtering step, bracketed like a batch group.

        The shard's own IOStats delta is folded into the coordinator's
        counters and its per-page faults into the coordinator's query
        fault list; a skip-mode shard degrades alone, it never poisons
        the gather.  The fold runs in a ``finally`` so the global
        counters stay truthful even when a raise-mode fault aborts
        the scatter midway.
        """
        index = rt.index
        index._fault_mode = self._fault_mode
        index._query_faults = []
        index.tracer = self.tracer   # shard spans nest under the gather
        before = index.stats.snapshot()
        try:
            return index._candidates(lo, hi)
        finally:
            delta = index.stats.diff(before)
            self.stats += delta
            per_shard.append(delta)
            self._query_faults.extend(index._query_faults)
            index._fault_mode = "raise"
            index._query_faults = []
            index.tracer = NULL_TRACER

    # -- process transport ---------------------------------------------------

    def start_workers(self) -> None:
        """Fork one worker process per shard for the scatter-gather.

        While workers are live the parent's shard copies are frozen:
        queries fan out over pipes (per-shard IOStats deltas stream
        back and fold into the coordinator), and mutating verbs —
        updates, compaction, rebalance — raise until
        :meth:`stop_workers`.
        """
        if self._workers is not None:
            raise ShardError("workers are already running")
        from .procs import ShardWorkerPool
        self._workers = ShardWorkerPool(self)

    def stop_workers(self) -> None:
        """Terminate the worker processes and resume in-process."""
        if self._workers is not None:
            self._workers.close()
            self._workers = None

    @contextmanager
    def workers(self):
        """``with engine.workers():`` — scoped multiprocessing fan-out."""
        self.start_workers()
        try:
            yield self
        finally:
            self.stop_workers()

    def _require_local(self, verb: str) -> None:
        if self._workers is not None:
            raise ShardError(
                f"{verb} requires in-process shards; call stop_workers() "
                f"(worker processes hold frozen copies)")

    # -- updates -------------------------------------------------------------

    def update_cells(self, cell_ids, records,
                     crash_point: str | None = None) -> None:
        """Route a global update batch to the owning shards.

        Validation and WAL discipline are per shard: each sub-batch is
        logged to the owning shard's WAL (local cell ids) before its
        pages are rewritten.  A simulated crash mid-routing leaves the
        already-routed shards durable and the rest untouched — exactly
        the partial-failure surface a distributed write has.
        """
        self._require_local("update_cells")
        cell_ids = np.asarray(cell_ids, dtype=np.int64).ravel()
        records = np.asarray(records, dtype=self.store.dtype).ravel()
        if len(cell_ids) != len(records):
            raise ValueError(
                f"{len(cell_ids)} cell ids vs {len(records)} records")
        if len(cell_ids) == 0:
            return
        n = len(self.store)
        if cell_ids.min() < 0 or cell_ids.max() >= n:
            raise IndexError(
                f"cell ids must lie in [0, {n}); got "
                f"[{cell_ids.min()}, {cell_ids.max()}]")
        # Refused before routing, so no shard applies a partial batch.
        require_finite_records(records)
        positions = self._inverse[cell_ids]
        owners = self.shard_map.assign_positions(positions)
        for shard_id in np.unique(owners):
            rt = self.shards[shard_id]
            mask = owners == shard_id
            rt.index.update_cells(positions[mask] - rt.spec.start,
                                  records[mask], crash_point=crash_point)
        self._updated = True
        self._stat_cache.clear()

    def attach_wal(self, path, replay: bool = False) -> list:
        """Attach one write-ahead log per shard under directory ``path``.

        Returns the shard WALs (``shard-<uid>.wal`` each).  Rebalanced
        shards get fresh logs in the same directory.
        """
        directory = Path(path)
        directory.mkdir(parents=True, exist_ok=True)
        self._wal_dir = directory
        return [rt.index.attach_wal(directory / f"{rt.name}.wal",
                                    replay=replay)
                for rt in self.shards]

    # -- maintenance ---------------------------------------------------------

    def inject_faults(self, injector):
        """Attach one injector to every disk of every shard.

        The injector's per-op schedules count operations across the
        whole gather (shards run in shard order under the local
        transport), which keeps scheduled faults deterministic.
        """
        self._injector = injector
        for rt in self.shards:
            rt.index.inject_faults(injector)
        return injector

    def clear_caches(self) -> None:
        for rt in self.shards:
            rt.index.clear_caches()

    def compact(self, stale_threshold: float = 0.0) -> dict:
        """Run §3.1.2 compaction on every grouped shard."""
        self._require_local("compact")
        if self.method != "I-Hilbert":
            raise ShardError(
                f"{self.name} has no subfields to compact")
        shard_summaries = [rt.index.compact(stale_threshold)
                           for rt in self.shards]
        return {
            "shards": shard_summaries,
            "stale_subfields": sum(s["stale_subfields"]
                                   for s in shard_summaries),
            "reclustered_cells": sum(s["reclustered_cells"]
                                     for s in shard_summaries),
        }

    def aggregate(self, kind: str, lo: float, hi: float, *,
                  tolerance: float | None = None, mode: str = "hybrid"):
        """Scatter-gather range aggregate over the shards.

        COUNT/SUM/area are additive, so each grouped shard answers from
        its own learned models (the tolerance splits evenly across
        shards, which keeps the summed bound within the caller's) and
        the values and bounds sum.  AVG recombines from its COUNT and
        SUM parts; with a tolerance it routes to the exact path, since
        a ratio bound cannot be pre-split across shards.  Exact mode —
        and every mode on non-grouped shard methods — goes through the
        inherited candidate scatter.
        """
        from ..core.aggregate import (AggregateResult, _avg_bound,
                                      _validate)
        _validate(kind, lo, hi, mode, tolerance)
        if mode == "exact" or self.method != "I-Hilbert" or (
                kind == "avg" and mode == "hybrid"
                and tolerance is not None):
            return super().aggregate(kind, lo, hi, mode="exact")
        self._require_local("aggregate")
        per_kind = ("count", "sum") if kind == "avg" else (kind,)
        split = (tolerance / len(self.shards)
                 if tolerance is not None else None)
        totals = {k: 0.0 for k in per_kind}
        bounds = {k: 0.0 for k in per_kind}
        covered = model = exact = pages = 0
        with self._gather_lock, self.tracer.span(
                "aggregate", {"kind": kind, "shards": len(self.shards)}):
            for rt in self.shards:
                before = rt.index.stats.snapshot()
                try:
                    for k in per_kind:
                        r = rt.index.aggregate(k, lo, hi, tolerance=split,
                                               mode=mode)
                        totals[k] += r.value
                        bounds[k] += r.bound
                        covered += r.covered_subfields
                        model += r.model_subfields
                        exact += r.exact_subfields
                        pages += r.page_reads
                finally:
                    self.stats += rt.index.stats.diff(before)
        if kind == "avg":
            count, total = totals["count"], totals["sum"]
            value = total / count if count > 0 else 0.0
            bound = _avg_bound(count, bounds["count"],
                               total, bounds["sum"])
        else:
            value = totals[kind]
            bound = bounds[kind]
        return AggregateResult(
            kind=kind, lo=lo, hi=hi, value=float(value),
            bound=float(bound), mode=mode, tolerance=tolerance,
            covered_subfields=covered, model_subfields=model,
            exact_subfields=exact, page_reads=pages)

    def staleness(self, threshold: float = 0.0) -> dict:
        """Aggregate §3.1.2 drift over the shards (grouped method)."""
        if self.method != "I-Hilbert":
            return {"shards": len(self.shards), "max_drift": 0.0,
                    "per_shard": []}
        per_shard = [rt.index.staleness(threshold) for rt in self.shards]
        return {
            "shards": len(self.shards),
            "max_drift": max((s["max_drift"] for s in per_shard),
                             default=0.0),
            "stale_subfields": sum(s["stale_subfields"]
                                   for s in per_shard),
            "per_shard": per_shard,
        }

    def statistics(self, bins: int = 64):
        cached = self._stat_cache.get(bins)
        if cached is not None:
            return cached
        from ..core.statistics import FieldStatistics
        if self.field is not None and not self._updated:
            result = FieldStatistics.from_field(self.field, bins=bins)
        else:
            vmins, vmaxs = [], []
            self._require_local("statistics")
            for rt in self.shards:
                index = rt.index
                before = index.stats.snapshot()
                for page in index.store.scan():
                    vmins.append(page["vmin"].astype(np.float64))
                    vmaxs.append(page["vmax"].astype(np.float64))
                index.stats.restore(before)
                index.clear_caches()
            result = FieldStatistics.from_intervals(
                np.concatenate(vmins), np.concatenate(vmaxs), bins=bins)
        self._stat_cache[bins] = result
        return result

    # -- rebalancing ---------------------------------------------------------

    def rebalance(self, *, max_cells: int | None = None,
                  min_cells: int | None = None,
                  drift_threshold: float | None = None,
                  max_ops: int = 64) -> dict:
        """Split oversized/drifted shards, merge undersized neighbours.

        A shard splits when it holds more than ``max_cells`` cells or —
        for the grouped method — when its worst §3.1.2 cost drift
        exceeds ``drift_threshold`` (the split rebuilds both halves
        from the live records with a fresh local grouping, so drift
        resets; splitting *is* the distributed form of compaction).  A
        shard merges into its right neighbour when together they hold
        at most ``min_cells`` cells.  Every structural change
        re-commits the shard map atomically (when ``map_dir`` is set),
        so a crash leaves the previous generation readable.
        """
        self._require_local("rebalance")
        summary = {"shards_before": len(self.shards), "splits": 0,
                   "merges": 0, "shards_after": len(self.shards)}
        for _ in range(max_ops):
            if not (self._rebalance_split(max_cells, drift_threshold,
                                          summary)
                    or self._rebalance_merge(min_cells, summary)):
                break
        summary["shards_after"] = len(self.shards)
        return summary

    def _rebalance_split(self, max_cells, drift_threshold,
                         summary) -> bool:
        for k, rt in enumerate(self.shards):
            oversized = (max_cells is not None
                         and rt.spec.num_cells > max_cells)
            drifted = (drift_threshold is not None
                       and self.method == "I-Hilbert"
                       and rt.spec.num_cells >= 2
                       and rt.index.staleness()["max_drift"]
                       > drift_threshold)
            if (oversized or drifted) and self._split_shard(k):
                summary["splits"] += 1
                return True
        return False

    def _rebalance_merge(self, min_cells, summary) -> bool:
        if min_cells is None or len(self.shards) < 2:
            return False
        for k in range(len(self.shards) - 1):
            combined = (self.shards[k].spec.num_cells
                        + self.shards[k + 1].spec.num_cells)
            if combined <= min_cells:
                self._merge_shards(k)
                summary["merges"] += 1
                return True
        return False

    def _split_shard(self, k: int) -> bool:
        """Split shard ``k`` at its aligned midpoint; False if uncuttable."""
        if self._sorted_keys is None:
            raise ShardError(
                "rebalance splits need the Hilbert keys; engines "
                "reloaded without their field cannot split (merges "
                "still work)")
        rt = self.shards[k]
        spec = rt.spec
        local_keys = self._sorted_keys[spec.start:spec.stop]
        cut = aligned_cut(local_keys, spec.num_cells // 2,
                          self.shard_map.page_quantum)
        if cut is None:
            return False
        position = spec.start + cut
        new_map = self.shard_map.split(
            spec.shard_id, position, int(self._sorted_keys[position]))
        live = self._live_records(rt)
        left_rt = self._make_runtime(
            shard_field_view(self.field, new_map.shards[k],
                             self._order[spec.start:position],
                             records=live[:cut]),
            new_map.shards[k])
        right_rt = self._make_runtime(
            shard_field_view(self.field, new_map.shards[k + 1],
                             self._order[position:spec.stop],
                             records=live[cut:]),
            new_map.shards[k + 1])
        self._retire(rt)
        self.shards[k:k + 1] = [left_rt, right_rt]
        self._adopt_map(new_map)
        return True

    def _merge_shards(self, k: int) -> None:
        """Merge shard ``k`` with its right neighbour."""
        left, right = self.shards[k], self.shards[k + 1]
        new_map = self.shard_map.merge(left.spec.shard_id)
        spec = new_map.shards[k]
        live = np.concatenate([self._live_records(left),
                               self._live_records(right)])
        merged_rt = self._make_runtime(
            shard_field_view(self.field, spec,
                             self._order[spec.start:spec.stop],
                             records=live),
            spec)
        self._retire(left)
        self._retire(right)
        self.shards[k:k + 2] = [merged_rt]
        self._adopt_map(new_map)

    def _live_records(self, rt: ShardRuntime) -> np.ndarray:
        """Current records of a shard (updates included), charged to
        the shard's maintenance counters."""
        index = rt.index
        if len(index.store) == 0:
            return np.empty(0, dtype=index.store.dtype)
        with index._maintenance():
            records = np.array(
                index.store.read_range(0, len(index.store) - 1),
                copy=True)
        index.clear_caches()
        return records

    def _retire(self, rt: ShardRuntime) -> None:
        if rt.index.wal is not None:
            rt.index.wal.close()
        rt.facade.close_field(rt.name)

    def _adopt_map(self, new_map: ShardMap) -> None:
        self.shard_map = new_map
        for rt, spec in zip(self.shards, new_map.shards):
            rt.spec = spec
        self._stat_cache.clear()
        self._commit_map()

    # -- persistence ---------------------------------------------------------

    def save(self, directory: str | Path) -> None:
        """Persist every shard plus the shard map, crash-safely.

        Each shard saves through :func:`~repro.core.persist.save_index`
        into ``shard-<uid>/`` (truncating its WAL); the shard-map
        commit — which also records the shard directory names — is the
        engine-level commit point, after which directories of retired
        shards are garbage-collected.  Only the grouped method has a
        persistent form (as with the unsharded engine).
        """
        self._require_local("save")
        if self.method != "I-Hilbert":
            raise ShardError(
                f"{self.name} has no persistent form; only grouped "
                f"shards snapshot")
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        for rt in self.shards:
            save_index(rt.index, directory / rt.name)
        save_shard_map(directory, self.shard_map, extra={
            "method": self.method,
            "shards": [rt.name for rt in self.shards],
            "uids": [rt.uid for rt in self.shards],
        })
        keep = {rt.name for rt in self.shards}
        for path in directory.glob("shard-*"):
            if path.is_dir() and path.name not in keep:
                for child in sorted(path.rglob("*"), reverse=True):
                    child.unlink() if child.is_file() else child.rmdir()
                path.rmdir()

    checkpoint = save

    @classmethod
    def load(cls, directory: str | Path, field: Field | None = None,
             cache_pages: int = 0) -> "ShardedEngine":
        """Reload a saved sharded engine (shard map + every shard).

        With ``field`` the full API returns (rebalance splits need the
        Hilbert keys); without it the engine still queries, updates,
        merges, and saves — the global order is recovered from the
        shards' ``cell_id`` columns via a rolled-back metadata scan.
        """
        directory = Path(directory)
        smap, extra = load_shard_map(directory)
        engine = cls.__new__(cls)
        engine._init_protocol(field, None, extra["method"], cache_pages,
                              PAGE_SIZE, None, "list", None, 64)
        engine.shard_map = smap
        engine._next_uid = max(extra["uids"]) + 1
        order_parts = []
        for spec, name, uid in zip(smap.shards, extra["shards"],
                                   extra["uids"]):
            index = load_index(directory / name, cache_pages=cache_pages)
            rt = ShardRuntime(spec, uid, index)
            engine.shards.append(rt)
            before = index.stats.snapshot()
            ids = np.concatenate([
                page["cell_id"].astype(np.int64)
                for page in index.store.scan()]) if len(index.store) \
                else np.empty(0, dtype=np.int64)
            index.stats.restore(before)
            index.clear_caches()
            order_parts.append(ids)
        engine._order = np.concatenate(order_parts)
        engine.field_type = engine.shards[0].index.field_type
        engine._inverse = np.empty(len(engine._order), dtype=np.int64)
        engine._inverse[engine._order] = np.arange(len(engine._order))
        engine.page_size = engine.shards[0].index.page_size
        if field is not None:
            dim = field.cell_centroids().shape[1]
            curve_obj = make_curve(smap.curve_name, smap.curve_order, dim)
            coords = centroid_grid_coords(field.cell_centroids(),
                                          curve_obj.side, field.bounds)
            keys = np.asarray(curve_obj.indices(coords), dtype=np.int64)
            engine._sorted_keys = keys[engine._order]
            span = field.value_range.length
        else:
            span = 1.0
        engine._grouping = CostBasedGrouping(
            unit=span if span > 0 else 1.0, avg_query=0.5 * span)
        engine._map_dir = directory
        engine._updated = True   # ground truth is the stores now
        return engine

    # -- introspection -------------------------------------------------------

    @property
    def data_pages(self) -> int:
        return sum(rt.index.data_pages for rt in self.shards)

    @property
    def index_pages(self) -> int:
        return sum(rt.index.index_pages for rt in self.shards)

    def describe(self) -> dict:
        return {
            "method": self.name,
            "shard_method": self.method,
            "cells": len(self.store),
            "data_pages": self.data_pages,
            "index_pages": self.index_pages,
            "shards": len(self.shards),
            "shard_cells": [rt.spec.num_cells for rt in self.shards],
            "curve": self.shard_map.curve_name,
            "curve_order": self.shard_map.curve_order,
            "page_quantum": self.shard_map.page_quantum,
            "tiered": self.remote_store is not None,
        }

    def shard_stats(self) -> list[dict]:
        """Each shard facade's serving statistics, in shard order."""
        self._require_local("shard_stats")
        return [rt.stats() for rt in self.shards]

    def remote_counters(self) -> dict:
        """Per-shard and total remote-tier traffic (tiered engines)."""
        per_shard = {}
        totals: dict[str, float] = {}
        for rt in self.shards:
            disks = [rt.index.data_disk]
            index_disk = getattr(rt.index, "index_disk", None)
            if index_disk is not None:
                disks.append(index_disk)
            counters: dict[str, float] = {}
            for disk in disks:
                if hasattr(disk, "remote_counters"):
                    for key, value in disk.remote_counters().items():
                        if key == "cache_pages":
                            counters[key] = value
                        else:
                            counters[key] = counters.get(key, 0) + value
            per_shard[rt.name] = counters
            for key, value in counters.items():
                if key != "cache_pages":
                    totals[key] = totals.get(key, 0) + value
        result = {"shards": per_shard, "total": totals}
        if self.remote_store is not None:
            result["store"] = self.remote_store.counters()
        return result


def _clip_groups(groups, intervals, start: int, stop: int):
    """Clip global (inclusive) groups to one shard's position range.

    Returns shard-local groups tiling ``[0, stop - start)`` and, for
    each, the parent group's global interval (the inherited hull).
    """
    local_groups, forced = [], []
    for (gs, ge), interval in zip(groups, intervals):
        if ge < start or gs >= stop:
            continue
        local_groups.append((max(gs, start) - start,
                             min(ge, stop - 1) - start))
        forced.append(interval)
    return local_groups, forced
