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

Each shard is an ordinary index with its own WAL, compaction schedule,
IOStats and buffer pools.  :meth:`ShardedEngine.pools` lists every
shard's real pools, so the facade and the batch engines lend, restore
and attribute each pool on its own; the coordinator's ``store`` is a
thin shim summing the shard stores.  Scatter-gather runs in-process by
default and across forked worker processes under
:meth:`ShardedEngine.workers`.

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

from ..core.base import (FilterStep, PAGE_SIZE, ValueIndex,
                         require_finite_records)
from ..core.cost import default_grouping, group_cells
from ..core.grouped import GroupedIntervalIndex
from ..core.iall import IAllIndex
from ..core.ihilbert import curve_keys, default_curve_order, make_curve
from ..core.linearscan import LinearScanIndex
from ..core.persist import load_index, save_index
from ..field.base import Field
from ..obs.trace import NULL_TRACER
from ..storage import DiskManager, IOStats, PAGE_HEADER_SIZE
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


# -- the store shim ----------------------------------------------------------

class _AggregateStore:
    """The coordinator's ``index.store`` shim: sums over shard stores."""

    def __init__(self, engine: "ShardedEngine") -> None:
        self._engine = engine

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
        """Pages of every shard store, in shard (= global Hilbert) order.

        A metadata scan: each shard's counters roll back after its pages.
        """
        self._engine._require_local("statistics")
        for rt in self._engine.shards:
            index = rt.index
            before = index.stats.snapshot()
            try:
                yield from index.store.scan()
            finally:
                index.stats.restore(before)


# -- per-shard state ----------------------------------------------------------

class ShardRuntime:
    """One shard: its spec, stable uid, and index.

    The index is the shard's operational identity — its own WAL
    attachment, IOStats, buffer pools and compaction, exactly as a
    single-field engine's would be.
    """

    __slots__ = ("spec", "uid", "index")

    def __init__(self, spec, uid: int, index: ValueIndex) -> None:
        self.spec = spec
        self.uid = uid
        self.index = index

    @property
    def name(self) -> str:
        """Stable shard name (``shard-<uid>``); uids survive splits."""
        return f"shard-{self.uid}"


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
        namespace ``<prefix>/shard-<uid>``, where the engine claims a
        fresh ``<prefix>`` from the store, so engines can share one
        store.  Otherwise shards are in-memory
        :class:`~repro.storage.disk.DiskManager` files.
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
                 remote_store: SimulatedObjectStore | None = None,
                 remote_cache_pages: int = 64,
                 map_dir: str | Path | None = None) -> None:
        method = _canonical_method(method)
        if "cell_id" not in (field.record_dtype.names or ()):
            raise ShardError(
                f"{type(field).__name__} records carry no 'cell_id' "
                f"column; the gather merge key requires one")
        self._init_state(field, type(field), page_size=page_size,
                         retry_policy=retry_policy)
        self._init_coordinator(method, cache_pages, remote_store,
                               remote_cache_pages)

        dim = field.cell_centroids().shape[1]
        curve_obj = make_curve(curve, default_curve_order(field, dim), dim)
        keys = curve_keys(field, curve_obj)
        order = np.argsort(keys, kind="stable")
        self._adopt_order(order, keys)
        quantum = max(1, (page_size - PAGE_HEADER_SIZE)
                      // field.record_dtype.itemsize)
        self.shard_map = build_shard_map(
            self._sorted_keys, n_shards, int(curve_obj.side) ** dim,
            curve_name=curve, curve_order=curve_obj.order, dim=dim,
            page_quantum=quantum)

        records = field.cell_records()
        global_groups = global_intervals = None
        if method == "I-Hilbert":
            # One global §3.1.2 pass — identical inputs to the
            # unsharded IHilbertIndex build — then clip at the cuts.
            vmins = records["vmin"][order].astype(np.float64)
            vmaxs = records["vmax"][order].astype(np.float64)
            global_groups = group_cells(vmins, vmaxs, self._grouping)
            global_intervals = [
                (float(vmins[s:e + 1].min()), float(vmaxs[s:e + 1].max()))
                for s, e in global_groups]

        for spec in self.shard_map.shards:
            view = shard_field_view(field, spec,
                                    order[spec.start:spec.stop])
            groups = hulls = None
            if method == "I-Hilbert":
                groups, hulls = _clip_groups(
                    global_groups, global_intervals, spec.start, spec.stop)
            self.shards.append(self._make_runtime(view, spec,
                                                  groups=groups,
                                                  intervals=hulls))

        if map_dir is not None:
            self._map_dir = Path(map_dir)
            self._commit_map()

    # -- construction internals ---------------------------------------------

    def _init_coordinator(self, method: str, cache_pages: int,
                          remote_store: SimulatedObjectStore | None = None,
                          remote_cache_pages: int = 64) -> None:
        """Coordinator state common to a build and a reload.

        The ``ValueIndex`` protocol state comes from ``_init_state``;
        the coordinator owns no page file of its own — its ``store`` is
        a shim over the shard stores and :meth:`pools` lists theirs.
        """
        self.method = method
        self.name = f"Sharded[{method}]"
        self.cache_pages = cache_pages
        self.remote_store = remote_store
        self.remote_cache_pages = remote_cache_pages
        #: This engine's key prefix in ``remote_store``; shard ``uid``
        #: keeps its frames under ``<prefix>/shard-<uid>``.
        self._remote_prefix = (remote_store.claim()
                               if remote_store is not None else None)
        self.shards: list[ShardRuntime] = []
        self.store = _AggregateStore(self)
        self._gather_lock = threading.RLock()
        self._workers = None
        self._next_uid = 0
        self._map_dir: Path | None = None
        self._wal_dir: Path | None = None
        self._injector = None
        self._grouping = default_grouping(
            self.field.value_range.length if self.field is not None
            else 1.0)
        #: Per-shard IOStats deltas of the most recent gather — the
        #: bench derives the simulated scale-out speedup from these.
        self.last_shard_io: list[IOStats] = []

    def _adopt_order(self, order: np.ndarray,
                     keys: np.ndarray | None = None) -> None:
        """Install the global clustered order (position → cell id), its
        inverse, and — given every cell's curve key — the sorted keys
        that rebalance splits cut at."""
        self._order = order
        self._inverse = np.empty(len(order), dtype=np.int64)
        self._inverse[order] = np.arange(len(order))
        self._sorted_keys = keys[order] if keys is not None else None

    def _shard_backend(self, uid: int):
        if self.remote_store is not None:
            return remote_backend(
                self.remote_store, self.remote_cache_pages,
                namespace=f"{self._remote_prefix}/shard-{uid}")
        return DiskManager

    def _make_runtime(self, view, spec, *, groups=None,
                      intervals=None) -> ShardRuntime:
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
            index = GroupedIntervalIndex(
                view, np.arange(view.num_cells, dtype=np.int64), groups,
                grouping=self._grouping, intervals=intervals, **kwargs)
            index.name = "I-Hilbert"
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
        """One shard's filtering step, in the shard's own
        :class:`~repro.core.base.FilterStep` under the gather's mode.

        The step's IOStats delta is folded into the coordinator's
        counters and its per-page faults into the coordinator's query
        fault list; a skip-mode shard degrades alone, it never poisons
        the gather.  The fold runs in a ``finally`` so the global
        counters stay truthful even when a raise-mode fault aborts
        the scatter midway.
        """
        index = rt.index
        step = FilterStep(index, self._fault_mode)
        index.tracer = self.tracer   # shard spans nest under the gather
        try:
            return step.run(lo, hi)
        finally:
            self.stats += step.io
            per_shard.append(step.io)
            self._query_faults.extend(step.faults)
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
        shards = [ShardRuntime(spec, uid, load_index(directory / name,
                                                     cache_pages=cache_pages))
                  for spec, name, uid in zip(smap.shards, extra["shards"],
                                             extra["uids"])]
        first = shards[0].index
        engine = cls.__new__(cls)
        engine._init_state(field, first.field_type,
                           page_size=first.page_size)
        engine._init_coordinator(extra["method"], cache_pages)
        engine.shards = shards
        engine.shard_map = smap
        engine._next_uid = max(extra["uids"]) + 1
        order = np.concatenate([page["cell_id"].astype(np.int64)
                                for page in engine.store.scan()])
        engine._start_cold()
        keys = None
        if field is not None:
            dim = field.cell_centroids().shape[1]
            keys = curve_keys(field, make_curve(smap.curve_name,
                                                smap.curve_order, dim))
        engine._adopt_order(order, keys)
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

    def pools(self) -> list:
        """Every shard's buffer pools, in shard order.

        Evaluated per call, so it follows rebalances; the batch engine,
        the facade's tenancy bracket and the tracer lend, restore and
        read each pool on its own.
        """
        return [pool for rt in self.shards for pool in rt.index.pools()]

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
