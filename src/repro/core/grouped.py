"""Shared engine of the grouped (subfield-based) access methods.

I-Hilbert and the Interval-Quadtree baseline differ only in *how* they
decide the clustering order and the group boundaries; everything else —
the physically clustered cell file, the 1-D R*-tree over subfield
intervals, the two-step query — is identical and lives here.
"""

from __future__ import annotations

import numpy as np

from ..field.base import Field
from ..geometry import Rect
from ..obs.metrics import REGISTRY
from ..rstar import RStarTree
from ..storage import DiskManager, PAGE_SIZE, RetryPolicy
from .base import DiskBackend, ValueIndex
from .cost import CostBasedGrouping, GroupingPolicy, group_cells
from .subfield import Subfield

_STALENESS = REGISTRY.gauge(
    "repro_subfield_staleness",
    "Worst per-subfield cost drift (cost_now/cost_built - 1) since the "
    "last build or compaction, per access method.")
_COMPACTIONS = REGISTRY.counter(
    "repro_compactions_total",
    "compact() passes that re-clustered at least one stale run, per "
    "access method.")


class GroupedIntervalIndex(ValueIndex):
    """Value index over clustered cell groups (subfields).

    Parameters
    ----------
    field:
        Field to index.
    order:
        Permutation of cell indices: the physical storage order of the
        cell records (e.g. ascending Hilbert value of cell centers).
    groups:
        Inclusive ``(start, end)`` ranges over ``order`` — one subfield
        each.  Ranges must tile ``[0, num_cells)`` without gaps.
    grouping:
        The :class:`~repro.core.cost.GroupingPolicy` that produced
        ``groups`` (when there was one).  Supplies the cost-function
        parameters for staleness tracking and is re-used by
        :meth:`compact` to re-cluster stale runs.
    intervals:
        The ``(lo, hi)`` value interval each group is indexed under;
        each must contain its group's exact interval (``ValueError``
        otherwise).  Defaults to the exact intervals.  A shard piece of
        a clipped global group passes the parent group's hull, so a
        query selects the piece exactly when the unsharded index
        selects the group.  Updates and compaction recompute intervals
        exactly, shrinking a hull; answers stay equal, since an exact
        interval lies inside its hull.
    """

    name = "Grouped"

    def __init__(self, field: Field, order: np.ndarray,
                 groups: list[tuple[int, int]], cache_pages: int = 0,
                 page_size: int = PAGE_SIZE,
                 retry_policy: RetryPolicy | None = None,
                 disk_backend: DiskBackend = DiskManager,
                 grouping: GroupingPolicy | None = None,
                 intervals=None) -> None:
        super().__init__(field, cache_pages=cache_pages,
                         page_size=page_size, retry_policy=retry_policy,
                         disk_backend=disk_backend)
        order = np.asarray(order, dtype=np.int64)
        records = field.cell_records()
        if len(order) != len(records):
            raise ValueError(
                f"permutation of length {len(order)} does not cover "
                f"{len(records)} cells")
        self._validate_groups(groups, len(records))
        if intervals is not None and len(intervals) != len(groups):
            raise ValueError(
                f"{len(intervals)} intervals for {len(groups)} groups")
        self.order = order
        self.grouping = grouping
        self.store.extend(records[order])

        vmins = records["vmin"][order].astype(np.float64)
        vmaxs = records["vmax"][order].astype(np.float64)
        unit, _ = self._cost_params()
        sizes = vmaxs - vmins + unit
        self.subfields: list[Subfield] = []
        self._sf_si: list[float] = []
        for sf_id, (start, end) in enumerate(groups):
            lo = float(vmins[start:end + 1].min())
            hi = float(vmaxs[start:end + 1].max())
            if intervals is not None:
                hull_lo, hull_hi = map(float, intervals[sf_id])
                if hull_lo > lo or hull_hi < hi:
                    raise ValueError(
                        f"interval [{hull_lo}, {hull_hi}] does not contain "
                        f"subfield {sf_id}'s exact [{lo}, {hi}]")
                lo, hi = hull_lo, hull_hi
            self.subfields.append(Subfield(sf_id, lo, hi, start, end))
            self._sf_si.append(float(sizes[start:end + 1].sum()))
        self._built_costs: list[float] = [
            self._sf_cost(sf, si)
            for sf, si in zip(self.subfields, self._sf_si)]
        #: Learned aggregate models (core.aggregate); fitted lazily on
        #: the first aggregate() call or loaded from the manifest.
        self.aggregate_models = None

        self._build_tree(cache_pages)

    def _build_tree(self, cache_pages: int, injector=None) -> None:
        """Bulk-load the 1-D R*-tree over the subfield intervals.

        The tree goes on a fresh ``sf-tree`` disk carrying ``injector``
        behind a ``cache_pages``-frame pool; a rebuild passes the old
        tree's injector and cache so only the pages change.
        """
        self.index_disk = self._make_disk("sf-tree")
        self.index_disk.fault_injector = injector
        self.tree = RStarTree(dim=1, disk=self.index_disk,
                              cache_pages=cache_pages)
        self.tree.bulk_load_arrays(
            np.array([sf.lo for sf in self.subfields], dtype=np.float64),
            np.array([sf.hi for sf in self.subfields], dtype=np.float64),
            np.arange(len(self.subfields), dtype=np.int64))
        self.tree.flush()

    # -- reporting ----------------------------------------------------------

    @property
    def index_pages(self) -> int:
        return self.index_disk.num_pages

    @property
    def num_subfields(self) -> int:
        """Number of subfields the field was divided into."""
        return len(self.subfields)

    def describe(self) -> dict:
        info = super().describe()
        sizes = [sf.num_cells for sf in self.subfields]
        extents = [sf.hi - sf.lo for sf in self.subfields]
        info.update({
            "subfields": len(self.subfields),
            "cells_per_subfield": (sum(sizes) / len(sizes)
                                   if sizes else 0.0),
            "mean_interval_extent": (sum(extents) / len(extents)
                                     if extents else 0.0),
        })
        return info

    # -- dynamic maintenance ---------------------------------------------------

    def _apply_cell_updates(self, cell_ids: np.ndarray,
                            records: np.ndarray) -> None:
        self._ensure_cost_baseline()
        touched: set[int] = set()
        for cell_id, record in zip(cell_ids, records):
            rid = self._rid_of_cell(int(cell_id))
            self.store.update(rid, record)
            touched.add(self._subfield_of_rid(rid).sf_id)
        # One interval recomputation per touched subfield, however many
        # of its members the batch rewrote.  A model set out of step
        # with the subfield list is not refitted here; aggregate() and
        # compact() refit it in full.
        unit, _ = self._cost_params()
        models = self.aggregate_models
        if models is not None and \
                models.num_subfields != len(self.subfields):
            models = None
        for sf_id in sorted(touched):
            sf = self.subfields[sf_id]
            block = self.store.read_range(sf.ptr_start, sf.ptr_end)
            vmins = block["vmin"].astype(np.float64)
            vmaxs = block["vmax"].astype(np.float64)
            new_lo = float(vmins.min())
            new_hi = float(vmaxs.max())
            self._sf_si[sf_id] = float((vmaxs - vmins + unit).sum())
            # Values can move without changing the subfield interval, so
            # the aggregate models refit before the interval check —
            # reusing the block already in hand (no extra reads).
            if models is not None:
                models.refit(self.field_type, sf_id, block)
            if new_lo == sf.lo and new_hi == sf.hi:
                continue
            self.tree.delete(Rect.from_interval(sf.lo, sf.hi), sf_id)
            self.tree.insert(Rect.from_interval(new_lo, new_hi), sf_id)
            self.subfields[sf_id] = Subfield(
                sf_id, new_lo, new_hi, sf.ptr_start, sf.ptr_end)
        self.tree.flush()
        if REGISTRY.enabled:
            _STALENESS.set(self.staleness()["max_drift"], method=self.name)

    # -- subfield quality (paper §3.1.2 cost drift) ----------------------------

    def _cost_params(self) -> tuple[float, float]:
        """(unit, avg_query) of the §3.1.2 cost convention in force."""
        grouping = getattr(self, "grouping", None)
        unit = float(getattr(grouping, "unit", 1.0))
        avg_query = float(getattr(grouping, "avg_query", 0.0))
        if unit == 0.0 and avg_query == 0.0:
            unit = 1.0
        return unit, avg_query

    def _sf_cost(self, sf: Subfield, si: float) -> float:
        """Cost ``C = P / SI`` of one subfield (paper §3.1.2)."""
        unit, avg_query = self._cost_params()
        return (sf.hi - sf.lo + unit + avg_query) / max(si, 1e-12)

    def _ensure_cost_baseline(self) -> None:
        """Reconstruct SI sums and baseline costs after a reload.

        A freshly built index records them during grouping; a reloaded
        one derives SI from a single maintenance-accounted metadata
        sweep.  The drift baseline survives reloads via the manifest;
        when that record is missing (older snapshots) the *current*
        state becomes the baseline.
        """
        if getattr(self, "_sf_si", None) is not None:
            return
        unit, _ = self._cost_params()
        with self._maintenance():
            records = self.store.read_range(0, len(self.store) - 1)
        sizes = (records["vmax"].astype(np.float64)
                 - records["vmin"].astype(np.float64) + unit)
        self._sf_si = [float(sizes[sf.ptr_start:sf.ptr_end + 1].sum())
                       for sf in self.subfields]
        if getattr(self, "_built_costs", None) is None:
            self._built_costs = [
                self._sf_cost(sf, si)
                for sf, si in zip(self.subfields, self._sf_si)]

    def subfield_drifts(self) -> np.ndarray:
        """Per-subfield relative cost drift since build/compaction.

        ``drift = cost_now / cost_built − 1``: positive when updates
        widened a subfield's interval relative to the mass it carries
        (its access probability grew faster than its usefulness — the
        filter admits more false candidates), negative when they
        tightened it.
        """
        self._ensure_cost_baseline()
        drifts = np.empty(len(self.subfields), dtype=np.float64)
        for k, (sf, si, built) in enumerate(
                zip(self.subfields, self._sf_si, self._built_costs)):
            now = self._sf_cost(sf, si)
            drifts[k] = now / built - 1.0 if built > 0 else 0.0
        return drifts

    def staleness(self, threshold: float = 0.0) -> dict:
        """Summary of subfield quality drift (the ``repro.obs`` metric).

        A subfield counts as stale when its drift exceeds
        ``threshold`` (strictly positive drifts only — updates that
        tighten intervals improve the filter).
        """
        drifts = self.subfield_drifts()
        floor = max(threshold, 1e-12)
        return {
            "subfields": int(len(drifts)),
            "stale_subfields": int((drifts > floor).sum()),
            "max_drift": float(drifts.max()) if len(drifts) else 0.0,
            "mean_drift": float(drifts.mean()) if len(drifts) else 0.0,
        }

    def _compaction_policy(self) -> GroupingPolicy:
        if self.grouping is not None:
            return self.grouping
        unit, avg_query = self._cost_params()
        return CostBasedGrouping(unit=unit, avg_query=avg_query)

    def compact(self, stale_threshold: float = 0.0) -> dict:
        """Re-cluster stale runs of subfields; returns a summary dict.

        Value updates never move a cell spatially, so the physical
        (curve) order stays optimal — what goes stale is the *grouping*
        decided from the old intervals.  Compaction finds maximal runs
        of consecutive subfields whose cost drifted past
        ``stale_threshold``, re-reads each run once (sequentially),
        re-runs the §3.1.2 greedy grouping over it — splitting and
        merging as the new intervals dictate — and rebuilds the 1-D
        R*-tree over the resulting subfield list.  Untouched subfields
        keep their boundaries; record pages are never rewritten.  All
        I/O is maintenance-accounted.

        Aggregate models follow the subfields: untouched subfields keep
        their rows, and only the subfields of re-clustered runs are
        refitted, from the run blocks already read.  A model set out of
        step with the subfield list is refitted in full.
        """
        self._ensure_cost_baseline()
        drifts = self.subfield_drifts()
        stale = drifts > max(stale_threshold, 1e-12)
        summary = {"subfields_before": len(self.subfields),
                   "subfields_after": len(self.subfields),
                   "stale_subfields": int(stale.sum()),
                   "stale_runs": 0, "reclustered_cells": 0}
        if not stale.any():
            return summary
        unit, _ = self._cost_params()
        policy = self._compaction_policy()
        models = self.aggregate_models
        in_step = (models is not None
                   and models.num_subfields == len(self.subfields))
        # Per new subfield: the old model row it keeps, or -1; and the
        # (new id, cell block) of every re-clustered one.
        rows: list[int] = []
        refits: list[tuple[int, np.ndarray]] = []
        with self._maintenance():
            spans: list[tuple[float, float, int, int, float]] = []
            i = 0
            while i < len(self.subfields):
                if not stale[i]:
                    sf = self.subfields[i]
                    spans.append((sf.lo, sf.hi, sf.ptr_start, sf.ptr_end,
                                  self._sf_si[i]))
                    rows.append(i)
                    i += 1
                    continue
                j = i
                while j < len(self.subfields) and stale[j]:
                    j += 1
                base = self.subfields[i].ptr_start
                block = self.store.read_range(base,
                                              self.subfields[j - 1].ptr_end)
                vmins = block["vmin"].astype(np.float64)
                vmaxs = block["vmax"].astype(np.float64)
                sizes = vmaxs - vmins + unit
                for start, end in group_cells(vmins, vmaxs, policy):
                    refits.append((len(spans), block[start:end + 1]))
                    rows.append(-1)
                    spans.append((float(vmins[start:end + 1].min()),
                                  float(vmaxs[start:end + 1].max()),
                                  base + start, base + end,
                                  float(sizes[start:end + 1].sum())))
                summary["stale_runs"] += 1
                summary["reclustered_cells"] += len(block)
                i = j
            self.subfields = [
                Subfield(sf_id, lo, hi, start, end)
                for sf_id, (lo, hi, start, end, _) in enumerate(spans)]
            self._sf_si = [si for *_, si in spans]
            self._built_costs = [
                self._sf_cost(sf, si)
                for sf, si in zip(self.subfields, self._sf_si)]
            self._build_tree(self.tree.pool.capacity,
                             self.index_disk.fault_injector)
        summary["subfields_after"] = len(self.subfields)
        if in_step:
            self.aggregate_models = models = models.regroup(rows)
            for sf_id, block in refits:
                models.refit(self.field_type, sf_id, block)
        elif models is not None:
            self.fit_aggregate_models(degree=models.degree)
        if REGISTRY.enabled:
            _COMPACTIONS.inc(1, method=self.name)
            _STALENESS.set(self.staleness()["max_drift"], method=self.name)
        return summary

    # -- approximate aggregates (ROADMAP item 3) -------------------------------

    def fit_aggregate_models(self, degree: int | None = None):
        """(Re)fit per-subfield polynomial aggregate models.

        One sequential maintenance pass over the store; see
        ``repro.core.aggregate`` for the model form and guarantees.
        """
        from .aggregate import DEFAULT_DEGREE, fit_aggregate_models
        self.aggregate_models = fit_aggregate_models(
            self, degree=DEFAULT_DEGREE if degree is None else degree)
        return self.aggregate_models

    def aggregate(self, kind: str, lo: float, hi: float, *,
                  tolerance: float | None = None, mode: str = "hybrid"):
        """COUNT/SUM/AVG/area over ``[lo, hi]`` with an error guarantee.

        Models are fitted lazily on first use; ``mode`` and
        ``tolerance`` pick the point on the accuracy-vs-speed frontier
        (see :func:`repro.core.aggregate.evaluate_aggregate`).
        """
        from .aggregate import evaluate_aggregate
        if self.aggregate_models is None or \
                self.aggregate_models.num_subfields != len(self.subfields):
            self.fit_aggregate_models(
                degree=None if self.aggregate_models is None
                else self.aggregate_models.degree)
        return evaluate_aggregate(self, self.aggregate_models, kind, lo, hi,
                                  tolerance=tolerance, mode=mode)

    def _rid_of_cell(self, cell_id: int) -> int:
        if not 0 <= cell_id < len(self.order):
            raise IndexError(f"cell id {cell_id} out of range")
        if getattr(self, "_inverse_order", None) is None:
            inverse = np.empty(len(self.order), dtype=np.int64)
            inverse[self.order] = np.arange(len(self.order))
            self._inverse_order = inverse
        return int(self._inverse_order[cell_id])

    def _subfield_of_rid(self, rid: int) -> Subfield:
        lo, hi = 0, len(self.subfields) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self.subfields[mid].ptr_end < rid:
                lo = mid + 1
            else:
                hi = mid
        return self.subfields[lo]

    # -- the two-step query (paper §3.2) --------------------------------------

    def _candidates(self, lo: float, hi: float) -> np.ndarray:
        tracer = self.tracer
        # Step 1 (filtering): subfields whose interval intersects the query.
        with tracer.span("filter") as span:
            sf_ids = self.tree.search(Rect.from_interval(lo, hi))
            if span.enabled:
                span.attrs["subfields"] = len(sf_ids)
        if len(sf_ids) == 0:
            return np.empty(0, dtype=self.store.dtype)
        # Step 2 (estimation input): fetch the clustered cell ranges.
        runs = self.page_runs(sf_ids)
        with tracer.span("fetch") as span:
            if span.enabled:
                span.attrs["runs"] = len(runs)
            return self._filter_runs(runs, lo, hi)

    def page_runs(self, sf_ids) -> list[list[int]]:
        """Inclusive ``[first, last]`` store-page runs covering ``sf_ids``.

        Subfields on overlapping or adjacent pages coalesce into one
        sequential burst, so each page is read once — the access
        pattern the (ptr_start, ptr_end) layout is built for.  The
        executor fetches these runs and the planner costs them.
        """
        per_page = self.store.records_per_page
        page_ranges = sorted(
            (self.subfields[s].ptr_start // per_page,
             self.subfields[s].ptr_end // per_page)
            for s in sf_ids)
        runs: list[list[int]] = []
        for first, last in page_ranges:
            if runs and first <= runs[-1][1] + 1:
                runs[-1][1] = max(runs[-1][1], last)
            else:
                runs.append([first, last])
        return runs

    # -- helpers ---------------------------------------------------------------

    @staticmethod
    def _validate_groups(groups: list[tuple[int, int]], n: int) -> None:
        if not groups and n:
            raise ValueError("no groups for a non-empty field")
        expected = 0
        for start, end in groups:
            if start != expected or end < start:
                raise ValueError(
                    f"groups must tile [0, {n}) contiguously; got "
                    f"({start}, {end}) where {expected} was expected")
            expected = end + 1
        if expected != n:
            raise ValueError(
                f"groups cover [0, {expected}) but the field has {n} cells")
