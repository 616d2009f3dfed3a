"""Cost-based access-path selection over a subfield index.

The paper's experiments show each method has a regime: LinearScan wins
at very high selectivity, the subfield index everywhere else.  A real
system would not make the user choose — this module adds the classic
query-optimizer step on top of I-Hilbert: before executing, estimate the
I/O of (a) the filtered subfield path and (b) a sequential scan of the
same clustered file, from in-memory metadata alone, and take the cheaper
plan.  Both plans read the same record file, so the choice costs nothing
in storage.

:func:`estimate_plan` is the planning step on its own: it works on any
:class:`~repro.core.grouped.GroupedIntervalIndex` (including reloaded
ones), which is what ``python -m repro explain`` builds its report
from.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..field.base import Field
from ..obs.metrics import REGISTRY
from ..storage import DiskManager, PAGE_SIZE, RetryPolicy
from ..storage.stats import RANDOM_READ_MS, SEQUENTIAL_READ_MS
from .base import DiskBackend
from .cost import GroupingPolicy
from .ihilbert import IHilbertIndex
from ..curves import SpaceFillingCurve

_PLANS = REGISTRY.counter(
    "repro_planner_decisions_total",
    "Access-path decisions taken by the cost-based planner.")
_COST_RATIO = REGISTRY.histogram(
    "repro_planner_cost_ratio",
    "Estimated filtered-path cost over scan cost, per planned query.",
    buckets=(0.001, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0,
             5.0, 10.0))


#: Cost of one random page read in sequential page reads (the unit of
#: every plan cost): the device model's ms ratio.
RANDOM_READ_COST = RANDOM_READ_MS / SEQUENTIAL_READ_MS


@dataclass(frozen=True)
class Plan:
    """The planner's decision for one query."""

    path: str                 # "filtered" or "scan"
    filtered_cost: float
    scan_cost: float
    est_pages: int
    est_runs: int


def estimate_plan(index, lo: float, hi: float) -> Plan:
    """Estimate both access paths from metadata alone (no I/O).

    Works on any grouped (subfield) index: the filtered path's page
    count comes from the executor's own page runs
    (:meth:`~repro.core.grouped.GroupedIntervalIndex.page_runs`) over
    the intersecting subfields, and the scan path is one seek plus a
    sequential sweep of the record file.  Costs are in sequential page
    reads; a seek costs :data:`RANDOM_READ_COST`.
    """
    page_runs = index.page_runs(
        [sf.sf_id for sf in index.subfields if sf.intersects(lo, hi)])
    pages = sum(last - first + 1 for first, last in page_runs)
    runs = len(page_runs)
    tree_reads = index.tree.height
    filtered_cost = ((runs + tree_reads) * RANDOM_READ_COST
                     + max(0, pages - runs))
    scan_cost = RANDOM_READ_COST + max(0, index.store.num_pages - 1)
    path = "filtered" if filtered_cost <= scan_cost else "scan"
    return Plan(path=path, filtered_cost=filtered_cost,
                scan_cost=scan_cost, est_pages=pages, est_runs=runs)


class PlannedIndex(IHilbertIndex):
    """I-Hilbert with per-query scan-vs-index plan selection.

    The most recent decision is exposed as :attr:`last_plan`.
    """

    name = "I-Hilbert+planner"

    def __init__(self, field: Field,
                 curve: str | SpaceFillingCurve = "hilbert",
                 grouping: GroupingPolicy | None = None,
                 cache_pages: int = 0,
                 page_size: int = PAGE_SIZE,
                 retry_policy: RetryPolicy | None = None,
                 disk_backend: DiskBackend = DiskManager) -> None:
        super().__init__(field, curve=curve, grouping=grouping,
                         cache_pages=cache_pages,
                         page_size=page_size, retry_policy=retry_policy,
                         disk_backend=disk_backend)
        self.last_plan: Plan | None = None

    def plan(self, lo: float, hi: float) -> Plan:
        """Estimate both access paths from metadata (no I/O)."""
        plan = estimate_plan(self, lo, hi)
        if REGISTRY.enabled:
            _PLANS.inc(1, path=plan.path)
            _COST_RATIO.observe(
                plan.filtered_cost / max(plan.scan_cost, 1e-12))
        return plan

    def _candidates(self, lo: float, hi: float) -> np.ndarray:
        with self.tracer.span("plan") as sp:
            self.last_plan = self.plan(lo, hi)
            if sp.enabled:
                sp.attrs.update(
                    path=self.last_plan.path,
                    filtered_cost=round(self.last_plan.filtered_cost, 3),
                    scan_cost=round(self.last_plan.scan_cost, 3),
                    est_pages=self.last_plan.est_pages,
                    est_runs=self.last_plan.est_runs)
        if self.last_plan.path == "scan":
            return self._scan_filter(lo, hi)
        return super()._candidates(lo, hi)
