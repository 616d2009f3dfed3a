"""EXPLAIN / EXPLAIN ANALYZE reports for field value queries.

``explain`` runs a query through the cost-based planning step
(:func:`~repro.core.planner.estimate_plan`) without executing it and
reports the chosen access path, both candidate plan costs, and the
:class:`~repro.core.statistics.FieldStatistics` selectivity estimate.
With ``analyze=True`` it additionally executes the query under a
:class:`~repro.obs.trace.Tracer` and reports the actual counters next
to the estimates, including the estimation error — the number a
PolyFit-style approximate planner must watch to stay trustworthy.

Surfaced as ``python -m repro explain <index-dir> <lo> <hi>
[--analyze]``; importable for tests and notebooks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dc_field

from ..storage.stats import IOStats
from .trace import NULL_TRACER, Span, Tracer
from .export import render_span_tree


@dataclass
class ExplainReport:
    """Everything the EXPLAIN (ANALYZE) pipeline produced for one query."""

    method: str
    lo: float
    hi: float
    cells: int
    data_pages: int
    index_pages: int
    tree_height: int
    #: The planner's decision plus both candidate costs.
    plan: object
    #: Path the index will actually execute ("filtered" unless the
    #: index is self-planning and the plan chose "scan").
    executed_path: str
    #: Estimated page reads of the executed path (tree reads included).
    est_page_reads: int
    #: Estimated page reads of each candidate path.
    est_pages_filtered: int
    est_pages_scan: int
    #: FieldStatistics selectivity estimate.
    est_candidates: float
    est_selectivity: float
    stats_bins: int
    # -- filled by analyze ---------------------------------------------------
    analyzed: bool = False
    actual_io: IOStats | None = None
    actual_candidates: int | None = None
    actual_seconds: float | None = None
    answer_area: float | None = None
    trace_roots: list[Span] = dc_field(default_factory=list)

    @property
    def page_error(self) -> float | None:
        """Relative error of the executed path's page estimate."""
        if self.actual_io is None or not self.actual_io.page_reads:
            return None
        return ((self.est_page_reads - self.actual_io.page_reads)
                / self.actual_io.page_reads)

    @property
    def candidate_error(self) -> float | None:
        """Relative error of the selectivity estimate."""
        if self.actual_candidates is None or not self.actual_candidates:
            return None
        return ((self.est_candidates - self.actual_candidates)
                / self.actual_candidates)


def explain(index, lo: float, hi: float, *, analyze: bool = False,
            estimate: str = "area", bins: int = 64,
            costs=None) -> ExplainReport:
    """Build an EXPLAIN (ANALYZE) report for ``[lo, hi]`` on ``index``.

    ``index`` is any grouped (subfield) index — built fresh or reloaded
    with :func:`~repro.core.persist.load_index`.  ``analyze=True``
    executes the query cold under a tracer; estimates are computed
    first, so they can never peek at the execution.
    """
    from ..core.planner import PlannedIndex, estimate_plan

    if costs is None:
        costs = getattr(index, "costs", None)
    plan = estimate_plan(index, lo, hi, costs)
    stats = index.statistics(bins=bins)
    est_candidates = stats.estimate_candidates(lo, hi)
    est_pages_filtered = plan.est_pages + index.tree.height
    est_pages_scan = index.store.num_pages
    executed_path = (plan.path if isinstance(index, PlannedIndex)
                     else "filtered")
    report = ExplainReport(
        method=index.name,
        lo=lo, hi=hi,
        cells=len(index.store),
        data_pages=index.store.num_pages,
        index_pages=index.index_pages,
        tree_height=index.tree.height,
        plan=plan,
        executed_path=executed_path,
        est_page_reads=(est_pages_filtered
                        if executed_path == "filtered"
                        else est_pages_scan),
        est_pages_filtered=est_pages_filtered,
        est_pages_scan=est_pages_scan,
        est_candidates=est_candidates,
        est_selectivity=stats.estimate_selectivity(lo, hi),
        stats_bins=bins,
    )
    if not analyze:
        return report

    from ..core.query import ValueQuery

    previous_tracer = getattr(index, "tracer", NULL_TRACER)
    tracer = Tracer().attach(index)
    try:
        index.clear_caches()
        t0 = time.perf_counter()
        result = index.query(ValueQuery(lo, hi), estimate=estimate)
        report.actual_seconds = time.perf_counter() - t0
    finally:
        index.tracer = previous_tracer
    report.analyzed = True
    report.actual_io = result.io
    report.actual_candidates = result.candidate_count
    report.answer_area = result.area
    report.trace_roots = list(tracer.roots)
    return report


# -- rendering -------------------------------------------------------------

def _pct(value: float | None) -> str:
    return "n/a" if value is None else f"{value:+.1%}"


def render_explain(report: ExplainReport) -> str:
    """Human-readable EXPLAIN (ANALYZE) block."""
    plan = report.plan
    mark = {True: "->", False: "  "}
    lines = [
        f"EXPLAIN{' ANALYZE' if report.analyzed else ''} "
        f"value query [{report.lo:g}, {report.hi:g}] "
        f"on {report.method}",
        f"  store: {report.cells} cells, {report.data_pages} data pages, "
        f"{report.index_pages} index pages "
        f"(tree height {report.tree_height})",
        f"  statistics ({report.stats_bins}-bin histogram): "
        f"{report.est_candidates:.0f} candidate cells estimated "
        f"({report.est_selectivity:.2%} selectivity)",
        "  plan:",
        f"  {mark[plan.path == 'filtered']} filtered: "
        f"cost={plan.filtered_cost:.1f}  "
        f"~{report.est_pages_filtered} page reads "
        f"({plan.est_runs} runs + {report.tree_height} tree reads)",
        f"  {mark[plan.path == 'scan']} scan:     "
        f"cost={plan.scan_cost:.1f}  "
        f"~{report.est_pages_scan} page reads (sequential sweep)",
        f"  chosen path: {plan.path}"
        + ("" if report.executed_path == plan.path
           else f" (executed: {report.executed_path} — "
                f"method has no planner)"),
    ]
    if report.analyzed:
        io = report.actual_io
        lines += [
            "  actual:",
            f"    page reads: {io.page_reads} "
            f"({io.random_reads} random, {io.sequential_reads} "
            f"sequential, {io.cache_hits} cache hits)",
            f"    candidates: {report.actual_candidates}"
            + ("" if report.answer_area is None
               else f", answer area {report.answer_area:.4f}"),
            f"    cpu time: {report.actual_seconds * 1e3:.2f} ms",
            "  estimation error:",
            f"    pages:      estimated {report.est_page_reads} vs actual "
            f"{io.page_reads}  ({_pct(report.page_error)})",
            f"    candidates: estimated {report.est_candidates:.0f} vs "
            f"actual {report.actual_candidates}  "
            f"({_pct(report.candidate_error)})",
        ]
        if report.trace_roots:
            lines.append("  trace:")
            tree = render_span_tree(report.trace_roots)
            lines += ["    " + line for line in tree.splitlines()]
    return "\n".join(lines)


def explain_to_dict(report: ExplainReport) -> dict:
    """JSON-safe dump of a report (for ``--json`` and tooling)."""
    plan = report.plan
    payload = {
        "method": report.method,
        "query": {"lo": report.lo, "hi": report.hi},
        "store": {"cells": report.cells,
                  "data_pages": report.data_pages,
                  "index_pages": report.index_pages,
                  "tree_height": report.tree_height},
        "plan": {"path": plan.path,
                 "filtered_cost": plan.filtered_cost,
                 "scan_cost": plan.scan_cost,
                 "est_pages": plan.est_pages,
                 "est_runs": plan.est_runs},
        "executed_path": report.executed_path,
        "estimates": {"page_reads": report.est_page_reads,
                      "pages_filtered": report.est_pages_filtered,
                      "pages_scan": report.est_pages_scan,
                      "candidates": report.est_candidates,
                      "selectivity": report.est_selectivity,
                      "bins": report.stats_bins},
        "analyzed": report.analyzed,
    }
    if report.analyzed:
        io = report.actual_io
        payload["actual"] = {
            "page_reads": io.page_reads,
            "random_reads": io.random_reads,
            "sequential_reads": io.sequential_reads,
            "cache_hits": io.cache_hits,
            "candidates": report.actual_candidates,
            "seconds": report.actual_seconds,
            "answer_area": report.answer_area,
        }
        payload["error"] = {"pages": report.page_error,
                            "candidates": report.candidate_error}
    return payload
