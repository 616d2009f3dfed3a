"""Experiment harness implementing the paper's measurement protocol (§4).

For each access method and each ``Qinterval`` setting, a fixed seeded
workload of random interval queries is executed cold (caches dropped
between queries) and the harness records mean wall time, page reads
(sequential/random split), candidate counts and answer areas.  Identical
workloads are replayed against every method, so series are directly
comparable, as in the paper's figures.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field as dc_field

from ..core.base import EstimateMode, ValueIndex
from ..field.base import Field
from ..obs.trace import Tracer
from ..storage.stats import SEQUENTIAL_READ_MS, IOStats
from ..synth.queries import value_query_workload

__all__ = ["ExperimentResult", "MethodSeries", "SweepPoint",
           "run_experiment"]

MethodFactory = Callable[[Field], ValueIndex]


@dataclass
class SweepPoint:
    """Aggregated measurements for one (method, Qinterval) setting."""

    qinterval: float
    queries: int
    #: CPU + simulated disk time — the paper-comparable "execution time".
    mean_ms: float
    #: Pure Python CPU time (wall clock of the in-memory run).
    mean_cpu_ms: float
    #: Simulated disk time from the page-read counts.
    mean_disk_ms: float
    mean_pages: float
    mean_sequential: float
    mean_random: float
    mean_cache_hits: float
    mean_candidates: float
    mean_area: float


@dataclass
class MethodSeries:
    """One method's full sweep over the Qinterval axis."""

    method: str
    build_seconds: float
    info: dict
    points: list[SweepPoint] = dc_field(default_factory=list)

    def point(self, qinterval: float) -> SweepPoint:
        """Sweep point for a given Qinterval (exact match)."""
        for p in self.points:
            if p.qinterval == qinterval:
                return p
        raise KeyError(f"no sweep point at Qinterval {qinterval}")


@dataclass
class ExperimentResult:
    """Everything measured in one experiment run."""

    name: str
    field_info: dict
    qintervals: list[float]
    series: list[MethodSeries] = dc_field(default_factory=list)

    def series_for(self, method: str) -> MethodSeries:
        """Series of a given method name."""
        for s in self.series:
            if s.method == method:
                return s
        raise KeyError(f"no series for method {method!r}")

    def speedup(self, method: str, base: str = "LinearScan",
                metric: str = "mean_ms") -> list[float]:
        """Per-Qinterval ratio ``base / method`` for a metric."""
        target = self.series_for(method)
        baseline = self.series_for(base)
        return [getattr(b, metric) / max(getattr(m, metric), 1e-12)
                for b, m in zip(baseline.points, target.points)]


def run_experiment(name: str, field: Field,
                   methods: dict[str, MethodFactory],
                   qintervals: Sequence[float], queries: int = 200,
                   seed: int = 0, estimate: EstimateMode = "area",
                   cold: bool = True,
                   sequential_read_ms: float = SEQUENTIAL_READ_MS,
                   tracer: Tracer | None = None) -> ExperimentResult:
    """Run the paper's sweep protocol for one field and several methods.

    Parameters mirror §4: ``qintervals`` is the Qinterval axis, ``queries``
    the number of random queries per setting (paper: 200), ``estimate``
    the estimation-step mode.  ``cold=True`` drops caches before every
    query, modelling the paper's disk-resident setting.  Simulated disk
    time charges ``sequential_read_ms`` per sequential page read (the
    page-size ablation scales it) and ``RANDOM_READ_MS`` per random one.

    When a :class:`~repro.obs.trace.Tracer` is passed, it is attached to
    each method's index in turn and every (method, Qinterval) sweep
    point is wrapped in a ``sweep`` span, so the per-query span trees
    nest under the setting that produced them.  Leave it ``None`` (the
    default) for measurement runs — the no-op tracer path adds nothing
    to the counted I/O or the timed loop.
    """
    result = ExperimentResult(
        name=name,
        field_info={
            "cells": field.num_cells,
            "value_range": field.value_range.as_tuple(),
            "type": type(field).__name__,
        },
        qintervals=list(qintervals),
    )
    workloads = {
        q: value_query_workload(field.value_range, q, count=queries,
                                seed=seed)
        for q in qintervals
    }
    for method_name, factory in methods.items():
        t0 = time.perf_counter()
        index = factory(field)
        build_seconds = time.perf_counter() - t0
        if tracer is not None:
            tracer.attach(index)
        series = MethodSeries(method=method_name,
                              build_seconds=build_seconds,
                              info=index.describe())
        if not cold:
            # Warm regime: populate the buffer pool once, untimed, so the
            # measured queries run fully cached (CPU-bound).
            from ..core.query import ValueQuery
            vr = field.value_range
            index.query(ValueQuery(vr.lo, vr.hi), estimate="none")
        for q in qintervals:
            with index.tracer.span("sweep") as span:
                if span.enabled:
                    span.attrs["method"] = method_name
                    span.attrs["qinterval"] = q
                series.points.append(
                    _run_point(index, q, workloads[q], estimate, cold,
                               sequential_read_ms))
        result.series.append(series)
        del index
    return result


def _run_point(index: ValueIndex, qinterval: float, workload,
               estimate: EstimateMode, cold: bool,
               sequential_read_ms: float) -> SweepPoint:
    total_ms = 0.0
    io = IOStats()
    candidates = 0
    area = 0.0
    for query in workload:
        if cold:
            index.clear_caches()
        t0 = time.perf_counter()
        res = index.query(query, estimate=estimate)
        total_ms += (time.perf_counter() - t0) * 1e3
        io += res.io
        candidates += res.candidate_count
        if res.area is not None:
            area += res.area
    n = len(workload)
    disk_ms = io.simulated_cost(sequential_read=sequential_read_ms) / n
    return SweepPoint(
        qinterval=qinterval,
        queries=n,
        mean_ms=total_ms / n + disk_ms,
        mean_cpu_ms=total_ms / n,
        mean_disk_ms=disk_ms,
        mean_pages=io.page_reads / n,
        mean_sequential=io.sequential_reads / n,
        mean_random=io.random_reads / n,
        mean_cache_hits=io.cache_hits / n,
        mean_candidates=candidates / n,
        mean_area=area / n,
    )
