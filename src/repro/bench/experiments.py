"""Definitions of every paper experiment (and our ablations).

Each function regenerates one figure of the paper's evaluation section
(§4) with the harness protocol; ``EXPERIMENTS`` maps experiment ids to
runners for the command-line front end.  Sizes default to laptop-scale
(documented in DESIGN.md); ``full=True`` restores the paper's sizes.
"""

from __future__ import annotations

import json
import statistics
import tempfile
import threading
import time
from collections.abc import Callable
from pathlib import Path

import numpy as np

from ..core import (
    CostBasedGrouping,
    IAllIndex,
    IHilbertIndex,
    ITreeIndex,
    IntervalQuadtreeIndex,
    LinearScanIndex,
    PlannedIndex,
)
from ..field.dem import DEMField
from ..synth import (
    diamond_square,
    fractal_dem_heights,
    lyon_like,
    monotonic_field,
    roseburg_like,
    value_query_workload,
)
from .harness import ExperimentResult, run_experiment
from .records import (COMPACT_RECOVERY_LIMIT, AdmissionWait, Aggregate,
                     AggregateConfig, AggregateGate, AggregateWorkload,
                     BulkIngest, Compaction, DeviceCosts, Equivalence,
                     FieldInfo, IncrementalIngest, Ingest, Kernel, Latency,
                     MethodSweep, Micro, MicroGate, ModelInfo, Observability,
                     Pipeline, PipelinePoint, PoolShare, QueryWorkload,
                     RemoteTraffic, ScaledDeviceCosts, Serve,
                     ServeTotals, ServerInfo, Shard, ShardPoint, Staleness,
                     TenantRun, Throughput, ThroughputPoint, Update,
                     UpdateField, UpdateFinal, UpdateStep, UpdateStream, load)
from .report import format_result

#: Qinterval axes used in the paper's figures.
QINTERVALS_FIG8 = [0.0, 0.02, 0.04, 0.06, 0.08, 0.10]
QINTERVALS_FIG11 = [0.0, 0.01, 0.02, 0.03, 0.04, 0.05]
QINTERVALS_FIG12 = [0.0, 0.01, 0.02, 0.03, 0.04, 0.05, 0.06]


def standard_methods(cache_pages: int = 0) -> dict:
    """The paper's three contenders (§4)."""
    return {
        "LinearScan": lambda f: LinearScanIndex(f, cache_pages=cache_pages),
        "I-All": lambda f: IAllIndex(f, cache_pages=cache_pages),
        "I-Hilbert": lambda f: IHilbertIndex(f, cache_pages=cache_pages),
    }


#: Buffer-pool size used by the warm regime (large enough to hold every
#: experiment's data + index pages, as a 2002-era OS file cache would).
WARM_CACHE_PAGES = 16384


def _regime(warm: bool) -> dict:
    """Harness/method settings for the cold or warm measurement regime.

    Cold models the paper's nominal disk-resident setting (caches dropped
    per query, simulated seek/transfer time).  Warm models repeated
    queries over an OS-cached file — the regime the paper's absolute
    magnitudes suggest (see EXPERIMENTS.md) — where time is CPU-bound.
    """
    if warm:
        return {
            "methods": standard_methods(cache_pages=WARM_CACHE_PAGES),
            "cold": False,
        }
    return {"methods": standard_methods(), "cold": True}


def fig8a(full: bool = True, queries: int = 200, seed: int = 0,
          estimate: str = "area", warm: bool = False,
          **_ignored) -> ExperimentResult:
    """Fig. 8a — real terrain DEM (Roseburg surrogate, 512×512)."""
    size = 512 if full else 128
    field = roseburg_like(cells_per_side=size)
    regime = _regime(warm)
    return run_experiment(
        f"fig8a: terrain DEM {size}x{size}"
        + (" [warm]" if warm else ""), field, regime["methods"],
        QINTERVALS_FIG8, queries=queries, seed=seed, estimate=estimate,
        cold=regime["cold"])


def fig8b(full: bool = True, queries: int = 200, seed: int = 0,
          estimate: str = "area", warm: bool = False,
          **_ignored) -> ExperimentResult:
    """Fig. 8b — urban noise TIN (Lyon surrogate, ~9000 triangles)."""
    sites = 4600 if full else 1200
    field = lyon_like(num_sites=sites)
    regime = _regime(warm)
    return run_experiment(
        f"fig8b: urban noise TIN ({field.num_cells} triangles)"
        + (" [warm]" if warm else ""), field, regime["methods"],
        QINTERVALS_FIG8, queries=queries, seed=seed, estimate=estimate,
        cold=regime["cold"])


def fig11(full: bool = False, queries: int = 200, seed: int = 0,
          estimate: str = "area", warm: bool = False,
          roughness_values: tuple[float, ...] = (0.1, 0.3, 0.6, 0.9),
          **_ignored) -> list[ExperimentResult]:
    """Fig. 11a–d — fractal DEMs across roughness H.

    The paper uses 1,048,576 cells (1024²); the default here is 262,144
    (512²) for pure-Python run times, with ``full=True`` restoring 1024².
    """
    size = 1024 if full else 512
    regime = _regime(warm)
    results = []
    for h in roughness_values:
        heights = fractal_dem_heights(size, h, seed=seed + int(h * 10))
        field = DEMField(heights)
        results.append(run_experiment(
            f"fig11 H={h}: fractal DEM {size}x{size}"
            + (" [warm]" if warm else ""), field,
            regime["methods"], QINTERVALS_FIG11, queries=queries,
            seed=seed, estimate=estimate, cold=regime["cold"]))
    return results


def fig12(full: bool = True, queries: int = 200, seed: int = 0,
          estimate: str = "area", warm: bool = False,
          **_ignored) -> ExperimentResult:
    """Fig. 12b — monotonic field ``w = x + y`` (512×512)."""
    size = 512 if full else 128
    field = monotonic_field(size)
    regime = _regime(warm)
    return run_experiment(
        f"fig12: monotonic DEM {size}x{size}"
        + (" [warm]" if warm else ""), field, regime["methods"],
        QINTERVALS_FIG12, queries=queries, seed=seed, estimate=estimate,
        cold=regime["cold"])


def fig7(full: bool = False, seed: int = 0, **_ignored) -> str:
    """Fig. 7 — geography of the generated subfields on terrain data."""
    size = 512 if full else 128
    field = roseburg_like(cells_per_side=size, seed=20020314 + seed)
    index = IHilbertIndex(field)
    sizes = np.array([sf.num_cells for sf in index.subfields])
    extents = np.array([sf.hi - sf.lo for sf in index.subfields])
    span = field.value_range.hi - field.value_range.lo
    lines = [
        f"== fig7: subfields on terrain {size}x{size} ==",
        f"cells: {field.num_cells}",
        f"subfields: {index.num_subfields}",
        f"cells per subfield: mean={sizes.mean():.1f} "
        f"median={np.median(sizes):.0f} max={sizes.max()}",
        f"subfield interval extent: mean={extents.mean():.2f} "
        f"({extents.mean() / span:.1%} of value range)",
        f"compression vs I-All: "
        f"{field.num_cells / index.num_subfields:.1f}x fewer intervals",
        "",
        "subfield size histogram (cells -> count):",
    ]
    bins = [1, 2, 4, 8, 16, 32, 64, 128, 256, 1 << 30]
    hist, _edges = np.histogram(sizes, bins=bins)
    for lo, hi, count in zip(bins[:-1], bins[1:], hist):
        label = f"{lo}" if hi == lo + 1 else f"{lo}-{hi - 1}"
        bar = "#" * int(60 * count / max(hist.max(), 1))
        lines.append(f"{label:>10}: {count:>7} {bar}")
    return "\n".join(lines)


def fig10(seed: int = 0, **_ignored) -> str:
    """Fig. 10 — effect of roughness H on 32×32 fractal terrain."""
    lines = ["== fig10: fractal roughness illustration (32x32) =="]
    for h in (0.2, 0.8):
        grid = diamond_square(5, h, seed=seed)
        gradients = np.abs(np.diff(grid, axis=0)).mean()
        field = DEMField(grid)
        records = field.cell_records()
        interval_sizes = (records["vmax"] - records["vmin"]).astype(float)
        lines.append(
            f"H={h}: value range [{grid.min():+.2f}, {grid.max():+.2f}], "
            f"mean |gradient|={gradients:.3f}, "
            f"mean cell interval={interval_sizes.mean():.3f}")
    lines.append("(larger H -> smoother surface, smaller cell intervals)")
    return "\n".join(lines)


def ablation_cost(full: bool = False, queries: int = 100, seed: int = 0,
                  estimate: str = "area", **_ignored) -> ExperimentResult:
    """Grouping-policy ablation (§3.1 discussion).

    Compares the paper's cost-based grouping against the fixed-threshold
    criterion (Interval Quadtree) and the normalized ``+0.5`` variant.
    """
    size = 256 if full else 128
    field = roseburg_like(cells_per_side=size, seed=20020314 + seed)
    span = field.value_range.hi - field.value_range.lo
    methods: dict[str, Callable] = {
        "LinearScan": LinearScanIndex,
        "I-Hilbert": IHilbertIndex,
        "IH-q0.5": lambda f: IHilbertIndex(
            f, grouping=CostBasedGrouping(unit=1.0, avg_query=0.5 * span)),
        "I-Quadtree": IntervalQuadtreeIndex,
        "IQ-tight": lambda f: IntervalQuadtreeIndex(
            f, threshold=0.05 * span),
    }
    return run_experiment(
        f"ablation-cost: terrain {size}x{size}", field, methods,
        QINTERVALS_FIG8, queries=queries, seed=seed, estimate=estimate)


def ablation_curve(full: bool = False, queries: int = 100, seed: int = 0,
                    estimate: str = "area", **_ignored) -> ExperimentResult:
    """Space-filling-curve ablation (the paper's Hilbert-vs-others claim)."""
    size = 256 if full else 128
    field = roseburg_like(cells_per_side=size, seed=20020314 + seed)
    methods: dict[str, Callable] = {
        "LinearScan": LinearScanIndex,
        "IH-hilbert": lambda f: IHilbertIndex(f, curve="hilbert"),
        "IH-zorder": lambda f: IHilbertIndex(f, curve="zorder"),
        "IH-gray": lambda f: IHilbertIndex(f, curve="gray"),
    }
    return run_experiment(
        f"ablation-curve: terrain {size}x{size}", field, methods,
        QINTERVALS_FIG8, queries=queries, seed=seed, estimate=estimate)


def ablation_pagesize(full: bool = False, queries: int = 100,
                      seed: int = 0, estimate: str = "area",
                      **_ignored) -> list[ExperimentResult]:
    """Page-size sensitivity (the paper fixes 4 KiB; we sweep it).

    Larger pages favour LinearScan (fewer, bigger sequential reads) and
    blunt I-Hilbert's selectivity; smaller pages sharpen filtering but
    multiply per-page overheads.
    """
    size = 512 if full else 256
    field = roseburg_like(cells_per_side=size, seed=20020314 + seed)
    results = []
    for page_size in (1024, 4096, 16384):
        methods = {
            "LinearScan": lambda f, p=page_size: LinearScanIndex(
                f, page_size=p),
            "I-Hilbert": lambda f, p=page_size: IHilbertIndex(
                f, page_size=p),
        }
        results.append(run_experiment(
            f"ablation-pagesize {page_size}B: terrain {size}x{size}",
            field, methods, [0.0, 0.02, 0.05], queries=queries,
            seed=seed, estimate=estimate,
            sequential_read_ms=0.2 * page_size / 4096.0))
    return results


def scale_sweep(full: bool = False, queries: int = 100, seed: int = 0,
                estimate: str = "area", **_ignored
                ) -> list[ExperimentResult]:
    """Speedup vs data size: the paper's advantage grows with the field."""
    sizes = (64, 128, 256, 512) if not full else (128, 256, 512, 1024)
    results = []
    for size in sizes:
        field = roseburg_like(cells_per_side=size, seed=20020314 + seed)
        results.append(run_experiment(
            f"scale {size}x{size} terrain", field, standard_methods(),
            [0.0, 0.05], queries=queries, seed=seed, estimate=estimate))
    return results


def methods_extra(full: bool = False, queries: int = 100, seed: int = 0,
                  estimate: str = "area", **_ignored) -> ExperimentResult:
    """Every implemented access method side by side on terrain data."""
    size = 512 if full else 256
    field = roseburg_like(cells_per_side=size, seed=20020314 + seed)
    methods = {
        "LinearScan": LinearScanIndex,
        "I-All": IAllIndex,
        "I-Hilbert": IHilbertIndex,
        "I-Quadtree": IntervalQuadtreeIndex,
        "I-Tree": ITreeIndex,
        "IH+planner": PlannedIndex,
    }
    return run_experiment(
        f"methods-extra: terrain {size}x{size}", field, methods,
        QINTERVALS_FIG8, queries=queries, seed=seed, estimate=estimate)


def batch_compare(full: bool = False, queries: int = 200, seed: int = 0,
                  estimate: str = "area", **_ignored) -> str:
    """Batched vs. sequential execution of the Fig. 8a workload.

    Replays the Fig. 8a query mix (200 random queries per Qinterval
    setting, identical draws for every method) two ways: one at a time
    against a cold store — the paper's protocol — and as one batch
    through :class:`~repro.core.batch.BatchQueryEngine` with merged
    intervals and a shared buffer pool.  Reports total page reads, the
    reduction, and the pool's hit rate per access method.
    """
    from ..core.batch import (
        BatchQueryEngine,
        DEFAULT_BATCH_CACHE_PAGES,
        run_sequential,
    )
    from ..synth import value_query_workload

    size = 512 if full else 256
    field = roseburg_like(cells_per_side=size)
    workload = []
    for q in QINTERVALS_FIG8:
        workload += value_query_workload(field.value_range, q,
                                         count=queries, seed=seed)
    methods = {
        "LinearScan": LinearScanIndex,
        "I-All": IAllIndex,
        "I-Hilbert": IHilbertIndex,
        "IH+planner": PlannedIndex,
    }
    lines = [
        f"== batch: Fig. 8a workload on {size}x{size} terrain DEM ==",
        f"queries: {len(workload)} ({queries} per Qinterval setting "
        f"{QINTERVALS_FIG8}), seed={seed}, estimate={estimate}",
        "",
        f"{'method':>12} {'seq pages':>12} {'cache-only':>12} "
        f"{'hit rate':>9} {'merged':>12} {'saved':>8} {'groups':>7}",
    ]
    for name, cls in methods.items():
        index = cls(field)
        seq = run_sequential(index, workload, estimate=estimate, cold=True)
        # Shared LRU pool alone (one fetch per query, value-sorted).
        index.clear_caches()
        cache_only = BatchQueryEngine(index, merge=False).run(
            workload, estimate=estimate)
        # Full engine: merged overlapping intervals + shared pool.
        index.clear_caches()
        batch = BatchQueryEngine(index).run(workload, estimate=estimate)
        for r_seq, r_one, r_bat in zip(seq.results, cache_only.results,
                                       batch.results):
            assert r_seq.candidate_count == r_bat.candidate_count, name
            assert r_seq.candidate_count == r_one.candidate_count, name
        saved = 1.0 - batch.io.page_reads / max(seq.io.page_reads, 1)
        lines.append(
            f"{name:>12} {seq.io.page_reads:>12} "
            f"{cache_only.io.page_reads:>12} "
            f"{cache_only.pool.hit_rate:>8.1%} "
            f"{batch.io.page_reads:>12} {saved:>7.1%} "
            f"{batch.groups:>7}")
        del index
    lines += [
        "",
        "(seq = one query at a time, caches dropped per query; "
        "cache-only = batch engine with merging disabled, shared LRU "
        f"pool of {DEFAULT_BATCH_CACHE_PAGES} pages; merged = full "
        "engine, overlapping intervals coalesced into one fetch each; "
        "candidate counts verified identical per query)",
    ]
    return "\n".join(lines)


def _fig8a_queries(field, per_q: int, seed: int) -> list:
    """The Fig. 8a query mix on ``field``: ``per_q`` random queries per
    Qinterval setting of :data:`QINTERVALS_FIG8`, drawn with ``seed``."""
    return [query for q in QINTERVALS_FIG8
            for query in value_query_workload(field.value_range, q,
                                              count=per_q, seed=seed)]


def throughput(full: bool = False, queries: int | None = None,
               seed: int = 0, estimate: str = "area",
               workers: tuple[int, ...] = (1, 2, 4, 8),
               smoke: bool = False, **_ignored) -> str:
    """Queries/sec vs worker count on the Fig. 8a workload.

    Runs the Fig. 8a query mix against LinearScan, I-All and I-Hilbert
    (in-memory :class:`~repro.storage.disk.DiskManager` storage) through
    the :class:`~repro.core.batch.BatchQueryEngine` at each worker count,
    with the :class:`~repro.core.batch.DeviceModel` turning accounted
    page reads into real waits — the serving regime where thread-level
    overlap pays.  Before the sweep each method's workload is executed
    once with one worker and no device waits; every sweep point is then
    asserted to return identical per-query answers and identical page
    counts, so the speedups below are speedups on *provably equivalent*
    executions.

    ``smoke=True`` shrinks everything (64² field, 24 queries, workers 1
    and 4, no JSON artifact).  Either way the run exits non-zero if the
    last worker count fails to beat the first (the CI regression gate)
    or if its :class:`~repro.bench.records.Throughput` record has any
    other problem.

    Each method is swept twice.  The *legacy* sweep (``merge=False``,
    no cache) reproduces the PR-8 baseline configuration so q/s stays
    comparable across commits.  The *pipeline* sweep is the serving
    configuration — merged fetch groups, a shared
    :data:`~repro.core.batch.DEFAULT_BATCH_CACHE_PAGES`-page buffer
    pool, and batched page-run fetches — whose oracle is one
    single-worker reference run (with an empty
    :class:`~repro.storage.faults.FaultInjector` attached, whose hook
    runs on every read of the same batched path): every pipelined
    point must match that oracle byte for byte (per-query answers,
    per-query I/O, and total I/O accounting), so the speedup it
    reports is a speedup on a provably equivalent execution.
    """
    from ..core import BatchQueryEngine, DeviceModel
    from ..core.batch import DEFAULT_BATCH_CACHE_PAGES
    from ..storage import FaultInjector, IOStats

    if smoke:
        size, per_q, worker_counts = 64, 4, (1, 4)
    else:
        size = 512 if full else 256
        per_q = 20 if queries is None else queries
        worker_counts = tuple(workers)
    field = roseburg_like(cells_per_side=size)
    workload = _fig8a_queries(field, per_q, seed)
    device = DeviceModel()

    lines = [
        f"== throughput: batch engine workers on Fig. 8a workload "
        f"({size}x{size} terrain) ==",
        f"queries: {len(workload)} ({per_q} per Qinterval setting "
        f"{QINTERVALS_FIG8}), seed={seed}, estimate={estimate}",
        f"device model: {device.random_read_ms} ms random / "
        f"{device.sequential_read_ms} ms sequential per page "
        f"(x{device.scale:g})",
        "",
        f"{'method':>12} {'workers':>8} {'wall s':>8} {'q/s':>8} "
        f"{'speedup':>8} {'pages':>9} {'random':>8} {'seq':>9}",
    ]

    def sweep(index, name, reference, cache_pages, merge):
        """(workers, wall s, q/s, I/O) at each worker count; every run's
        answers and I/O are asserted equal to ``reference``'s."""
        for n_workers in worker_counts:
            index.clear_caches()
            index.stats.reset()
            engine = BatchQueryEngine(index, workers=n_workers,
                                      cache_pages=cache_pages, merge=merge,
                                      device=device)
            t0 = time.perf_counter()
            par = engine.run(workload, estimate=estimate)
            wall = time.perf_counter() - t0
            for r_ref, r_par in zip(reference.results, par.results):
                assert r_ref.candidate_count == r_par.candidate_count, name
                assert r_ref.area == r_par.area, name
                assert r_ref.io == r_par.io, name
            assert reference.io == par.io, name
            assert sum(par.worker_io, IOStats()) == par.io, name
            yield n_workers, wall, len(workload) / wall, par.io

    methods = []
    for name, factory in standard_methods().items():
        t0 = time.perf_counter()
        index = factory(field)
        build_seconds = time.perf_counter() - t0
        # One-worker reference: same groups, no device waits — the
        # answer and page-count oracle for every sweep point.
        index.clear_caches()
        index.stats.reset()
        serial = BatchQueryEngine(index, cache_pages=0, merge=False).run(
            workload, estimate=estimate)
        qps_by_workers = {}
        points = []
        for n_workers, wall, qps, io in sweep(index, name, serial, 0, False):
            qps_by_workers[n_workers] = qps
            speedup = qps / qps_by_workers[worker_counts[0]]
            lines.append(
                f"{name:>12} {n_workers:>8} {wall:>8.2f} {qps:>8.1f} "
                f"{speedup:>7.2f}x {io.page_reads:>9} "
                f"{io.random_reads:>8} {io.sequential_reads:>9}")
            points.append(ThroughputPoint(
                workers=n_workers, wall_s=round(wall, 4), qps=round(qps, 2),
                speedup_vs_1=round(speedup, 3), page_reads=io.page_reads,
                random_reads=io.random_reads,
                sequential_reads=io.sequential_reads))
        # Pipeline sweep: merged groups + shared pool + batched page
        # runs, checked byte-for-byte against a one-worker reference
        # run with an empty injector attached.
        cache = DEFAULT_BATCH_CACHE_PAGES
        index.inject_faults(FaultInjector())
        index.clear_caches()
        index.stats.reset()
        oracle = BatchQueryEngine(index, cache_pages=cache,
                                  merge=True).run(workload,
                                                  estimate=estimate)
        index.inject_faults(None)
        pipeline = []
        for n_workers, wall, qps, io in sweep(index, name, oracle, cache,
                                              True):
            vs_legacy = qps / qps_by_workers[n_workers]
            lines.append(
                f"{name + '+pipe':>12} {n_workers:>8} {wall:>8.2f} "
                f"{qps:>8.1f} {vs_legacy:>7.2f}x "
                f"{io.page_reads:>9} {io.random_reads:>8} "
                f"{io.sequential_reads:>9}")
            pipeline.append(PipelinePoint(
                workers=n_workers, wall_s=round(wall, 4), qps=round(qps, 2),
                speedup_vs_legacy=round(vs_legacy, 3),
                page_reads=io.page_reads, random_reads=io.random_reads,
                sequential_reads=io.sequential_reads))
        methods.append(MethodSweep(
            method=name, build_seconds=round(build_seconds, 3),
            data_pages=index.data_pages, index_pages=index.index_pages,
            serial_page_reads=serial.io.page_reads, points=points,
            pipeline=Pipeline(cache_pages=cache, merge=True,
                              perpage_oracle_page_reads=oracle.io.page_reads,
                              points=pipeline)))
        del index
    lines += [
        "",
        "(answers, per-query I/O and total page counts verified "
        "identical to one worker at every worker count; '+pipe' rows "
        "are the merged+cached+batched pipeline, verified "
        "byte-identical to a one-worker reference run, speedup "
        "column relative to the legacy row at the same worker count)",
    ]
    return Throughput(
        field=FieldInfo(type(field).__name__, size, field.num_cells),
        workload=QueryWorkload(len(workload), per_q, QINTERVALS_FIG8, seed,
                               estimate),
        device_model=ScaledDeviceCosts(device.random_read_ms,
                                       device.sequential_read_ms,
                                       device.scale),
        smoke=smoke, workers=list(worker_counts), methods=methods,
    ).finish(lines)


def micro(full: bool = False, seed: int = 0, smoke: bool = False,
          **_ignored) -> str:
    """Criterion-style microbenchmarks of the query hot path + ingestion.

    Times the five kernels the vectorized executor is built from —
    inverse-interpolation estimation, interval filter + pack, page
    decode, Hilbert key computation, greedy grouping — plus R*-tree
    traversal, each as repeated rounds until a minimum measurement
    time, reporting best/median ns per operation.  A separate ingest
    section measures bulk-load cells/s (1M-cell field with ``full`` or
    the default run) against the per-insert incremental path.

    ``smoke=True`` shrinks the ingest fields and measurement budget,
    writes no JSON, and instead *gates* against the committed
    ``BENCH_micro.json``: any kernel whose best ns/op exceeds that
    file's ``gate.max_ratio`` times its pinned value fails the run —
    the CI regression gate.  Kernel input sizes are identical in both
    modes, so ns/op is comparable across them.
    """
    from ..core import CostBasedGrouping, bulk_build, group_cells
    from ..curves import HilbertCurve2D
    from ..field.interpolation import triangle_band_fraction
    from ..geometry import Rect
    from ..rstar import RStarTree
    from ..storage import DiskManager
    from ..storage.codec import decode_pages

    rng = np.random.default_rng(seed)
    min_time = 0.05 if smoke else 0.25

    def _rounds(fn, ops: int) -> Kernel:
        """Warm up once, then repeat until ``min_time`` of samples."""
        fn()
        times = []
        total = 0.0
        while total < min_time or len(times) < 3:
            t0 = time.perf_counter()
            fn()
            dt = time.perf_counter() - t0
            times.append(dt)
            total += dt
            if len(times) >= 500:
                break
        return Kernel(
            ops_per_round=ops, rounds=len(times),
            best_ns_per_op=round(min(times) / ops * 1e9, 2),
            median_ns_per_op=round(statistics.median(times) / ops * 1e9, 2),
            total_s=round(total, 4))

    kernels = []

    # 1. Estimation kernel: closed-form band fraction over triangles.
    n_tri = 200_000
    v0, v1, v2 = (rng.random(n_tri) * 1000.0 for _ in range(3))
    kernels.append(("estimate_kernel", n_tri, lambda:
                    triangle_band_fraction(v0, v1, v2, 300.0, 320.0)))

    # 2. Filter + pack: float64 interval mask over float32 records,
    #    then gather of the survivors (the _candidates hot loop).
    n_rec = 1_000_000
    block = np.zeros(n_rec, dtype=[("vmin", "f4"), ("vmax", "f4"),
                                   ("cell", "i8")])
    lo32 = (rng.random(n_rec) * 1000.0).astype(np.float32)
    block["vmin"] = lo32
    block["vmax"] = lo32 + rng.random(n_rec).astype(np.float32) * 5.0
    block["cell"] = np.arange(n_rec)

    def _filter_pack():
        mask = ((block["vmin"].astype(np.float64) <= 320.0)
                & (block["vmax"].astype(np.float64) >= 300.0))
        return block[mask]
    kernels.append(("filter_pack", n_rec, _filter_pack))

    # 3. Page decode: frames -> one structured array (the codec).
    rec_dtype = block.dtype
    per_page = 4096 // rec_dtype.itemsize
    n_pages = 256
    payloads = [block[i * per_page:(i + 1) * per_page].tobytes()
                for i in range(n_pages)]
    counts = [per_page] * n_pages
    kernels.append(("page_decode", n_pages * per_page, lambda:
                    decode_pages(payloads, rec_dtype, counts)))

    # 4. Hilbert keys: vectorized curve arithmetic (the bulk-load sort
    #    key and the I-Hilbert linearization).
    n_keys = 262_144
    curve = HilbertCurve2D(10)
    xs = rng.integers(0, curve.side, n_keys)
    ys = rng.integers(0, curve.side, n_keys)
    kernels.append(("hilbert_keys", n_keys, lambda: curve.keys(xs, ys)))

    # 5. Greedy grouping: the cost-based subfield pass.
    n_cells = 262_144
    gmin = np.sort(rng.random(n_cells) * 1000.0)
    gmax = gmin + rng.random(n_cells) * 4.0
    policy = CostBasedGrouping(unit=1000.0, avg_query=500.0)
    kernels.append(("group_cells", n_cells, lambda:
                    group_cells(gmin, gmax, policy)))

    # 6. R*-tree traversal: interval searches against a bulk-loaded
    #    1-D tree of 16384 cell intervals (the I-All shape).
    t_lo = rng.random(16384) * 1000.0
    t_hi = t_lo + rng.random(16384) * 5.0
    tree = RStarTree(dim=1, disk=DiskManager(name="micro-tree"),
                     cache_pages=64)
    tree.bulk_load_arrays(t_lo, t_hi, np.arange(16384, dtype=np.int64))
    tree.flush()
    queries = [(float(lo), float(lo + 10.0))
               for lo in rng.random(64) * 990.0]
    kernels.append(("rtree_search", len(queries), lambda:
                    [tree.search(Rect.from_interval(lo, hi))
                     for lo, hi in queries]))

    results = {name: _rounds(fn, ops) for name, ops, fn in kernels}

    # -- ingestion: bulk vs per-insert ---------------------------------
    # Bulk loads a >= 1M-cell field by default; the per-insert baseline
    # is measured on a small field (its throughput only *degrades* with
    # size — tree descents deepen — so the reported speedup is a lower
    # bound).
    bulk_side = 128 if smoke else 1024
    inc_side = 16 if smoke else 32

    bulk_field = roseburg_like(cells_per_side=bulk_side)
    _, bulk_rep = bulk_build(bulk_field, method="I-Hilbert")

    inc_field = roseburg_like(cells_per_side=inc_side)
    t0 = time.perf_counter()
    IAllIndex(inc_field, bulk=False)
    inc_s = time.perf_counter() - t0
    inc_cps = inc_field.num_cells / inc_s

    ingest = Ingest(
        bulk=BulkIngest(**dict(
            bulk_rep.to_dict(),
            cells_per_second=round(bulk_rep.cells_per_second),
            build_seconds=round(bulk_rep.build_seconds, 4))),
        incremental=IncrementalIngest(
            method="I-All (per-insert R* path)", cells=inc_field.num_cells,
            build_seconds=round(inc_s, 4),
            cells_per_second=round(inc_cps, 1),
            note="measured at small n; upper bound on 1M-cell rate"),
        speedup_bulk_vs_incremental=round(
            bulk_rep.cells_per_second / inc_cps, 1))

    lines = [
        "== micro: query hot path + ingestion kernels ==",
        f"seed={seed}, min measurement time {min_time}s/kernel",
        "",
        f"{'kernel':>16} {'ops/round':>10} {'rounds':>7} "
        f"{'best ns/op':>11} {'median ns/op':>13}",
    ]
    for name, stats in results.items():
        lines.append(
            f"{name:>16} {stats.ops_per_round:>10} "
            f"{stats.rounds:>7} {stats.best_ns_per_op:>11.1f} "
            f"{stats.median_ns_per_op:>13.1f}")
    lines += [
        "",
        f"bulk load   : {bulk_rep.cells:,} cells in "
        f"{bulk_rep.build_seconds:.3f}s = "
        f"{bulk_rep.cells_per_second:,.0f} cells/s (I-Hilbert)",
        f"incremental : {inc_field.num_cells:,} cells in {inc_s:.3f}s = "
        f"{inc_cps:,.0f} cells/s (I-All per-insert; upper bound)",
        f"speedup     : {ingest.speedup_bulk_vs_incremental:,.1f}x "
        f"bulk vs per-insert",
    ]

    baseline = Path("BENCH_micro.json")
    pinned = (load(json.loads(baseline.read_text()))
              if smoke and baseline.is_file() else None)
    if smoke and pinned is None:
        lines.append(f"(no {baseline} baseline; gate skipped)")
    record = Micro(seed=seed, smoke=smoke, gate=MicroGate(),
                   kernels=results, ingest=ingest, pinned=pinned)
    for name, ratio in record.slowdowns().items():
        limit = pinned.gate.max_ratio
        lines.append(
            f"gate {name}: {ratio:.2f}x of pinned "
            f"{pinned.kernels[name].best_ns_per_op:.1f} ns/op "
            f"(limit {limit}x) — {'FAIL' if ratio > limit else 'ok'}")
    return record.finish(lines)


def update_stream(full: bool = False, queries: int | None = None,
                  seed: int = 0, estimate: str = "area",
                  updates: int | None = None, smoke: bool = False,
                  **_ignored) -> str:
    """Query cost vs. update fraction, compaction recovery, and WAL
    crash recovery on the Fig. 8a terrain.

    A stream of random vertex updates (values drawn uniformly over the
    field's initial value range, destroying the spatial value locality
    the clustering exploits) is applied in cumulative fractions to
    LinearScan, I-All and I-Hilbert.  After each fraction the Fig. 8a
    query mix is replayed cold, giving the degradation curve; I-Hilbert
    additionally reports the §3.1.2 cost-drift staleness metric and its
    cumulative maintenance I/O.  After the full stream:

    * every method's answers are verified identical to a from-scratch
      rebuild over the updated field (the acceptance bar for in-place
      maintenance);
    * I-Hilbert is compacted and must recover to within 10% of a
      fresh-built index's page reads;
    * a separate small index is crashed between WAL append and page
      write, reloaded, and verified against an uncrashed twin.

    Violating any of the three gates exits non-zero, so ``--smoke`` is
    a CI regression gate alongside ``throughput --smoke``.
    """
    from ..core import ValueQuery, load_index, run_sequential, save_index
    from ..storage import SimulatedCrash

    if smoke:
        size, per_q, n_updates = 64, 3, 200
        fractions = (0.5, 1.0)
    else:
        size = 512 if full else 256
        per_q = 10 if queries is None else queries
        n_updates = 1000 if updates is None else updates
        fractions = (0.1, 0.25, 0.5, 1.0)

    base = roseburg_like(cells_per_side=size)
    lo0, hi0 = base.value_range.lo, base.value_range.hi
    workload = _fig8a_queries(base, per_q, seed)

    rng = np.random.default_rng(seed + 1)
    up_ids = rng.integers(0, base.num_vertices, n_updates)
    up_vals = rng.uniform(lo0, hi0, n_updates).astype(np.float32)

    # Each method maintains its own field copy so the three update
    # paths are exercised fully independently.
    factories = standard_methods()
    indexes = {name: factory(DEMField(base.heights.copy()))
               for name, factory in factories.items()}

    def cold_pages(index):
        index.clear_caches()
        return run_sequential(index, workload, estimate=estimate,
                              cold=True).io.page_reads

    def same_answers(x, y, queries) -> bool:
        """Equal candidate counts, and areas within 1e-9, per query."""
        x.clear_caches()
        y.clear_caches()
        return all(
            a.candidate_count == b.candidate_count
            and np.isclose(a.area, b.area, rtol=1e-9, atol=1e-9)
            for a, b in ((x.query(q, estimate=estimate),
                          y.query(q, estimate=estimate)) for q in queries))

    baseline = {name: cold_pages(ix) for name, ix in indexes.items()}

    lines = [
        f"== update: live vertex updates on {size}x{size} terrain DEM ==",
        f"queries: {len(workload)} ({per_q} per Qinterval setting "
        f"{QINTERVALS_FIG8}), seed={seed}, estimate={estimate}",
        f"updates: {n_updates} random vertices, values uniform over "
        f"[{lo0:.0f}, {hi0:.0f}] (locality-destroying), seed={seed + 1}",
        "",
        f"{'updates':>8} {'frac':>6} "
        + " ".join(f"{name:>12}" for name in factories)
        + f" {'IH drift':>9} {'IH maint r/w':>13}",
        f"{'0':>8} {'0%':>6} "
        + " ".join(f"{baseline[name]:>12}" for name in factories)
        + f" {'—':>9} {'—':>13}",
    ]
    steps = []
    applied = 0
    for frac in fractions:
        upto = int(round(frac * n_updates))
        if upto > applied:
            for index in indexes.values():
                index.apply_updates(up_ids[applied:upto],
                                    up_vals[applied:upto])
            applied = upto
        pages = {name: cold_pages(ix) for name, ix in indexes.items()}
        ih = indexes["I-Hilbert"]
        st = ih.staleness()
        lines.append(
            f"{applied:>8} {frac:>6.0%} "
            + " ".join(f"{pages[name]:>12}" for name in factories)
            + f" {st['max_drift']:>+8.1%} "
            f"{ih.maint_stats.page_reads:>6}/"
            f"{ih.maint_stats.page_writes:<6}")
        steps.append(UpdateStep(
            updates_applied=applied, fraction=frac, page_reads=pages,
            ratio_vs_baseline={
                name: round(pages[name] / max(baseline[name], 1), 4)
                for name in factories},
            ih_staleness=Staleness(**{
                k: (round(v, 6) if isinstance(v, float) else v)
                for k, v in st.items()}),
            ih_maint_page_reads=ih.maint_stats.page_reads,
            ih_maint_page_writes=ih.maint_stats.page_writes))

    # Gate 1: every method must now answer exactly like a fresh build
    # over the updated field.
    final_field = indexes["I-Hilbert"].field
    for index in indexes.values():
        assert np.array_equal(index.field.heights, final_field.heights)
    equivalent = all(
        same_answers(indexes[name],
                     factory(DEMField(final_field.heights.copy())), workload)
        for name, factory in factories.items())
    lines += [
        "",
        "equivalence vs from-scratch rebuild after all updates: "
        + ("PASS (answers identical for all methods)" if equivalent
           else "FAIL"),
    ]

    # Gate 2: compaction must bring I-Hilbert back within 10% of a
    # fresh-built index.
    ih = indexes["I-Hilbert"]
    degraded_pages = cold_pages(ih)
    report = ih.compact()
    compacted_pages = cold_pages(ih)
    fresh_ih = IHilbertIndex(DEMField(final_field.heights.copy()))
    fresh_pages = cold_pages(fresh_ih)
    recovery_ratio = compacted_pages / max(fresh_pages, 1)
    del fresh_ih
    lines += [
        f"compaction: {report['reclustered_cells']} cells re-clustered "
        f"in {report['stale_runs']} run(s), "
        f"{report['subfields_before']} -> {report['subfields_after']} "
        f"subfields",
        f"I-Hilbert page reads: degraded {degraded_pages}, "
        f"compacted {compacted_pages}, fresh build {fresh_pages} "
        f"(recovery ratio {recovery_ratio:.3f}, gate <= "
        f"{COMPACT_RECOVERY_LIMIT:.2f})",
    ]

    # Gate 3: an update acknowledged by the WAL but crashed before any
    # page write must survive reload.
    crash_field = roseburg_like(cells_per_side=32)
    crash_ids = rng.integers(0, crash_field.num_vertices, 50)
    crash_vals = rng.uniform(lo0, hi0, 50).astype(np.float32)
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp) / "idx"
        victim = IHilbertIndex(DEMField(crash_field.heights.copy()))
        save_index(victim, directory)
        victim.attach_wal(directory / "wal.log")
        try:
            victim.apply_updates(crash_ids, crash_vals,
                                 crash_point="wal-appended")
        except SimulatedCrash:
            pass
        recovered = load_index(directory)
        twin = IHilbertIndex(DEMField(crash_field.heights.copy()))
        twin.apply_updates(crash_ids, crash_vals)
        spans = [(hi0 - lo0) * q for q in QINTERVALS_FIG8]
        wal_recovered = same_answers(
            recovered, twin, [ValueQuery(lo0 + span, lo0 + 2 * span + 1.0)
                              for span in spans])
    lines.append(
        "WAL crash recovery (crash after append, before page write): "
        + ("PASS (reloaded index matches uncrashed twin)"
           if wal_recovered else "FAIL"))

    compaction = Compaction(
        degraded_page_reads=degraded_pages,
        compacted_page_reads=compacted_pages, fresh_page_reads=fresh_pages,
        recovery_ratio=round(recovery_ratio, 4),
        reclustered_cells=report["reclustered_cells"],
        subfields_before=report["subfields_before"],
        subfields_after=report["subfields_after"])
    return Update(
        field=UpdateField(type(base).__name__, size, base.num_cells,
                          base.num_vertices),
        workload=QueryWorkload(len(workload), per_q, QINTERVALS_FIG8, seed,
                               estimate),
        updates=UpdateStream(n_updates, seed + 1,
                             "uniform over initial value range"),
        smoke=smoke, baseline_page_reads=baseline, steps=steps,
        final=UpdateFinal(equivalent, compaction, wal_recovered),
    ).finish(lines)


def serve_bench(full: bool = False, queries: int | None = None,
                seed: int = 0, estimate: str = "area",
                smoke: bool = False, **_ignored) -> str:
    """Closed-loop multi-tenant load against the field query service.

    Boots a :class:`~repro.serve.server.FieldServer` in-process on an
    ephemeral port with the Fig. 8a terrain open behind the engine
    facade, then drives it from concurrent closed-loop clients — two
    tenants, several connections each, every client replaying its own
    Fig. 8a query mix through the wire protocol.  Reports q/s and
    latency percentiles (p50/p95/p99) per tenant, plus the per-tenant
    buffer-pool attribution the shared pool accounted during the run.

    Every response is verified *byte-equivalent* to a direct
    :class:`~repro.core.facade.EngineFacade` call: candidates must
    match exactly and areas must round-trip JSON to the identical
    float.  Any mismatch, error response or client failure exits
    non-zero — so ``--smoke`` (tiny field, fewer clients, no JSON
    artifact) doubles as the CI regression gate for the serving layer.
    """
    from ..core import EngineFacade
    from ..obs.export import write_trace
    from ..obs.metrics import REGISTRY
    from ..obs.qlog import QueryLog
    from ..obs.rolling import percentile_from_buckets
    from ..serve import (AdmissionController, FieldClient, FieldServer,
                         ServerError, ServerThread, TenantQuota)

    if smoke:
        size, per_q, clients_per_tenant = 64, 2, 2
    else:
        size = 512 if full else 256
        per_q = 4 if queries is None else queries
        clients_per_tenant = 4
    tenants = ("alice", "bob")
    engine_workers, executor_workers = 2, 4

    field = roseburg_like(cells_per_side=size)
    facade = EngineFacade(default_workers=engine_workers)
    t0 = time.perf_counter()
    # A warm shared pool: the point here is the cross-tenant buffer
    # pool and its per-tenant hit/miss/byte and residency attribution.
    facade.open_field("terrain",
                      IHilbertIndex(field, cache_pages=WARM_CACHE_PAGES))
    build_seconds = time.perf_counter() - t0

    # Per-client workloads: each client replays its own Fig. 8a mix,
    # seeded per (tenant, client) so connections do not run in lockstep.
    workloads = {
        (tenant, ci): _fig8a_queries(field, per_q, seed + 1000 * ti + ci)
        for ti, tenant in enumerate(tenants)
        for ci in range(clients_per_tenant)}
    per_client = per_q * len(QINTERVALS_FIG8)

    # Direct-engine oracle for every distinct query, computed before
    # the load run (queries are read-only, so order cannot matter).
    oracle = {}
    for mix in workloads.values():
        for query in mix:
            key = (query.lo, query.hi)
            if key not in oracle:
                result = facade.query("terrain", query.lo, query.hi,
                                      estimate=estimate)
                oracle[key] = (result.candidate_count, result.area)

    admission = AdmissionController(
        default=TenantQuota(burst=64, max_pending=256, timeout_s=60.0))
    server = FieldServer(facade=facade, admission=admission,
                         executor_workers=executor_workers,
                         enable_metrics=True)
    harness = ServerThread(server)
    host, port = harness.start()

    n_clients = len(workloads)
    barrier = threading.Barrier(n_clients)
    records: dict[tuple[str, int], dict] = {}

    def run_client(tenant: str, ci: int) -> None:
        mix = workloads[(tenant, ci)]
        latencies, mismatches, errors = [], 0, 0
        client = FieldClient(host, port, tenant=tenant)
        try:
            barrier.wait()
            start = time.perf_counter()
            for query in mix:
                q0 = time.perf_counter()
                try:
                    reply = client.query("terrain", query.lo, query.hi,
                                         estimate=estimate)
                except ServerError:
                    errors += 1
                    continue
                latencies.append((time.perf_counter() - q0) * 1000.0)
                want = oracle[(query.lo, query.hi)]
                if (reply["candidates"], reply["area"]) != want:
                    mismatches += 1
            wall = time.perf_counter() - start
        finally:
            client.close()
        records[(tenant, ci)] = {"latencies": latencies, "wall": wall,
                                 "mismatches": mismatches,
                                 "errors": errors}

    threads = [threading.Thread(target=run_client, args=key,
                                name=f"client-{key[0]}-{key[1]}")
               for key in workloads]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    # Observability artifact pass, deliberately *after* the timed load
    # (which ran with sampling and the qlog off, so the q/s above is
    # the clean number): flip sampling to 1.0 plus an always-log qlog,
    # replay a few traced queries per tenant, and write the sampled
    # span trees (Chrome trace) and qlog excerpt under results/ — under
    # the git-ignored results/smoke/ for a smoke run, so the committed
    # samples stay those of a full run.
    results_dir = Path("results/smoke" if smoke else "results")
    results_dir.mkdir(parents=True, exist_ok=True)
    qlog_path = results_dir / "serve_qlog.jsonl"
    qlog_path.unlink(missing_ok=True)
    qlog = QueryLog(qlog_path, latency_ms=0.0)
    server.trace_sample_rate = 1.0
    server.qlog = qlog
    for tenant in tenants:
        with FieldClient(host, port, tenant=tenant, trace=True) as traced:
            for query in workloads[(tenant, 0)][:3]:
                traced.query("terrain", query.lo, query.hi,
                             estimate=estimate)
    trace_spans = write_trace(list(server.sampled),
                              results_dir / "serve_trace.json",
                              process_name="repro-serve")
    server.trace_sample_rate = 0.0
    server.qlog = None

    # Admission-wait percentiles out of the registry histogram the
    # server fed during the whole run (all tenants aggregated).
    wait_hist = REGISTRY.get("repro_serve_admission_wait_ms")
    wait_collected = wait_hist.collect()
    wait_counts = [0] * (len(wait_hist.buckets) + 1)
    for row in wait_collected["series"]:
        for i, count in enumerate(row["bucket_counts"]):
            wait_counts[i] += count
    admission_wait = AdmissionWait(**{
        q: round(percentile_from_buckets(wait_hist.buckets,
                                         wait_counts, p), 4)
        for q, p in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99))})

    with FieldClient(host, port, tenant="bench") as probe:
        stats = probe.stats("terrain")
    harness.stop()

    lines = [
        f"== serve: multi-tenant load on the field query service "
        f"({size}x{size} terrain, shared buffer pool) ==",
        f"tenants: {len(tenants)} x {clients_per_tenant} client(s), "
        f"{per_client} queries/client ({per_q} per Qinterval setting "
        f"{QINTERVALS_FIG8}), seed={seed}, estimate={estimate}",
        f"server: engine workers={engine_workers}, executor "
        f"workers={executor_workers}, build {build_seconds:.2f}s",
        "",
        f"{'tenant':>8} {'clients':>8} {'queries':>8} {'errors':>7} "
        f"{'q/s':>8} {'p50 ms':>8} {'p95 ms':>8} {'p99 ms':>8} "
        f"{'max ms':>8}",
    ]
    tenant_runs = []
    total_queries = total_mismatches = 0
    max_wall = 0.0
    for tenant in tenants:
        tenant_records = [records[key] for key in sorted(records)
                          if key[0] == tenant]
        latencies = np.asarray(
            [ms for record in tenant_records
             for ms in record["latencies"]])
        wall = max(record["wall"] for record in tenant_records)
        errors = sum(record["errors"] for record in tenant_records)
        mismatches = sum(record["mismatches"]
                         for record in tenant_records)
        qps = len(latencies) / wall if wall > 0 else 0.0
        lat = latencies if len(latencies) else np.zeros(1)
        p50, p95, p99 = np.percentile(lat, (50, 95, 99))
        lines.append(
            f"{tenant:>8} {clients_per_tenant:>8} {len(latencies):>8} "
            f"{errors:>7} {qps:>8.1f} {p50:>8.2f} {p95:>8.2f} "
            f"{p99:>8.2f} {lat.max():>8.2f}")
        tenant_runs.append(TenantRun(
            tenant=tenant, clients=clients_per_tenant,
            queries=int(len(latencies)), errors=errors,
            wall_s=round(wall, 4), qps=round(qps, 2),
            latency_ms=Latency(*(round(float(v), 3) for v in
                                 (p50, p95, p99, lat.mean(), lat.max()))),
            pool=PoolShare(**stats["tenants"].get(tenant, {})),
            residency=stats["residency"]["tenants"].get(tenant, {})))
        total_queries += len(latencies)
        total_mismatches += mismatches
        max_wall = max(max_wall, wall)
    overall_qps = total_queries / max_wall if max_wall > 0 else 0.0
    lines += [
        "",
        f"total: {total_queries} queries in {max_wall:.2f}s "
        f"({overall_qps:.1f} q/s across {n_clients} connections)",
        f"equivalence: {total_queries - total_mismatches}/"
        f"{total_queries} responses byte-equivalent to direct engine "
        f"calls",
        f"shared pool: {stats['pool']['hits']} hits / "
        f"{stats['pool']['misses']} misses, per-tenant attribution "
        + ", ".join(
            f"{t}={sum(stats['tenants'].get(t, {}).get(k, 0) for k in ('hits', 'misses'))} "
            f"accesses ({stats['tenants'].get(t, {}).get('bytes_read', 0)} B)"
            for t in tenants),
        f"observability: {server.sampled_total} sampled trace(s) "
        f"({trace_spans} spans -> {results_dir}/serve_trace.json), "
        f"{qlog.entries} qlog entrie(s) -> {qlog_path}, "
        f"admission wait p50/p95/p99 = "
        f"{admission_wait.p50}/{admission_wait.p95}/"
        f"{admission_wait.p99} ms",
    ]
    return Serve(
        field=FieldInfo(type(field).__name__, size, field.num_cells),
        workload=QueryWorkload(per_client, per_q, QINTERVALS_FIG8, seed,
                               estimate),
        smoke=smoke,
        server=ServerInfo(
            engine_workers=engine_workers,
            executor_workers=executor_workers, tenants=len(tenants),
            clients_per_tenant=clients_per_tenant,
            total_requests=total_queries),
        tenants=tenant_runs,
        totals=ServeTotals(total_queries, round(max_wall, 4),
                           round(overall_qps, 2)),
        equivalence=Equivalence(total_queries, total_mismatches),
        observability=Observability(
            trace_sample_rate=server.trace_sample_rate,
            sampled_spans=server.sampled_total,
            trace_span_events=trace_spans, qlog_entries=qlog.entries,
            admission_wait_ms=admission_wait),
    ).finish(lines)


def shard_bench(full: bool = False, queries: int | None = None,
                seed: int = 0, estimate: str = "area",
                smoke: bool = False, **_ignored) -> str:
    """Scale-out sweep: Hilbert-range shards 1/2/4/8 on Fig. 8a.

    For each shard count the Fig. 8a workload runs against a
    :class:`~repro.shard.ShardedEngine` over tiered storage (every
    shard's pages in a simulated object store behind a small local
    cache) and every answer is verified identical — candidate count
    and bit-equal area — to the unsharded I-Hilbert engine on local
    storage.  The reported speedup is on the *simulated device model*
    (:data:`~repro.storage.stats.RANDOM_READ_MS` /
    :data:`~repro.storage.stats.SEQUENTIAL_READ_MS`): scatter-gather
    wall time per query is the slowest shard's device time, so speedup
    = unsharded device ms / Σ max-over-shards ms — the honest
    distributed-I/O number, independent of host scheduling noise.
    Remote-tier traffic (fetches, evictions, local hits) is reported
    per shard count.  Any divergence exits non-zero; ``--smoke``
    shrinks the field and skips the JSON artifact — the CI gate.
    """
    from ..shard import ShardedEngine
    from ..storage import SimulatedObjectStore
    from ..storage.stats import RANDOM_READ_MS, SEQUENTIAL_READ_MS

    if smoke:
        size, per_q, shard_counts = 32, 2, (1, 2, 4)
    else:
        size = 256 if full else 128
        per_q = 4 if queries is None else queries
        shard_counts = (1, 2, 4, 8)
    remote_cache_pages = 8

    field = roseburg_like(cells_per_side=size)
    workload = _fig8a_queries(field, per_q, seed)

    baseline = IHilbertIndex(field, cache_pages=0)
    oracle, base_ms = [], 0.0
    for query in workload:
        result = baseline.query(query, estimate=estimate)
        oracle.append((result.candidate_count, result.area))
        base_ms += result.io.simulated_cost()
        baseline.clear_caches()

    lines = [
        f"== shard: Hilbert-range scale-out sweep "
        f"({size}x{size} terrain, tiered remote storage) ==",
        f"workload: {len(workload)} queries ({per_q} per Qinterval "
        f"setting {QINTERVALS_FIG8}), seed={seed}, estimate={estimate}",
        f"device model: random {RANDOM_READ_MS} ms / sequential "
        f"{SEQUENTIAL_READ_MS} ms; coordinator wall = slowest shard",
        f"unsharded I-Hilbert: {base_ms:.1f} device ms over the workload",
        "",
        f"{'shards':>6} {'built':>6} {'verified':>9} {'reads':>7} "
        f"{'dev ms':>9} {'speedup':>8} {'fetches':>8} {'evicted':>8} "
        f"{'hits':>8}",
    ]
    sweep = []
    total_checked = total_mismatches = 0
    for n_shards in shard_counts:
        store = SimulatedObjectStore()
        engine = ShardedEngine(field, n_shards=n_shards,
                               method="I-Hilbert", cache_pages=0,
                               remote_store=store,
                               remote_cache_pages=remote_cache_pages)
        mismatches, shard_ms, reads = 0, 0.0, 0
        for query, want in zip(workload, oracle):
            result = engine.query(query, estimate=estimate)
            if (result.candidate_count, result.area) != want:
                mismatches += 1
            shard_ms += max((d.simulated_cost()
                             for d in engine.last_shard_io), default=0.0)
            reads += result.io.page_reads
            engine.clear_caches()
        total_checked += len(workload)
        total_mismatches += mismatches
        remote = engine.remote_counters()["total"]
        speedup = base_ms / shard_ms if shard_ms > 0 else 0.0
        lines.append(
            f"{n_shards:>6} {engine.shard_map.num_shards:>6} "
            f"{len(workload) - mismatches:>4}/{len(workload):<4} "
            f"{reads:>7} {shard_ms:>9.1f} {speedup:>7.2f}x "
            f"{int(remote['fetches']):>8} {int(remote['evictions']):>8} "
            f"{int(remote['local_hits']):>8}")
        sweep.append(ShardPoint(
            shards_requested=n_shards,
            shards_built=engine.shard_map.num_shards,
            verified=len(workload) - mismatches, mismatches=mismatches,
            page_reads=int(reads), device_ms=round(shard_ms, 3),
            speedup=round(speedup, 3),
            remote=RemoteTraffic(
                **{key: int(remote[key]) for key in
                   ("fetches", "evictions", "local_hits", "puts")})))
    lines += [
        "",
        f"equivalence: {total_checked - total_mismatches}/"
        f"{total_checked} sharded answers identical to the unsharded "
        f"engine",
    ]
    return Shard(
        field=FieldInfo(type(field).__name__, size, field.num_cells),
        workload=QueryWorkload(len(workload), per_q, QINTERVALS_FIG8, seed,
                               estimate),
        device_model=DeviceCosts(RANDOM_READ_MS, SEQUENTIAL_READ_MS),
        smoke=smoke, remote_cache_pages=remote_cache_pages,
        baseline_device_ms=round(base_ms, 3), sweep=sweep,
        equivalence=Equivalence(total_checked, total_mismatches),
    ).finish(lines)


def aggregate_bench(full: bool = False, queries: int | None = None,
                    seed: int = 0, smoke: bool = False,
                    **_ignored) -> str:
    """Accuracy-vs-speed frontier of the learned aggregate models.

    Runs the Fig. 8a query mix as COUNT/SUM/area aggregates against an
    I-Hilbert index through four configurations — exact, hybrid at a
    1% and a 0.1% tolerance (of each kind's field total), and pure
    model — each query cold (caches dropped), reporting wall time,
    pages and error statistics per configuration.

    Hard checks on every run (CI and full): every model-only answer
    must lie within its reported error bound vs the exact vectorized
    path; every hybrid answer's bound must fit its tolerance; a
    ``tolerance=0`` hybrid subsample must match the exact answers
    byte for byte; and hybrid-1pct wall time must stay within the
    record's ``gate.max_slowdown`` times the same run's exact wall
    time.  ``smoke=True`` shrinks the field and skips the JSON
    artifact.
    """
    if smoke:
        size, per_q = 48, 4
    else:
        size = 512 if full else 256
        per_q = 20 if queries is None else queries
    field = roseburg_like(cells_per_side=size)
    workload = _fig8a_queries(field, per_q, seed)
    kinds = ("count", "sum", "area")

    index = IHilbertIndex(field)
    t0 = time.perf_counter()
    models = index.fit_aggregate_models()
    fit_seconds = time.perf_counter() - t0
    vr = field.value_range
    # Full-range aggregates cover every subfield, so these are the
    # exact stored totals (zero pages) — the per-kind tolerance scale.
    totals = {k: index.aggregate(k, vr.lo, vr.hi, mode="model").value
              for k in kinds}

    configs = [("exact", "exact", None), ("hybrid-1pct", "hybrid", 0.01),
               ("hybrid-0.1pct", "hybrid", 0.001), ("model", "model", None)]
    lines = [
        f"== aggregate: learned-model frontier on Fig. 8a workload "
        f"({size}x{size} terrain) ==",
        f"queries: {len(workload)} ({per_q} per Qinterval setting "
        f"{QINTERVALS_FIG8}), seed={seed}, kinds={list(kinds)}",
        f"models: degree {models.degree}, {models.num_subfields} "
        f"subfields, {models.nbytes:,} bytes, fitted in "
        f"{fit_seconds:.3f}s",
        "",
        f"{'config':>14} {'wall s':>8} {'ops/s':>8} {'pages':>9} "
        f"{'max err%':>9} {'mean err%':>9} {'exact sf':>9} "
        f"{'model sf':>9}",
    ]
    exact_values: dict[tuple[int, str], float] = {}
    frontier = []
    violations: list[str] = []
    for name, mode, frac in configs:
        tols = ({k: frac * abs(totals[k]) for k in kinds}
                if frac is not None else {k: None for k in kinds})
        pages = 0
        n_exact_sf = 0
        n_model_sf = 0
        max_abs = {k: 0.0 for k in kinds}
        max_rel = 0.0
        sum_rel = 0.0
        ops = 0
        index.clear_caches()
        t0 = time.perf_counter()
        for qi, query in enumerate(workload):
            for kind in kinds:
                index.clear_caches()
                result = index.aggregate(kind, query.lo, query.hi,
                                         tolerance=tols[kind], mode=mode)
                ops += 1
                pages += result.page_reads
                n_exact_sf += result.exact_subfields
                n_model_sf += result.model_subfields
                if mode == "exact":
                    exact_values[(qi, kind)] = result.value
                    continue
                truth = exact_values[(qi, kind)]
                err = abs(result.value - truth)
                max_abs[kind] = max(max_abs[kind], err)
                rel = err / max(abs(totals[kind]), 1e-12)
                max_rel = max(max_rel, rel)
                sum_rel += rel
                if err > result.bound:
                    violations.append(
                        f"{name} {kind}[{query.lo:.4g},{query.hi:.4g}]: "
                        f"error {err:.6g} exceeds bound "
                        f"{result.bound:.6g}")
                if tols[kind] is not None and \
                        result.bound > tols[kind]:
                    violations.append(
                        f"{name} {kind}: bound {result.bound:.6g} "
                        f"exceeds tolerance {tols[kind]:.6g}")
        wall = time.perf_counter() - t0
        mean_rel = sum_rel / ops if mode != "exact" else 0.0
        lines.append(
            f"{name:>14} {wall:>8.3f} {ops / wall:>8.1f} {pages:>9,} "
            f"{max_rel * 100:>9.4f} {mean_rel * 100:>9.4f} "
            f"{n_exact_sf:>9,} {n_model_sf:>9,}")
        frontier.append(AggregateConfig(
            name=name, mode=mode, tolerance_frac=frac,
            wall_seconds=round(wall, 4), ops=ops,
            ops_per_second=round(ops / wall, 2), pages=pages,
            exact_subfields=n_exact_sf, model_subfields=n_model_sf,
            max_abs_error={k: max_abs[k] for k in kinds},
            max_rel_error_pct=round(max_rel * 100, 6),
            mean_rel_error_pct=round(mean_rel * 100, 6)))

    # Byte-for-byte equivalence: tolerance=0 hybrid must be the exact
    # vectorized path, AVG included.
    eq_checked = 0
    eq_mismatches = 0
    for query in workload[::5]:
        for kind in kinds + ("avg",):
            exact = index.aggregate(kind, query.lo, query.hi,
                                    mode="exact")
            hybrid = index.aggregate(kind, query.lo, query.hi,
                                     tolerance=0.0, mode="hybrid")
            eq_checked += 1
            if hybrid.value != exact.value or hybrid.bound != 0.0:
                eq_mismatches += 1
    lines += [
        "",
        f"equivalence: {eq_checked} tolerance=0 hybrid answers "
        f"checked against exact — {eq_mismatches} mismatches",
    ]
    if violations:
        print("\n".join(lines))
        raise SystemExit(
            "aggregate FAILED:\n  " + "\n  ".join(violations[:20]))
    return Aggregate(
        field=FieldInfo(type(field).__name__, size, field.num_cells),
        workload=AggregateWorkload(len(workload), per_q, QINTERVALS_FIG8,
                                   seed, list(kinds)),
        model=ModelInfo(degree=models.degree,
                        subfields=models.num_subfields,
                        nbytes=models.nbytes,
                        fit_seconds=round(fit_seconds, 4),
                        weight=models.weight),
        smoke=smoke, gate=AggregateGate(),
        totals={k: totals[k] for k in kinds},
        configs=frontier, equivalence=Equivalence(eq_checked,
                                                  eq_mismatches),
    ).finish(lines)


def _render(result) -> str:
    if isinstance(result, str):
        return result
    if isinstance(result, list):
        return "\n\n".join(format_result(r) for r in result)
    return format_result(result)


#: Experiment registry for the CLI: id -> callable(**options) -> result.
EXPERIMENTS: dict[str, Callable] = {
    "fig8a": fig8a,
    "fig8b": fig8b,
    "fig11": fig11,
    "fig12": fig12,
    "fig7": fig7,
    "fig10": fig10,
    "batch": batch_compare,
    "ablation-cost": ablation_cost,
    "ablation-curve": ablation_curve,
    "ablation-pagesize": ablation_pagesize,
    "scale": scale_sweep,
    "methods-extra": methods_extra,
    "micro": micro,
    "throughput": throughput,
    "update": update_stream,
    "serve": serve_bench,
    "shard": shard_bench,
    "aggregate": aggregate_bench,
}
