"""Command-line interface: ``python -m repro <command>``.

A small database-style front end over the library:

* ``build``   — index a field (``.npy`` height grid or TIN ``.npz``)
  with I-Hilbert and save the index directory;
* ``query``   — run a field value query against a saved index;
* ``batch``   — run a whole file of value queries through the batch
  engine (merged intervals + shared page cache);
* ``explain`` — print the cost-based plan for a query (``--analyze``
  also executes it and reports estimation error);
* ``info``    — describe a saved index;
* ``scrub``   — verify a saved index offline (manifest checksums and
  every page frame; ``--repair`` fixes manifest drift), exit 1 on
  corruption;
* ``update``  — apply vertex-value updates to a saved index through
  the write-ahead log (``--checkpoint`` folds the WAL into a fresh
  snapshot afterwards);
* ``compact`` — re-cluster stale subfields of a saved index and save
  the result;
* ``shard``   — partition a field into Hilbert-range shards (one
  I-Hilbert engine per shard, optional tiered remote storage) and
  save the shard map + per-shard indexes;
* ``rebalance`` — split oversized/drifted shards, merge undersized
  neighbours, and atomically re-commit the shard map;
* ``point``   — conventional (Q1) query on a ``.npy`` height grid;
* ``serve``   — serve fields to concurrent multi-tenant clients over
  the newline-delimited JSON protocol (DESIGN.md §10).

``query`` and ``batch`` accept ``--trace FILE`` (span tree as Chrome
trace-event JSON, or JSONL with a ``.jsonl`` suffix),
``--metrics-out FILE`` (metrics-registry dump), and ``--workers N``
(run the batch engine's merged query groups on N worker threads).

Examples::

    python -m repro build terrain.npy terrain-index/
    python -m repro query terrain-index/ 300 320 --regions
    python -m repro query terrain-index/ 300 320 --trace trace.json
    python -m repro batch terrain-index/ queries.txt --compare
    python -m repro explain terrain-index/ 300 320 --analyze
    python -m repro info terrain-index/
    python -m repro scrub terrain-index/
    python -m repro update terrain-index/ terrain.npy edits.txt
    python -m repro compact terrain-index/
    python -m repro shard terrain.npy terrain-shards/ --shards 4
    python -m repro rebalance terrain-shards/ --field terrain.npy \\
        --max-cells 4096
    python -m repro point terrain.npy 30.5 99.25
    python -m repro serve terrain=terrain-index/ --port 7433 --rate 50
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .core import (
    AGGREGATE_KINDS,
    AGGREGATE_MODES,
    EngineFacade,
    FacadeError,
    PointIndex,
    ValueQuery,
    bulk_build,
    load_index,
    run_sequential,
    save_index,
)
from .core.batch import DEFAULT_BATCH_CACHE_PAGES
from .core.facade import load_field_file
from .obs.explain import explain, explain_to_dict, render_explain
from .obs.export import write_trace
from .obs.metrics import REGISTRY
from .obs.trace import Tracer
from .storage.scrub import repair_index, scrub_index


def _load_field(path: Path):
    """Load a field file; a bad one is a one-line error."""
    try:
        return load_field_file(path)
    except FacadeError as exc:
        raise SystemExit(str(exc)) from None


def cmd_build(args) -> int:
    """Build an I-Hilbert index over a field file and save it."""
    field = _load_field(Path(args.field))
    index, report = bulk_build(field, curve=args.curve)
    save_index(index, args.index_dir)
    info = index.describe()
    print(f"indexed {info['cells']} cells into {info['subfields']} "
          f"subfields ({info['data_pages']} data pages, "
          f"{info['index_pages']} index pages)")
    if args.bulk:
        print(f"bulk load: {report.cells} cells in "
              f"{report.build_seconds:.3f}s "
              f"({report.cells_per_second:,.0f} cells/s)")
    print(f"saved to {args.index_dir}")
    return 0


def _setup_observability(args, index) -> Tracer | None:
    """Honour ``--trace``/``--metrics-out``: install a tracer on the
    index and/or enable the process-wide metrics registry."""
    tracer = None
    if getattr(args, "trace", None):
        tracer = Tracer().attach(index)
    if getattr(args, "metrics_out", None):
        REGISTRY.enable()
    return tracer


def _write_observability(args, tracer: Tracer | None) -> None:
    """Write the artifacts requested by ``--trace``/``--metrics-out``."""
    if tracer is not None:
        count = write_trace(tracer.roots, args.trace)
        print(f"trace: {count} spans written to {args.trace}",
              file=sys.stderr)
    if getattr(args, "metrics_out", None):
        with open(args.metrics_out, "w") as fh:
            json.dump(REGISTRY.collect(), fh, indent=1)
            fh.write("\n")
        REGISTRY.disable()
        print(f"metrics: written to {args.metrics_out}", file=sys.stderr)


def cmd_query(args) -> int:
    """Run a field value query against a saved index."""
    facade = EngineFacade()
    facade.open_field("cli", args.index_dir)
    index = facade.handle("cli").index
    tracer = _setup_observability(args, index)
    mode = "regions" if args.regions else "area"
    try:
        if args.workers > 1:
            result = facade.batch("cli", [ValueQuery(args.lo, args.hi)],
                                  estimate=mode, workers=args.workers,
                                  cache_pages=0).results[0]
        else:
            result = facade.query("cli", args.lo, args.hi, estimate=mode)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    print(f"candidates: {result.candidate_count}")
    print(f"answer area: {result.area:.4f}")
    print(f"I/O: {result.io.page_reads} pages "
          f"({result.io.random_reads} random, "
          f"{result.io.sequential_reads} sequential)")
    if args.regions and result.regions is not None:
        print(f"regions: {len(result.regions)}")
        for region in result.regions[:args.max_regions]:
            coords = ", ".join(f"({x:.3f},{y:.3f})"
                               for x, y in region.polygon)
            print(f"  cell {region.cell_id}: area={region.area:.4f} "
                  f"[{coords}]")
    _write_observability(args, tracer)
    return 0


def cmd_aggregate(args) -> int:
    """Run an approximate range-aggregate against a saved index."""
    facade = EngineFacade()
    facade.open_field("cli", args.index_dir)
    index = facade.handle("cli").index
    tracer = _setup_observability(args, index)
    try:
        result = facade.aggregate("cli", args.kind, args.lo, args.hi,
                                  tolerance=args.tolerance, mode=args.mode)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    if args.json:
        print(json.dumps(result.to_dict(), indent=1))
    else:
        bound = ("exact" if result.bound == 0.0
                 else "unbounded" if not math.isfinite(result.bound)
                 else f"±{result.bound:.6g}")
        print(f"{result.kind}[{result.lo:g}, {result.hi:g}] = "
              f"{result.value:.6g} ({bound})")
        print(f"subfields: {result.covered_subfields} covered, "
              f"{result.model_subfields} model, "
              f"{result.exact_subfields} exact")
        print(f"I/O: {result.page_reads} pages")
    _write_observability(args, tracer)
    return 0


def _load_queries(path: Path) -> list[ValueQuery]:
    """Parse a query file: one ``lo hi`` pair (or a single exact value)
    per line; blank lines and ``#`` comments are skipped."""
    if not path.exists():
        raise SystemExit(f"{path}: no such query file")
    queries = []
    for lineno, raw in enumerate(path.read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.replace(",", " ").split()
        try:
            if len(parts) == 1:
                lo = hi = float(parts[0])
            elif len(parts) == 2:
                lo, hi = float(parts[0]), float(parts[1])
            else:
                raise ValueError("expected 'lo hi' or one exact value")
            queries.append(ValueQuery(lo, hi))
        except ValueError as exc:
            raise SystemExit(f"{path}:{lineno}: {exc}")
    if not queries:
        raise SystemExit(f"{path}: no queries found")
    return queries


def cmd_batch(args) -> int:
    """Run a file of value queries through the batch engine."""
    facade = EngineFacade()
    facade.open_field("cli", args.index_dir)
    index = facade.handle("cli").index
    tracer = _setup_observability(args, index)
    queries = _load_queries(Path(args.queries))
    try:
        batch = facade.batch("cli", queries, estimate=args.estimate,
                             workers=args.workers,
                             cache_pages=args.cache_pages,
                             merge=not args.no_merge)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    if not args.quiet:
        for i, result in enumerate(batch.results):
            q = result.query
            area = ("" if result.area is None
                    else f"  area={result.area:.4f}")
            print(f"[{i}] {q.lo:g}..{q.hi:g}: "
                  f"{result.candidate_count} candidates{area}  "
                  f"({result.io.page_reads} pages)")
    print(f"batch: {len(batch)} queries in {batch.groups} merged groups")
    print(f"I/O: {batch.io.page_reads} pages "
          f"({batch.io.random_reads} random, "
          f"{batch.io.sequential_reads} sequential), "
          f"{batch.pool.hits} pool hits / {batch.pool.misses} misses / "
          f"{batch.pool.evictions} evictions")
    if args.workers > 1:
        for w, io in enumerate(batch.worker_io):
            print(f"worker[{w}]: {io.page_reads} pages "
                  f"({io.random_reads} random, "
                  f"{io.sequential_reads} sequential)")
    if args.compare:
        index.clear_caches()
        seq = run_sequential(index, queries, estimate=args.estimate,
                             cold=True)
        saved = seq.io.page_reads - batch.io.page_reads
        pct = 100.0 * saved / seq.io.page_reads if seq.io.page_reads else 0.0
        print(f"sequential (cold): {seq.io.page_reads} pages — "
              f"batch saves {saved} pages ({pct:.1f}%)")
    _write_observability(args, tracer)
    return 0


def cmd_explain(args) -> int:
    """Explain the cost-based plan for a query; ``--analyze`` runs it."""
    index = load_index(args.index_dir)
    report = explain(index, args.lo, args.hi, analyze=args.analyze,
                     bins=args.bins)
    if args.json:
        print(json.dumps(explain_to_dict(report), indent=1))
    else:
        print(render_explain(report))
    if getattr(args, "trace", None) and report.trace_roots:
        count = write_trace(report.trace_roots, args.trace)
        print(f"trace: {count} spans written to {args.trace}",
              file=sys.stderr)
    return 0


def cmd_info(args) -> int:
    """Print a JSON description of a saved index."""
    index = load_index(args.index_dir)
    sizes = [sf.num_cells for sf in index.subfields]
    extents = [sf.hi - sf.lo for sf in index.subfields]
    payload = {
        "method": index.name,
        "field_type": index.field_type.__name__,
        "cells": len(index.store),
        "data_pages": index.store.num_pages,
        "index_pages": index.index_disk.num_pages,
        "subfields": len(index.subfields),
        "cells_per_subfield_mean": (sum(sizes) / len(sizes)
                                    if sizes else 0),
        "interval_extent_mean": (sum(extents) / len(extents)
                                 if extents else 0),
        "tree_height": index.tree.height,
    }
    print(json.dumps(payload, indent=1))
    return 0


def cmd_scrub(args) -> int:
    """Verify a saved index offline; exit 1 when corruption is found."""
    try:
        if args.repair:
            report, actions = repair_index(args.index_dir)
        else:
            report, actions = scrub_index(args.index_dir), []
    except FileNotFoundError as exc:
        raise SystemExit(f"error: {exc}")
    if args.json:
        payload = report.to_dict()
        if args.repair:
            payload["repairs"] = actions
        print(json.dumps(payload, indent=1))
    else:
        print(report.render())
        for action in actions:
            print(f"repair: {action}")
    return 0 if report.ok else 1


def _load_updates(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """Parse an updates file: one ``vertex_id value`` pair per line;
    blank lines and ``#`` comments are skipped.  When a vertex appears
    more than once the last line wins."""
    if not path.exists():
        raise SystemExit(f"{path}: no such updates file")
    ids, values = [], []
    for lineno, raw in enumerate(path.read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.replace(",", " ").split()
        try:
            if len(parts) != 2:
                raise ValueError("expected 'vertex_id value'")
            ids.append(int(parts[0]))
            values.append(float(parts[1]))
        except ValueError as exc:
            raise SystemExit(f"{path}:{lineno}: {exc}")
    if not ids:
        raise SystemExit(f"{path}: no updates found")
    id_arr = np.asarray(ids, dtype=np.int64)
    val_arr = np.asarray(values, dtype=np.float32)
    # keep-last dedup so repeated edits of one vertex are deterministic
    _, last = np.unique(id_arr[::-1], return_index=True)
    keep = np.sort(len(id_arr) - 1 - last)
    return id_arr[keep], val_arr[keep]


def cmd_update(args) -> int:
    """Apply vertex updates to a saved index through the WAL.

    The updates file is *cumulative* against the original field file:
    updates replace vertex values with absolute heights, so re-applying
    the whole file is idempotent and always converges to the state
    described by ``field + updates``.
    """
    index_dir = Path(args.index_dir)
    index = load_index(index_dir)
    field = _load_field(Path(args.field))
    if type(field) is not index.field_type:
        raise SystemExit(
            f"error: index was built over a {index.field_type.__name__}, "
            f"got a {type(field).__name__} field file")
    replayed = len(index.wal.pending) if index.wal is not None else 0
    index.field = field
    if index.wal is None:
        index.attach_wal(index_dir / "wal.log")
    ids, values = _load_updates(Path(args.updates))
    try:
        dirty = index.apply_updates(ids, values)
    except (ValueError, IndexError) as exc:
        raise SystemExit(f"error: {exc}")
    print(f"applied {len(ids)} vertex updates "
          f"({len(dirty)} cells rewritten)")
    if replayed:
        print(f"recovered {replayed} journaled batch(es) on open")
    print(f"maintenance I/O: {index.maint_stats.page_reads} page reads, "
          f"{index.maint_stats.page_writes} page writes")
    print(f"wal: {len(index.wal)} pending batch(es), "
          f"lsn {index.wal.last_lsn}")
    staleness = getattr(index, "staleness", None)
    if staleness is not None:
        st = staleness()
        print(f"staleness: {st['stale_subfields']}/{st['subfields']} "
              f"subfields drifted (max {st['max_drift']:+.1%}, "
              f"mean {st['mean_drift']:+.1%})")
    if args.checkpoint:
        save_index(index, index_dir)
        print(f"checkpointed to {index_dir} (wal truncated)")
    return 0


def cmd_compact(args) -> int:
    """Re-cluster stale subfields of a saved index and save it."""
    index_dir = Path(args.index_dir)
    index = load_index(index_dir)
    compact = getattr(index, "compact", None)
    if compact is None:
        raise SystemExit(
            f"error: {index.name} does not support compaction")
    report = compact(stale_threshold=args.threshold)
    print(f"compacted {report['stale_subfields']} stale subfields in "
          f"{report['stale_runs']} run(s): "
          f"{report['reclustered_cells']} cells re-clustered, "
          f"{report['subfields_before']} -> {report['subfields_after']} "
          f"subfields")
    print(f"maintenance I/O: {index.maint_stats.page_reads} page reads, "
          f"{index.maint_stats.page_writes} page writes")
    save_index(index, index_dir)
    print(f"saved to {index_dir}")
    return 0


def cmd_shard(args) -> int:
    """Partition a field into Hilbert-range shards and save the engine."""
    from .shard import ShardedEngine

    field = _load_field(Path(args.field))
    remote_store = None
    if args.tiered:
        from .storage import SimulatedObjectStore
        remote_store = SimulatedObjectStore()
    engine = ShardedEngine(field, n_shards=args.shards,
                           method="I-Hilbert", curve=args.curve,
                           remote_store=remote_store,
                           remote_cache_pages=args.remote_cache_pages)
    engine.save(args.index_dir)
    info = engine.describe()
    print(f"sharded {info['cells']} cells into {info['shards']} "
          f"Hilbert-range shards {info['shard_cells']} "
          f"({info['data_pages']} data pages, "
          f"{info['index_pages']} index pages"
          + (", tiered remote storage" if info["tiered"] else "")
          + ")")
    print(f"saved to {args.index_dir}")
    return 0


def cmd_rebalance(args) -> int:
    """Split/merge shards of a saved sharded engine and re-save it."""
    from .shard import ShardedEngine

    index_dir = Path(args.index_dir)
    field = _load_field(Path(args.field)) if args.field else None
    engine = ShardedEngine.load(index_dir, field=field)
    if field is None and args.max_cells is not None:
        print("note: size splits need the field file (--field) to "
              "recover Hilbert keys; only drift splits and merges "
              "will run", file=sys.stderr)
    summary = engine.rebalance(max_cells=args.max_cells,
                               min_cells=args.min_cells,
                               drift_threshold=args.drift_threshold)
    print(f"rebalanced: {summary['splits']} split(s), "
          f"{summary['merges']} merge(s), "
          f"{summary['shards_before']} -> {summary['shards_after']} "
          f"shards")
    engine.save(index_dir)
    print(f"saved to {index_dir}")
    return 0


def cmd_serve(args) -> int:
    """Serve fields over the newline-JSON protocol (``repro.serve``)."""
    import asyncio
    import signal

    from .serve import AdmissionController, FieldServer, TenantQuota

    catalog = {}
    for spec in args.fields:
        name, sep, path = spec.partition("=")
        if not sep or not name or not path:
            raise SystemExit(
                f"error: field spec {spec!r} must be NAME=PATH")
        catalog[name] = path
    facade = EngineFacade(default_workers=args.workers,
                          default_cache_pages=args.cache_pages)
    for name, path in catalog.items():
        try:
            info = facade.open_field(name, path)
        except (FacadeError, FileNotFoundError) as exc:
            raise SystemExit(f"error: {name}: {exc}")
        print(f"opened {name}: {info['cells']} cells "
              f"({info['method']}, {args.workers} worker(s))",
              file=sys.stderr)
    try:
        quota = TenantQuota(rate=args.rate, burst=args.burst,
                            max_pending=args.max_queue,
                            on_limit=args.on_limit,
                            max_wait_s=args.max_wait,
                            timeout_s=args.timeout)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")
    qlog = None
    if args.qlog:
        from .obs.qlog import QueryLog
        qlog = QueryLog(args.qlog, latency_ms=args.qlog_threshold_ms,
                        pages=args.qlog_pages)
    try:
        server = FieldServer(facade=facade, catalog=catalog,
                             admission=AdmissionController(default=quota),
                             host=args.host, port=args.port,
                             executor_workers=args.executor_workers,
                             enable_metrics=not args.no_metrics,
                             trace_sample_rate=args.trace_sample_rate,
                             qlog=qlog,
                             metrics_port=args.metrics_port,
                             max_requests=args.max_requests)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")

    async def _run() -> None:
        host, port = await server.start()
        print(f"serving {len(catalog)} field(s) on {host}:{port}",
              file=sys.stderr)
        if server.metrics_address is not None:
            mhost, mport = server.metrics_address
            print(f"metrics on http://{mhost}:{mport}/metrics",
                  file=sys.stderr)
        if args.port_file:
            Path(args.port_file).write_text(f"{host} {port}\n")
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(
                    sig, lambda: asyncio.ensure_future(server.stop()))
            except (NotImplementedError, RuntimeError):
                pass
        await server.wait_stopped()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    outcomes = ", ".join(f"{code}={count}" for code, count
                         in sorted(server.counts.items()))
    print(f"served {server.requests_served} request(s)"
          + (f" ({outcomes})" if outcomes else ""), file=sys.stderr)
    if qlog is not None and qlog.entries:
        print(f"slow-query log: {qlog.entries} entrie(s) in {qlog.path}",
              file=sys.stderr)
    return 0


def cmd_top(args) -> int:
    """Live serving console against a running server."""
    from .serve.client import ClientError
    from .serve.top import run_top

    host, sep, port = args.address.rpartition(":")
    if not sep or not host or not port.isdigit():
        raise SystemExit(
            f"error: address {args.address!r} must be HOST:PORT")
    try:
        run_top(host, int(port), tenant=args.tenant,
                interval_s=args.interval,
                iterations=1 if args.once else None,
                refresh=False if args.once else None)
    except (ClientError, OSError) as exc:
        raise SystemExit(f"error: {exc}")
    return 0


def cmd_point(args) -> int:
    """Answer a conventional (Q1) point query on a field file."""
    field = _load_field(Path(args.field))
    index = PointIndex(field)
    value = index.value_at(args.x, args.y)
    if value is None:
        print("point is outside the field domain")
        return 1
    print(f"F({args.x}, {args.y}) = {value:.6f}")
    return 0


def _add_obs_flags(parser) -> None:
    """Attach the shared ``--trace``/``--metrics-out`` options."""
    parser.add_argument("--trace", metavar="FILE",
                        help="record query-lifecycle spans and write "
                             "them to FILE (Chrome trace-event JSON, "
                             "or JSONL if FILE ends in .jsonl)")
    parser.add_argument("--metrics-out", metavar="FILE",
                        help="enable the metrics registry and dump it "
                             "to FILE as JSON after the run")


def main(argv: list[str] | None = None) -> int:
    """Parse arguments and dispatch to a subcommand."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Field value indexing (EDBT 2002 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="build and save an I-Hilbert "
                                         "index over a field file")
    build.add_argument("field", help=".npy heights or .npz TIN")
    build.add_argument("index_dir", help="output index directory")
    build.add_argument("--curve", default="hilbert",
                       choices=["hilbert", "zorder", "gray"])
    build.add_argument("--bulk", action="store_true",
                       help="also print the build's timing (every build "
                            "bulk-loads: cells sorted by Hilbert key, "
                            "pages packed sequentially, R*-tree built "
                            "bottom-up)")
    build.set_defaults(func=cmd_build)

    query = sub.add_parser("query", help="run a value query against a "
                                         "saved index")
    query.add_argument("index_dir")
    query.add_argument("lo", type=float)
    query.add_argument("hi", type=float)
    query.add_argument("--regions", action="store_true",
                       help="materialize exact answer polygons")
    query.add_argument("--max-regions", type=int, default=10,
                       help="polygons to print with --regions")
    query.add_argument("--workers", type=int, default=1,
                       help="run through the batch engine with N "
                            "worker threads (default: 1, a plain query)")
    _add_obs_flags(query)
    query.set_defaults(func=cmd_query)

    agg = sub.add_parser("aggregate",
                         help="approximate COUNT/SUM/AVG/area over a "
                              "value interval from learned models")
    agg.add_argument("index_dir")
    agg.add_argument("kind", choices=list(AGGREGATE_KINDS))
    agg.add_argument("lo", type=float)
    agg.add_argument("hi", type=float)
    agg.add_argument("--tolerance", type=float, default=None,
                     help="max acceptable error bound; hybrid mode reads "
                          "exact subfields until the bound fits "
                          "(default: model answers only)")
    agg.add_argument("--mode", default="hybrid",
                     choices=list(AGGREGATE_MODES),
                     help="model: never read pages; hybrid: fall back "
                          "per subfield to fit --tolerance; exact: "
                          "vectorized exact path (default: hybrid)")
    agg.add_argument("--json", action="store_true",
                     help="emit the result as JSON")
    _add_obs_flags(agg)
    agg.set_defaults(func=cmd_aggregate)

    batch = sub.add_parser("batch", help="run a file of value queries "
                                         "through the batch engine")
    batch.add_argument("index_dir")
    batch.add_argument("queries", help="text file: one 'lo hi' pair (or "
                                       "one exact value) per line")
    batch.add_argument("--estimate", default="area",
                       choices=["none", "area"],
                       help="estimation-step mode (default: area)")
    batch.add_argument("--cache-pages", type=int,
                       default=DEFAULT_BATCH_CACHE_PAGES,
                       help="shared buffer-pool capacity for the batch")
    batch.add_argument("--no-merge", action="store_true",
                       help="keep one fetch per query (shared cache only)")
    batch.add_argument("--compare", action="store_true",
                       help="also run the queries sequentially cold and "
                            "report the page-read reduction")
    batch.add_argument("--quiet", action="store_true",
                       help="suppress per-query lines, print totals only")
    batch.add_argument("--workers", type=int, default=1,
                       help="execute merged groups on N worker threads "
                            "(default: 1, inline in the calling thread)")
    _add_obs_flags(batch)
    batch.set_defaults(func=cmd_batch)

    expl = sub.add_parser("explain", help="print the cost-based plan "
                                          "for a value query")
    expl.add_argument("index_dir")
    expl.add_argument("lo", type=float)
    expl.add_argument("hi", type=float)
    expl.add_argument("--analyze", action="store_true",
                      help="also execute the query and report actual "
                           "counters + estimation error")
    expl.add_argument("--json", action="store_true",
                      help="emit the report as JSON instead of text")
    expl.add_argument("--bins", type=int, default=64,
                      help="FieldStatistics histogram bins (default: 64)")
    expl.add_argument("--trace", metavar="FILE",
                      help="with --analyze: also write the recorded span "
                           "tree (Chrome trace JSON, or JSONL if FILE "
                           "ends in .jsonl)")
    expl.set_defaults(func=cmd_explain)

    info = sub.add_parser("info", help="describe a saved index")
    info.add_argument("index_dir")
    info.set_defaults(func=cmd_info)

    scrub = sub.add_parser("scrub", help="verify a saved index offline "
                                         "(checksums every file and "
                                         "page frame)")
    scrub.add_argument("index_dir")
    scrub.add_argument("--json", action="store_true",
                       help="emit the report as JSON instead of text")
    scrub.add_argument("--repair", action="store_true",
                       help="recompute stale manifest checksums over "
                            "files whose pages all verify (corrupt "
                            "pages are only reported; restore those "
                            "from a snapshot or rebuild)")
    scrub.set_defaults(func=cmd_scrub)

    update = sub.add_parser("update", help="apply vertex-value updates "
                                           "to a saved index through "
                                           "the write-ahead log")
    update.add_argument("index_dir")
    update.add_argument("field", help="the original field file the "
                                      "index was built from (.npy "
                                      "heights or .npz TIN)")
    update.add_argument("updates", help="text file: one 'vertex_id "
                                        "value' pair per line "
                                        "(cumulative, last line wins)")
    update.add_argument("--checkpoint", action="store_true",
                        help="save the updated index and truncate the "
                             "WAL afterwards")
    update.set_defaults(func=cmd_update)

    compact = sub.add_parser("compact", help="re-cluster stale "
                                             "subfields of a saved "
                                             "index")
    compact.add_argument("index_dir")
    compact.add_argument("--threshold", type=float, default=0.0,
                         help="minimum relative cost drift before a "
                              "subfield is re-clustered (default: 0, "
                              "any drift)")
    compact.set_defaults(func=cmd_compact)

    shard = sub.add_parser("shard", help="partition a field into "
                                         "Hilbert-range shards and "
                                         "save the sharded engine")
    shard.add_argument("field", help=".npy heights or .npz TIN")
    shard.add_argument("index_dir", help="output directory (shard map "
                                         "+ one index per shard)")
    shard.add_argument("--shards", type=int, default=4,
                       help="requested shard count (collapses when "
                            "the field is too small; default: 4)")
    shard.add_argument("--curve", default="hilbert",
                       choices=["hilbert", "zorder", "gray"])
    shard.add_argument("--tiered", action="store_true",
                       help="back every shard with the simulated "
                            "remote object store (cold pages fetched "
                            "on demand into a local cache)")
    shard.add_argument("--remote-cache-pages", type=int, default=64,
                       help="local cache frames per shard disk when "
                            "--tiered (default: 64)")
    shard.set_defaults(func=cmd_shard)

    rebalance = sub.add_parser("rebalance",
                               help="split oversized/drifted shards, "
                                    "merge undersized neighbours, and "
                                    "re-commit the shard map")
    rebalance.add_argument("index_dir")
    rebalance.add_argument("--field", default=None,
                           help="original field file; required for "
                                "size splits (recovers Hilbert keys)")
    rebalance.add_argument("--max-cells", type=int, default=None,
                           help="split any shard holding more cells "
                                "than this")
    rebalance.add_argument("--min-cells", type=int, default=None,
                           help="merge neighbours whose combined size "
                                "is at most this")
    rebalance.add_argument("--drift-threshold", type=float, default=None,
                           help="split a shard whose worst relative "
                                "cost drift (DESIGN.md §3.1.2) "
                                "exceeds this")
    rebalance.set_defaults(func=cmd_rebalance)

    serve = sub.add_parser("serve", help="serve fields over the "
                                         "newline-JSON protocol")
    serve.add_argument("fields", nargs="+", metavar="NAME=PATH",
                       help="field to serve: NAME bound to a saved "
                            "index directory, .npy heights or .npz TIN")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port (default: 0, pick an ephemeral "
                            "port and print it)")
    serve.add_argument("--workers", type=int, default=2,
                       help="engine worker threads per batch request "
                            "(default: 2)")
    serve.add_argument("--cache-pages", type=int,
                       default=DEFAULT_BATCH_CACHE_PAGES,
                       help="shared buffer-pool capacity per batch")
    serve.add_argument("--executor-workers", type=int, default=4,
                       help="concurrent engine calls across all "
                            "tenants (default: 4)")
    serve.add_argument("--rate", type=float, default=None,
                       help="per-tenant sustained requests/second "
                            "(default: unlimited)")
    serve.add_argument("--burst", type=int, default=8,
                       help="per-tenant burst capacity (default: 8)")
    serve.add_argument("--max-queue", type=int, default=64,
                       help="per-tenant pending-request bound before "
                            "backpressure rejection (default: 64)")
    serve.add_argument("--on-limit", default="wait",
                       choices=["wait", "reject"],
                       help="empty-token-bucket policy (default: wait)")
    serve.add_argument("--max-wait", type=float, default=1.0,
                       help="longest a rate-limited request may wait "
                            "for a token, seconds (default: 1.0)")
    serve.add_argument("--timeout", type=float, default=None,
                       help="per-request execution deadline, seconds "
                            "(default: none)")
    serve.add_argument("--port-file", metavar="FILE",
                       help="write 'host port' to FILE once listening "
                            "(for scripted clients)")
    serve.add_argument("--max-requests", type=int, default=None,
                       help="stop after N requests (demos and tests)")
    serve.add_argument("--no-metrics", action="store_true",
                       help="leave the metrics registry disabled")
    serve.add_argument("--metrics-port", type=int, default=None,
                       metavar="PORT",
                       help="also answer plain-HTTP GET /metrics "
                            "(Prometheus text) on PORT (0 = ephemeral)")
    serve.add_argument("--trace-sample-rate", type=float, default=0.0,
                       metavar="P",
                       help="sample this fraction of requests into "
                            "span trees (client trace_ids always "
                            "sample; default: 0)")
    serve.add_argument("--qlog", metavar="FILE", default=None,
                       help="append slow requests to FILE as JSONL")
    serve.add_argument("--qlog-threshold-ms", type=float, default=100.0,
                       metavar="MS",
                       help="log requests at least this slow "
                            "(default: 100)")
    serve.add_argument("--qlog-pages", type=int, default=None,
                       metavar="N",
                       help="also log requests reading >= N pages")
    serve.set_defaults(func=cmd_serve)

    top = sub.add_parser("top", help="live serving console against a "
                                     "running server")
    top.add_argument("address", metavar="HOST:PORT",
                     help="server to watch, e.g. 127.0.0.1:4321")
    top.add_argument("--interval", type=float, default=2.0,
                     help="refresh period in seconds (default: 2)")
    top.add_argument("--once", action="store_true",
                     help="render one frame and exit (no ANSI refresh)")
    top.add_argument("--tenant", default="default",
                     help="tenant identity of the console's own "
                          "requests (default: 'default')")
    top.set_defaults(func=cmd_top)

    point = sub.add_parser("point", help="conventional (Q1) point query")
    point.add_argument("field", help=".npy heights or .npz TIN")
    point.add_argument("x", type=float)
    point.add_argument("y", type=float)
    point.set_defaults(func=cmd_point)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
