"""Spans taken from outside the program, and the per-layer metrics.

:class:`Recorder` wraps the functions at each layer boundary of the
engine (see :func:`boundaries`) so every call records a span — name,
start, end, parent span, operation id and a few counts — in memory, on
``time.perf_counter_ns`` (CLOCK_MONOTONIC, so a client and a server
process share one clock).  Nothing under ``src/`` is edited: the
wrappers replace class and module attributes while a traced pass runs
and restore them afterwards.

:func:`layer_metrics` turns the spans of the traced passes into the
per-layer metrics listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import threading
import time

from .stats import self_time_ns

#: Field positions of a span record.
NAME, T0, T1, PARENT, OP, INFO = range(6)

#: Operation kinds whose spans count as value-query work.
VALUE_KINDS = ("query", "batch")


def _len_result(args, result, before):
    return len(result)


def _pool_before(args):
    pool = args[0]
    return pool.hits, pool.misses


def _pool_after(args, result, before):
    pool = args[0]
    return pool.hits - before[0], pool.misses - before[1]


def _disk_before(args):
    stats = args[0].stats
    return stats.page_reads, stats.random_reads


def _disk_after(args, result, before):
    stats = args[0].stats
    return stats.page_reads - before[0], stats.random_reads - before[1]


def _decode_info(args, result, before):
    payloads = args[0]
    return len(payloads), sum(len(p) for p in payloads)


def _records_info(args, result, before):
    return len(args[1])


def _merge_info(args, result, before):
    return len(result), len(args[0])


def _aggregate_info(args, result, before):
    return result.exact_subfields, result.model_subfields, result.page_reads


def _wal_before(args):
    return args[0].path.stat().st_size


def _wal_after(args, result, before):
    return args[0].path.stat().st_size - before


def _batch_before(args):
    facade, name = args[0], args[1]
    return sum(p.evictions for p in facade.handle(name).pools())


def _batch_after(args, result, before):
    facade, name = args[0], args[1]
    return sum(p.evictions for p in facade.handle(name).pools()) - before


def _compact_info(args, result, before):
    return result["reclustered_cells"]


def boundaries() -> list[tuple]:
    """``(span name, owner, attribute, before hook, info hook)`` for every
    layer boundary the benchmark times."""
    from repro.core import aggregate, batch
    from repro.core.aggregate import AggregateModelSet
    from repro.core.facade import EngineFacade
    from repro.core.grouped import GroupedIntervalIndex
    from repro.field.dem import DEMField
    from repro.rstar import RStarTree
    from repro.serve import server
    from repro.serve.admission import AdmissionController
    from repro.shard.engine import ShardedEngine
    from repro.storage import records
    from repro.storage.buffer import BufferPool
    from repro.storage.disk import DiskManager
    from repro.storage.records import RecordStore
    from repro.storage.wal import WriteAheadLog
    return [
        ("facade.query", EngineFacade, "query", None, None),
        ("facade.batch", EngineFacade, "batch", _batch_before,
         _batch_after),
        ("facade.aggregate", EngineFacade, "aggregate", None, None),
        ("facade.update", EngineFacade, "update", None, None),
        ("batch.merge", batch, "merge_queries", None, _merge_info),
        ("rstar.search", RStarTree, "search", None, _len_result),
        ("rstar.insert", RStarTree, "insert", None, None),
        ("rstar.delete", RStarTree, "delete", None, None),
        ("grouped.filter", GroupedIntervalIndex, "_candidates", None,
         _len_result),
        ("compact", GroupedIntervalIndex, "compact", None, _compact_info),
        ("records.read_pages", RecordStore, "read_pages", None,
         _len_result),
        ("records.update", RecordStore, "update", None, None),
        ("codec.decode", records, "decode_pages", None, _decode_info),
        ("buffer.read_many", BufferPool, "read_many", _pool_before,
         _pool_after),
        ("disk.read_many", DiskManager, "read_many", _disk_before,
         _disk_after),
        ("field.estimate", DEMField, "estimate_area", None, _records_info),
        ("shard.scatter", ShardedEngine, "_candidates", None, None),
        ("shard.filter", ShardedEngine, "_fetch_one", None, None),
        ("aggregate.eval", aggregate, "evaluate_aggregate", None,
         _aggregate_info),
        ("aggregate.refit", AggregateModelSet, "refit", None, None),
        ("wal.append", WriteAheadLog, "append", _wal_before, _wal_after),
        ("serve.decode", server, "decode_request", None, None),
        ("serve.encode", server, "encode_response", None, None),
        ("serve.admission", AdmissionController, "acquire", None, None),
    ]


class Recorder:
    """In-memory span log of one process, plus the wrappers that fill it.

    ``op`` is the id of the operation in flight; the harness sets it
    before each call it makes (in a server process, the wrapped request
    decoder sets it from the request id).
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = None
        self._local = threading.local()
        self._saved: list[tuple] = []

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, before_hook, info_hook):
        spans = self.spans
        clock = time.perf_counter_ns

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                # Awaiting spans are roots: the loop may run other
                # callbacks on this thread while they are suspended.
                rec = [name, clock(), 0, -1, self.op, None]
                spans.append(rec)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    rec[T1] = clock()
            return traced_async

        is_decode = name == "serve.decode"
        is_encode = name == "serve.encode"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            before = before_hook(args) if before_hook is not None else None
            rec = [name, 0, 0, stack[-1] if stack else -1, self.op, None]
            index = len(spans)
            spans.append(rec)
            stack.append(index)
            rec[T0] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[T1] = clock()
                stack.pop()
            if is_decode:
                self.op = rec[OP] = result.id
            elif is_encode:
                rec[OP] = args[0]
            if info_hook is not None:
                rec[INFO] = info_hook(args, result, before)
            return result
        return traced

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every boundary (idempotent until :meth:`uninstall`)."""
        if self._saved:
            return
        for name, owner, attr, before_hook, info_hook in boundaries():
            raw = (owner.__dict__[attr] if isinstance(owner, type)
                   else getattr(owner, attr))
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__,
                                                 before_hook, info_hook))
            else:
                wrapped = self._wrap(name, raw, before_hook, info_hook)
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved = []

    def dump(self, path) -> None:
        """Write the span log as JSON (the server process's hand-off)."""
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


# -- per-layer metrics --------------------------------------------------------

#: name -> (unit, better) of every per-layer metric, in report order.
LAYER_METRICS = {
    "serve.overhead_ms": ("ms", "lower"),
    "serve.overhead_share": ("ratio", "lower"),
    "serve.decode_us": ("us", "lower"),
    "serve.encode_us": ("us", "lower"),
    "serve.admission_us": ("us", "lower"),
    "facade.query_ms": ("ms", "lower"),
    "facade.batch_ms": ("ms", "lower"),
    "facade.aggregate_ms": ("ms", "lower"),
    "facade.update_ms": ("ms", "lower"),
    "facade.unattributed_share": ("ratio", "lower"),
    "batch.groups_per_batch": ("count", "lower"),
    "batch.queries_per_group": ("count", "higher"),
    "batch.merge_us": ("us", "lower"),
    "rstar.search_us": ("us", "lower"),
    "rstar.hits_per_search": ("count", "lower"),
    "rstar.migrations_per_update": ("count", "lower"),
    "rstar.migrate_us": ("us", "lower"),
    "grouped.runs_per_query": ("count", "lower"),
    "grouped.filter_precision": ("ratio", "higher"),
    "grouped.subfields": ("count", "lower"),
    "records.read_pages_us": ("us", "lower"),
    "codec.decode_us_per_page": ("us", "lower"),
    "codec.bytes_per_query": ("bytes", "lower"),
    "disk.read_us_per_page": ("us", "lower"),
    "disk.random_share": ("ratio", "lower"),
    "buffer.hit_rate": ("ratio", "higher"),
    "buffer.evictions_per_batch": ("count", "lower"),
    "field.estimate_us_per_query": ("us", "lower"),
    "field.records_per_estimate": ("count", "lower"),
    "shard.scatter_ms": ("ms", "lower"),
    "shard.imbalance": ("ratio", "lower"),
    "shard.gather_us": ("us", "lower"),
    "remote.gets_per_query": ("count", "lower"),
    "remote.local_hit_rate": ("ratio", "higher"),
    "remote.sim_ms_per_query": ("ms", "lower"),
    "aggregate.eval_us": ("us", "lower"),
    "aggregate.exact_share": ("ratio", "lower"),
    "aggregate.pages_per_call": ("pages", "lower"),
    "aggregate.refits_per_update": ("count", "lower"),
    "aggregate.refit_ms": ("ms", "lower"),
    "wal.append_us": ("us", "lower"),
    "wal.bytes_per_update": ("bytes", "lower"),
    "records.update_us": ("us", "lower"),
    "records.pages_written_per_update": ("pages", "lower"),
    "update.write_amp": ("ratio", "lower"),
    "compact.ms": ("ms", "lower"),
    "compact.reclustered_cells": ("count", "lower"),
    "compact.subfields_after_ratio": ("ratio", "lower"),
    "trace.overhead": ("ratio", "lower"),
}

def _kind(kinds: dict, span) -> str:
    return kinds.get(span[OP], ("", 0))[0]


def _totals(kinds: dict) -> tuple[int, int]:
    """``(value queries, updates)`` of the operations in ``kinds``."""
    return (sum(n for kind, n in kinds.values() if kind in VALUE_KINDS),
            sum(1 for kind, _ in kinds.values() if kind == "update"))


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _ratio(num, den) -> float:
    return float(num) / den if den else 0.0


def span_counts(spans, kinds: dict) -> dict:
    """The count-type layer figures of a span log (no times).

    ``kinds`` maps operation id -> ``(kind, value queries)``; spans of
    other operations are ignored.  Used both for the report and for the
    between-pass repeatability guard.
    """
    by_name: dict[str, list] = {}
    for s in spans:
        if s[OP] in kinds:
            by_name.setdefault(s[NAME], []).append(s)
    queries, updates = _totals(kinds)

    def value_op(s):
        return _kind(kinds, s) in VALUE_KINDS

    def update_op(s):
        return _kind(kinds, s) == "update"

    merges = by_name.get("batch.merge", [])
    searches = by_name.get("rstar.search", [])
    filter_idx = {i for i, s in enumerate(spans)
                  if s[NAME] == "grouped.filter" and s[OP] in kinds
                  and value_op(s)}
    filters = [spans[i] for i in filter_idx]
    runs = [s for s in by_name.get("records.read_pages", [])
            if s[PARENT] in filter_idx]
    decodes = [s for s in by_name.get("codec.decode", []) if value_op(s)]
    disk = [s for s in by_name.get("disk.read_many", []) if value_op(s)]
    pool = by_name.get("buffer.read_many", [])
    estimates = [s for s in by_name.get("field.estimate", [])
                 if value_op(s)]
    aggs = by_name.get("aggregate.eval", [])
    batches = by_name.get("facade.batch", [])
    compacts = by_name.get("compact", [])
    pool_hits = sum(s[INFO][0] for s in pool)
    pool_misses = sum(s[INFO][1] for s in pool)
    agg_exact = sum(s[INFO][0] for s in aggs)
    agg_model = sum(s[INFO][1] for s in aggs)
    return {
        "batch.groups_per_batch": _ratio(
            sum(s[INFO][0] for s in merges), len(merges)),
        "batch.queries_per_group": _ratio(
            sum(s[INFO][1] for s in merges),
            sum(s[INFO][0] for s in merges)),
        "rstar.hits_per_search": _ratio(
            sum(s[INFO] for s in searches), len(searches)),
        "rstar.migrations_per_update": _ratio(
            sum(1 for s in by_name.get("rstar.insert", []) if update_op(s)),
            updates),
        "grouped.runs_per_query": _ratio(len(runs), queries),
        "grouped.filter_precision": _ratio(
            sum(s[INFO] for s in filters), sum(s[INFO] for s in runs)),
        "codec.bytes_per_query": _ratio(
            sum(s[INFO][1] for s in decodes), queries),
        "disk.random_share": _ratio(
            sum(s[INFO][1] for s in disk), sum(s[INFO][0] for s in disk)),
        "buffer.hit_rate": _ratio(pool_hits, pool_hits + pool_misses),
        "buffer.evictions_per_batch": _ratio(
            sum(s[INFO] for s in batches), len(batches)),
        "field.records_per_estimate": _ratio(
            sum(s[INFO] for s in estimates), len(estimates)),
        "aggregate.exact_share": _ratio(agg_exact, agg_exact + agg_model),
        "aggregate.pages_per_call": _ratio(
            sum(s[INFO][2] for s in aggs), len(aggs)),
        "aggregate.refits_per_update": _ratio(
            sum(1 for s in by_name.get("aggregate.refit", [])
                if update_op(s)), updates),
        "wal.bytes_per_update": _ratio(
            sum(s[INFO] for s in by_name.get("wal.append", [])), updates),
        "compact.reclustered_cells": _ratio(
            sum(s[INFO] for s in compacts), len(compacts)),
    }


def layer_metrics(spans, kinds: dict, client_ns: dict | None = None,
                  extras: dict | None = None) -> dict:
    """Every per-layer metric of :data:`LAYER_METRICS` from a span log.

    ``client_ns`` maps operation id -> client-side latency (serve runs
    only); ``extras`` supplies the figures the harness counts itself
    (remote tier, page writes, compaction ratio, tracing overhead).
    Spans of operations outside ``kinds`` are ignored; a layer that never
    ran reports 0.
    """
    by_name: dict[str, list] = {}
    children: dict[int, list] = {}
    for i, s in enumerate(spans):
        if s[OP] not in kinds:
            continue
        by_name.setdefault(s[NAME], []).append((i, s))
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append(s)
    queries, updates = _totals(kinds)

    def durations(name, scale=1e3, pick=None):
        return [(s[T1] - s[T0]) / scale for _, s in by_name.get(name, [])
                if pick is None or pick(s)]

    def value_op(s):
        return _kind(kinds, s) in VALUE_KINDS

    def update_op(s):
        return _kind(kinds, s) == "update"

    out = dict.fromkeys(LAYER_METRICS, 0.0)
    out.update(span_counts(spans, kinds))

    facade = [(i, s) for name in ("facade.query", "facade.batch",
                                  "facade.aggregate", "facade.update")
              for i, s in by_name.get(name, [])]
    total = sum(s[T1] - s[T0] for _, s in facade)
    unattributed = sum(
        self_time_ns(s[T0], s[T1],
                     [(c[T0], c[T1]) for c in children.get(i, [])])
        for i, s in facade)
    out["facade.unattributed_share"] = _ratio(unattributed, total)
    for verb in ("query", "batch", "aggregate", "update"):
        out[f"facade.{verb}_ms"] = _median(durations(f"facade.{verb}", 1e6))

    if client_ns:
        engine_ns = {s[OP]: s[T1] - s[T0] for _, s in facade}
        gaps = [(client_ns[op] - engine_ns[op], client_ns[op])
                for op in client_ns if op in engine_ns]
        out["serve.overhead_ms"] = _median([g / 1e6 for g, _ in gaps])
        out["serve.overhead_share"] = _ratio(sum(g for g, _ in gaps),
                                             sum(c for _, c in gaps))
    out["serve.decode_us"] = _median(durations("serve.decode"))
    out["serve.encode_us"] = _median(durations("serve.encode"))
    out["serve.admission_us"] = _median(durations("serve.admission"))

    out["batch.merge_us"] = _median(durations("batch.merge"))
    out["rstar.search_us"] = _median(durations("rstar.search"))
    migrations = sum(1 for _, s in by_name.get("rstar.insert", [])
                     if update_op(s))
    out["rstar.migrate_us"] = _ratio(
        sum(durations("rstar.insert", pick=update_op))
        + sum(durations("rstar.delete", pick=update_op)), migrations)

    out["records.read_pages_us"] = _median(durations("records.read_pages"))
    decodes = by_name.get("codec.decode", [])
    out["codec.decode_us_per_page"] = _ratio(
        sum(durations("codec.decode")), sum(s[INFO][0] for _, s in decodes))
    disk = by_name.get("disk.read_many", [])
    out["disk.read_us_per_page"] = _ratio(
        sum(durations("disk.read_many")), sum(s[INFO][0] for _, s in disk))
    out["field.estimate_us_per_query"] = _ratio(
        sum(durations("field.estimate", pick=value_op)), queries)

    scatters = by_name.get("shard.scatter", [])
    out["shard.scatter_ms"] = _median(durations("shard.scatter", 1e6))
    imbalance, gather = [], []
    for i, s in scatters:
        parts = [c[T1] - c[T0] for c in children.get(i, [])
                 if c[NAME] == "shard.filter"]
        if parts and sum(parts):
            imbalance.append(max(parts) / (sum(parts) / len(parts)))
        gather.append(self_time_ns(
            s[T0], s[T1], [(c[T0], c[T1]) for c in children.get(i, [])])
            / 1e3)
    out["shard.imbalance"] = _ratio(sum(imbalance), len(imbalance))
    out["shard.gather_us"] = _median(gather)

    out["aggregate.eval_us"] = _median(durations("aggregate.eval"))
    out["aggregate.refit_ms"] = _median(durations("aggregate.refit", 1e6))
    out["wal.append_us"] = _median(durations("wal.append"))
    out["records.update_us"] = _ratio(
        sum(durations("records.update", pick=update_op)), updates)
    out["compact.ms"] = _median(durations("compact", 1e6))
    out.update(extras or {})
    return out
