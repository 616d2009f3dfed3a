"""Batch execution of value queries with cross-query page caching.

The paper's protocol (§4) issues queries one at a time against a cold
store, so two queries over overlapping value intervals pay the full
random-read penalty twice.  A system serving query traffic can do much
better: collect queries into a batch, sort them on the value axis, merge
overlapping intervals into a single filtering pass each, and run the
whole batch through a shared LRU buffer pool so a page touched by several
queries is read from disk once.

:class:`BatchQueryEngine` implements that executor on top of *any* access
method (:class:`~repro.core.linearscan.LinearScanIndex`,
:class:`~repro.core.iall.IAllIndex`,
:class:`~repro.core.ihilbert.IHilbertIndex`, or the cost-based
:class:`~repro.core.planner.PlannedIndex`): the method keeps doing the
filtering it is built for, the engine decides *what* to filter and keeps
the buffer pool warm across queries.  Per-query answers are exactly the
answers of one-at-a-time execution — a group's candidate superset is
post-filtered per member with the same intersection predicate every
method uses — and per-query :class:`~repro.storage.stats.IOStats` charge
each page to the query that actually read it, so a batch's total I/O
counts shared pages once, not once per query.

With ``workers > 1`` the same engine runs the merged groups on worker
threads.  The point is *latency hiding*, not CPU parallelism: on the
simulated device a cold query spends almost all of its wall time
waiting for page reads (8.5 ms per random read, see
:data:`~repro.storage.stats.RANDOM_READ_MS`), and those waits overlap
across threads.  The optional :class:`DeviceModel` turns the accounted
I/O of each group fetch into a real ``time.sleep`` *outside* the
serialized section; ``python -m repro.bench throughput`` measures the
effect.  Three mechanisms keep every output identical to one worker:

* **Ticketed fetches.**  :class:`_FetchTickets` serializes group
  fetches in global group order, so the shared buffer pools, the shared
  :class:`~repro.storage.stats.IOStats` and any fault injector evolve in
  exactly the one-worker order.  Only device waits and the pure-CPU
  estimation step run concurrently.
* **Static group ownership.**  Worker ``w`` owns groups ``g ≡ w (mod
  workers)``, so per-worker I/O totals are a pure function of the
  workload, not of scheduling.
* **Shared-state discipline.**  A group's fetch runs through
  :class:`~repro.core.base.FilterStep`, the one bracket that sets and
  restores the index's fault regime, and it and the worker's ``tracer``
  swap happen only while a ticket is held;
  :meth:`~repro.core.base.ValueIndex._finish` is pure CPU.

One worker runs inline in the caller's thread, without a thread or a
ticket.  Its span tree is ``batch → merge, group[i]``; with several
workers each records its own tree and the trees are grafted as
``batch → merge, worker[w] → group[g]``, so EXPLAIN ANALYZE shows
per-worker timing.

:func:`run_sequential` executes the same workload one query at a time
(optionally cold, the paper's setting) and reports the same
:class:`BatchResult` shape, so batched and sequential execution can be
compared directly; ``benchmarks/test_bench_batch.py`` and the
``python -m repro.bench batch`` experiment do exactly that.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Sequence
from dataclasses import dataclass, field as dc_field

from ..obs.metrics import REGISTRY
from ..obs.trace import NULL_TRACER, Tracer
from ..storage import IOStats, PoolCounters
from ..storage.stats import RANDOM_READ_MS, SEQUENTIAL_READ_MS
from .base import (EstimateMode, FaultMode, FilterStep, ValueIndex,
                   interval_mask)
from .query import QueryResult, ValueQuery

#: Default shared-cache capacity for a batch: 1024 pages = 4 MiB of the
#: paper's 4 KiB pages, a small slice of even a 2002-era server's RAM.
DEFAULT_BATCH_CACHE_PAGES = 1024

_BATCHES = REGISTRY.counter(
    "repro_batches_total",
    "Query batches executed, per access method.")
_BATCH_QUERIES = REGISTRY.counter(
    "repro_batch_queries_total",
    "Queries answered through the batch engine, per access method.")
_GROUP_SIZE = REGISTRY.histogram(
    "repro_batch_group_size",
    "Queries sharing one merged fetch group, per access method.")
_BATCH_WORKERS = REGISTRY.histogram(
    "repro_batch_workers",
    "Worker count of each batch, per access method.")


@dataclass(frozen=True)
class QueryGroup:
    """A run of value-sorted queries merged into one fetch interval.

    ``members`` are positions into the caller's query list, in ascending
    ``(lo, hi)`` order; the group interval ``[lo, hi]`` is the union of
    the member intervals, so the group's candidate set is a superset of
    every member's.
    """

    lo: float
    hi: float
    members: tuple[int, ...]

    @property
    def size(self) -> int:
        """Number of queries sharing this fetch."""
        return len(self.members)


def merge_queries(queries: Sequence[ValueQuery],
                  merge: bool = True) -> list[QueryGroup]:
    """Sort queries on the value axis and merge overlapping intervals.

    With ``merge=False`` every query stays its own group (the engine then
    relies on the shared buffer pool alone); otherwise queries whose
    intervals overlap or touch collapse into one group per connected run,
    the classic interval-union sweep.
    """
    order = sorted(range(len(queries)),
                   key=lambda i: (queries[i].lo, queries[i].hi))
    groups: list[QueryGroup] = []
    for i in order:
        q = queries[i]
        if merge and groups and q.lo <= groups[-1].hi:
            last = groups[-1]
            groups[-1] = QueryGroup(last.lo, max(last.hi, q.hi),
                                    last.members + (i,))
        else:
            groups.append(QueryGroup(q.lo, q.hi, (i,)))
    return groups


@dataclass(frozen=True)
class DeviceModel:
    """Turns accounted page reads into real wall-time waits.

    The millisecond costs default to the benchmark harness's disk model
    (:data:`~repro.storage.stats.RANDOM_READ_MS` /
    :data:`~repro.storage.stats.SEQUENTIAL_READ_MS`); ``scale`` shrinks
    or stretches the waits uniformly (useful for fast smoke runs).
    Skipped pages were still transferred before their checksum failed,
    so they cost a sequential read — the same convention the harness
    uses.
    """

    random_read_ms: float = RANDOM_READ_MS
    sequential_read_ms: float = SEQUENTIAL_READ_MS
    scale: float = 1.0

    def delay_s(self, io: IOStats) -> float:
        """Simulated device time of ``io``, in seconds."""
        ms = (io.random_reads * self.random_read_ms
              + (io.sequential_reads + io.skipped_pages)
              * self.sequential_read_ms)
        return ms * self.scale / 1000.0


class _Aborted(Exception):
    """Internal: a sibling worker failed; unwind quietly."""


class _FetchTickets:
    """Serializes group fetches in global group order.

    ``acquire(g)`` blocks until every fetch with a smaller ticket has
    released; ``release(g)`` admits ticket ``g + 1``.  A fetch that
    fails calls :meth:`abort` instead of releasing, which wakes every
    waiter with :class:`_Aborted` — since fetches run strictly in ticket
    order, the first recorded error is the error one worker would have
    raised.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._next = 0
        self.error: BaseException | None = None

    def acquire(self, ticket: int) -> None:
        with self._cond:
            while self._next != ticket and self.error is None:
                self._cond.wait()
            if self.error is not None:
                raise _Aborted()

    def release(self, ticket: int) -> None:
        with self._cond:
            self._next = ticket + 1
            self._cond.notify_all()

    def abort(self, exc: BaseException) -> None:
        with self._cond:
            if self.error is None:
                self.error = exc
            self._cond.notify_all()


@dataclass
class BatchResult:
    """Outcome of one batch of value queries against one access method."""

    #: Per-query results, in the caller's original query order.
    results: list[QueryResult] = dc_field(default_factory=list)
    #: Aggregate I/O of the whole batch (shared pages counted once).
    io: IOStats = dc_field(default_factory=IOStats)
    #: Buffer-pool traffic during the batch, summed over the data-file
    #: and index-file pools.
    pool: PoolCounters = dc_field(default_factory=PoolCounters)
    #: Number of merged fetch groups the batch executed.
    groups: int = 0
    #: Number of workers the batch actually used.
    workers: int = 0
    #: Fetch I/O performed by each worker (index = worker id).  The sum
    #: over workers equals :attr:`io` exactly.
    worker_io: list[IOStats] = dc_field(default_factory=list)
    #: Wall time each worker ran, in seconds.
    worker_wall_s: list[float] = dc_field(default_factory=list)

    def __len__(self) -> int:
        return len(self.results)

    @property
    def page_reads(self) -> int:
        """Total accounted page reads of the batch."""
        return self.io.page_reads

    @property
    def total_candidates(self) -> int:
        """Sum of per-query candidate counts."""
        return sum(r.candidate_count for r in self.results)


class BatchQueryEngine:
    """Executes batches of value queries against one access method.

    Parameters
    ----------
    index:
        Any built :class:`~repro.core.base.ValueIndex`.  The engine never
        copies its data; it only drives the index's own filtering step
        and (temporarily) enlarges its buffer pools.
    workers:
        Worker count (>= 1).  One worker runs inline in the caller's
        thread; more run the groups on that many threads (never more
        than there are groups).  Answers and accounting do not depend
        on it.
    cache_pages:
        Shared buffer-pool capacity lent to the index for the duration of
        a batch.  The index's own configured capacity is never reduced;
        the effective capacity is the maximum of both.  After the batch
        the original capacity is restored (evicting what no longer fits),
        so single-query behaviour is unchanged.
    merge:
        Whether to merge overlapping query intervals into one filtering
        pass per connected run (default).  Disable to measure the effect
        of the shared cache alone.
    device:
        Optional :class:`DeviceModel`.  When given, every group fetch is
        followed by a real sleep for its simulated device time, outside
        the serialized section, so the waits overlap across workers.
        ``None`` (default) skips the sleeps.
    """

    def __init__(self, index: ValueIndex, workers: int = 1,
                 cache_pages: int = DEFAULT_BATCH_CACHE_PAGES,
                 merge: bool = True,
                 device: DeviceModel | None = None) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if cache_pages < 0:
            raise ValueError(
                f"cache_pages must be >= 0, got {cache_pages}")
        self.index = index
        self.workers = workers
        self.cache_pages = cache_pages
        self.merge = merge
        self.device = device

    def run(self, queries: Sequence[ValueQuery],
            estimate: EstimateMode = "area",
            on_fault: FaultMode = "raise") -> BatchResult:
        """Execute a batch and return per-query + aggregate results.

        Results come back in the caller's query order regardless of the
        execution order.  Each group's fetch I/O is attributed to the
        group's first member; later members of the group are answered
        from the in-memory candidate superset and report zero I/O —
        which is precisely the amortization the batch buys.

        ``on_fault`` follows :meth:`~repro.core.base.ValueIndex.query`:
        with ``"skip"``, data pages that cannot be read are dropped from
        the group's fetch and the surviving faults are attached to the
        group's first member (the query that performed the I/O).
        """
        if on_fault not in ("raise", "skip"):
            raise ValueError(
                f"on_fault must be 'raise' or 'skip', got {on_fault!r}")
        queries = list(queries)
        if not queries:
            return BatchResult()
        index = self.index
        tracer = index.tracer
        tree = getattr(index, "tree", None)
        if tree is not None and tree._dirty:
            # Flush once up front so no group fetch triggers the lazy
            # flush inside a search.
            tree.flush()
        with tracer.span("batch") as batch_span:
            with tracer.span("merge"):
                groups = merge_queries(queries, merge=self.merge)
            workers = min(self.workers, len(groups))
            if batch_span.enabled:
                batch_span.attrs.update(
                    method=index.name, queries=len(queries),
                    groups=len(groups), workers=workers, merge=self.merge)
            pools = index.pools()
            saved_caps = [p.capacity for p in pools]
            before_pool = [p.counters() for p in pools]
            before_batch = index.stats.snapshot()
            for pool in pools:
                pool.resize(max(pool.capacity, self.cache_pages))
            results: list[QueryResult | None] = [None] * len(queries)
            worker_io = [IOStats() for _ in range(workers)]
            worker_wall = [0.0] * workers
            try:
                if workers == 1:
                    t0 = time.perf_counter()
                    self._drain(0, 1, groups, queries, results, estimate,
                                on_fault, None, tracer, worker_io)
                    worker_wall[0] = time.perf_counter() - t0
                else:
                    self._run_threads(workers, groups, queries, results,
                                      estimate, on_fault, worker_io,
                                      worker_wall, batch_span)
                pool_traffic = sum(
                    (p.counters().diff(b)
                     for p, b in zip(pools, before_pool)),
                    PoolCounters())
            finally:
                for pool, cap in zip(pools, saved_caps):
                    pool.resize(cap)
        if REGISTRY.enabled:
            method = index.name
            _BATCHES.inc(1, method=method)
            _BATCH_QUERIES.inc(len(queries), method=method)
            _BATCH_WORKERS.observe(workers, method=method)
            for group in groups:
                _GROUP_SIZE.observe(group.size, method=method)
        return BatchResult(results=results,
                           io=index.stats.diff(before_batch),
                           pool=pool_traffic, groups=len(groups),
                           workers=workers, worker_io=worker_io,
                           worker_wall_s=worker_wall)

    # -- internals ----------------------------------------------------------

    def _run_threads(self, workers: int, groups: list[QueryGroup],
                     queries: list[ValueQuery],
                     results: list[QueryResult | None],
                     estimate: EstimateMode, on_fault: FaultMode,
                     worker_io: list[IOStats], worker_wall: list[float],
                     batch_span) -> None:
        """Drain the groups on ``workers`` threads under fetch tickets."""
        index = self.index
        tracer = index.tracer
        tickets = _FetchTickets()
        worker_tracers = [Tracer() if tracer.enabled else NULL_TRACER
                          for _ in range(workers)]

        def runner(w: int) -> None:
            t0 = time.perf_counter()
            wt = worker_tracers[w]
            try:
                # The OS thread id rides along as ``tid`` so the Chrome
                # trace exporter puts each worker on its own lane.
                with wt.span(f"worker[{w}]",
                             {"worker": w,
                              "tid": threading.get_native_id()}):
                    self._drain(w, workers, groups, queries, results,
                                estimate, on_fault, tickets, wt,
                                worker_io)
            except _Aborted:
                pass
            except BaseException as exc:
                tickets.abort(exc)
            finally:
                worker_wall[w] = time.perf_counter() - t0

        # Workers install their own tracer while holding a ticket; park
        # the index on the null tracer meanwhile.
        index.tracer = NULL_TRACER
        try:
            threads = [threading.Thread(target=runner, args=(w,),
                                        name=f"repro-worker-{w}")
                       for w in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            index.tracer = tracer
        if tickets.error is not None:
            raise tickets.error
        if tracer.enabled:
            for w, wt in enumerate(worker_tracers):
                for root in wt.roots:
                    root.io = worker_io[w]
                    batch_span.children.append(root)

    def _drain(self, w: int, workers: int, groups: list[QueryGroup],
               queries: list[ValueQuery],
               results: list[QueryResult | None],
               estimate: EstimateMode, on_fault: FaultMode,
               tickets: _FetchTickets | None, tracer,
               worker_io: list[IOStats]) -> None:
        """Run the groups worker ``w`` statically owns, in order."""
        for gi in range(w, len(groups), workers):
            group = groups[gi]
            if tracer.enabled:
                with tracer.span(f"group[{gi}]",
                                 {"lo": group.lo, "hi": group.hi,
                                  "size": group.size}) as gspan:
                    fetch_io = self._run_group(gi, group, queries,
                                               results, estimate,
                                               on_fault, tickets, tracer)
                    gspan.io = fetch_io
            else:
                fetch_io = self._run_group(gi, group, queries, results,
                                           estimate, on_fault, tickets,
                                           tracer)
            worker_io[w] += fetch_io

    def _run_group(self, gi: int, group: QueryGroup,
                   queries: list[ValueQuery],
                   results: list[QueryResult | None],
                   estimate: EstimateMode, on_fault: FaultMode,
                   tickets: _FetchTickets | None, tracer) -> IOStats:
        """One filtering pass over the group's union interval, then the
        per-member estimation; returns the group's fetch I/O.

        With ``tickets`` the fetch runs under group ``gi``'s ticket and
        with the worker's tracer installed on the index.  A failure
        inside it never admits the next ticket: the exception reaches
        the worker runner, which aborts every waiter.
        """
        index = self.index
        step = FilterStep(index, on_fault)
        if tickets is not None:
            tickets.acquire(gi)
            index.tracer = tracer
        try:
            candidates = step.run(group.lo, group.hi)
        finally:
            if tickets is not None:
                index.tracer = NULL_TRACER
        fetch_io = step.io
        if tickets is not None:
            tickets.release(gi)
        # Everything below runs concurrently across workers: the
        # simulated device wait and the pure-CPU estimation step.
        if self.device is not None:
            delay = self.device.delay_s(fetch_io)
            if delay > 0.0:
                time.sleep(delay)
        for ordinal, i in enumerate(group.members):
            q = queries[i]
            # A member's candidates are the group candidates that
            # intersect its own interval: the filter's own predicate.
            mine = candidates[interval_mask(candidates, q.lo, q.hi)]
            if tracer.enabled:
                with tracer.span("estimate", {"mode": estimate,
                                              "query": i}):
                    result = index._finish(q, mine, estimate)
            else:
                result = index._finish(q, mine, estimate)
            result.io = fetch_io if ordinal == 0 else IOStats()
            if ordinal == 0:
                # Faults belong to the member that performed the fetch,
                # mirroring the I/O attribution above.
                result.faults = step.faults
            results[i] = result
        return fetch_io


def run_sequential(index: ValueIndex, queries: Sequence[ValueQuery],
                   estimate: EstimateMode = "area",
                   cold: bool = True) -> BatchResult:
    """Run the same workload one query at a time (the baseline).

    ``cold=True`` drops caches before every query — the paper's §4
    protocol and the natural contrast to :meth:`BatchQueryEngine.run`.
    """
    queries = list(queries)
    pools = index.pools()
    before_pool = [p.counters() for p in pools]
    before = index.stats.snapshot()
    results = []
    for query in queries:
        if cold:
            index.clear_caches()
        results.append(index.query(query, estimate=estimate))
    pool_traffic = sum(
        (p.counters().diff(b) for p, b in zip(pools, before_pool)),
        PoolCounters())
    return BatchResult(results=results, io=index.stats.diff(before),
                       pool=pool_traffic, groups=len(queries))
