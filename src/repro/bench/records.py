"""Records of the growth benchmarks' ``BENCH_<experiment>.json`` artifacts.

Each growth experiment (``throughput``, ``update``, ``serve``,
``shard``, ``micro`` and ``aggregate``) fills one dataclass record, with
nested records for its parts.  The record is the artifact's schema:

* :func:`load` builds a record from parsed JSON and checks every value
  against its field's annotation, so ``dataclasses.asdict(load(doc))``
  is ``doc`` again;
* ``problems()`` lists every violated condition of a run, each with the
  path of the part it concerns: the bounds declared on the fields, the
  artifact's consistency rules and the experiment's whole-run gates;
* :meth:`Bench.finish` ends a run.  It exits 1 on any problem, and only
  a full run without problems writes ``BENCH_<experiment>.json``.

Per-answer checks (answers equal to an oracle, aggregate errors within
their bounds) stay in the experiments' run loops.  Conditions marked
"full runs only" are acceptance bars that the smoke runs' tiny fields
cannot meet.
"""

from __future__ import annotations

import dataclasses
import json
import types
import typing
from collections.abc import Iterator
from dataclasses import InitVar, dataclass

SCHEMA_VERSION = 1
#: The paper's three access methods, which ``throughput`` and
#: ``update`` must each report.
METHODS = {"LinearScan", "I-All", "I-Hilbert"}
#: Post-compaction page reads may exceed a fresh build's by 10% at most.
COMPACT_RECOVERY_LIMIT = 1.10
#: Kernels every micro run times (the vectorized hot path).
MICRO_KERNELS = {"estimate_kernel", "filter_pack", "page_decode",
                 "hilbert_keys", "group_cells", "rtree_search"}
#: Acceptance bars of a full micro run's ingest section.
MICRO_MIN_BULK_CELLS = 1_000_000
MICRO_MIN_BULK_SPEEDUP = 10.0
#: Configurations and kinds every aggregate frontier reports.
AGGREGATE_CONFIGS = {"exact", "hybrid-1pct", "hybrid-0.1pct", "model"}
AGGREGATE_KINDS = {"count", "sum", "area"}


class SchemaError(ValueError):
    """A document that does not fit its record: a value of the wrong
    type, a missing or unknown field, an unknown experiment, or a smoke
    run (smoke runs write no artifact)."""


def _min(floor: float, *, strict: bool = False, default=dataclasses.MISSING):
    """A field whose value must be >= ``floor`` (> with ``strict``)."""
    return dataclasses.field(default=default,
                             metadata={"min": (floor, strict)})


def _positive():
    """A required field whose value must be > 0."""
    return _min(0, strict=True)


def _ascending(record, *names: str) -> Iterator[str]:
    """Percentiles start at 0 and never fall."""
    previous = 0.0
    for name in names:
        value = getattr(record, name)
        if value < previous:
            yield f"{name} {value} below a lower percentile ({previous})"
        previous = max(previous, value)


def _missing(name: str, required: set[str], present) -> Iterator[str]:
    if required - set(present):
        yield f"{name} missing {sorted(required - set(present))}"


def _method_pages(name: str, pages: dict[str, int]) -> Iterator[str]:
    yield from _missing(name, METHODS, pages)
    for method, reads in pages.items():
        if reads <= 0:
            yield f"{name}[{method}] must be > 0, got {reads}"


class Record:
    """Base of every record: collects its own and its parts' problems."""

    def checks(self) -> Iterator[str]:
        """Messages of this record's own conditions beyond field bounds."""
        return iter(())

    def problems(self, path: str = "") -> list[str]:
        """Every violated condition of this record and of its nested
        records, each message prefixed with the part's path."""
        where = f"{path or 'top level'}: "
        found = [where + message for message in self.checks()]
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            floor, strict = f.metadata.get("min", (None, False))
            if floor is not None and \
                    not (value > floor if strict else value >= floor):
                found.append(f"{where}{f.name} must be "
                             f"{'>' if strict else '>='} {floor}, got {value}")
            items = (value.items() if isinstance(value, dict)
                     else enumerate(value) if isinstance(value, list)
                     else [(None, value)])
            for key, item in items:
                if isinstance(item, Record):
                    sub = f.name if key is None else f"{f.name}[{key}]"
                    found += item.problems(f"{path}.{sub}" if path else sub)
        return found


class Bench(Record):
    """The top-level record of one artifact; ends its experiment's run."""

    def checks(self) -> Iterator[str]:
        if self.schema_version != SCHEMA_VERSION:
            yield f"schema_version {self.schema_version} != {SCHEMA_VERSION}"

    def finish(self, lines: list[str]) -> str:
        """End the run whose text report is ``lines``; return the report.

        With any :meth:`problems` it prints the report and raises
        ``SystemExit`` listing them (exit status 1), so a failing run
        writes nothing.  Otherwise a full run writes
        ``BENCH_<experiment>.json`` into the working directory.
        """
        problems = self.problems()
        if problems:
            print("\n".join(lines))
            raise SystemExit(f"{self.experiment} FAILED:\n  "
                             + "\n  ".join(problems))
        if not self.smoke:
            path = f"BENCH_{self.experiment}.json"
            with open(path, "w") as fh:
                json.dump(dataclasses.asdict(self), fh, indent=1)
                fh.write("\n")
            lines.append(f"(machine-readable results written to {path})")
        return "\n".join(lines)


# -- parts shared by several artifacts ----------------------------------------

@dataclass
class FieldInfo(Record):
    """The benchmark's field: its class and its size."""

    type: str
    cells_per_side: int
    cells: int

    def checks(self) -> Iterator[str]:
        if self.cells_per_side ** 2 != self.cells:
            yield f"cells_per_side {self.cells_per_side} squared != cells"


@dataclass
class Workload(Record):
    """The Fig. 8a query mix: ``per_qinterval`` queries per setting."""

    queries: int
    per_qinterval: int
    qintervals: list[float]
    seed: int

    def checks(self) -> Iterator[str]:
        if self.queries != self.per_qinterval * len(self.qintervals):
            yield f"queries {self.queries} != per_qinterval x qintervals"


@dataclass
class QueryWorkload(Workload):
    """A query mix and its estimation-step mode."""

    estimate: str


@dataclass
class Equivalence(Record):
    """Answers checked against a reference, and how many differed."""

    checked: int = _min(1)
    mismatches: int = _min(0)

    def checks(self) -> Iterator[str]:
        if self.mismatches:
            yield f"mismatches: {self.mismatches} answers differ"


@dataclass
class DeviceCosts(Record):
    """Simulated milliseconds per random and per sequential page read."""

    random_read_ms: float = _positive()
    sequential_read_ms: float = _positive()


# -- throughput ---------------------------------------------------------------

@dataclass
class ScaledDeviceCosts(DeviceCosts):
    """The batch engine's ``DeviceModel``: page costs and a time scale."""

    scale: float


@dataclass
class ThroughputPoint(Record):
    """One worker count of a method's legacy (unmerged, uncached) sweep."""

    workers: int = _min(1)
    wall_s: float = _positive()
    qps: float = _positive()
    speedup_vs_1: float = _positive()
    page_reads: int = _min(0)
    random_reads: int = _min(0)
    sequential_reads: int = _min(0)

    def checks(self) -> Iterator[str]:
        if self.random_reads + self.sequential_reads != self.page_reads:
            yield "random_reads + sequential_reads != page_reads"


@dataclass
class PipelinePoint(Record):
    """One worker count of a method's merged + cached + batched sweep."""

    workers: int = _min(1)
    wall_s: float = _positive()
    qps: float = _positive()
    speedup_vs_legacy: float = _positive()
    page_reads: int = _min(0)
    random_reads: int = _min(0)
    sequential_reads: int = _min(0)


@dataclass
class Pipeline(Record):
    """The serving configuration's sweep and its one-worker oracle.

    ``perpage_oracle_page_reads`` keeps its name from when that
    reference ran a per-page fetch; it is a one-worker run of the same
    batched reads with an empty fault injector attached.
    """

    cache_pages: int = _min(1)
    merge: bool
    perpage_oracle_page_reads: int
    points: list[PipelinePoint]

    def checks(self) -> Iterator[str]:
        # Byte identity to the one-worker reference shows as
        # exactly the oracle's page count at every sweep point.
        for point in self.points:
            if point.page_reads != self.perpage_oracle_page_reads:
                yield f"workers={point.workers}: page_reads != the oracle's"


@dataclass
class MethodSweep(Record):
    """One access method's build and its two worker sweeps."""

    method: str
    build_seconds: float
    data_pages: int
    index_pages: int
    serial_page_reads: int
    points: list[ThroughputPoint]
    pipeline: Pipeline

    def checks(self) -> Iterator[str]:
        # Parallelism is invisible in the I/O accounting.
        for point in self.points:
            if point.page_reads != self.serial_page_reads:
                yield f"workers={point.workers}: page_reads != serial's"
        qps = [point.qps for point in self.points]
        if qps and qps[-1] < qps[0]:
            yield f"qps fell from {qps[0]} to {qps[-1]} at more workers"
        legacy = {point.workers: point.qps for point in self.points}
        for last in self.pipeline.points[-1:]:
            if last.qps < legacy.get(last.workers, 0.0):
                yield f"pipeline qps {last.qps} below the legacy sweep's"


@dataclass(kw_only=True)
class Throughput(Bench):
    """``BENCH_throughput.json``: batch-engine q/s against worker count."""

    schema_version: int = SCHEMA_VERSION
    experiment: str = "throughput"
    field: FieldInfo
    workload: QueryWorkload
    device_model: ScaledDeviceCosts
    smoke: bool
    workers: list[int]
    methods: list[MethodSweep]

    def checks(self) -> Iterator[str]:
        yield from super().checks()
        if self.workers != sorted(set(self.workers)) or \
                not self.workers or self.workers[0] < 1:
            yield f"workers {self.workers} not ascending ints >= 1"
        for entry in self.methods:
            for points in (entry.points, entry.pipeline.points):
                if [point.workers for point in points] != self.workers:
                    yield f"{entry.method}: a sweep misses declared workers"
        yield from _missing("methods", METHODS,
                            [entry.method for entry in self.methods])


# -- update -------------------------------------------------------------------

@dataclass
class UpdateField(FieldInfo):
    """The updated terrain, with its vertex count."""

    vertices: int


@dataclass
class UpdateStream(Record):
    """The random vertex-update stream."""

    count: int = _min(1)
    seed: int
    distribution: str


@dataclass
class Staleness(Record):
    """I-Hilbert's §3.1.2 cost-drift summary."""

    subfields: int
    stale_subfields: int
    max_drift: float
    mean_drift: float


@dataclass
class UpdateStep(Record):
    """Cold page reads after one cumulative fraction of the stream."""

    updates_applied: int = _min(0)
    fraction: float = _positive()
    page_reads: dict[str, int]
    ratio_vs_baseline: dict[str, float]
    ih_staleness: Staleness
    ih_maint_page_reads: int = _min(0)
    ih_maint_page_writes: int = _min(0)

    def checks(self) -> Iterator[str]:
        if self.fraction > 1:
            yield f"fraction must be <= 1, got {self.fraction}"
        yield from _method_pages("page_reads", self.page_reads)


@dataclass
class Compaction(Record):
    """I-Hilbert's page reads before and after ``compact()``."""

    degraded_page_reads: int = _min(0)
    compacted_page_reads: int = _min(0)
    fresh_page_reads: int = _min(0)
    recovery_ratio: float
    reclustered_cells: int = _min(0)
    subfields_before: int = _min(0)
    subfields_after: int = _min(0)

    def checks(self) -> Iterator[str]:
        if self.recovery_ratio > COMPACT_RECOVERY_LIMIT:
            yield (f"recovery_ratio {self.recovery_ratio} > "
                   f"{COMPACT_RECOVERY_LIMIT}")


@dataclass
class UpdateFinal(Record):
    """The three gates after the whole stream."""

    equivalent_to_rebuild: bool
    compaction: Compaction
    wal_recovery: bool

    def checks(self) -> Iterator[str]:
        if not self.equivalent_to_rebuild:
            yield "equivalent_to_rebuild: updated indexes diverge"
        if not self.wal_recovery:
            yield "wal_recovery: WAL replay lost an acknowledged update"


@dataclass(kw_only=True)
class Update(Bench):
    """``BENCH_update.json``: query cost under live updates, compaction
    recovery and WAL crash recovery."""

    schema_version: int = SCHEMA_VERSION
    experiment: str = "update"
    field: UpdateField
    workload: QueryWorkload
    updates: UpdateStream
    smoke: bool
    baseline_page_reads: dict[str, int]
    steps: list[UpdateStep]
    final: UpdateFinal

    def checks(self) -> Iterator[str]:
        yield from super().checks()
        baseline = self.baseline_page_reads
        yield from _method_pages("baseline_page_reads", baseline)
        if not self.steps:
            yield "steps must not be empty"
        for before, step in zip(self.steps, self.steps[1:]):
            if step.updates_applied < before.updates_applied:
                yield f"steps: updates_applied {step.updates_applied} fell"
            if step.ih_maint_page_reads < before.ih_maint_page_reads:
                yield "steps: the cumulative ih_maint_page_reads fell"
        for step in self.steps:
            for method, ratio in step.ratio_vs_baseline.items():
                if baseline.get(method) and method in step.page_reads and \
                        abs(ratio - step.page_reads[method]
                            / baseline[method]) > 1e-3:
                    yield f"steps: {method} ratio != page_reads / baseline"


# -- serve --------------------------------------------------------------------

@dataclass
class ServerInfo(Record):
    """The query service's configuration and request count."""

    engine_workers: int = _min(1)
    executor_workers: int = _min(1)
    tenants: int = _min(1)
    clients_per_tenant: int = _min(1)
    total_requests: int = _min(1)


@dataclass
class Latency(Record):
    """Client-side latency percentiles in milliseconds."""

    p50: float
    p95: float
    p99: float
    mean: float
    max: float

    def checks(self) -> Iterator[str]:
        yield from _ascending(self, "p50", "p95", "p99", "max")


@dataclass
class PoolShare(Record):
    """One tenant's traffic through the shared buffer pool (zero for a
    tenant the pool never served)."""

    hits: int = _min(0, default=0)
    misses: int = _min(0, default=0)
    bytes_read: int = _min(0, default=0)


@dataclass
class TenantRun(Record):
    """One tenant's closed-loop clients."""

    tenant: str
    clients: int = _min(1)
    queries: int
    errors: int
    wall_s: float = _positive()
    qps: float = _positive()
    latency_ms: Latency
    pool: PoolShare
    residency: dict[str, int]

    def checks(self) -> Iterator[str]:
        if self.errors:
            yield f"errors: {self.errors} requests got error responses"


@dataclass
class ServeTotals(Record):
    """Queries and q/s over every connection."""

    queries: int
    wall_s: float = _positive()
    qps: float = _positive()


@dataclass
class AdmissionWait(Record):
    """Admission-wait percentiles in milliseconds, over all tenants."""

    p50: float
    p95: float
    p99: float

    def checks(self) -> Iterator[str]:
        yield from _ascending(self, "p50", "p95", "p99")


@dataclass
class Observability(Record):
    """The traced pass after the timed load."""

    trace_sample_rate: float = _min(0)
    sampled_spans: int = _min(1)
    trace_span_events: int = _min(1)
    qlog_entries: int = _min(1)
    admission_wait_ms: AdmissionWait

    def checks(self) -> Iterator[str]:
        if self.trace_sample_rate > 1:
            yield f"trace_sample_rate {self.trace_sample_rate} > 1"


@dataclass(kw_only=True)
class Serve(Bench):
    """``BENCH_serve.json``: multi-tenant load on the query service."""

    schema_version: int = SCHEMA_VERSION
    experiment: str = "serve"
    field: FieldInfo
    workload: QueryWorkload
    smoke: bool
    server: ServerInfo
    tenants: list[TenantRun]
    totals: ServeTotals
    equivalence: Equivalence
    observability: Observability

    def checks(self) -> Iterator[str]:
        yield from super().checks()
        server = self.server
        if not self.smoke and server.tenants < 2:
            yield "server: a full run needs >= 2 tenants"
        if not self.smoke and server.tenants * server.clients_per_tenant < 8:
            yield "server: a full run drives >= 8 concurrent connections"
        if len(self.tenants) != server.tenants:
            yield f"{len(self.tenants)} tenant entries != server.tenants"
        for tenant in self.tenants:
            if tenant.queries != tenant.clients * self.workload.queries:
                yield f"tenants: {tenant.tenant}'s queries != clients x mix"
        if self.totals.queries != sum(t.queries for t in self.tenants):
            yield "totals: queries != the sum over tenants"


# -- shard --------------------------------------------------------------------

@dataclass
class RemoteTraffic(Record):
    """Object-store traffic summed over a sharded engine's disks."""

    fetches: int = _min(0)
    evictions: int = _min(0)
    local_hits: int = _min(0)
    #: A tiered run must upload pages.
    puts: int = _min(1)


@dataclass
class ShardPoint(Record):
    """One shard count of the scale-out sweep."""

    shards_requested: int
    shards_built: int = _min(1)
    verified: int
    mismatches: int
    page_reads: int = _min(1)
    device_ms: float = _positive()
    speedup: float = _positive()
    remote: RemoteTraffic

    def checks(self) -> Iterator[str]:
        if self.shards_built > self.shards_requested:
            yield "shards_built > shards_requested"
        if self.mismatches:
            yield f"mismatches: {self.mismatches} sharded answers differ"


@dataclass(kw_only=True)
class Shard(Bench):
    """``BENCH_shard.json``: the Hilbert-range scale-out sweep."""

    schema_version: int = SCHEMA_VERSION
    experiment: str = "shard"
    field: FieldInfo
    workload: QueryWorkload
    device_model: DeviceCosts
    smoke: bool
    remote_cache_pages: int = _min(1)
    baseline_device_ms: float = _positive()
    sweep: list[ShardPoint]
    equivalence: Equivalence

    def checks(self) -> Iterator[str]:
        yield from super().checks()
        counts = [point.shards_requested for point in self.sweep]
        if not counts or counts != sorted(set(counts)):
            yield f"shard counts {counts} not strictly ascending"
        if any(p.verified != self.workload.queries for p in self.sweep):
            yield "sweep: a shard count verified != workload queries"
        best = max((point.speedup for point in self.sweep), default=0.0)
        if not self.smoke and len(self.sweep) > 1 and best <= 1.0:
            yield f"best scale-out speedup {best} <= 1.0 (full runs only)"
        if self.equivalence.checked != self.workload.queries * len(counts):
            yield "equivalence: checked != workload queries x shard counts"


# -- micro --------------------------------------------------------------------

@dataclass
class Kernel(Record):
    """One kernel's timing rounds, in nanoseconds per operation."""

    ops_per_round: int = _min(1)
    rounds: int = _min(3)
    best_ns_per_op: float = _positive()
    median_ns_per_op: float
    total_s: float

    def checks(self) -> Iterator[str]:
        if self.median_ns_per_op < self.best_ns_per_op:
            yield "median_ns_per_op below best_ns_per_op"


@dataclass
class BulkIngest(Record):
    """``bulk_build``'s report on the large field."""

    method: str
    cells: int
    build_seconds: float
    cells_per_second: float = _positive()
    data_pages: int
    index_pages: int
    subfields: int | None


@dataclass
class IncrementalIngest(Record):
    """The per-insert build on a small field."""

    method: str
    cells: int
    build_seconds: float
    cells_per_second: float = _positive()
    note: str


@dataclass
class Ingest(Record):
    """Bulk load against per-insert ingestion."""

    bulk: BulkIngest
    incremental: IncrementalIngest
    speedup_bulk_vs_incremental: float


@dataclass
class MicroGate(Record):
    """The smoke gate's limit: best ns/op over the pinned run's."""

    max_ratio: float = _min(1.0, strict=True, default=1.5)


@dataclass(kw_only=True)
class Micro(Bench):
    """``BENCH_micro.json``: hot-path kernels and ingestion.

    A smoke run is given the committed record as ``pinned`` and gates
    every kernel's best ns/op at the pinned ``gate.max_ratio`` times
    the pinned value.
    """

    schema_version: int = SCHEMA_VERSION
    experiment: str = "micro"
    seed: int
    smoke: bool
    gate: MicroGate
    kernels: dict[str, Kernel]
    ingest: Ingest
    pinned: InitVar[Micro | None] = None

    def __post_init__(self, pinned: Micro | None) -> None:
        self._pinned = pinned

    def slowdowns(self) -> dict[str, float]:
        """Each kernel's best ns/op over the pinned run's (none unpinned)."""
        pins = self._pinned.kernels if self._pinned is not None else {}
        return {name: kernel.best_ns_per_op / pins[name].best_ns_per_op
                for name, kernel in self.kernels.items() if name in pins}

    def checks(self) -> Iterator[str]:
        yield from super().checks()
        yield from _missing("kernels", MICRO_KERNELS, self.kernels)
        ingest = self.ingest
        if not self.smoke and ingest.bulk.cells < MICRO_MIN_BULK_CELLS:
            yield (f"ingest.bulk: cells below {MICRO_MIN_BULK_CELLS:,} "
                   f"(full runs only)")
        if not self.smoke and \
                ingest.speedup_bulk_vs_incremental < MICRO_MIN_BULK_SPEEDUP:
            yield (f"ingest: speedup_bulk_vs_incremental below "
                   f"{MICRO_MIN_BULK_SPEEDUP}x (full runs only)")
        for name, ratio in self.slowdowns().items():
            if ratio > self._pinned.gate.max_ratio:
                yield f"kernels[{name}]: best ns/op {ratio:.2f}x the pinned"


# -- aggregate ----------------------------------------------------------------

@dataclass
class AggregateWorkload(Workload):
    """The query mix, asked as each aggregate kind."""

    kinds: list[str]

    def checks(self) -> Iterator[str]:
        yield from super().checks()
        yield from _missing("kinds", AGGREGATE_KINDS, self.kinds)


@dataclass
class ModelInfo(Record):
    """The fitted per-subfield polynomial aggregate models."""

    degree: int = _min(1)
    subfields: int = _min(1)
    nbytes: int
    fit_seconds: float = _min(0)
    weight: str

    def checks(self) -> Iterator[str]:
        if self.degree > 8:
            yield f"degree {self.degree} > 8"


@dataclass
class AggregateGate(Record):
    """The limit on hybrid-1pct wall time over exact wall time."""

    max_slowdown: float = _min(1.0, strict=True, default=1.5)


@dataclass
class AggregateConfig(Record):
    """One point of the accuracy-against-speed frontier."""

    name: str
    mode: str
    tolerance_frac: float | None
    wall_seconds: float = _positive()
    ops: int = _min(1)
    ops_per_second: float
    pages: int = _min(0)
    exact_subfields: int
    model_subfields: int
    max_abs_error: dict[str, float]
    max_rel_error_pct: float
    mean_rel_error_pct: float


@dataclass(kw_only=True)
class Aggregate(Bench):
    """``BENCH_aggregate.json``: the learned-model frontier."""

    schema_version: int = SCHEMA_VERSION
    experiment: str = "aggregate"
    field: FieldInfo
    workload: AggregateWorkload
    model: ModelInfo
    smoke: bool
    gate: AggregateGate
    totals: dict[str, float]
    configs: list[AggregateConfig]
    equivalence: Equivalence

    def checks(self) -> Iterator[str]:
        yield from super().checks()
        if not self.smoke and self.field.cells < 4096:
            yield "field: cells below 4,096 (full runs only)"
        if not self.smoke and self.workload.queries < 24:
            yield "workload: queries below 24 (full runs only)"
        by_name = {config.name: config for config in self.configs}
        if AGGREGATE_CONFIGS - set(by_name):
            yield from _missing("configs", AGGREGATE_CONFIGS, by_name)
            return
        exact, hybrid, model = (by_name[name] for name in
                                ("exact", "hybrid-1pct", "model"))
        if model.pages != 0:
            yield f"configs[model]: pages {model.pages}, not 0 for pure model"
        if exact.max_rel_error_pct != 0:
            yield "configs[exact]: max_rel_error_pct must be 0"
        if hybrid.wall_seconds > self.gate.max_slowdown * exact.wall_seconds:
            yield (f"configs[hybrid-1pct]: wall_seconds over "
                   f"gate.max_slowdown x exact's {exact.wall_seconds}")
        if not self.smoke and model.ops_per_second <= exact.ops_per_second:
            yield ("configs[model]: ops_per_second not above exact's "
                   "(full runs only)")


#: The record class of each growth experiment, by experiment name.
RECORDS: dict[str, type[Bench]] = {
    cls.experiment: cls
    for cls in (Throughput, Update, Serve, Shard, Micro, Aggregate)}


def _build(tp, value, path: str):
    """``value`` checked against the annotation ``tp``, records built."""
    if typing.get_origin(tp) in (typing.Union, types.UnionType):
        if value is None and type(None) in typing.get_args(tp):
            return None
        (tp,) = [arg for arg in typing.get_args(tp) if arg is not type(None)]
    origin = typing.get_origin(tp)
    if dataclasses.is_dataclass(tp):
        if not isinstance(value, dict):
            raise SchemaError(f"{path or 'top level'} must be an object")
        hints = typing.get_type_hints(tp)
        names = [f.name for f in dataclasses.fields(tp)]
        if sorted(value) != sorted(names):
            raise SchemaError(f"{path or 'top level'}: fields "
                              f"{sorted(value)} != {sorted(names)}")
        return tp(**{name: _build(hints[name], value[name],
                                  f"{path}.{name}" if path else name)
                     for name in names})
    if origin in (list, dict):
        if not isinstance(value, origin):
            raise SchemaError(f"{path} must be a {origin.__name__}")
        item = typing.get_args(tp)[-1]
        if origin is list:
            return [_build(item, v, f"{path}[{i}]")
                    for i, v in enumerate(value)]
        return {key: _build(item, v, f"{path}[{key}]")
                for key, v in value.items()}
    allowed = (int, float) if tp is float else tp
    if isinstance(value, bool) is not (tp is bool) \
            or not isinstance(value, allowed):
        raise SchemaError(f"{path} must be {tp.__name__}, got {value!r}")
    return value


def load(doc) -> Bench:
    """The record of one parsed ``BENCH_<experiment>.json`` document.

    Dispatches on ``doc["experiment"]`` and checks every value against
    its field's annotation (an ``int`` passes where a ``float`` is
    declared; ``bool`` never passes for a number).  Raises
    :class:`SchemaError` naming the first value that does not fit, and
    for a smoke run's document: smoke runs write no artifact, and their
    tiny fields skip the full-run bars.  Conditions on the values are
    :meth:`~Record.problems`, not load errors.
    """
    experiment = doc.get("experiment") if isinstance(doc, dict) else None
    if not isinstance(experiment, str) or experiment not in RECORDS:
        raise SchemaError(f"experiment {experiment!r} is not one of "
                          f"{sorted(RECORDS)}")
    record = _build(RECORDS[experiment], doc, "")
    if record.smoke:
        raise SchemaError("smoke: true, but only full runs write artifacts")
    return record
