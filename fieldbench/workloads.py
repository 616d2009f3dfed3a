"""The benchmark's three workloads and the run that measures one of them.

A run generates one *pass* — a seeded operation list — before anything
is timed, sets the system up ``setup_reps`` times (the median is
``setup_s``; the last set-up serves the timed phase), then runs whole
passes until ``--seconds`` have elapsed and every reported percentile
has enough samples.  After timing, every answer of every pass is checked
against the brute-force oracle.

Counts (pages, simulated device time, bytes written and stored) must be
identical in every pass: set-up ends with a warm-up over the pass's
last operations, so the first timed pass starts from the state every
later pass starts from (``update-mixed`` instead reopens its set-up
snapshot before each pass).  A pass that differs fails the run.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from repro.bench.experiments import QINTERVALS_FIG8
from repro.core import (EngineFacade, IHilbertIndex, ValueQuery, load_index,
                        save_index)
from repro.field.dem import DEMField
from repro.serve.client import ClientError, FieldClient
from repro.shard.engine import ShardedEngine
from repro.storage import IOStats
from repro.storage.remote import SimulatedObjectStore
from repro.synth import roseburg_like

from . import host
from .oracle import Oracle, aggregate_ok, query_ok
from .spans import LAYER_METRICS, Recorder, layer_metrics, span_counts
from .stats import device_ms, min_samples, percentile

AGG_KINDS = ("count", "sum", "area")
#: Hybrid aggregate tolerance, as a share of each kind's field total.
AGG_TOLERANCE = 0.01
FIELD = "terrain"
UPDATE_VERTICES = 8
UPDATE_SEED = 1
#: Seed of what is the same in every run: the order of a pass's
#: operations and the stratum each value interval takes.  ``--seed``
#: moves the intervals within their strata, so runs of different seeds
#: do nearly the same work: pages per query spread 0.3% over ten seeds,
#: against 2.6% when the seed chose the order too.
LAYOUT_SEED = 0
CLIENT_OPS = ("query", "batch", "aggregate", "update")

#: Workload sizes; ``smoke`` runs the same code on small inputs in seconds.
#: ``setup_reps`` set-ups are timed per run, more where one is short.
PARAMS = {
    "serve-read": {
        "full": dict(side=256, queries=480, batches=60, batch_size=8,
                     aggregates=60, setup_reps=3),
        "smoke": dict(side=48, queries=60, batches=6, batch_size=8,
                      aggregates=6, setup_reps=2),
    },
    "batch-sharded": {
        "full": dict(side=512, queries=96, batches=24, batch_size=16,
                     shards=4, remote_cache_pages=64, setup_reps=9),
        "smoke": dict(side=96, queries=24, batches=6, batch_size=16,
                      shards=4, remote_cache_pages=16, setup_reps=2),
    },
    "update-mixed": {
        "full": dict(side=256, rounds=40, compact_every=10, queries=6,
                     aggregates=3, setup_reps=3),
        "smoke": dict(side=48, rounds=6, compact_every=2, queries=4,
                      aggregates=2, setup_reps=2),
    },
}


# -- operation lists ----------------------------------------------------------

def intervals(rng, value_range, count: int) -> list[tuple[float, float]]:
    """``count`` value intervals of the Fig. 8a Qinterval mix.

    Position ``i`` takes Qinterval setting ``i mod 6`` of
    QINTERVALS_FIG8.  Within each setting the low endpoints are
    stratified over the feasible range, one per stratum, and the stratum
    each position takes is drawn from LAYOUT_SEED; ``rng`` only places
    each low endpoint within its stratum.  So every seed covers the
    value range evenly, and each position of a pass costs about the same
    whatever the seed.
    """
    lo0 = value_range.lo
    span = value_range.hi - value_range.lo
    layout = np.random.default_rng(LAYOUT_SEED)
    k = len(QINTERVALS_FIG8)
    strata = [layout.permutation(len(range(c, count, k))) for c in range(k)]
    u = rng.random(count)
    out = []
    for i in range(count):
        c = i % k
        length = QINTERVALS_FIG8[c] * span
        lo = lo0 + (strata[c][i // k] + u[i]) / len(strata[c]) \
            * (span - length)
        out.append((float(lo), float(lo + length)))
    return out


def read_ops(rng, value_range, p: dict) -> list[tuple]:
    """One pass of a read workload: single queries, batches, aggregates.

    The operations are shuffled in the order LAYOUT_SEED draws, the same
    for every seed, and rotated to end with a batch: a batch reads every
    disk and refills every cache, so the state a pass leaves behind is
    the state its last batch leaves, and a warm-up ending with that
    batch starts the first pass where every later pass starts.
    """
    size = p["batch_size"]
    members = intervals(rng, value_range, p["batches"] * size)
    ops = [("query", lo, hi)
           for lo, hi in intervals(rng, value_range, p["queries"])]
    ops += [("batch", tuple(members[i:i + size]))
            for i in range(0, len(members), size)]
    ops += [("aggregate", AGG_KINDS[i % len(AGG_KINDS)], lo, hi)
            for i, (lo, hi) in enumerate(
                intervals(rng, value_range, p.get("aggregates", 0)))]
    order = np.random.default_rng(LAYOUT_SEED).permutation(len(ops))
    ops = [ops[i] for i in order]
    last = max(i for i, op in enumerate(ops) if op[0] == "batch")
    return ops[last + 1:] + ops[:last + 1]


def warmup_ops(ops) -> list[tuple]:
    """First touches: one operation of each kind, then the pass's last
    operation (its final batch, for read workloads)."""
    firsts = {}
    for op in ops:
        firsts.setdefault(op[0], op)
    return [op for op in firsts.values() if op[0] != "compact"] + [ops[-1]]


def update_ops(rng, value_range, num_vertices: int, p: dict) -> list[tuple]:
    """One pass of update-mixed: rounds of one 8-vertex update, queries
    and aggregates, with compaction every ``compact_every`` rounds.

    ``rng`` places the queries and aggregates (see ``intervals``; a
    round's queries take the Qinterval settings in turn).  The update
    stream is drawn from UPDATE_SEED instead, as ``BENCH_update.json``
    seeds its update stream apart from its queries: vertices uniform
    over the grid, values uniform over the initial value range.  What
    one update costs depends on where it lands (refits of the subfields
    it touches, R*-tree migrations), so with a few dozen updates a pass,
    streams of different seeds differ by up to half in cost; one fixed
    stream makes runs of different seeds comparable.
    """
    rounds = p["rounds"]
    queries = intervals(rng, value_range, rounds * p["queries"])
    aggs = intervals(rng, value_range, rounds * p["aggregates"])
    stream = np.random.default_rng(UPDATE_SEED)
    ops = []
    for r in range(rounds):
        vids = stream.choice(num_vertices, size=UPDATE_VERTICES,
                             replace=False)
        vals = stream.uniform(value_range.lo, value_range.hi,
                              UPDATE_VERTICES).astype(np.float32)
        ops.append(("update", tuple(int(v) for v in vids),
                    tuple(float(v) for v in vals)))
        for lo, hi in queries[r * p["queries"]:(r + 1) * p["queries"]]:
            ops.append(("query", lo, hi))
        for k, (lo, hi) in enumerate(
                aggs[r * p["aggregates"]:(r + 1) * p["aggregates"]]):
            ops.append(("aggregate", AGG_KINDS[(r + k) % len(AGG_KINDS)],
                        lo, hi))
        if (r + 1) % p["compact_every"] == 0 and r + 1 < rounds:
            ops.append(("compact",))
    return ops


def value_queries(op) -> int:
    """Value queries an operation answers (batch members count once)."""
    if op[0] == "query":
        return 1
    return len(op[1]) if op[0] == "batch" else 0


def tolerances(index, value_range) -> dict[str, float]:
    """Absolute hybrid tolerance per aggregate kind: AGG_TOLERANCE of the
    field total, which the models hold exactly (zero pages)."""
    return {k: AGG_TOLERANCE * abs(index.aggregate(
        k, value_range.lo, value_range.hi, mode="model").value)
        for k in AGG_KINDS}


# -- the stock server ---------------------------------------------------------

class ServerProcess:
    """``python -m repro serve`` over one saved index, in a child process.

    With ``spans`` set, the benchmark's entry ``serve_traced.py`` runs
    the same CLI with the span wrappers installed and writes its span
    log to that path on exit.
    """

    def __init__(self, root: Path, work: Path, index_dir: Path,
                 tag: str, spans: Path | None = None) -> None:
        port_file = work / f"port-{tag}"
        self.spans = spans
        cmd = [sys.executable]
        cmd += ([str(root / "fieldbench" / "serve_traced.py"), str(spans)]
                if spans is not None else ["-m", "repro"])
        cmd += ["serve", f"{FIELD}={index_dir}", "--workers", "1",
                "--port-file", str(port_file)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([env["PYTHONPATH"]]
                                   if env.get("PYTHONPATH") else []))
        self.log_path = work / f"server-{tag}.log"
        self._log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(cmd, env=env, cwd=root,
                                     stdout=self._log,
                                     stderr=subprocess.STDOUT)
        deadline = time.monotonic() + 120.0
        while True:
            text = (port_file.read_text() if port_file.exists() else "")
            if text.endswith("\n"):
                break
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError(
                    f"server did not start: {self.log_path.read_text()}")
            time.sleep(0.005)
        host_name, port = text.split()
        self.client = FieldClient(host_name, int(port), timeout_s=60.0)

    def stop(self) -> None:
        """Close the connection, stop the server and wait for it."""
        client = getattr(self, "client", None)
        if client is not None:
            client.close()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


# -- workloads ----------------------------------------------------------------

class Workload:
    """One workload's system under test.

    ``execute`` runs one operation and returns ``(latency_ns, answer,
    counts, op_id)``; only the call itself is inside the latency.
    """

    name = ""
    user_bytes = 0

    def __init__(self, run: "Run") -> None:
        self.run = run
        self.p = run.params
        self.recorder = Recorder()
        self._next_op = 0

    def make_ops(self, rng) -> list[tuple]:
        raise NotImplementedError

    def setup(self, rep: int, ops: list) -> None:
        raise NotImplementedError

    def begin_pass(self, traced: bool, cpu: int) -> None:
        host.pin(0, cpu)
        if traced:
            self.recorder.install()

    def end_pass(self, traced: bool) -> dict:
        if traced:
            self.recorder.uninstall()
        return {}

    def execute(self, op, traced: bool):
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def processes(self) -> dict[str, int]:
        return {"bench": os.getpid()}

    def _op_id(self) -> int:
        self._next_op += 1
        self.recorder.op = self._next_op
        return self._next_op

    def layer_inputs(self, traced_passes) -> tuple:
        """``(spans, client_ns)`` of the traced passes."""
        return self.recorder.spans, None

    def layer_extras(self, traced_passes) -> dict:
        return {}

    def expected(self, ops) -> list:
        """Reference answer of every operation of one pass."""
        oracle = Oracle(self.field)
        out = []
        for op in ops:
            if op[0] == "query":
                out.append(oracle.query(op[1], op[2]))
            elif op[0] == "batch":
                out.append([oracle.query(lo, hi) for lo, hi in op[1]])
            elif op[0] == "aggregate":
                out.append(oracle.aggregate(op[1], op[2], op[3]))
            else:
                out.append(None)
        return out

    def final_checks(self, ops) -> tuple[int, int, list[str]]:
        """``(attempted, failed, notes)`` of end-of-run checks."""
        return 0, 0, []


class ServeRead(Workload):
    """FieldClient against the stock ``python -m repro serve``."""

    name = "serve-read"

    def __init__(self, run) -> None:
        super().__init__(run)
        self.servers: dict[bool, ServerProcess] = {}

    def make_ops(self, rng):
        self.field = roseburg_like(cells_per_side=self.p["side"])
        return read_ops(rng, self.field.value_range, self.p)

    def setup(self, rep, ops):
        field = roseburg_like(cells_per_side=self.p["side"])
        index = IHilbertIndex(field)
        index.fit_aggregate_models()
        index_dir = self.run.work / f"index-{rep}"
        save_index(index, index_dir)
        self.tol = tolerances(index, field.value_range)
        self.user_bytes = len(index.store) * index.store.dtype.itemsize
        self.space_bytes = ((index.data_pages + index.index_pages)
                            * index.page_size
                            + index.aggregate_models.nbytes)
        self.subfields = index.num_subfields
        for traced in ((False, True) if self.run.trace else (False,)):
            spans = (self.run.work / f"spans-{rep}.json" if traced
                     else None)
            self.servers[traced] = ServerProcess(
                self.run.root, self.run.work, index_dir,
                f"{rep}-{int(traced)}", spans)
            for op in warmup_ops(ops):
                self.execute(op, traced)

    def begin_pass(self, traced, cpu):
        # Client and server share the pass's CPU: the closed loop never
        # runs both at once, and a same-CPU wake-up avoids waking an
        # idle virtual CPU on every request.
        host.pin(0, cpu)
        host.pin(self.servers[traced].proc.pid, cpu)

    def end_pass(self, traced):
        return {"space_bytes": self.space_bytes}

    def execute(self, op, traced):
        client = self.servers[traced].client
        kind = op[0]
        t0 = time.perf_counter_ns()
        try:
            if kind == "query":
                resp = client.query(FIELD, op[1], op[2])
            elif kind == "batch":
                resp = client.batch(FIELD, op[1])
            else:
                resp = client.aggregate(FIELD, op[1], op[2], op[3],
                                        tolerance=self.tol[op[1]],
                                        mode="hybrid")
        except ClientError:
            return time.perf_counter_ns() - t0, None, {}, None
        lat = time.perf_counter_ns() - t0
        counts = {}
        if kind == "aggregate":
            answer = (resp["value"], resp["bound"])
        else:
            io = IOStats(**resp["io"])
            counts = {"pages": io.page_reads, "device_ms": device_ms(io)}
            answer = ((resp["candidates"], resp["area"]) if kind == "query"
                      else [(r["candidates"], r["area"])
                            for r in resp["results"]])
        return lat, answer, counts, resp["id"]

    def teardown(self):
        for server in self.servers.values():
            server.stop()
        self.servers = {}

    def processes(self):
        out = {"client": os.getpid()}
        for traced, server in self.servers.items():
            out["server-traced" if traced else "server"] = server.proc.pid
        return out

    def layer_inputs(self, traced_passes):
        server = self.servers[True]
        server.stop()
        spans = json.loads(server.spans.read_text())
        client_ns = {rec["op_id"]: rec["lat"] for p in traced_passes
                     for rec in p.ops}
        return spans, client_ns

    def layer_extras(self, traced_passes):
        return {"grouped.subfields": float(self.subfields)}


class BatchSharded(Workload):
    """In-process EngineFacade batches over Hilbert-range shards on a
    simulated object store."""

    name = "batch-sharded"

    def make_ops(self, rng):
        self.field = roseburg_like(cells_per_side=self.p["side"])
        return read_ops(rng, self.field.value_range, self.p)

    def setup(self, rep, ops):
        field = roseburg_like(cells_per_side=self.p["side"])
        self.store = SimulatedObjectStore()
        self.engine = ShardedEngine(
            field, n_shards=self.p["shards"], method="I-Hilbert",
            cache_pages=0, remote_store=self.store,
            remote_cache_pages=self.p["remote_cache_pages"])
        self.facade = EngineFacade(default_workers=1)
        self.facade.open_field(FIELD, self.engine)
        self.user_bytes = len(field.cell_records()) \
            * field.record_dtype.itemsize
        for op in warmup_ops(ops):
            self.execute(op, False)

    def begin_pass(self, traced, cpu):
        super().begin_pass(traced, cpu)
        self._remote0 = dict(self.engine.remote_counters()["total"])

    def end_pass(self, traced):
        super().end_pass(traced)
        remote = self.engine.remote_counters()["total"]
        return {"space_bytes": (self.engine.data_pages
                                + self.engine.index_pages)
                * self.engine.page_size,
                "local_hits": remote["local_hits"]
                - self._remote0["local_hits"],
                "fetches": remote["fetches"] - self._remote0["fetches"]}

    def execute(self, op, traced):
        op_id = self._op_id()
        gets, sim = self.store.gets, self.store.simulated_ms
        t0 = time.perf_counter_ns()
        if op[0] == "batch":
            result = self.facade.batch(FIELD, op[1])
        else:
            result = self.facade.query(FIELD, op[1], op[2])
        lat = time.perf_counter_ns() - t0
        remote_ms = self.store.simulated_ms - sim
        counts = {"pages": result.io.page_reads,
                  "device_ms": device_ms(result.io) + remote_ms,
                  "remote_ms": remote_ms,
                  "gets": self.store.gets - gets}
        answer = ((result.candidate_count, result.area) if op[0] == "query"
                  else [(r.candidate_count, r.area)
                        for r in result.results])
        return lat, answer, counts, op_id

    def teardown(self):
        self.store = self.engine = self.facade = None

    def layer_extras(self, traced_passes):
        p = traced_passes[0]
        queries = p.counts["value_queries"]
        hits, fetches = p.end["local_hits"], p.end["fetches"]
        return {
            "grouped.subfields": float(sum(
                rt.index.num_subfields for rt in self.engine.shards)),
            "remote.gets_per_query": p.counts["gets"] / queries,
            "remote.local_hit_rate": hits / (hits + fetches),
            "remote.sim_ms_per_query": p.counts["remote_ms"] / queries,
        }


class UpdateMixed(Workload):
    """In-process WAL-backed I-Hilbert index under live updates.

    Flush policy: every update is appended to the write-ahead log and
    fsynced before its pages are rewritten (the repository's default);
    pages live in the simulated in-memory disk and are never
    checkpointed during a pass.
    """

    name = "update-mixed"

    def make_ops(self, rng):
        self.field = roseburg_like(cells_per_side=self.p["side"])
        self.heights0 = self.field.heights.copy()
        return update_ops(rng, self.field.value_range,
                          self.field.num_vertices, self.p)

    def setup(self, rep, ops):
        field = DEMField(self.heights0.copy())
        index = IHilbertIndex(field)
        index.fit_aggregate_models()
        self.snapshot = self.run.work / f"snapshot-{rep}"
        save_index(index, self.snapshot)
        self.tol = tolerances(index, field.value_range)
        self.user_bytes = len(index.store) * index.store.dtype.itemsize
        self.facade = EngineFacade(default_workers=1)
        self._reset()
        for op in warmup_ops(ops):
            self.execute(op, False)

    def _reset(self) -> None:
        """Reopen the set-up snapshot with a fresh write-ahead log."""
        if FIELD in self.facade.field_names():
            self.index.wal.close()
            self.facade.close_field(FIELD)
        index = load_index(self.snapshot)
        # A reloaded index carries records but no vertex grid; give it
        # the set-up terrain back so vertex updates can run.
        index.field = DEMField(self.heights0.copy())
        self.wal_path = self.run.work / "updates.wal"
        self.wal_path.unlink(missing_ok=True)
        index.attach_wal(self.wal_path)
        index.subfield_drifts()   # first touch: cost baseline scan
        self.facade.open_field(FIELD, index)
        self.index = index

    def begin_pass(self, traced, cpu):
        self._reset()
        super().begin_pass(traced, cpu)

    def end_pass(self, traced):
        super().end_pass(traced)
        index = self.index
        return {"space_bytes": (index.data_pages + index.index_pages)
                * index.page_size + index.aggregate_models.nbytes,
                "subfields": index.num_subfields}

    def execute(self, op, traced):
        op_id = self._op_id()
        kind = op[0]
        index = self.index
        counts = {}
        writes0 = index.maint_stats.page_writes
        if kind in ("update", "compact"):
            wal0 = self.wal_path.stat().st_size
        t0 = time.perf_counter_ns()
        if kind == "query":
            result = self.facade.query(FIELD, op[1], op[2])
        elif kind == "aggregate":
            result = self.facade.aggregate(FIELD, op[1], op[2], op[3],
                                           tolerance=self.tol[op[1]],
                                           mode="hybrid")
        elif kind == "update":
            result = self.facade.update(FIELD, op[1], op[2])
        else:
            result = index.compact()
        lat = time.perf_counter_ns() - t0
        if kind == "query":
            answer = (result.candidate_count, result.area)
            counts = {"pages": result.io.page_reads,
                      "device_ms": device_ms(result.io)}
        elif kind == "aggregate":
            answer = (result.value, result.bound)
        else:
            page_writes = index.maint_stats.page_writes - writes0
            counts = {"write_bytes": page_writes * index.page_size
                      + self.wal_path.stat().st_size - wal0}
            if kind == "update":
                answer = result
                counts["user_bytes"] = result * index.store.dtype.itemsize
                counts["update_page_writes"] = page_writes
            else:
                answer = result["subfields_after"]
        return lat, answer, counts, op_id

    def expected(self, ops):
        oracle = Oracle(DEMField(self.heights0.copy()))
        out = []
        self.fresh_subfields = []
        for op in ops:
            if op[0] == "query":
                out.append(oracle.query(op[1], op[2]))
            elif op[0] == "aggregate":
                out.append(oracle.aggregate(op[1], op[2], op[3]))
            elif op[0] == "update":
                out.append(oracle.update(op[1], op[2]))
            else:
                fresh = IHilbertIndex(DEMField(oracle.field.heights.copy()))
                self.fresh_subfields.append(fresh.num_subfields)
                out.append(None)
        self.final_oracle = oracle
        return out

    def final_checks(self, ops):
        """The live index after the last pass, a fresh build over the
        updated terrain, and the set-up snapshot reopened with WAL
        replay must all answer like the oracle; the live store must
        hold exactly the oracle's records."""
        oracle = self.final_oracle
        notes = []
        live = self.index
        stored = np.concatenate(list(live.store.scan()))
        want = oracle.field.cell_records()[live.order]
        failed = int(stored.tobytes() != want.tobytes())
        if failed:
            notes.append("live store differs from the oracle's records")
        fresh = IHilbertIndex(DEMField(oracle.field.heights.copy()))
        replayed = load_index(self.snapshot)
        # Only value answers are compared: drop the models so replay
        # does not refit them.
        replayed.aggregate_models = None
        replayed.attach_wal(self.wal_path, replay=True)
        queries = [op for op in ops if op[0] == "query"][::4]
        for label, index in (("live", live), ("fresh build", fresh),
                             ("snapshot + WAL replay", replayed)):
            bad = 0
            for _, lo, hi in queries:
                r = index.query(ValueQuery(lo, hi))
                bad += not query_ok((r.candidate_count, r.area),
                                    oracle.query(lo, hi))
            if bad:
                notes.append(f"{label}: {bad} of {len(queries)} final "
                             f"queries differ from the oracle")
            failed += bad
        replayed.wal.close()
        return 1 + 3 * len(queries), failed, notes

    def layer_extras(self, traced_passes):
        p = traced_passes[0]
        ratios = [after / fresh for after, fresh in zip(
            [a for op, a in zip(self.run.ops, p.answers)
             if op[0] == "compact"], self.fresh_subfields)]
        updates = sum(1 for op in self.run.ops if op[0] == "update")
        return {
            "grouped.subfields": float(p.end["subfields"]),
            "records.pages_written_per_update":
                p.counts["update_page_writes"] / updates,
            "update.write_amp": write_amp(p.counts),
            "compact.subfields_after_ratio":
                sum(ratios) / len(ratios) if ratios else 0.0,
        }

    def teardown(self):
        if getattr(self, "index", None) is not None \
                and self.index.wal is not None:
            self.index.wal.close()
        self.index = self.facade = None


WORKLOADS = {w.name: w for w in (ServeRead, BatchSharded, UpdateMixed)}


def write_amp(counts: dict) -> float:
    """Bytes written (WAL + pages, compaction included) per byte of
    updated cell records."""
    user = counts.get("user_bytes", 0)
    return counts["write_bytes"] / user if user else 0.0


# -- the run ------------------------------------------------------------------

class Pass:
    """Latencies, answers and counts of one pass."""

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.ops: list[dict] = []
        self.answers: list = []
        self.counts: dict = {"value_queries": 0}
        self.wall_ns = 0
        self.end: dict = {}

    def add(self, op, lat, answer, counts, op_id) -> None:
        self.ops.append({"kind": op[0], "lat": lat, "op_id": op_id,
                         "nq": value_queries(op)})
        self.answers.append(answer)
        self.counts["value_queries"] += value_queries(op)
        for key, value in counts.items():
            self.counts[key] = self.counts.get(key, 0) + value

    def signature(self) -> dict:
        """Everything that must repeat exactly from pass to pass."""
        return {**self.counts, **self.end}


def op_kinds(passes) -> dict:
    """Operation id -> ``(kind, value queries)`` over ``passes``."""
    return {o["op_id"]: (o["kind"], o["nq"]) for p in passes for o in p.ops}


class Run:
    """One benchmark run of one workload."""

    def __init__(self, root: Path, workload: str, seed: int,
                 seconds: float, trace: bool, smoke: bool) -> None:
        self.root = root
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.smoke = smoke
        self.params = PARAMS[workload]["smoke" if smoke else "full"]
        self.state = root / ".fieldbench_work"
        self.work = self.state / f"run-{os.getpid()}"
        self.workload = WORKLOADS[workload](self)
        self.notes: list[str] = []

    def log(self, tag: str, payload) -> None:
        print(f"# {tag}: {json.dumps(payload, sort_keys=True)}",
              flush=True)

    def execute(self) -> dict:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        try:
            return self._execute()
        finally:
            self.workload.teardown()
            shutil.rmtree(self.work, ignore_errors=True)

    def _execute(self) -> dict:
        w = self.workload
        rng = np.random.default_rng(self.seed)
        self.ops = ops = w.make_ops(rng)
        setups = []
        for rep in range(self.params["setup_reps"]):
            # The previous set-up is stopped and freed outside the timer.
            w.teardown()
            gc.collect()
            t0 = time.perf_counter()
            w.setup(rep, ops)
            setups.append(time.perf_counter() - t0)
        self.log("setup_s", [round(s, 4) for s in setups])

        cpus = host.usable_cpus()
        procs = w.processes()
        cpu0 = {name: host.cpu_seconds(pid) for name, pid in procs.items()}
        ticks0 = host.cpu_ticks()
        calib0 = host.calibration_ms()
        passes = self._timed(ops, cpus)
        calib1 = host.calibration_ms()
        ticks1 = host.cpu_ticks()
        client_ops = sum(1 for p in passes for o in p.ops
                         if o["kind"] in CLIENT_OPS)
        self.log("host", {
            "cpus": cpus,
            "last_cpu": {name: host.last_cpu(pid)
                         for name, pid in procs.items()},
            "cpu_ms_per_op": {
                name: round((host.cpu_seconds(pid) - cpu0[name]) * 1e3
                            / client_ops, 4)
                for name, pid in procs.items()},
            "steal_share": host.steal_share(ticks0, ticks1, cpus),
            "calibration_ms": {"before": calib0, "after": calib1},
        })

        attempted, failed = self._check(ops, passes)
        spans = client_ns = None
        if self.trace:
            spans, client_ns = w.layer_inputs(
                [p for p in passes if p.traced])
            out = self.state / "spans" / f"{w.name}-{self.seed}.json"
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(json.dumps({
                "fields": ["name", "t0_ns", "t1_ns", "parent", "op", "info"],
                "spans": spans, "client_ns": client_ns,
                "ops": op_kinds([p for p in passes if p.traced])}))
            self.log("spans", str(out.relative_to(self.root)))
        guard_ok = self._guard(passes, spans)
        if self.trace:
            metrics = self._layer_metrics(passes, spans, client_ns)
        else:
            metrics = self._end_to_end(passes, setups)
        for note in self.notes:
            print(f"# FAIL: {note}", flush=True)
        return {"correct": failed == 0 and guard_ok and not self.notes,
                "attempted": attempted, "failed": failed,
                "metrics": metrics}

    # -- timing -------------------------------------------------------------

    def _timed(self, ops, cpus) -> list[Pass]:
        w = self.workload
        single = sum(1 for op in ops if op[0] == "query")
        # At least two passes, so counts can be compared between passes,
        # and enough of them for a query p90.
        need = max(2, -(-min_samples(90) // single))
        passes: list[Pass] = []
        while True:
            k = len(passes)
            traced = self.trace and k % 2 == 1
            # Traced runs take CPUs in pairs of passes (untraced, traced),
            # so each kind runs equally on both CPUs and trace.overhead
            # does not mix in the speed difference between them.
            w.begin_pass(traced, cpus[(k // 2 if self.trace else k) % 2])
            p = Pass(traced)
            t0 = time.perf_counter_ns()
            for op in ops:
                p.add(op, *w.execute(op, traced))
            p.wall_ns = time.perf_counter_ns() - t0
            p.end = w.end_pass(traced)
            passes.append(p)
            plain = [q for q in passes if not q.traced]
            elapsed = sum(q.wall_ns for q in passes) / 1e9
            if (elapsed >= self.seconds and len(plain) >= need
                    and (not self.trace or (len(passes) >= 4
                                            and len(passes) % 2 == 0))):
                return passes

    # -- correctness --------------------------------------------------------

    def _check(self, ops, passes) -> tuple[int, int]:
        """Compare every answer with the oracle; returns (attempted,
        failed).  Also runs the planted-fault self-test."""
        w = self.workload
        expected = w.expected(ops)
        tol = getattr(w, "tol", {})

        def failures(answers) -> int:
            bad = 0
            for op, got, want in zip(ops, answers, expected):
                if op[0] == "compact":
                    continue
                if got is None:
                    bad += 1
                elif op[0] == "query":
                    bad += not query_ok(got, want)
                elif op[0] == "batch":
                    bad += not (len(got) == len(want) and all(
                        query_ok(g, e) for g, e in zip(got, want)))
                elif op[0] == "aggregate":
                    bad += not aggregate_ok(got[0], got[1], want,
                                            tol[op[1]])
                else:
                    bad += got != want
            return bad

        attempted = failed = 0
        for p in passes:
            attempted += sum(1 for op in ops if op[0] != "compact")
            failed += failures(p.answers)
        # Self-test: one answer altered by one ulp of its area must be
        # reported as exactly one more failure.
        first = next(i for i, op in enumerate(ops) if op[0] == "query")
        planted = list(passes[0].answers)
        count, area = planted[first]
        planted[first] = (count, float(np.nextafter(area, np.inf)))
        if failures(planted) != failures(passes[0].answers) + 1:
            self.notes.append("self-test: a planted wrong answer was "
                              "not caught")
        more, bad, notes = w.final_checks(ops)
        self.notes += notes
        return attempted + more, failed + bad

    def _guard(self, passes, spans) -> bool:
        """Counts repeat exactly: every pass, and every run of this seed."""
        sigs = [p.signature() for p in passes]
        ok = all(s == sigs[0] for s in sigs)
        if not ok:
            self.notes.append(f"counts differ between passes: {sigs}")
        record = {"counts": sigs[0]}
        if self.trace:
            traced = [p for p in passes if p.traced]
            layer = [span_counts(spans, op_kinds([p])) for p in traced]
            if any(c != layer[0] for c in layer):
                ok = False
                self.notes.append(
                    f"per-layer counts differ between passes: {layer}")
            record["layer_counts"] = layer[0]
        path = self.state / "counts" / (
            f"{self.workload.name}-{self.seed}"
            f"{'-smoke' if self.smoke else ''}-{self._fingerprint()}.json")
        path.parent.mkdir(parents=True, exist_ok=True)
        if path.exists():
            earlier = json.loads(path.read_text())
            for key, value in record.items():
                if key in earlier and earlier[key] != json.loads(
                        json.dumps(value)):
                    ok = False
                    self.notes.append(
                        f"{key} differ from an earlier run of seed "
                        f"{self.seed}: {earlier[key]} != {value}")
            earlier.update(record)
            record = earlier
        path.write_text(json.dumps(record, sort_keys=True))
        return ok

    def _fingerprint(self) -> str:
        """Digest of the program and benchmark sources: counts are only
        compared between runs of identical code."""
        digest = hashlib.sha256()
        for top in ("src", "fieldbench"):
            for path in sorted((self.root / top).rglob("*.py")):
                digest.update(str(path.relative_to(self.root)).encode())
                digest.update(path.read_bytes())
        return digest.hexdigest()[:16]

    # -- metrics ------------------------------------------------------------

    def _end_to_end(self, passes, setups) -> dict:
        w = self.workload
        p0 = passes[0]
        wall_s = sum(p.wall_ns for p in passes) / 1e9
        client_ops = sum(1 for p in passes for o in p.ops
                         if o["kind"] in CLIENT_OPS)
        queries = sum(p.counts["value_queries"] for p in passes)
        lat = {kind: [o["lat"] / 1e6 for p in passes for o in p.ops
                      if o["kind"] == kind]
               for kind in CLIENT_OPS + ("compact",)}
        vq = p0.counts["value_queries"]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "ops_per_s": (client_ops / wall_s, "ops/s"),
            "queries_per_s": (queries / wall_s, "q/s"),
            "query_p50_ms": (percentile(lat["query"], 50), "ms"),
            "query_p90_ms": (percentile(lat["query"], 90), "ms"),
            "pages_per_query": (p0.counts["pages"] / vq, "pages"),
            "device_ms_per_query": (p0.counts["device_ms"] / vq, "ms"),
            "space_amp": (p0.end["space_bytes"] / w.user_bytes, "ratio"),
        }
        # Per-operation medians and write amplification are printed for
        # the workloads they apply to; they are not gated metrics.
        detail = {f"{kind}_p50_ms": round(statistics.median(v), 4)
                  for kind, v in lat.items() if len(v) >= min_samples(50)}
        detail["samples"] = {kind: len(v) for kind, v in lat.items() if v}
        detail["passes"] = len(passes)
        detail["timed_s"] = round(wall_s, 3)
        if p0.counts.get("user_bytes"):
            detail["write_amp"] = round(write_amp(p0.counts), 6)
        self.log("detail", detail)
        return {name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()}

    def _layer_metrics(self, passes, spans, client_ns) -> dict:
        w = self.workload
        traced = [p for p in passes if p.traced]
        plain = [p for p in passes if not p.traced]
        kinds = op_kinds(traced)

        def rate(group):
            ops = sum(1 for p in group for o in p.ops
                      if o["kind"] in CLIENT_OPS)
            return ops / (sum(p.wall_ns for p in group) / 1e9)

        extras = w.layer_extras(traced)
        extras["trace.overhead"] = 1.0 - rate(traced) / rate(plain)
        values = layer_metrics(spans, kinds, client_ns, extras)
        return {name: {"value": float(values[name]), "unit": unit}
                for name, (unit, _) in LAYER_METRICS.items()}
