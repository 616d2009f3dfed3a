"""Cross-shard equivalence matrix: sharding must never change an answer.

The contract, pinned over the Fig. 8a workload for shards 1/2/4/8 ×
{LinearScan, I-Hilbert, I-All} × {list, remote} (the sharded remote
case puts every shard in one object store via ``remote_store=``):

* **answers byte-identical** — the gathered candidate array (records
  and order) and the estimated area are bit-equal to the unsharded
  access method's, query by query;
* **data-page reads identical** — for LinearScan and I-Hilbert the
  per-query data-page read count equals the unsharded engine's (the
  sharded I-Hilbert inherits the *global* §3.1.2 grouping, clipped at
  page-aligned cuts, so it touches exactly the unsharded page set);
  for I-All — whose unsharded store is cell-ordered while shards are
  Hilbert-clustered — the read count is invariant across shard counts
  (every N-shard layout slices the same 1-shard clustered file at page
  boundaries);
* **fault schedules equivalent** — corrupting the page that holds a
  given run of the global Hilbert order produces the same degraded
  answer (same surviving candidates, same skipped cells) sharded or
  not, and a skip-mode fault in one shard never poisons the gather.

Per-shard index (R*-tree) page reads are *not* pinned: N small trees
are physically different structures from one big tree; the filtering
step's data I/O is the quantity the paper's cost model predicts.
"""

from __future__ import annotations

import contextlib

import numpy as np
import pytest

from repro.core import (BatchQueryEngine, IAllIndex, IHilbertIndex,
                        LinearScanIndex, ValueQuery)
from repro.core.base import FilterStep
from repro.core.batch import run_sequential
from repro.shard import ShardedEngine, ShardMapError
from repro.storage import (CorruptPageError, IOStats, PAGE_HEADER_SIZE,
                           PoolCounters, SimulatedObjectStore)
from repro.synth import roseburg_like
from repro.synth.queries import value_query_workload

from ..backends import BACKENDS, REMOTE_CACHE_PAGES, disk_backend

METHODS = {
    "LinearScan": LinearScanIndex,
    "I-All": IAllIndex,
    "I-Hilbert": IHilbertIndex,
}
SHARD_COUNTS = [1, 2, 4, 8]
#: Fig. 8a query-interval fractions (subset keeps the matrix fast).
QINTERVALS = [0.0, 0.04, 0.10]


@pytest.fixture(scope="module")
def field():
    return roseburg_like(cells_per_side=24)


@pytest.fixture(scope="module")
def workload(field):
    queries = []
    for q in QINTERVALS:
        queries.extend(
            value_query_workload(field.value_range, q, 3, seed=8))
    return queries


def sharded(field, backend, **kwargs):
    """A sharded engine on one backend id: local shards, or every shard
    in one fresh object store."""
    if backend == "remote":
        kwargs.update(remote_store=SimulatedObjectStore(),
                      remote_cache_pages=REMOTE_CACHE_PAGES)
    return ShardedEngine(field, **kwargs)


def run_queries(index, workload):
    """(candidate bytes, area, data-page reads) per query, caches cold.

    Data-page reads are the store pool's miss delta: with
    ``cache_pages=0`` every data-page access is a miss, and tree reads
    go through a different pool.
    """
    pools = ([rt.index.store.pool for rt in index.shards]
             if isinstance(index, ShardedEngine) else [index.store.pool])
    out = []
    for query in workload:
        before = sum(p.counters().misses for p in pools)
        result = index.query(query)
        reads = sum(p.counters().misses for p in pools) - before
        candidates = index._candidates(query.lo, query.hi)
        out.append((np.asarray(candidates).tobytes(), result.area, reads))
        index.clear_caches()
    return out


@pytest.fixture(scope="module")
def baselines(field, workload):
    """Unsharded runs, and the 1-shard I-All run (its clustered
    baseline), per (method, backend)."""
    runs = {}
    for method, cls in METHODS.items():
        for backend in BACKENDS:
            index = cls(field, cache_pages=0,
                        disk_backend=disk_backend(backend))
            runs[method, backend] = run_queries(index, workload)
            if method == "I-All":
                one = sharded(field, backend, n_shards=1, method=method,
                              cache_pages=0)
                runs["I-All-1shard", backend] = run_queries(one, workload)
    return runs


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("method", sorted(METHODS))
@pytest.mark.parametrize("n_shards", SHARD_COUNTS)
def test_matrix_answers_and_page_reads(field, workload, baselines,
                                       n_shards, method, backend):
    engine = sharded(field, backend, n_shards=n_shards, method=method,
                     cache_pages=0)
    got = run_queries(engine, workload)
    ref = baselines[method, backend]
    for i, ((rb, ra, rr), (gb, ga, gr)) in enumerate(zip(ref, got)):
        assert gb == rb, f"query {i}: candidate bytes differ"
        assert ga == ra, f"query {i}: area {ga} != {ra}"
        if method in ("LinearScan", "I-Hilbert"):
            assert gr == rr, f"query {i}: data reads {gr} != {rr}"
    if method == "I-All":
        # Invariant across shard counts: every layout slices the same
        # clustered file at page boundaries.
        one = baselines["I-All-1shard", backend]
        assert [g[2] for g in got] == [o[2] for o in one]


def test_requested_shards_may_collapse_never_exceed(field):
    for n in SHARD_COUNTS:
        engine = ShardedEngine(field, n_shards=n, method="LinearScan")
        assert 1 <= engine.shard_map.num_shards <= n


# -- fault-schedule equivalence ----------------------------------------------

def _flip_global_position(index, position, quantum):
    """Corrupt the stored page holding global Hilbert position ``position``
    (unsharded grouped index or sharded engine alike)."""
    if isinstance(index, ShardedEngine):
        for rt in index.shards:
            if rt.spec.start <= position < rt.spec.stop:
                page = (position - rt.spec.start) // quantum
                rt.index.data_disk._flip_bit(page, PAGE_HEADER_SIZE + 1, 3)
                return page
        raise AssertionError("position not owned by any shard")
    index.data_disk._flip_bit(position // quantum, PAGE_HEADER_SIZE + 1, 3)
    return position // quantum


@pytest.mark.parametrize("n_shards", [2, 4])
def test_fault_schedule_equivalence(field, n_shards):
    """Corrupting the same global run of cells degrades the sharded and
    unsharded engines identically: same surviving candidates, same
    skipped cells, one reported fault."""
    base = IHilbertIndex(field, cache_pages=0)
    engine = ShardedEngine(field, n_shards=n_shards, method="I-Hilbert",
                           cache_pages=0)
    quantum = engine.shard_map.page_quantum
    position = engine.shard_map.shards[-1].start  # first cell of last shard
    _flip_global_position(base, position, quantum)
    _flip_global_position(engine, position, quantum)

    vr = field.value_range
    query = ValueQuery(vr.lo, vr.hi)   # full range: touches every page
    with pytest.raises(CorruptPageError):
        base.query(query)
    with pytest.raises(CorruptPageError):
        engine.query(query)

    rb = base.query(query, on_fault="skip")
    rs = engine.query(query, on_fault="skip")
    assert rb.degraded and rs.degraded
    assert len(rb.faults) == len(rs.faults) == 1
    assert rb.candidate_count == rs.candidate_count
    assert rb.area == rs.area
    cb = FilterStep(base, "skip").run(query.lo, query.hi)
    cs = FilterStep(engine, "skip").run(query.lo, query.hi)
    assert sorted(cb["cell_id"]) == sorted(cs["cell_id"])


def test_skip_mode_degrades_one_shard_without_poisoning_gather(field):
    engine = ShardedEngine(field, n_shards=4, method="I-Hilbert",
                           cache_pages=0)
    victim = engine.shards[1]
    victim.index.data_disk._flip_bit(0, PAGE_HEADER_SIZE + 1, 3)
    vr = field.value_range
    result = engine.query(ValueQuery(vr.lo, vr.hi), on_fault="skip")
    assert result.degraded
    assert len(result.faults) == 1
    # Every cell of every healthy shard is still in the answer.
    survivors = set(
        FilterStep(engine, "skip").run(vr.lo, vr.hi)["cell_id"].tolist())
    for rt in engine.shards:
        if rt is victim:
            continue
        assert set(rt.index.store.read_range(
            0, len(rt.index.store) - 1)["cell_id"].tolist()) <= survivors
    # The skipped cells are exactly the victim's corrupted page.
    missing = set(range(field.num_cells)) - survivors
    assert len(missing) == min(engine.shard_map.page_quantum,
                               victim.spec.num_cells)


# -- execution engines over the coordinator ----------------------------------

def test_batch_and_parallel_engines_match_sequential(field, workload):
    base = IHilbertIndex(field, cache_pages=0)
    ref = [(r.candidate_count, r.area)
           for r in run_sequential(base, workload).results]
    engine = ShardedEngine(field, n_shards=3, method="I-Hilbert",
                           cache_pages=0)
    runs = []
    for workers in (1, 4):
        engine.clear_caches()
        engine.stats.reset()
        res = BatchQueryEngine(engine, workers=workers,
                               cache_pages=8).run(workload)
        assert [(r.candidate_count, r.area) for r in res.results] == ref
        runs.append(([r.io for r in res.results], res.io, res.pool))
    # Four workers reproduce one worker's per-query and batch I/O and
    # pool counters exactly.
    assert runs[0] == runs[1]


def test_multiprocessing_workers_match_in_process(field, workload):
    engine = ShardedEngine(field, n_shards=4, method="I-Hilbert",
                           cache_pages=0)
    expected = [engine.query(q) for q in workload]
    with engine.workers():
        got = [engine.query(q) for q in workload]
        with pytest.raises(Exception):
            engine.update_cells([0], field.cell_records()[:1])
    for e, g in zip(expected, got):
        assert g.candidate_count == e.candidate_count
        assert g.area == e.area
        assert g.io.page_reads == e.io.page_reads
    # Per-shard deltas stream back and sum to the coordinator total.
    assert len(engine.last_shard_io) == len(engine.shards)
    assert sum(d.page_reads for d in engine.last_shard_io) == \
        got[-1].io.page_reads


def test_worker_scatter_raises_typed_error_and_folds_io():
    """A raise-mode fault in a worker process surfaces as the typed
    storage error, and the coordinator folds the I/O of every shard
    step, the failed one too, exactly as the in-process scatter does."""
    field = roseburg_like(cells_per_side=32)
    engine = ShardedEngine(field, n_shards=2, method="I-Hilbert")
    last = engine.shards[-1].index
    last.data_disk._flip_bit(last.store.page_ids[1], byte_index=0, bit=0)
    vr = field.value_range
    seen = []
    for transport in (contextlib.nullcontext, engine.workers):
        engine.clear_caches()
        engine.stats.reset()
        with transport(), pytest.raises(CorruptPageError) as info:
            engine.query(ValueQuery(vr.lo, vr.hi))
        error = info.value
        seen.append((error.disk, error.page_id, str(error),
                     engine.stats.snapshot()))
    assert seen[0] == seen[1]
    assert seen[0][3].page_reads > 0


# -- updates -----------------------------------------------------------------

def test_updates_preserve_equivalence(field, workload, rng):
    base = IHilbertIndex(field, cache_pages=0)
    engine = ShardedEngine(field, n_shards=4, method="I-Hilbert",
                           cache_pages=0)
    ids = rng.choice(field.num_cells, size=60, replace=False)
    records = field.cell_records()[ids].copy()
    records["vmin"] -= 2.0
    records["vmax"] += 3.0
    base.update_cells(ids, records)
    engine.update_cells(ids, records)
    for query in workload:
        rb, rs = base.query(query), engine.query(query)
        assert rs.candidate_count == rb.candidate_count
        assert rs.area == rb.area
    cb = base._candidates(workload[0].lo, workload[0].hi)
    cs = engine._candidates(workload[0].lo, workload[0].hi)
    assert np.array_equal(np.sort(cb, order="cell_id"),
                          np.sort(cs, order="cell_id"))


def test_updates_are_walled_per_shard(field, tmp_path, rng):
    engine = ShardedEngine(field, n_shards=3, method="I-Hilbert",
                           cache_pages=0)
    wals = engine.attach_wal(tmp_path)
    assert len(wals) == 3
    ids = rng.choice(field.num_cells, size=30, replace=False)
    records = field.cell_records()[ids].copy()
    records["vmax"] += 1.0
    engine.update_cells(ids, records)
    # Each owning shard logged its sub-batch; files exist on disk.
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        [f"{rt.name}.wal" for rt in engine.shards]
    logged = sum(len(batch.cell_ids) for rt in engine.shards
                 for batch in (rt.index.wal.pending or []))
    assert logged == len(ids)


# -- rebalance + persistence keep answers ------------------------------------

def test_rebalance_and_reload_preserve_answers(field, workload, tmp_path):
    engine = ShardedEngine(field, n_shards=2, method="I-Hilbert",
                           cache_pages=0, map_dir=tmp_path / "map")
    ref = [(engine.query(q).candidate_count, engine.query(q).area)
           for q in workload]
    summary = engine.rebalance(max_cells=len(field.cell_records()) // 3)
    assert summary["splits"] >= 1
    assert [(engine.query(q).candidate_count, engine.query(q).area)
            for q in workload] == ref
    engine.save(tmp_path / "saved")
    loaded = ShardedEngine.load(tmp_path / "saved", field=field)
    assert [(loaded.query(q).candidate_count, loaded.query(q).area)
            for q in workload] == ref


def test_reloaded_engine_starts_with_clean_pools(tmp_path):
    """The shards' tail reads and the order-recovery scan of a reload
    leave no pool traffic, no frames and no IOStats behind."""
    engine = ShardedEngine(roseburg_like(cells_per_side=32), n_shards=2,
                           method="I-Hilbert")
    engine.save(tmp_path)
    loaded = ShardedEngine.load(tmp_path, cache_pages=8)
    assert [p.counters() for p in loaded.pools()] == \
        [PoolCounters()] * 4
    assert [len(p) for p in loaded.pools()] == [0] * 4
    assert loaded.stats == IOStats()
    assert [rt.index.stats for rt in loaded.shards] == [IOStats()] * 2


@pytest.mark.parametrize("damage", ["missing", "truncated", "altered"])
def test_damaged_shard_map_payload_refuses_to_load(field, tmp_path,
                                                   damage):
    engine = ShardedEngine(field, n_shards=2, method="I-Hilbert")
    engine.save(tmp_path)
    payload = next(tmp_path.glob("shard-map-*.json"))
    text = payload.read_bytes()
    if damage == "missing":
        payload.unlink()
    elif damage == "truncated":
        payload.write_bytes(text[:-1])
    else:
        # Same size: only the whole-file SHA-256 can tell.
        altered = text.replace(b'"curve_order": ', b'"curve_order":\t', 1)
        assert altered != text and len(altered) == len(text)
        payload.write_bytes(altered)
    problem = {"missing": "missing", "truncated": "size",
               "altered": "checksum mismatch"}[damage]
    with pytest.raises(ShardMapError,
                       match=f"shard-map payload {payload.name}: "
                             f".*{problem}"):
        ShardedEngine.load(tmp_path)
