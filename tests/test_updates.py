"""Live updates: vertex ingest, method equivalence, staleness, faults.

The paper never updates a field; DESIGN.md §9 defines our semantics —
``apply_updates`` replaces vertex values with absolute heights and every
access method must afterwards answer exactly like an index built from
scratch over the updated field.  This suite pins that contract (random
update streams, list and remote backends), the three satellite fixes
(buffer-pool blast radius, maintenance I/O attribution, planner
statistics freshness), the §3.1.2 cost-drift staleness metric with
``compact()``, and fault injection on updated pages.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    IAllIndex,
    IHilbertIndex,
    LinearScanIndex,
    PlannedIndex,
    ValueQuery,
)
from repro.core.planner import estimate_plan
from repro.field import DEMField, TINField
from repro.obs.metrics import REGISTRY
from repro.storage import (
    CorruptPageError,
    DiskManager,
    FaultInjector,
    RecordStore,
    RetryPolicy,
)
from repro.synth import fractal_dem_heights

from .backends import BACKENDS, disk_backend

METHODS = {
    "LinearScan": LinearScanIndex,
    "I-All": IAllIndex,
    "I-Hilbert": IHilbertIndex,
    "IH+planner": PlannedIndex,
}


def small_dem(seed=11, size=16):
    return DEMField(fractal_dem_heights(size, 0.5, seed=seed))


def probe_queries(field, count=6, seed=0):
    rng = np.random.default_rng(seed)
    vr = field.value_range
    span = vr.hi - vr.lo
    queries = [ValueQuery(vr.lo, vr.hi)]
    for _ in range(count):
        lo = vr.lo + rng.random() * span * 0.8
        queries.append(ValueQuery(lo, lo + rng.random() * span * 0.4))
    return queries


def answers(index, queries):
    out = []
    for q in queries:
        index.clear_caches()
        r = index.query(q)
        out.append((r.candidate_count, round(r.area, 9)))
    return out


# -- field-level ingest ------------------------------------------------------

def test_dem_interior_vertex_dirties_four_cells():
    field = small_dem()
    cols = field.heights.shape[1] - 1
    vid = 5 * (cols + 1) + 5                      # vertex (5, 5), interior
    dirty = field.apply_updates([vid], [999.0])
    expected = {4 * cols + 4, 4 * cols + 5, 5 * cols + 4, 5 * cols + 5}
    assert set(dirty.tolist()) == expected
    records = field.cell_records()
    assert all(records["vmax"][c] == 999.0 for c in expected)


def test_dem_corner_and_edge_vertices_dirty_fewer_cells():
    field = small_dem()
    cols = field.heights.shape[1] - 1
    assert len(field.apply_updates([0], [1.0])) == 1          # corner
    assert len(field.apply_updates([3], [1.0])) == 2          # top edge
    assert len(field.apply_updates([3 * (cols + 1)], [1.0])) == 2  # left edge


def test_dem_update_refreshes_cached_records_in_place():
    field = small_dem()
    before = field.cell_records().copy()
    dirty = field.apply_updates([0], [before["vmax"].max() + 50.0])
    after = field.cell_records()
    assert after["vmax"][dirty[0]] == before["vmax"].max() + np.float32(50.0)
    untouched = np.setdiff1d(np.arange(field.num_cells), dirty)
    assert np.array_equal(after[untouched], before[untouched])


def test_dem_apply_updates_validates():
    field = small_dem()
    with pytest.raises(ValueError):
        field.apply_updates([0, 1], [1.0])                 # length mismatch
    with pytest.raises(IndexError):
        field.apply_updates([field.num_vertices], [1.0])   # out of range
    with pytest.raises(IndexError):
        field.apply_updates([-1], [1.0])


def tin_field():
    rng = np.random.default_rng(4)
    points = rng.random((30, 2)) * 10
    values = rng.random(30).astype(np.float32) * 100
    return TINField(points, values)


def test_tin_update_dirties_exactly_incident_triangles():
    field = tin_field()
    vid = 7
    dirty = field.apply_updates([vid], [500.0])
    incident = np.nonzero((field.triangles == vid).any(axis=1))[0]
    assert np.array_equal(np.sort(dirty), np.sort(incident))
    records = field.cell_records()
    assert all(records["vmax"][t] == 500.0 for t in dirty)


def test_update_is_idempotent():
    field_a, field_b = small_dem(), small_dem()
    ids, vals = [3, 40, 77], [5.0, 6.0, 7.0]
    field_a.apply_updates(ids, vals)
    field_b.apply_updates(ids, vals)
    field_b.apply_updates(ids, vals)        # absolute values: re-apply
    assert np.array_equal(field_a.heights, field_b.heights)
    assert np.array_equal(field_a.cell_records(), field_b.cell_records())


# -- the tentpole contract: equivalence with a fresh rebuild -----------------

@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("method", sorted(METHODS))
def test_update_stream_equals_fresh_rebuild(method, backend):
    """After any update stream, answers equal a from-scratch rebuild."""
    rng = np.random.default_rng(101)
    field = small_dem(seed=7)
    index = METHODS[method](field, disk_backend=disk_backend(backend))
    vr = field.value_range

    for _ in range(4):                       # four batches of updates
        count = int(rng.integers(5, 30))
        ids = rng.choice(field.num_vertices, size=count, replace=False)
        vals = rng.uniform(vr.lo - 10, vr.hi + 10,
                           size=count).astype(np.float32)
        dirty = index.apply_updates(ids, vals)
        assert len(dirty) > 0

    fresh = METHODS[method](DEMField(field.heights.copy()),
                            disk_backend=disk_backend(backend))
    queries = probe_queries(field, seed=5)
    assert answers(index, queries) == answers(fresh, queries)


def test_methods_agree_with_each_other_after_updates():
    rng = np.random.default_rng(55)
    field = small_dem(seed=9)
    indexes = [cls(DEMField(field.heights.copy()))
               for cls in METHODS.values()]
    ids = rng.choice(field.num_vertices, size=60, replace=False)
    vr = field.value_range
    vals = rng.uniform(vr.lo, vr.hi, size=60).astype(np.float32)
    dirty_sets = [ix.apply_updates(ids, vals) for ix in indexes]
    for d in dirty_sets[1:]:
        assert np.array_equal(d, dirty_sets[0])
    queries = probe_queries(indexes[0].field, seed=3)
    reference = answers(indexes[0], queries)
    for ix in indexes[1:]:
        assert answers(ix, queries) == reference


def test_update_cells_validates_ids_before_journaling():
    index = IHilbertIndex(small_dem())
    with pytest.raises(IndexError):
        index.update_cells(
            np.asarray([10**9], dtype=np.int64),
            index.field.cell_records()[:1])
    with pytest.raises(ValueError):
        index.update_cells(np.asarray([0, 1], dtype=np.int64),
                           index.field.cell_records()[:1])


def test_apply_updates_requires_a_field():
    index = IHilbertIndex(small_dem())
    index.field = None
    with pytest.raises(ValueError, match="field"):
        index.apply_updates([0], [1.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e39])
@pytest.mark.parametrize("method", sorted(METHODS))
def test_non_finite_updates_change_nothing(method, bad, tmp_path):
    """NaN, ±inf, and finite values the float32 records cannot hold,
    are refused before the field, the pages or the WAL change."""
    field = small_dem()
    index = METHODS[method](field)
    wal = index.attach_wal(tmp_path / "updates.wal")
    heights = field.heights.copy()
    vr = field.value_range
    full = ValueQuery(vr.lo, vr.hi)
    before = index.query(full)
    with pytest.raises(ValueError, match=r"values\[1\]"):
        index.apply_updates([0, 1], [vr.lo, bad])
    records = field.cell_records()[:2].copy()
    with np.errstate(over="ignore"):
        records["vmax"][1] = bad
    with pytest.raises(ValueError, match=r"records\[1\]\.vmax"):
        index.update_cells(np.asarray([0, 1], dtype=np.int64), records)
    assert np.array_equal(field.heights, heights)
    assert field.value_range == vr
    assert not wal.pending
    after = index.query(full)
    assert after.candidate_count == before.candidate_count == \
        field.num_cells
    assert after.area == before.area
    wal.close()


def test_sharded_update_refuses_non_finite_before_routing():
    from repro.shard import ShardedEngine
    field = small_dem()
    engine = ShardedEngine(field, n_shards=2, method="I-Hilbert")
    # One record per shard; the bad one is routed second.
    ids = np.asarray([engine.shards[0].spec.start,
                      engine.shards[-1].spec.start], dtype=np.int64)
    ids = engine._order[ids]
    records = field.cell_records()[ids].copy()
    records["vmin"] -= 1000.0
    records["vmin"][1] = np.nan
    with pytest.raises(ValueError, match="not finite"):
        engine.update_cells(ids, records)
    vr = field.value_range
    low = ValueQuery(vr.lo - 2000.0, vr.lo - 500.0)
    assert engine.query(low).candidate_count == 0


def test_value_query_rejects_nan_bounds():
    for lo, hi in ((np.nan, 1.0), (0.0, np.nan), (np.nan, np.nan)):
        with pytest.raises(ValueError, match="must be numbers"):
            ValueQuery(lo, hi)


# -- satellite 1: buffer-pool blast radius -----------------------------------

def test_record_store_update_invalidates_only_the_written_page():
    dtype = np.dtype([("key", np.int64), ("value", np.float64)])
    disk = DiskManager(page_size=80)            # 4 records per page
    store = RecordStore(disk, dtype, cache_pages=8)
    for i in range(16):                         # 4 pages
        store.append((i, float(i)))
    store.get(0)                                # cache page 0
    store.get(5)                                # cache page 1

    store.update(5, (5, 99.0))                  # rewrites page 1 only

    misses_before = store.pool.misses
    store.get(0)                                # page 0 must still be hot
    assert store.pool.misses == misses_before   # no re-read: cache hit
    assert store.get(5)["value"] == 99.0        # page 1 re-read, fresh
    assert store.pool.misses == misses_before + 1   # page 1 was evicted
    assert store.get(1)["key"] == 1             # page 0 content intact


# -- satellite 2: maintenance I/O attribution --------------------------------

def test_maintenance_io_not_charged_to_query_stats():
    index = IHilbertIndex(small_dem())
    index.stats.reset()
    snapshot = index.stats.snapshot()
    record = index.field.cell_records()[3].copy()
    record["vmin"] -= 100.0
    index.update_cells([3], [record])
    assert index.stats.snapshot() == snapshot   # query counters pinned
    assert index.maint_stats.page_reads > 0
    assert index.maint_stats.page_writes > 0


def test_maintenance_metrics_keys():
    REGISTRY.reset()
    REGISTRY.enable()
    try:
        index = IHilbertIndex(small_dem())
        index.apply_updates([0], [999.0])
        names = {m["name"] for m in REGISTRY.collect()["metrics"]}
        assert "repro_cell_updates_total" in names
        assert "repro_maintenance_page_reads_total" in names
        assert "repro_maintenance_page_writes_total" in names
    finally:
        REGISTRY.disable()
        REGISTRY.reset()


# -- satellite 3: planner / statistics freshness -----------------------------

def test_statistics_reflect_updates():
    index = IHilbertIndex(small_dem())
    vr = index.field.value_range
    outside = vr.hi + 500.0
    assert index.statistics().estimate_candidates(outside - 1,
                                                  outside + 1) == 0
    index.apply_updates([0], [outside])
    est = index.statistics().estimate_candidates(outside - 1, outside + 1)
    assert est > 0


def test_estimate_plan_reflects_updated_intervals():
    index = IHilbertIndex(small_dem())
    vr = index.field.value_range
    outside_lo, outside_hi = vr.hi + 100.0, vr.hi + 200.0
    before = estimate_plan(index, outside_lo, outside_hi)
    assert before.est_pages == 0                # nothing up there yet
    index.apply_updates([0], [outside_lo + 50.0])
    after = estimate_plan(index, outside_lo, outside_hi)
    assert after.est_pages > 0                  # widened subfield seen


# -- staleness and compaction ------------------------------------------------

def test_staleness_grows_and_compact_restores():
    rng = np.random.default_rng(77)
    field = small_dem(seed=13, size=32)
    index = IHilbertIndex(field)
    assert index.staleness()["max_drift"] == 0.0

    vr = field.value_range
    ids = rng.choice(field.num_vertices, size=200, replace=False)
    vals = rng.uniform(vr.lo, vr.hi, size=200).astype(np.float32)
    index.apply_updates(ids, vals)
    degraded = index.staleness()
    assert degraded["max_drift"] > 0.0
    assert degraded["stale_subfields"] > 0

    queries = probe_queries(field, seed=2)
    before = answers(index, queries)
    report = index.compact()
    assert report["reclustered_cells"] > 0
    restored = index.staleness()
    assert restored["stale_subfields"] == 0
    assert restored["max_drift"] == pytest.approx(0.0, abs=1e-12)
    assert answers(index, queries) == before    # answers preserved


def test_compact_below_threshold_is_a_noop():
    index = IHilbertIndex(small_dem())
    report = index.compact(stale_threshold=1e9)
    assert report["reclustered_cells"] == 0
    assert report["subfields_before"] == report["subfields_after"]


def test_compact_charges_maintenance_not_query_stats():
    rng = np.random.default_rng(78)
    field = small_dem(seed=14, size=32)
    index = IHilbertIndex(field)
    vr = field.value_range
    ids = rng.choice(field.num_vertices, size=100, replace=False)
    vals = rng.uniform(vr.lo, vr.hi, size=100).astype(np.float32)
    index.apply_updates(ids, vals)
    index.stats.reset()
    maint_before = index.maint_stats.page_reads
    index.compact()
    assert index.stats.page_reads == 0
    assert index.maint_stats.page_reads > maint_before


# -- faults on updated pages -------------------------------------------------

@pytest.mark.parametrize("backend", BACKENDS)
def test_bit_flip_on_updated_page_is_detected(backend):
    index = IHilbertIndex(small_dem(), disk_backend=disk_backend(backend))
    index.apply_updates([0], [999.0])
    # Damage the page holding the updated record.
    rid = 0 if index.name == "LinearScan" else None
    page_no = 0
    page_id = index.store.page_ids[page_no]
    index.data_disk._flip_bit(page_id, byte_index=3, bit=2)
    index.clear_caches()
    vr = index.field.value_range
    with pytest.raises(CorruptPageError):
        index.query(ValueQuery(vr.lo, 999.0))
    assert rid is None or rid == 0              # silence unused warning


@pytest.mark.parametrize("backend", BACKENDS)
def test_skip_mode_degrades_gracefully_after_updates(backend):
    index = IHilbertIndex(small_dem(), disk_backend=disk_backend(backend))
    index.apply_updates([5], [999.0])
    page_id = index.store.page_ids[0]
    index.data_disk._flip_bit(page_id, byte_index=3, bit=2)
    index.clear_caches()
    vr = index.field.value_range
    result = index.query(ValueQuery(vr.lo, 999.0), on_fault="skip")
    assert result.degraded
    assert len(result.faults) == 1


@pytest.mark.parametrize("backend", BACKENDS)
def test_retry_policy_cures_transient_faults_during_update(backend):
    index = IHilbertIndex(
        small_dem(), disk_backend=disk_backend(backend),
        retry_policy=RetryPolicy(max_attempts=4))
    injector = index.inject_faults(FaultInjector(seed=3))
    injector.add("read_error", probability=0.2, max_faults=3)
    dirty = index.apply_updates([0, 17], [999.0, -999.0])
    assert len(dirty) > 0
    fresh = IHilbertIndex(DEMField(index.field.heights.copy()))
    queries = probe_queries(index.field, seed=8)
    assert answers(index, queries) == answers(fresh, queries)
