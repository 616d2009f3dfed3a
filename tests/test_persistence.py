"""Unit tests for disk snapshots and index save/load."""

import json
from pathlib import Path

import pytest

from repro.core import (
    EngineFacade,
    IHilbertIndex,
    IntervalQuadtreeIndex,
    LinearScanIndex,
    PersistError,
    PlannedIndex,
    ValueQuery,
    load_index,
    save_index,
)
from repro.storage import (
    DiskManager,
    IOStats,
    PoolCounters,
    SnapshotError,
    load_disk,
    save_disk,
)
from repro.field import DEMField
from repro.synth import fractal_dem_heights, roseburg_like

#: An 8x8-cell DEM index with fitted models, saved by an earlier
#: ``save_index`` (the one that set the store's and the tree's
#: attributes by hand) over :func:`_committed_field`.
COMMITTED_INDEX = Path(__file__).parent / "data" / "dem8_index"


def _committed_field() -> DEMField:
    return DEMField(fractal_dem_heights(8, 0.5, seed=5))


def test_disk_snapshot_roundtrip(tmp_path):
    disk = DiskManager()
    for i in range(5):
        pid = disk.allocate()
        disk.write(pid, bytes([i]) * 100)
    path = tmp_path / "disk.pages"
    written = save_disk(disk, path)
    assert written == path.stat().st_size
    back = load_disk(path)
    assert back.num_pages == 5
    assert back.page_size == disk.page_size
    for i in range(5):
        assert back.read(i)[:100] == bytes([i]) * 100


def test_disk_snapshot_empty(tmp_path):
    disk = DiskManager()
    path = tmp_path / "empty.pages"
    save_disk(disk, path)
    assert load_disk(path).num_pages == 0


def test_disk_snapshot_rejects_garbage(tmp_path):
    path = tmp_path / "bogus.pages"
    path.write_bytes(b"not a snapshot at all")
    with pytest.raises(SnapshotError):
        load_disk(path)


def test_disk_snapshot_rejects_truncation(tmp_path):
    disk = DiskManager()
    disk.allocate()
    path = tmp_path / "trunc.pages"
    save_disk(disk, path)
    path.write_bytes(path.read_bytes()[:-100])
    with pytest.raises(SnapshotError):
        load_disk(path)


def test_index_roundtrip_dem(tmp_path, smooth_dem, rng):
    index = IHilbertIndex(smooth_dem)
    save_index(index, tmp_path / "idx")
    back = load_index(tmp_path / "idx")
    assert back.name == "I-Hilbert"
    assert back.num_subfields == index.num_subfields
    vr = smooth_dem.value_range
    for _ in range(12):
        lo = vr.lo + rng.random() * vr.length
        hi = min(vr.hi, lo + rng.random() * vr.length * 0.1)
        q = ValueQuery(lo, hi)
        index.clear_caches()
        back.clear_caches()
        a = index.query(q)
        b = back.query(q)
        assert a.candidate_count == b.candidate_count
        assert a.area == pytest.approx(b.area)
        assert a.io.page_reads == b.io.page_reads


def test_index_roundtrip_tin(tmp_path, small_tin):
    index = IntervalQuadtreeIndex(small_tin)
    save_index(index, tmp_path / "idx")
    back = load_index(tmp_path / "idx")
    vr = small_tin.value_range
    q = ValueQuery((vr.lo + vr.hi) / 2, (vr.lo + vr.hi) / 2 + 1.0)
    assert back.query(q).candidate_count == index.query(q).candidate_count


def test_index_roundtrip_regions_mode(tmp_path, smooth_dem):
    index = IHilbertIndex(smooth_dem)
    save_index(index, tmp_path / "idx")
    back = load_index(tmp_path / "idx")
    vr = smooth_dem.value_range
    q = ValueQuery.exact((vr.lo + vr.hi) / 2)
    a = index.query(q, estimate="regions")
    b = back.query(q, estimate="regions")
    assert len(a.regions) == len(b.regions)


def test_load_rejects_non_index_dir(tmp_path):
    with pytest.raises(PersistError):
        load_index(tmp_path)


def test_load_rejects_bad_format(tmp_path, smooth_dem):
    index = IHilbertIndex(smooth_dem)
    save_index(index, tmp_path / "idx")
    meta = (tmp_path / "idx" / "meta.json")
    meta.write_text(meta.read_text().replace('"format": 2',
                                             '"format": 99'))
    with pytest.raises(PersistError):
        load_index(tmp_path / "idx")


def test_save_rejects_non_grouped_semantics(tmp_path, smooth_dem):
    # LinearScanIndex is not a grouped index; save_index refuses it
    # with a typed error before writing anything.
    index = LinearScanIndex(smooth_dem)
    with pytest.raises(PersistError, match="LinearScan"):
        save_index(index, tmp_path / "idx")
    assert list(tmp_path.iterdir()) == []


def test_loaded_index_has_no_field(tmp_path, smooth_dem):
    index = IHilbertIndex(smooth_dem)
    save_index(index, tmp_path / "idx")
    back = load_index(tmp_path / "idx")
    assert back.field is None
    assert back.field_type.__name__ == "DEMField"


def test_reloaded_planner_keeps_planning(tmp_path):
    field = roseburg_like(cells_per_side=32)
    vr = field.value_range
    query = ValueQuery(vr.lo, vr.hi)
    index = PlannedIndex(field)
    before = index.query(query)
    save_index(index, tmp_path / "idx")
    back = load_index(tmp_path / "idx")
    after = back.query(query)
    assert type(back) is PlannedIndex
    assert back.last_plan.path == index.last_plan.path == "scan"
    assert after.io.page_reads == before.io.page_reads
    assert (after.candidate_count, after.area) \
        == (before.candidate_count, before.area)
    info = EngineFacade().open_field("terrain", tmp_path / "idx")
    assert info["method"] == "I-Hilbert+planner"


def test_committed_index_answers_like_a_fresh_build():
    fresh = IHilbertIndex(_committed_field())
    fresh.fit_aggregate_models()
    back = load_index(COMMITTED_INDEX)
    assert back.subfields == fresh.subfields
    assert back.store.manifest() == fresh.store.manifest()
    assert back.tree.manifest() == fresh.tree.manifest()
    vr = fresh.field.value_range
    span = vr.hi - vr.lo
    for a, b in [(0.0, 1.0), (0.1, 0.3), (0.45, 0.55), (0.5, 0.5),
                 (0.7, 0.95), (1.2, 1.5)]:
        lo, hi = vr.lo + a * span, vr.lo + b * span
        for index in (fresh, back):
            index.clear_caches()
        want = fresh.query(ValueQuery(lo, hi))
        got = back.query(ValueQuery(lo, hi))
        assert (got.candidate_count, got.area, got.io) == \
            (want.candidate_count, want.area, want.io)
        for kind in ("count", "area"):
            assert back.aggregate(kind, lo, hi, mode="model") == \
                fresh.aggregate(kind, lo, hi, mode="model")


def test_save_index_writes_the_committed_manifest(tmp_path):
    """The manifest bytes are pinned.  Only the model file's hash is
    masked: ``np.savez`` stamps the write time into the archive."""
    fresh = IHilbertIndex(_committed_field())
    fresh.fit_aggregate_models()
    save_index(fresh, tmp_path / "idx")

    def masked(directory):
        text = (directory / "meta.json").read_text()
        return text.replace(json.loads(text)["files"]["agg"]["sha256"], "")

    assert masked(tmp_path / "idx") == masked(COMMITTED_INDEX)


def test_reloaded_index_starts_with_clean_pools(tmp_path):
    """Reopening reads the partial tail page (and a WAL replay reads and
    writes pages); none of that shows in the pools or IOStats."""
    back = load_index(COMMITTED_INDEX, cache_pages=8)
    assert [p.counters() for p in back.pools()] == [PoolCounters()] * 2
    assert [len(p) for p in back.pools()] == [0, 0]
    assert back.stats == IOStats()
    fresh = IHilbertIndex(_committed_field())
    save_index(fresh, tmp_path / "idx")
    fresh.attach_wal(tmp_path / "idx" / "wal.log")
    records = fresh.field.cell_records()[[3]].copy()
    records["vmax"] += 1.0
    fresh.update_cells([3], records)
    fresh.wal.close()
    replayed = load_index(tmp_path / "idx", cache_pages=8)
    replayed.wal.close()
    assert [p.counters() for p in replayed.pools()] == [PoolCounters()] * 2
    assert [len(p) for p in replayed.pools()] == [0, 0]
    assert (replayed.stats, replayed.maint_stats) == (IOStats(), IOStats())
