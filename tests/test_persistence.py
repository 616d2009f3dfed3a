"""Unit tests for disk snapshots and index save/load."""

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
    SnapshotError,
    load_disk,
    save_disk,
)
from repro.synth import roseburg_like


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
    # LinearScanIndex is not a grouped index; save_index is typed for
    # grouped indexes and must not accept it silently.
    index = LinearScanIndex(smooth_dem)
    with pytest.raises(AttributeError):
        save_index(index, tmp_path / "idx")


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
