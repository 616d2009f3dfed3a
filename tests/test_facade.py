"""Engine facade: the one API the CLI, bench and serve layer share."""

import numpy as np
import pytest

from repro.core import (
    EngineFacade,
    FacadeError,
    FieldExistsError,
    IHilbertIndex,
    UnknownFieldError,
    ValueQuery,
    load_index,
)
from repro.field import DEMField


@pytest.fixture
def facade(smooth_dem):
    f = EngineFacade()
    f.open_field("terrain", IHilbertIndex(smooth_dem))
    return f


def test_open_from_index_object_and_describe(facade):
    info = facade.describe("terrain")
    assert info["field"] == "terrain"
    assert info["method"] == "I-Hilbert"
    assert info["source"] == "index-object"
    assert facade.field_names() == ["terrain"]


def test_open_from_field_object(smooth_dem):
    facade = EngineFacade()
    info = facade.open_field("f", smooth_dem)
    assert info["source"] == "field-object"
    assert facade.handle("f").index.field is smooth_dem


def test_open_from_npy_and_index_dir(tmp_path, smooth_dem):
    npy = tmp_path / "heights.npy"
    np.save(npy, smooth_dem.heights)
    facade = EngineFacade()
    facade.open_field("from-npy", npy)
    facade.snapshot("from-npy", tmp_path / "idx")
    facade.open_field("from-dir", tmp_path / "idx")
    a = facade.query("from-npy", 300.0, 320.0)
    b = facade.query("from-dir", 300.0, 320.0)
    assert a.candidate_count == b.candidate_count
    assert a.area == b.area


def test_open_duplicate_name_raises(facade, smooth_dem):
    with pytest.raises(FieldExistsError):
        facade.open_field("terrain", smooth_dem)


def test_open_unsupported_source_raises(tmp_path):
    bogus = tmp_path / "field.csv"
    bogus.write_text("1,2,3\n")
    with pytest.raises(FacadeError):
        EngineFacade().open_field("x", bogus)


def test_unknown_field_everywhere(facade):
    for call in (lambda: facade.query("nope", 0.0, 1.0),
                 lambda: facade.batch("nope", [(0.0, 1.0)]),
                 lambda: facade.update("nope", [0], [1.0]),
                 lambda: facade.describe("nope"),
                 lambda: facade.close_field("nope")):
        with pytest.raises(UnknownFieldError):
            call()


def test_query_matches_direct_index_call(facade, smooth_dem):
    direct = IHilbertIndex(smooth_dem).query(ValueQuery(300.0, 320.0))
    via = facade.query("terrain", 300.0, 320.0)
    assert via.candidate_count == direct.candidate_count
    assert via.area == direct.area


def test_batch_serial_and_parallel_agree(facade):
    queries = [(280.0, 300.0), (300.0, 320.0), (250.0, 260.0)]
    serial = facade.batch("terrain", queries, workers=1)
    parallel = facade.batch("terrain", queries, workers=3)
    for a, b in zip(serial.results, parallel.results):
        assert a.candidate_count == b.candidate_count
        assert a.area == b.area
    assert facade.handle("terrain").queries == 2 * len(queries)


def test_batch_accepts_value_query_objects(facade):
    batch = facade.batch("terrain", [ValueQuery(300.0, 320.0)])
    assert len(batch.results) == 1


def test_batch_and_update_refuse_nan(facade, smooth_dem):
    vr = smooth_dem.value_range
    full = facade.query("terrain", vr.lo, vr.hi)
    with pytest.raises(ValueError):
        facade.batch("terrain", [(float("nan"), vr.hi), (vr.lo, vr.hi)])
    with pytest.raises(ValueError, match=r"values\[0\]"):
        facade.update("terrain", [0, 1], [float("nan"), vr.lo])
    again = facade.query("terrain", vr.lo, vr.hi)
    assert again.candidate_count == full.candidate_count \
        == smooth_dem.num_cells
    assert again.area == full.area


def test_update_rewrites_cells_and_changes_answers(smooth_dem):
    facade = EngineFacade()
    facade.open_field("terrain", IHilbertIndex(smooth_dem))
    lo, hi = 10_000.0, 10_001.0
    before = facade.query("terrain", lo, hi)
    assert before.candidate_count == 0
    rewritten = facade.update("terrain", [0, 1, 4], [10_000.5] * 3)
    assert rewritten > 0
    assert facade.query("terrain", lo, hi).candidate_count > 0
    assert facade.handle("terrain").updates == rewritten


def test_update_without_field_data_raises(tmp_path, smooth_dem):
    facade = EngineFacade()
    facade.open_field("terrain", IHilbertIndex(smooth_dem))
    facade.snapshot("terrain", tmp_path / "idx")
    facade.open_field("reloaded", tmp_path / "idx")
    assert facade.handle("reloaded").index.field is None
    with pytest.raises(FacadeError):
        facade.update("reloaded", [0], [1.0])


def test_snapshot_roundtrip(tmp_path, facade):
    path = facade.snapshot("terrain", tmp_path / "snap")
    index = load_index(path)
    assert len(index.store) == len(facade.handle("terrain").index.store)


def test_tenant_attribution_through_query(facade, smooth_dem):
    vr = smooth_dem.value_range
    lo, hi = vr.lo, vr.hi
    facade.query("terrain", lo, hi, tenant="alice")
    facade.query("terrain", lo, hi, tenant="bob")
    facade.query("terrain", lo, hi)                # unattributed
    stats = facade.stats("terrain")
    tenants = stats["tenants"]
    assert set(tenants) == {"alice", "bob"}
    for entry in tenants.values():
        assert entry["hits"] + entry["misses"] > 0
    # The tenant bracket restores the pool attribute afterwards.
    assert facade.handle("terrain").index.store.pool.set_tenant(None) \
        is None


def test_stats_shape(facade):
    facade.query("terrain", 300.0, 320.0, tenant="alice")
    stats = facade.stats("terrain")
    assert stats["field"] == "terrain"
    assert stats["queries"] == 1
    assert set(stats["io"]) == {"page_reads", "random_reads",
                                "sequential_reads", "cache_hits",
                                "page_writes"}
    assert {"hits", "misses", "evictions", "capacity",
            "resident_pages"} <= set(stats["pool"])
    assert "residency" in stats
    everything = facade.stats()
    assert set(everything["fields"]) == {"terrain"}


def _mount(kind, dem, **kwargs):
    if kind == "sharded":
        from repro.shard import ShardedEngine
        return ShardedEngine(dem, n_shards=2, method="I-Hilbert", **kwargs)
    return IHilbertIndex(dem, **kwargs)


@pytest.mark.parametrize("kind", ["plain", "sharded"])
def test_stats_pool_block_covers_every_pool(kind, smooth_dem):
    facade = EngineFacade()
    index = _mount(kind, smooth_dem, cache_pages=64)
    facade.open_field("terrain", index)
    vr = smooth_dem.value_range
    facade.query("terrain", vr.lo, vr.hi, tenant="alice")
    facade.query("terrain", vr.lo, (vr.lo + vr.hi) / 2, tenant="bob")
    stats = facade.stats("terrain")
    pools = index.pools()
    # Every data and R*-tree pool holds frames, so each one counts.
    assert all(len(p) for p in pools)
    residency = stats["residency"]
    assert stats["pool"]["resident_pages"] \
        == residency["resident_pages"] == sum(len(p) for p in pools)
    assert sum(t["exclusive_pages"] for t in residency["tenants"].values()) \
        + residency["shared_pages"] + residency["unattributed_pages"] \
        == residency["resident_pages"]
    assert stats["pool"]["capacity"] == 64
    assert set(residency["tenants"]) == set(stats["tenants"]) \
        == {"alice", "bob"}


def test_sharded_batch_restores_each_pools_own_capacity(smooth_dem):
    engine = _mount("sharded", smooth_dem)
    facade = EngineFacade()
    facade.open_field("terrain", engine)
    engine.shards[0].index.store.pool.resize(8)
    assert [p.capacity for p in engine.pools()] == [8, 0, 0, 0]
    vr = smooth_dem.value_range
    facade.batch("terrain", [(vr.lo, vr.hi)])
    assert [p.capacity for p in engine.pools()] == [8, 0, 0, 0]


def test_close_field_forgets(facade):
    facade.close_field("terrain")
    assert facade.field_names() == []
    with pytest.raises(UnknownFieldError):
        facade.query("terrain", 0.0, 1.0)


def test_constructor_validation():
    with pytest.raises(ValueError):
        EngineFacade(default_workers=0)
    with pytest.raises(ValueError):
        EngineFacade(default_cache_pages=-1)
    facade = EngineFacade()
    with pytest.raises(ValueError):
        facade.open_field("x", DEMField(np.zeros((3, 3))), workers=0)
