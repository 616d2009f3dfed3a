"""Bulk-load ingestion: fast to build, indistinguishable once built.

Every build packs pages sequentially (sort by Hilbert key → one-pass
page pack → bottom-up R*-tree).  The one store fill must lay out the
page ids and bytes of a record-by-record append, and ``bulk_build``
must time an index a query cannot tell from a plain constructor call
(for I-All, from its per-insert tree): identical answers and
byte-identical data pages.  Persistence rides the same WAL/manifest
machinery, so a bulk-built index must scrub clean and survive a crash
at every save point with old-or-new semantics.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    EngineFacade,
    IAllIndex,
    IHilbertIndex,
    ValueQuery,
    bulk_build,
    load_index,
    save_index,
)
from repro.core.persist import SAVE_INDEX_CRASH_POINTS
from repro.field import DEMField
from repro.geometry import Rect
from repro.rstar import RStarTree
from repro.storage import DiskManager, RecordStore, SimulatedCrash, scrub_index
from repro.synth import fractal_dem_heights, lyon_like

FIELDS = {
    "dem": lambda: DEMField(fractal_dem_heights(24, 0.5, seed=17)),
    "tin": lambda: lyon_like(num_sites=180, seed=23),
}


def queries_for(field, n=15):
    rng = np.random.default_rng(99)
    vr = field.value_range
    span = vr.hi - vr.lo
    out = [ValueQuery(vr.lo, vr.hi)]
    for _ in range(n):
        lo = vr.lo + rng.random() * span
        out.append(ValueQuery(lo, min(vr.hi, lo + rng.random()
                                      * 0.15 * span)))
    return out


def _data_payloads(index) -> list[bytes]:
    disk = index.store.disk
    return [disk.read(pid) for pid in range(disk.num_pages)]


@pytest.mark.parametrize("fname", sorted(FIELDS))
@pytest.mark.parametrize("method", ["I-Hilbert", "I-All"])
def test_bulk_build_equals_incremental(fname, method):
    """Same answers, same page counts, byte-identical data pages."""
    field = FIELDS[fname]()
    cls = {"I-Hilbert": IHilbertIndex, "I-All": IAllIndex}[method]
    incremental = (cls(field) if method == "I-Hilbert"
                   else cls(field, bulk=False))
    bulk, report = bulk_build(field, method=method)
    assert report.cells == field.num_cells
    assert report.cells_per_second > 0
    # Page-count bound: the sequential pack reproduces the incremental
    # layout exactly, so the documented bound is equality.
    assert bulk.data_pages == incremental.data_pages
    assert _data_payloads(bulk) == _data_payloads(incremental)
    if method == "I-Hilbert":
        assert len(bulk.subfields) == len(incremental.subfields)
        assert bulk.subfields == incremental.subfields
    for query in queries_for(field):
        ri = incremental.query(query)
        rb = bulk.query(query)
        assert ri.candidate_count == rb.candidate_count, query
        assert ri.area == rb.area, query


def test_bulk_tree_pages_match_object_path():
    """bulk_load_arrays packs the same tree pages as Rect bulk_load."""
    rng = np.random.default_rng(5)
    n = 700
    lo = rng.random(n) * 100.0
    hi = lo + rng.random(n) * 3.0
    via_arrays = RStarTree(dim=1, disk=DiskManager(name="a"))
    via_arrays.bulk_load_arrays(lo, hi, np.arange(n, dtype=np.int64))
    via_arrays.flush()
    via_objects = RStarTree(dim=1, disk=DiskManager(name="b"))
    via_objects.bulk_load([Rect.from_interval(float(a), float(b))
                           for a, b in zip(lo, hi)], range(n))
    via_objects.flush()
    assert via_arrays.disk.num_pages == via_objects.disk.num_pages
    for pid in range(via_arrays.disk.num_pages):
        assert via_arrays.disk.read(pid) == via_objects.disk.read(pid)


def _appended_store(records) -> RecordStore:
    store = RecordStore(DiskManager(name="appended"), records.dtype)
    for record in records:
        store.append(record)
    return store


def _store_pages(store) -> tuple[dict, list[bytes]]:
    return store.manifest(), [store.disk.read(pid)
                              for pid in store.page_ids]


def test_bulk_extend_matches_extend_layout():
    """A page-aligned extend (whole pages written from input slices)
    lays out the page ids and bytes of a record-by-record append."""
    records = FIELDS["dem"]().cell_records()
    store = RecordStore(DiskManager(name="extended"), records.dtype)
    store.extend(records)
    assert len(records) % store.records_per_page     # a partial tail
    assert _store_pages(store) == _store_pages(_appended_store(records))


def test_bulk_extend_tail_fallback():
    """An extend onto a partial tail page tops the tail up first and
    still lays out the pages of a record-by-record append."""
    records = FIELDS["dem"]().cell_records()
    store = RecordStore(DiskManager(name="extended"), records.dtype)
    for start, stop in [(0, 3), (3, 5), (5, len(records))]:
        store.extend(records[start:stop])     # onto a partial tail
    assert len(records) - 5 > store.records_per_page
    assert _store_pages(store) == _store_pages(_appended_store(records))


def test_bulk_build_rejects_unknown_method():
    field = FIELDS["dem"]()
    with pytest.raises(ValueError, match="unknown method"):
        bulk_build(field, method="no-such-method")


def test_bulk_index_scrubs_clean(tmp_path):
    index, _ = bulk_build(FIELDS["dem"]())
    save_index(index, tmp_path / "idx")
    report = scrub_index(tmp_path / "idx")
    assert report.ok


@pytest.mark.parametrize("point", SAVE_INDEX_CRASH_POINTS)
def test_bulk_index_crash_safe_save(tmp_path, point):
    """save_index of a bulk-built index is old-or-new at every step."""
    directory = tmp_path / "idx"
    field = FIELDS["dem"]()
    old, _ = bulk_build(field)
    save_index(old, directory)
    old_answers = [old.query(q).area for q in queries_for(field, n=5)]

    new, _ = bulk_build(field, grouping=None)
    with pytest.raises(SimulatedCrash):
        save_index(new, directory, crash_point=point)
    back = load_index(directory)
    back_answers = [back.query(q).area for q in queries_for(field, n=5)]
    # Either complete version answers identically here (same field),
    # and the directory must still scrub clean — never a torn mixture.
    assert back_answers == old_answers
    assert scrub_index(directory).ok


def test_facade_bulk_build_and_query():
    facade = EngineFacade()
    field = FIELDS["dem"]()
    info = facade.bulk_build("terrain", field)
    assert info["bulk"]["cells"] == field.num_cells
    assert info["bulk"]["cells_per_second"] > 0
    direct = IHilbertIndex(field)
    for query in queries_for(field, n=5):
        got = facade.query("terrain", query.lo, query.hi)
        want = direct.query(query)
        assert got.area == want.area
        assert got.candidate_count == want.candidate_count


def test_cli_build_bulk(tmp_path, capsys):
    from repro.cli import main
    heights = fractal_dem_heights(16, 0.5, seed=3)
    np.save(tmp_path / "h.npy", heights)
    rc = main(["build", str(tmp_path / "h.npy"),
               str(tmp_path / "idx"), "--bulk"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "bulk load:" in out and "cells/s" in out
    assert scrub_index(tmp_path / "idx").ok
    reloaded = load_index(tmp_path / "idx")
    direct = IHilbertIndex(DEMField(heights))
    q = ValueQuery(*map(float, (heights.min(), heights.mean())))
    assert reloaded.query(q).area == direct.query(q).area
