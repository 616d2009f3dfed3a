"""Unit tests for dynamic updates and the access-path planner."""

import numpy as np
import pytest

from repro.core import (
    IHilbertIndex,
    LinearScanIndex,
    PlannedIndex,
    ValueQuery,
)


# ---------------------------------------------------------------- updates

def test_update_cell_grows_subfield_interval(smooth_dem):
    index = IHilbertIndex(smooth_dem)
    vr = smooth_dem.value_range
    # Records store float32: the spike must be representable exactly.
    spike = float(np.float32(vr.hi + 50.0))

    record = np.array(smooth_dem.cell_records()[10])
    record["corners"][:] = spike
    record["vmin"] = spike
    record["vmax"] = spike
    index.update_cells([10], [record])

    result = index.query(ValueQuery.exact(spike))
    assert result.candidate_count == 1
    got = index._candidates(spike, spike)
    assert int(got["cell_id"][0]) == 10
    index.tree.check_invariants()


def test_update_cell_shrinks_subfield_interval(mono_dem):
    index = IHilbertIndex(mono_dem)
    # Find the unique cell holding the global maximum.
    records = mono_dem.cell_records()
    top_cell = int(records["cell_id"][np.argmax(records["vmax"])])
    old_hi = float(records["vmax"].max())

    flat = np.array(records[top_cell])
    flat["corners"][:] = 0.0
    flat["vmin"] = 0.0
    flat["vmax"] = 0.0
    index.update_cells([top_cell], [flat])

    # Queries at the old maximum no longer hit that cell.
    got = {int(c) for c in
           index._candidates(old_hi, old_hi)["cell_id"]}
    assert top_cell not in got
    index.tree.check_invariants()


def test_update_cell_consistent_with_fresh_scan(smooth_dem, rng):
    index = IHilbertIndex(smooth_dem)
    records = np.array(smooth_dem.cell_records())
    for cell_id in (3, 99, 512):
        record = np.array(records[cell_id])
        new_vals = rng.random(4).astype(np.float32) * 10.0 + 500.0
        record["corners"] = new_vals
        record["vmin"] = new_vals.min()
        record["vmax"] = new_vals.max()
        index.update_cells([cell_id], [record])
        records[cell_id] = record

    for _ in range(10):
        lo = 495.0 + rng.random() * 20.0
        hi = lo + rng.random() * 5.0
        expected = set(records["cell_id"][
            (records["vmin"].astype(np.float64) <= hi)
            & (records["vmax"].astype(np.float64) >= lo)].tolist())
        got = {int(c) for c in index._candidates(lo, hi)["cell_id"]}
        assert got == expected


def test_update_cell_validates_id(smooth_dem):
    index = IHilbertIndex(smooth_dem)
    with pytest.raises(IndexError):
        index.update_cells([10 ** 9], smooth_dem.cell_records()[:1])


# ---------------------------------------------------------------- planner

def test_planner_picks_scan_for_full_range(smooth_dem):
    index = PlannedIndex(smooth_dem)
    vr = smooth_dem.value_range
    index.query(ValueQuery(vr.lo, vr.hi))
    assert index.last_plan is not None
    assert index.last_plan.path == "scan"


@pytest.fixture(scope="module")
def planner_index():
    """A field big enough that the filtered path can pay for its seeks."""
    from repro.field import DEMField
    from repro.synth import fractal_dem_heights
    field = DEMField(fractal_dem_heights(256, 0.9, seed=3))
    return PlannedIndex(field)


def test_planner_picks_filtered_for_narrow_query(planner_index):
    vr = planner_index.field.value_range
    planner_index.query(ValueQuery.exact(vr.lo + 0.1 * vr.length))
    assert planner_index.last_plan.path == "filtered"


def test_planner_results_match_reference(planner_index, rng):
    reference = LinearScanIndex(planner_index.field)
    vr = planner_index.field.value_range
    queries = [
        ValueQuery.exact(vr.lo + 0.05 * vr.length),   # sparse tail
        ValueQuery(vr.lo, vr.hi),                     # everything
    ]
    for _ in range(4):
        lo = vr.lo + rng.random() * vr.length
        hi = min(vr.hi, lo + rng.random() * 0.1 * vr.length)
        queries.append(ValueQuery(lo, hi))
    paths = set()
    for q in queries:
        a = planner_index.query(q)
        b = reference.query(q)
        paths.add(planner_index.last_plan.path)
        assert a.candidate_count == b.candidate_count
        assert a.area == pytest.approx(b.area)
    assert paths == {"filtered", "scan"}


def test_plan_estimates_are_metadata_only(smooth_dem):
    index = PlannedIndex(smooth_dem)
    index.clear_caches()
    before = index.stats.snapshot()
    vr = smooth_dem.value_range
    plan = index.plan(vr.lo, vr.lo + 1.0)
    assert index.stats.diff(before).page_reads == 0
    assert plan.filtered_cost > 0
    assert plan.scan_cost > 0


def test_plan_costs_monotone_in_query_width(smooth_dem):
    index = PlannedIndex(smooth_dem)
    vr = smooth_dem.value_range
    narrow = index.plan(vr.lo, vr.lo + 0.01 * vr.length)
    wide = index.plan(vr.lo, vr.hi)
    assert narrow.est_pages <= wide.est_pages
    assert narrow.filtered_cost <= wide.filtered_cost
    assert narrow.scan_cost == wide.scan_cost
