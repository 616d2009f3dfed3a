"""Unit tests for DEMField against the paper's Fig. 1 example."""

import numpy as np
import pytest

from repro.field import DEMField
from repro.geometry import Interval


def test_shape_validation():
    with pytest.raises(ValueError):
        DEMField(np.zeros(4))
    with pytest.raises(ValueError):
        DEMField(np.zeros((1, 5)))
    with pytest.raises(ValueError):
        DEMField(np.zeros((3, 3)), cell_size=0.0)


def test_paper_fig1_structure(paper_dem):
    assert paper_dem.num_cells == 9
    assert paper_dem.rows == 3 and paper_dem.cols == 3
    assert paper_dem.value_range == Interval(40.0, 120.0)
    assert paper_dem.bounds == (0.0, 0.0, 3.0, 3.0)


def test_paper_fig1_cell_intervals(paper_dem):
    # Cell c1 (top-left in Fig. 1) has corners 40, 48, 60, 50.
    assert paper_dem.cell_interval(0) == Interval(40.0, 60.0)
    # Example query of §2.2.2: cells whose interval intersects [55, 59]
    # are c1..c4 (ids 0..3 in row-major order).
    hits = [cid for cid in range(9)
            if paper_dem.cell_interval(cid).intersects(Interval(55.0, 59.0))]
    assert hits == [0, 1, 2, 3]


def test_cell_id_roundtrip(paper_dem):
    for j in range(3):
        for i in range(3):
            cid = paper_dem.cell_id(i, j)
            assert paper_dem.cell_position(cid) == (i, j)


def test_cell_id_bounds(paper_dem):
    with pytest.raises(IndexError):
        paper_dem.cell_id(3, 0)
    with pytest.raises(IndexError):
        paper_dem.cell_position(9)


def test_records_are_self_contained(paper_dem):
    records = paper_dem.cell_records()
    assert len(records) == 9
    rec = records[0]
    assert rec["cell_id"] == 0
    assert tuple(rec["corners"]) == (40.0, 48.0, 60.0, 50.0)
    assert rec["vmin"] == 40.0 and rec["vmax"] == 60.0
    assert (rec["i"], rec["j"]) == (0, 0)


def test_centroids(paper_dem):
    centroids = paper_dem.cell_centroids()
    assert centroids.shape == (9, 2)
    assert tuple(centroids[0]) == (0.5, 0.5)
    assert tuple(centroids[8]) == (2.5, 2.5)


def test_value_at_vertices(paper_dem):
    heights = paper_dem.heights
    for j in (0, 1, 2, 3):
        for i in (0, 1, 2, 3):
            assert paper_dem.value_at(float(i), float(j)) == \
                pytest.approx(float(heights[j, i]), abs=1e-4)


def test_value_at_edge_midpoint_is_linear(paper_dem):
    # Midpoint of the edge between samples 40 and 48.
    assert paper_dem.value_at(0.5, 0.0) == pytest.approx(44.0, abs=1e-4)


def test_value_at_outside_raises(paper_dem):
    with pytest.raises(ValueError):
        paper_dem.value_at(-0.1, 0.0)
    with pytest.raises(ValueError):
        paper_dem.value_at(0.0, 3.5)


def test_locate_cell(paper_dem):
    assert paper_dem.locate_cell(0.5, 0.5) == 0
    assert paper_dem.locate_cell(2.5, 0.5) == 2
    assert paper_dem.locate_cell(2.5, 2.5) == 8
    # Domain boundary clamps into the last cell.
    assert paper_dem.locate_cell(3.0, 3.0) == 8
    assert paper_dem.locate_cell(3.1, 0.0) == -1


def test_cell_size_scales_domain():
    field = DEMField(np.zeros((3, 3)), cell_size=10.0)
    assert field.bounds == (0.0, 0.0, 20.0, 20.0)
    assert field.locate_cell(15.0, 5.0) == 1
    assert field.to_record_space(15.0, 5.0) == (1.5, 0.5)


def test_estimate_area_full_range_is_total(paper_dem):
    records = paper_dem.cell_records()
    area = DEMField.estimate_area(records, 40.0, 120.0)
    assert area == pytest.approx(9.0)


def test_estimate_area_complement(paper_dem):
    records = paper_dem.cell_records()
    low = DEMField.estimate_area(records, 40.0, 75.0)
    high = DEMField.estimate_area(records, 75.0, 120.0)
    assert low + high == pytest.approx(9.0)
    assert 0.0 < low < 9.0


def test_estimate_area_empty_inputs(paper_dem):
    records = paper_dem.cell_records()
    assert DEMField.estimate_area(records[:0], 0.0, 1.0) == 0.0
    assert DEMField.estimate_area(records, 200.0, 300.0) == 0.0


def test_record_triangles_cover_cell(paper_dem):
    rec = paper_dem.cell_records()[4]
    triangles = DEMField.record_triangles(rec)
    assert len(triangles) == 2
    total = 0.0
    for points, values in triangles:
        (x0, y0), (x1, y1), (x2, y2) = points
        total += abs((x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)) / 2.0
        assert len(values) == 3
    assert total == pytest.approx(1.0)


def test_record_mbrs(paper_dem):
    mbrs = DEMField.record_mbrs(paper_dem.cell_records())
    assert mbrs.shape == (9, 4)
    assert tuple(mbrs[0]) == (0.0, 0.0, 1.0, 1.0)
    assert tuple(mbrs[8]) == (2.0, 2.0, 3.0, 3.0)
