"""Benchmarks for the beyond-the-paper extensions."""

import numpy as np
import pytest

from repro.core import (
    IHilbertIndex,
    PlannedIndex,
    ValueQuery,
    load_index,
    save_index,
)
from repro.field import VectorField, VolumeField
from repro.synth import fractal_dem_heights, roseburg_like

from conftest import query_for, run_cold_query


@pytest.fixture(scope="module")
def volume_index():
    rng = np.random.default_rng(0)
    base = rng.random((33, 33, 33)) * 10.0
    from scipy.ndimage import gaussian_filter
    return IHilbertIndex(VolumeField(gaussian_filter(base, 3.0)))


def test_volume_query(benchmark, volume_index):
    query = query_for(volume_index, 0.02)
    benchmark.group = "extensions: 3-D volume field"
    result = benchmark(run_cold_query, volume_index, query)
    assert result.candidate_count > 0


def test_vector_magnitude_area(benchmark):
    rng = np.random.default_rng(1)
    u = rng.uniform(-8, 8, (65, 65))
    v = rng.uniform(-8, 8, (65, 65))
    field = VectorField(u, v)
    vr = field.magnitude_range()
    lo = vr.lo + 0.4 * (vr.hi - vr.lo)
    hi = vr.lo + 0.5 * (vr.hi - vr.lo)
    benchmark.group = "extensions: vector magnitude"
    area = benchmark(field.magnitude_area, lo, hi, 4)
    assert area > 0.0


def test_index_save(benchmark, tmp_path_factory):
    field = roseburg_like(cells_per_side=128)
    index = IHilbertIndex(field)
    base = tmp_path_factory.mktemp("persist")
    counter = iter(range(10 ** 9))
    benchmark.group = "extensions: persistence"
    benchmark(lambda: save_index(index, base / f"i{next(counter)}"))


def test_index_load(benchmark, tmp_path_factory):
    field = roseburg_like(cells_per_side=128)
    index = IHilbertIndex(field)
    path = tmp_path_factory.mktemp("persist") / "idx"
    save_index(index, path)
    benchmark.group = "extensions: persistence"
    back = benchmark(load_index, path)
    assert back.num_subfields == index.num_subfields


def test_planner_decision_overhead(benchmark):
    from repro.field import DEMField
    field = DEMField(fractal_dem_heights(256, 0.9, seed=3))
    index = PlannedIndex(field)
    vr = field.value_range
    benchmark.group = "extensions: planner"
    plan = benchmark(index.plan, vr.lo + 1.0, vr.lo + 2.0)
    assert plan.path in ("filtered", "scan")


def test_update_cell(benchmark):
    field = roseburg_like(cells_per_side=64)
    index = IHilbertIndex(field)
    records = field.cell_records()
    counter = iter(range(10 ** 9))

    def update():
        cell = next(counter) % field.num_cells
        record = np.array(records[cell])
        record["vmax"] = record["vmax"] + 1.0
        index.update_cells([cell], [record])

    benchmark.group = "extensions: dynamic updates"
    benchmark(update)
    index.tree.check_invariants()
