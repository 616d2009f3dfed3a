"""Micro-benchmarks for the substrates underneath the access methods."""

import numpy as np
import pytest

from repro.curves import GrayCodeCurve, HilbertCurve2D, ZOrderCurve
from repro.field import DEMField, TINField, triangulate
from repro.geometry import Rect
from repro.rstar import RStarTree
from repro.storage import DiskManager, RecordStore
from repro.synth import fractal_dem_heights


@pytest.mark.parametrize("curve_cls", [HilbertCurve2D, ZOrderCurve,
                                       GrayCodeCurve],
                         ids=["hilbert", "zorder", "gray"])
def test_curve_vectorized_indices(benchmark, curve_cls):
    """Linearizing 65k cell centers (the I-Hilbert build hot loop)."""
    if curve_cls is HilbertCurve2D:
        curve = curve_cls(8)
    else:
        curve = curve_cls(8, 2)
    coords = np.stack(np.meshgrid(np.arange(256), np.arange(256)),
                      axis=-1).reshape(-1, 2)
    benchmark.group = "micro: curve linearization (65k points)"
    keys = benchmark(curve.indices, coords)
    assert len(keys) == 65536


def test_rstar_bulk_load(benchmark):
    rects = [Rect.from_interval(float(i), float(i + 3))
             for i in range(20000)]
    benchmark.group = "micro: R*-tree"

    def build():
        tree = RStarTree(dim=1)
        tree.bulk_load(rects, range(len(rects)))
        tree.flush()
        return tree

    tree = benchmark(build)
    assert len(tree) == 20000


def test_rstar_search(benchmark):
    tree = RStarTree(dim=1)
    rects = [Rect.from_interval(float(i), float(i + 3))
             for i in range(20000)]
    tree.bulk_load(rects, range(len(rects)))
    tree.flush()
    query = Rect.from_interval(10000.0, 10010.0)
    benchmark.group = "micro: R*-tree"
    hits = benchmark(tree.search, query)
    assert len(hits) == 14
    # Pin the traversal's node-visit count: a narrow interval query on a
    # bulk-loaded tree descends one root-to-leaf path plus the touched
    # leaves, so every visited node is one page read.  A regression in
    # the child-id expansion (``ids.tolist()``) that pushed wrong or
    # duplicate ids would change this count.
    tree.pool.clear()
    tree.disk.stats.reset()
    tree.search(query)
    visited = tree.disk.stats.page_reads
    assert tree.height == 2
    assert visited == 2      # root + the single overlapping leaf


def test_record_store_scan(benchmark):
    disk = DiskManager()
    dtype = np.dtype([("vmin", np.float32), ("vmax", np.float32),
                      ("pad", np.float32, (6,))])
    store = RecordStore(disk, dtype)
    records = np.zeros(65536, dtype=dtype)
    store.extend(records)
    benchmark.group = "micro: storage"

    def scan():
        return len(store.read_range(0, len(store) - 1))

    assert benchmark(scan) == 65536


def test_dem_estimate_area(benchmark):
    field = DEMField(fractal_dem_heights(128, 0.5, seed=0))
    records = field.cell_records()
    vr = field.value_range
    mid = (vr.lo + vr.hi) / 2
    benchmark.group = "micro: estimation step"
    area = benchmark(DEMField.estimate_area, records, vr.lo, mid)
    assert 0.0 < area < field.num_cells


def test_delaunay_1000_sites(benchmark):
    rng = np.random.default_rng(0)
    points = rng.uniform(0, 1000, size=(1000, 2))
    benchmark.group = "micro: Bowyer-Watson Delaunay"
    triangles = benchmark(triangulate, points)
    assert len(triangles) > 1900


def test_tin_estimate_area(benchmark):
    rng = np.random.default_rng(1)
    points = rng.uniform(0, 100, size=(2000, 2))
    values = points[:, 0] + points[:, 1]
    field = TINField(points, values)
    records = field.cell_records()
    benchmark.group = "micro: estimation step"
    area = benchmark(TINField.estimate_area, records, 50.0, 150.0)
    assert area > 0.0
