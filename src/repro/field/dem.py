"""Regular-grid DEM fields (paper §2.1, Fig. 1).

A continuous DEM samples the phenomenon at grid *vertices* and interpolates
inside each square cell.  Following the paper's experiments we use linear
interpolation, realized by splitting each square along its main diagonal
into two triangles (the within-cell value extremes then sit at vertices, so
cell intervals come straight from the four corner samples).

Cell records are self-contained: id, value interval, grid position and the
four corner values — everything the estimation step needs.
"""

from __future__ import annotations

import numpy as np

from ..geometry import Interval
from .base import Field
from .interpolation import (linear_triangle, triangle_band_curves,
                            triangle_band_fraction)

#: Record layout of one DEM cell (32 bytes → 128 records per 4 KiB page).
DEM_RECORD_DTYPE = np.dtype([
    ("cell_id", np.uint32),
    ("vmin", np.float32),
    ("vmax", np.float32),
    ("i", np.uint16),          # column (x) index of the cell
    ("j", np.uint16),          # row (y) index of the cell
    ("corners", np.float32, (4,)),   # v00, v10, v11, v01
])


class DEMField(Field):
    """A continuous field over a regular grid of sample points.

    Parameters
    ----------
    heights:
        ``(rows+1, cols+1)`` array of vertex sample values; entry
        ``heights[j, i]`` is the sample at grid position ``(x=i, y=j)``.
    cell_size:
        Spatial edge length of one square cell.
    """

    record_dtype = DEM_RECORD_DTYPE

    def __init__(self, heights: np.ndarray, cell_size: float = 1.0) -> None:
        heights = np.asarray(heights, dtype=np.float32)
        if heights.ndim != 2 or heights.shape[0] < 2 or heights.shape[1] < 2:
            raise ValueError(
                f"heights must be a (rows+1, cols+1) grid with at least "
                f"one cell, got shape {heights.shape}")
        if cell_size <= 0:
            raise ValueError(f"cell_size must be positive, got {cell_size}")
        self.heights = heights
        self.cell_size = float(cell_size)
        self.rows = heights.shape[0] - 1
        self.cols = heights.shape[1] - 1
        self._records: np.ndarray | None = None

    # -- structure ------------------------------------------------------

    @property
    def num_cells(self) -> int:
        return self.rows * self.cols

    @property
    def value_range(self) -> Interval:
        return Interval(float(self.heights.min()),
                        float(self.heights.max()))

    @property
    def bounds(self) -> tuple[float, float, float, float]:
        return (0.0, 0.0, self.cols * self.cell_size,
                self.rows * self.cell_size)

    def cell_id(self, i: int, j: int) -> int:
        """Dense id of the cell at column ``i``, row ``j``."""
        if not (0 <= i < self.cols and 0 <= j < self.rows):
            raise IndexError(f"cell ({i}, {j}) outside grid")
        return j * self.cols + i

    def cell_position(self, cell_id: int) -> tuple[int, int]:
        """Inverse of :meth:`cell_id`: ``(i, j)`` of a dense cell id."""
        if not 0 <= cell_id < self.num_cells:
            raise IndexError(f"cell id {cell_id} out of range")
        return (cell_id % self.cols, cell_id // self.cols)

    def cell_records(self) -> np.ndarray:
        if self._records is None:
            h = self.heights
            v00 = h[:-1, :-1]
            v10 = h[:-1, 1:]
            v11 = h[1:, 1:]
            v01 = h[1:, :-1]
            corners = np.stack([v00, v10, v11, v01], axis=-1)
            corners = corners.reshape(self.num_cells, 4)
            records = np.empty(self.num_cells, dtype=self.record_dtype)
            records["cell_id"] = np.arange(self.num_cells, dtype=np.uint32)
            records["vmin"] = corners.min(axis=1)
            records["vmax"] = corners.max(axis=1)
            ii, jj = np.meshgrid(np.arange(self.cols),
                                 np.arange(self.rows), indexing="xy")
            records["i"] = ii.ravel().astype(np.uint16)
            records["j"] = jj.ravel().astype(np.uint16)
            records["corners"] = corners
            self._records = records
        return self._records

    def cell_centroids(self) -> np.ndarray:
        ii, jj = np.meshgrid(np.arange(self.cols), np.arange(self.rows),
                             indexing="xy")
        xs = (ii.ravel() + 0.5) * self.cell_size
        ys = (jj.ravel() + 0.5) * self.cell_size
        return np.column_stack([xs, ys])

    def cell_interval(self, cell_id: int) -> Interval:
        rec = self.cell_records()[cell_id]
        return Interval(float(rec["vmin"]), float(rec["vmax"]))

    # -- live ingest ------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        """Grid sample points; vertex ``v`` sits at ``(x=v % (cols+1),
        y=v // (cols+1))``."""
        return (self.rows + 1) * (self.cols + 1)

    def apply_updates(self, vertex_ids: np.ndarray,
                      values: np.ndarray) -> np.ndarray:
        """Replace grid samples; return the ids of the cells they touch.

        An interior vertex is a corner of four cells, an edge vertex of
        two, a domain corner of one — the dirty set is exactly those
        neighbours, with the cached records (corners, interval) patched
        in place so ``cell_records()`` stays coherent without a rebuild.
        """
        vertex_ids = np.asarray(vertex_ids, dtype=np.int64).ravel()
        values = np.asarray(values, dtype=np.float32).ravel()
        if len(vertex_ids) != len(values):
            raise ValueError(
                f"{len(vertex_ids)} vertex ids vs {len(values)} values")
        if len(vertex_ids) == 0:
            return np.empty(0, dtype=np.int64)
        if vertex_ids.min() < 0 or vertex_ids.max() >= self.num_vertices:
            raise IndexError(
                f"vertex ids must lie in [0, {self.num_vertices}); got "
                f"[{vertex_ids.min()}, {vertex_ids.max()}]")
        vi = vertex_ids % (self.cols + 1)
        vj = vertex_ids // (self.cols + 1)
        self.heights[vj, vi] = values
        # Neighbouring cells (i-1..i, j-1..j), clipped to the grid.
        ci = np.stack([vi - 1, vi, vi - 1, vi])
        cj = np.stack([vj - 1, vj - 1, vj, vj])
        valid = ((ci >= 0) & (ci < self.cols)
                 & (cj >= 0) & (cj < self.rows))
        dirty = np.unique(cj[valid] * self.cols + ci[valid])
        if self._records is not None:
            h = self.heights
            i = dirty % self.cols
            j = dirty // self.cols
            corners = np.stack([h[j, i], h[j, i + 1],
                                h[j + 1, i + 1], h[j + 1, i]], axis=-1)
            self._records["corners"][dirty] = corners
            self._records["vmin"][dirty] = corners.min(axis=1)
            self._records["vmax"][dirty] = corners.max(axis=1)
        return dirty

    # -- conventional (Q1) queries ---------------------------------------

    def locate_cell(self, x: float, y: float) -> int:
        xmin, ymin, xmax, ymax = self.bounds
        if not (xmin <= x <= xmax and ymin <= y <= ymax):
            return -1
        i = min(int(x / self.cell_size), self.cols - 1)
        j = min(int(y / self.cell_size), self.rows - 1)
        return self.cell_id(i, j)

    def value_at(self, x: float, y: float) -> float:
        cell = self.locate_cell(x, y)
        if cell < 0:
            raise ValueError(f"point ({x}, {y}) outside the field domain")
        rec = self.cell_records()[cell]
        # Record triangles live in grid units; convert the query point.
        g = (x / self.cell_size, y / self.cell_size)
        for points, values in self.record_triangles(rec):
            if _triangle_contains(points, g):
                return linear_triangle(g, points, values)
        # Numerical edge: fall back to the nearest triangle's plane.
        points, values = self.record_triangles(rec)[0]
        return linear_triangle(g, points, values)

    # -- estimation step -------------------------------------------------

    @classmethod
    def record_triangles(cls, record: np.void) -> list[
            tuple[list[tuple[float, float]], list[float]]]:
        i = float(record["i"])
        j = float(record["j"])
        v00, v10, v11, v01 = (float(v) for v in record["corners"])
        p00, p10, p11, p01 = ((i, j), (i + 1, j), (i + 1, j + 1),
                              (i, j + 1))
        return [
            ([p00, p10, p11], [v00, v10, v11]),   # lower-right triangle
            ([p00, p11, p01], [v00, v11, v01]),   # upper-left triangle
        ]

    @classmethod
    def record_mbrs(cls, records: np.ndarray) -> np.ndarray:
        i = records["i"].astype(np.float64)
        j = records["j"].astype(np.float64)
        return np.column_stack([i, j, i + 1.0, j + 1.0])

    def to_record_space(self, x: float, y: float) -> tuple[float, float]:
        return (x / self.cell_size, y / self.cell_size)

    @classmethod
    def estimate_area(cls, records: np.ndarray, lo: float,
                      hi: float) -> float:
        """Vectorized answer-region area over candidate DEM records.

        The unit of area is one grid cell; multiply by ``cell_size²`` for
        spatial units.

        A cell whose four float64 samples all lie in ``[lo, hi]`` is
        interior: the kernel returns exactly 1.0 for both its triangles,
        so it gets 2.0 without running it.  Only the boundary cells run
        :func:`triangle_band_fraction`; the per-cell array, and so its
        sum, is bit for bit the one the kernel gives over every cell.
        """
        if len(records) == 0:
            return 0.0
        c = records["corners"].astype(np.float64)
        v00, v10, v11, v01 = c.T
        lowest = np.minimum(np.minimum(v00, v10), np.minimum(v11, v01))
        highest = np.maximum(np.maximum(v00, v10), np.maximum(v11, v01))
        # Negated so that a NaN sample makes its cell a boundary cell.
        boundary = ~((lowest >= lo) & (highest <= hi))
        per_cell = np.full(len(c), 2.0)
        b = c[boundary].T
        # One kernel call over both triangles of every boundary cell:
        # the lower ones (v00, v10, v11), then the upper ones
        # (v00, v11, v01).
        frac = triangle_band_fraction(np.concatenate([b[0], b[0]]),
                                      b[1:3].ravel(), b[2:4].ravel(), lo, hi)
        n = b.shape[1]
        per_cell[boundary] = frac[:n] + frac[n:]
        return float(per_cell.sum() * 0.5)

    @classmethod
    def band_area_curves(cls, records: np.ndarray,
                         thresholds: np.ndarray) -> tuple[
                             np.ndarray, np.ndarray, float]:
        """Both curves from one sweep over every cell's two triangles.

        :func:`triangle_band_curves` runs once over the lower and the
        upper triangle of every cell, each weighing half a cell, in
        O((n + g) log n) for n cells and g thresholds; it agrees with
        the generic per-threshold ``estimate_area`` loop to float
        rounding.
        """
        c = records["corners"].astype(np.float64)
        triangles = np.concatenate([c[:, [0, 1, 2]], c[:, [0, 2, 3]]])
        area_le, area_lt = triangle_band_curves(
            triangles, np.full(len(triangles), 0.5), thresholds)
        return area_le, area_lt, float(len(records))


def _triangle_contains(points, point, eps: float = 1e-9) -> bool:
    (x0, y0), (x1, y1), (x2, y2) = points
    px, py = point
    d1 = (x1 - x0) * (py - y0) - (px - x0) * (y1 - y0)
    d2 = (x2 - x1) * (py - y1) - (px - x1) * (y2 - y1)
    d3 = (x0 - x2) * (py - y2) - (px - x2) * (y0 - y2)
    has_neg = (d1 < -eps) or (d2 < -eps) or (d3 < -eps)
    has_pos = (d1 > eps) or (d2 > eps) or (d3 > eps)
    return not (has_neg and has_pos)
