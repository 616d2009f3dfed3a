"""Triangulated irregular networks (paper §2.1).

A TIN carries sample points at triangle vertices; linear (barycentric)
interpolation inside each triangle makes the field continuous.  Cell value
intervals are simply the min/max of the three vertex samples.

Cell records are self-contained (vertex coordinates and values inline) so
the estimation step can run from disk pages alone, mirroring the paper's
leaf layout (Fig. 6).
"""

from __future__ import annotations

import numpy as np

from ..geometry import Interval
from .base import Field
from .delaunay import triangulate
from .interpolation import (linear_triangle, triangle_band_curves,
                            triangle_band_fraction)

#: Record layout of one TIN cell (triangle): 52 bytes → 78 per 4 KiB page.
TIN_RECORD_DTYPE = np.dtype([
    ("cell_id", np.uint32),
    ("vmin", np.float32),
    ("vmax", np.float32),
    ("xs", np.float32, (3,)),
    ("ys", np.float32, (3,)),
    ("vs", np.float32, (3,)),
])


class TINField(Field):
    """A continuous field over an irregular triangulation.

    Parameters
    ----------
    points:
        ``(n, 2)`` sample positions.
    values:
        ``(n,)`` sample values.
    triangles:
        Optional ``(m, 3)`` vertex-index triples.  When omitted the
        Delaunay triangulation is computed with the built-in
        Bowyer–Watson implementation.
    """

    record_dtype = TIN_RECORD_DTYPE

    def __init__(self, points: np.ndarray, values: np.ndarray,
                 triangles: np.ndarray | None = None) -> None:
        points = np.asarray(points, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != 2:
            raise ValueError(
                f"expected (n, 2) points, got shape {points.shape}")
        if len(points) != len(values):
            raise ValueError(
                f"{len(points)} points vs {len(values)} values")
        if triangles is None:
            triangles = triangulate(points)
        triangles = np.asarray(triangles, dtype=np.int64)
        if triangles.ndim != 2 or triangles.shape[1] != 3:
            raise ValueError(
                f"expected (m, 3) triangles, got shape {triangles.shape}")
        if len(triangles) == 0:
            raise ValueError("a TIN needs at least one triangle")
        if triangles.min() < 0 or triangles.max() >= len(points):
            raise ValueError("triangle indices out of range")
        self.points = points
        self.values = values
        self.triangles = triangles
        self._records: np.ndarray | None = None
        self._edge_neighbors: dict | None = None

    # -- structure ------------------------------------------------------

    @property
    def num_cells(self) -> int:
        return len(self.triangles)

    @property
    def value_range(self) -> Interval:
        return Interval(float(self.values.min()), float(self.values.max()))

    @property
    def bounds(self) -> tuple[float, float, float, float]:
        lo = self.points.min(axis=0)
        hi = self.points.max(axis=0)
        return (float(lo[0]), float(lo[1]), float(hi[0]), float(hi[1]))

    def cell_records(self) -> np.ndarray:
        if self._records is None:
            tri = self.triangles
            records = np.empty(self.num_cells, dtype=self.record_dtype)
            records["cell_id"] = np.arange(self.num_cells, dtype=np.uint32)
            vs = self.values[tri].astype(np.float32)
            records["vs"] = vs
            records["vmin"] = vs.min(axis=1)
            records["vmax"] = vs.max(axis=1)
            records["xs"] = self.points[tri, 0].astype(np.float32)
            records["ys"] = self.points[tri, 1].astype(np.float32)
            self._records = records
        return self._records

    def cell_centroids(self) -> np.ndarray:
        return self.points[self.triangles].mean(axis=1)

    def cell_interval(self, cell_id: int) -> Interval:
        rec = self.cell_records()[cell_id]
        return Interval(float(rec["vmin"]), float(rec["vmax"]))

    # -- live ingest ------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        """Sample points of the triangulation."""
        return len(self.points)

    def apply_updates(self, vertex_ids: np.ndarray,
                      values: np.ndarray) -> np.ndarray:
        """Replace vertex samples; return the incident triangle ids.

        Positions are immutable (the triangulation does not change) —
        only values move, so the dirty set is exactly the triangles
        incident to the updated vertices.  Cached records are patched
        in place.
        """
        vertex_ids = np.asarray(vertex_ids, dtype=np.int64).ravel()
        new_values = np.asarray(values, dtype=np.float64).ravel()
        if len(vertex_ids) != len(new_values):
            raise ValueError(
                f"{len(vertex_ids)} vertex ids vs {len(new_values)} values")
        if len(vertex_ids) == 0:
            return np.empty(0, dtype=np.int64)
        if vertex_ids.min() < 0 or vertex_ids.max() >= self.num_vertices:
            raise IndexError(
                f"vertex ids must lie in [0, {self.num_vertices}); got "
                f"[{vertex_ids.min()}, {vertex_ids.max()}]")
        self.values[vertex_ids] = new_values
        touched = np.isin(self.triangles, vertex_ids).any(axis=1)
        dirty = np.nonzero(touched)[0].astype(np.int64)
        if self._records is not None and len(dirty):
            vs = self.values[self.triangles[dirty]].astype(np.float32)
            self._records["vs"][dirty] = vs
            self._records["vmin"][dirty] = vs.min(axis=1)
            self._records["vmax"][dirty] = vs.max(axis=1)
        return dirty

    # -- conventional (Q1) queries ---------------------------------------

    def locate_cell(self, x: float, y: float) -> int:
        for cell_id in range(self.num_cells):
            if self._contains(cell_id, x, y):
                return cell_id
        return -1

    def value_at(self, x: float, y: float) -> float:
        cell = self.locate_cell(x, y)
        if cell < 0:
            raise ValueError(f"point ({x}, {y}) outside the field domain")
        tri = self.triangles[cell]
        pts = [tuple(p) for p in self.points[tri]]
        vals = [float(v) for v in self.values[tri]]
        return linear_triangle((x, y), pts, vals)

    # -- estimation step -------------------------------------------------

    @classmethod
    def record_triangles(cls, record: np.void) -> list[
            tuple[list[tuple[float, float]], list[float]]]:
        points = [(float(record["xs"][k]), float(record["ys"][k]))
                  for k in range(3)]
        values = [float(record["vs"][k]) for k in range(3)]
        return [(points, values)]

    @classmethod
    def record_mbrs(cls, records: np.ndarray) -> np.ndarray:
        xs = records["xs"].astype(np.float64)
        ys = records["ys"].astype(np.float64)
        return np.column_stack([xs.min(axis=1), ys.min(axis=1),
                                xs.max(axis=1), ys.max(axis=1)])

    @classmethod
    def estimate_area(cls, records: np.ndarray, lo: float,
                      hi: float) -> float:
        """Vectorized answer-region area over candidate TIN records.

        A triangle whose three float64 samples all lie in ``[lo, hi]``
        is interior: the kernel returns exactly 1.0 for it, so it
        contributes its whole area without running it.  Only the
        boundary triangles run :func:`triangle_band_fraction`; the
        per-cell array, and so its sum, is bit for bit the one the
        kernel gives over every triangle.
        """
        if len(records) == 0:
            return 0.0
        vs = records["vs"].astype(np.float64)
        per_cell = _planar_areas(records)
        v0, v1, v2 = vs.T
        lowest = np.minimum(np.minimum(v0, v1), v2)
        highest = np.maximum(np.maximum(v0, v1), v2)
        # Negated so that a NaN sample makes its triangle a boundary one.
        boundary = ~((lowest >= lo) & (highest <= hi))
        b = vs[boundary]
        per_cell[boundary] *= triangle_band_fraction(
            b[:, 0], b[:, 1], b[:, 2], lo, hi)
        return float(per_cell.sum())

    @classmethod
    def band_area_curves(cls, records: np.ndarray,
                         thresholds: np.ndarray) -> tuple[
                             np.ndarray, np.ndarray, float]:
        """Both curves from one sweep over the triangles.

        :func:`triangle_band_curves` weighs each triangle by the planar
        area :meth:`estimate_area` gives it, in O((n + g) log n) for n
        triangles and g thresholds; it agrees with the generic
        per-threshold ``estimate_area`` loop to float rounding, and the
        total is that loop's total bit for bit.
        """
        areas = _planar_areas(records)
        area_le, area_lt = triangle_band_curves(records["vs"], areas,
                                                thresholds)
        return area_le, area_lt, float(areas.sum())

    # -- helpers ----------------------------------------------------------

    def _contains(self, cell_id: int, x: float, y: float,
                  eps: float = 1e-9) -> bool:
        a, b, c = self.triangles[cell_id]
        ax, ay = self.points[a]
        bx, by = self.points[b]
        cx, cy = self.points[c]
        d1 = (bx - ax) * (y - ay) - (x - ax) * (by - ay)
        d2 = (cx - bx) * (y - by) - (x - bx) * (cy - by)
        d3 = (ax - cx) * (y - cy) - (x - cx) * (ay - cy)
        has_neg = (d1 < -eps) or (d2 < -eps) or (d3 < -eps)
        has_pos = (d1 > eps) or (d2 > eps) or (d3 > eps)
        return not (has_neg and has_pos)


def _planar_areas(records: np.ndarray) -> np.ndarray:
    """Planar area of every TIN record's triangle, in float64."""
    xs = records["xs"].astype(np.float64)
    ys = records["ys"].astype(np.float64)
    return 0.5 * np.abs(
        (xs[:, 1] - xs[:, 0]) * (ys[:, 2] - ys[:, 0])
        - (xs[:, 2] - xs[:, 0]) * (ys[:, 1] - ys[:, 0]))
