"""Conventional (Q1) point queries through a 2-D R*-tree (paper §2.2.1).

"What is the value at point p?" — find the cell containing p with a
spatial index over cell MBRs, then interpolate from the cell's sample
points.  Included because the paper frames value queries against this
well-solved baseline; it also gives the examples a full query surface.
"""

from __future__ import annotations

from ..field.base import Field
from ..field.interpolation import linear_triangle
from ..geometry import Rect
from ..rstar import RStarTree
from ..storage import DiskManager, IOStats, RecordStore


class PointIndex:
    """Spatial index answering point (Q1) queries over a field."""

    def __init__(self, field: Field, cache_pages: int = 0) -> None:
        self.field = field
        self.field_type = type(field)
        self.stats = IOStats()
        self.data_disk = DiskManager(stats=self.stats, name="q1-data")
        self.store = RecordStore(self.data_disk, field.record_dtype,
                                 cache_pages=cache_pages)
        records = field.cell_records()
        self.store.extend(records)
        self.index_disk = DiskManager(stats=self.stats, name="q1-tree")
        self.tree = RStarTree(dim=2, disk=self.index_disk,
                              cache_pages=cache_pages)
        mbrs = self.field_type.record_mbrs(records)
        rects = [Rect((m[0], m[1]), (m[2], m[3])) for m in mbrs]
        self.tree.bulk_load(rects, range(len(rects)))
        self.tree.flush()

    def value_at(self, x: float, y: float) -> float | None:
        """Interpolated field value at ``(x, y)``; None outside the domain.

        Implements the paper's Q1 pipeline: locate candidate cells via the
        spatial index, read their records, test exact containment, and
        apply the interpolation function to the cell's sample points.
        """
        rx, ry = self.field.to_record_space(x, y)
        probe = Rect.from_point((rx, ry))
        for rid in self.tree.search(probe):
            record = self.store.get(int(rid))
            for points, values in self.field_type.record_triangles(record):
                if _contains(points, (rx, ry)):
                    return linear_triangle((rx, ry), points, values)
        return None

    def clear_caches(self) -> None:
        """Drop caches and forget disk positions (cold-query setting)."""
        self.store.pool.clear()
        self.tree.pool.clear()
        self.data_disk.reset_head()
        self.index_disk.reset_head()


def _contains(points, point, eps: float = 1e-9) -> bool:
    (x0, y0), (x1, y1), (x2, y2) = points
    px, py = point
    d1 = (x1 - x0) * (py - y0) - (px - x0) * (y1 - y0)
    d2 = (x2 - x1) * (py - y1) - (px - x1) * (y2 - y1)
    d3 = (x0 - x2) * (py - y2) - (px - x2) * (y0 - y2)
    has_neg = (d1 < -eps) or (d2 < -eps) or (d3 < -eps)
    has_pos = (d1 > eps) or (d2 > eps) or (d3 > eps)
    return not (has_neg and has_pos)
