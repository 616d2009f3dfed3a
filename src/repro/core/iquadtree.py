"""Interval Quadtree baseline (paper ref [15], discussed in §3.1.1).

The predecessor of I-Hilbert: the field space is divided quadtree-style
until each block's value interval size drops below a fixed threshold; the
resulting blocks play the role of subfields.  The paper criticizes the
approach for its arbitrary threshold and its rigidly quadratic blocks —
this implementation exists to quantify that comparison.

Blocks are clustered in depth-first quadrant order and their intervals
indexed in the same 1-D R*-tree engine as I-Hilbert, so any performance
difference is attributable to the division strategy alone.
"""

from __future__ import annotations

import numpy as np

from ..field.base import Field
from ..storage import DiskManager, PAGE_SIZE, RetryPolicy
from .base import DiskBackend
from .cost import ThresholdGrouping
from .grouped import GroupedIntervalIndex

#: Hard stop for quadtree recursion depth.
MAX_DEPTH = 16


class IntervalQuadtreeIndex(GroupedIntervalIndex):
    """Fixed-threshold quadtree division of the field space.

    Parameters
    ----------
    field:
        Field to index.
    threshold:
        Maximum allowed interval size (``max − min + unit``) of a block.
        When None, defaults to 25% of the field's value extent — but the
        point of the paper is that no principled default exists.
    unit:
        Interval-size additive constant (the paper's +1).
    """

    name = "I-Quadtree"

    def __init__(self, field: Field, threshold: float | None = None,
                 unit: float = 1.0, cache_pages: int = 0,
                 page_size: int = PAGE_SIZE,
                 retry_policy: RetryPolicy | None = None,
                 disk_backend: DiskBackend = DiskManager) -> None:
        records = field.cell_records()
        vmins = records["vmin"].astype(np.float64)
        vmaxs = records["vmax"].astype(np.float64)
        if threshold is None:
            extent = float(vmaxs.max() - vmins.min())
            threshold = 0.25 * extent + unit
        if threshold <= 0:
            raise ValueError(f"threshold must be positive, got {threshold}")
        self.threshold = threshold
        self.unit = unit

        centroids = field.cell_centroids()
        xmin, ymin, xmax, ymax = field.bounds
        side = max(xmax - xmin, ymax - ymin, 1e-12)
        order: list[int] = []
        groups: list[tuple[int, int]] = []

        def divide(cell_ids: np.ndarray, x0: float, y0: float,
                   size: float, depth: int) -> None:
            lo = vmins[cell_ids].min()
            hi = vmaxs[cell_ids].max()
            small = hi - lo + unit <= threshold
            if small or len(cell_ids) == 1 or depth >= MAX_DEPTH:
                start = len(order)
                order.extend(int(c) for c in cell_ids)
                groups.append((start, len(order) - 1))
                return
            half = size / 2.0
            cx = centroids[cell_ids, 0]
            cy = centroids[cell_ids, 1]
            west = cx < x0 + half
            south = cy < y0 + half
            quadrants = [
                (west & south, x0, y0),
                (~west & south, x0 + half, y0),
                (west & ~south, x0, y0 + half),
                (~west & ~south, x0 + half, y0 + half),
            ]
            for mask, qx, qy in quadrants:
                if mask.any():
                    divide(cell_ids[mask], qx, qy, half, depth + 1)

        divide(np.arange(field.num_cells), xmin, ymin, side, 0)
        super().__init__(field, np.asarray(order), groups,
                         cache_pages=cache_pages,
                         page_size=page_size, retry_policy=retry_policy,
                         disk_backend=disk_backend,
                         grouping=ThresholdGrouping(threshold, unit=unit))

    def describe(self) -> dict:
        info = super().describe()
        info["threshold"] = self.threshold
        return info
