"""'I-Hilbert' — the paper's proposed access method (§3).

Cells are linearized by the Hilbert value of their center, greedily
grouped into subfields with the cost function of §3.1.2, physically
clustered in that order, and the (few) subfield intervals are indexed in
a 1-D R*-tree.  The curve and the grouping policy are pluggable to
support the paper-motivated ablations (Hilbert vs. Z-order vs. Gray code;
cost-based vs. fixed-threshold grouping).
"""

from __future__ import annotations

import math

import numpy as np

from ..curves import (
    CURVES,
    HilbertCurve2D,
    HilbertCurveND,
    SpaceFillingCurve,
)
from ..field.base import Field
from ..storage import DiskManager, PAGE_SIZE, RetryPolicy
from .base import DiskBackend
from .cost import GroupingPolicy, default_grouping, group_cells
from .grouped import GroupedIntervalIndex


def centroid_grid_coords(centroids: np.ndarray, side: int,
                         bounds: tuple[float, ...]) -> np.ndarray:
    """Map centroid positions onto an integer ``side``-per-axis grid.

    ``bounds`` lists the domain mins then maxs (``(xmin, ymin, xmax,
    ymax)`` in 2-D, six values in 3-D), matching ``Field.bounds``.
    """
    centroids = np.asarray(centroids, dtype=np.float64)
    dim = centroids.shape[1]
    mins = np.asarray(bounds[:dim], dtype=np.float64)
    maxs = np.asarray(bounds[dim:], dtype=np.float64)
    span = np.maximum(maxs - mins, 1e-12)
    grid = ((centroids - mins) / span * side).astype(np.int64)
    return np.clip(grid, 0, side - 1)


def curve_keys(field: Field, curve: SpaceFillingCurve) -> np.ndarray:
    """Curve value of every cell center, as int64."""
    coords = centroid_grid_coords(field.cell_centroids(), curve.side,
                                  field.bounds)
    return np.asarray(curve.indices(coords), dtype=np.int64)


def linearize(field: Field, curve: SpaceFillingCurve) -> np.ndarray:
    """Cell permutation in ascending curve value of cell centers."""
    return np.argsort(curve_keys(field, curve), kind="stable")


def default_curve_order(field: Field, dim: int = 2) -> int:
    """Curve order giving roughly one grid site per cell."""
    side = max(2.0, field.num_cells ** (1.0 / dim))
    return max(1, math.ceil(math.log2(side)))


def make_curve(name: str, order: int, dim: int) -> SpaceFillingCurve:
    """Instantiate a named curve for the given dimensionality."""
    if name == "hilbert":
        return HilbertCurve2D(order) if dim == 2 \
            else HilbertCurveND(order, dim)
    try:
        curve_cls = CURVES[name]
    except KeyError:
        raise ValueError(
            f"unknown curve {name!r}; expected one of "
            f"{sorted(CURVES)}") from None
    return curve_cls(order, dim)


class IHilbertIndex(GroupedIntervalIndex):
    """The proposed subfield index over a space-filling-curve order.

    Parameters
    ----------
    field:
        Field to index.
    curve:
        Linearization curve; "hilbert" (default, the paper's choice),
        "zorder" or "gray", or a ready :class:`SpaceFillingCurve`.
    grouping:
        Subfield admission policy; defaults to the paper's cost function.
    """

    name = "I-Hilbert"

    def __init__(self, field: Field,
                 curve: str | SpaceFillingCurve = "hilbert",
                 grouping: GroupingPolicy | None = None,
                 cache_pages: int = 0,
                 page_size: int = PAGE_SIZE,
                 retry_policy: RetryPolicy | None = None,
                 disk_backend: DiskBackend = DiskManager) -> None:
        if isinstance(curve, str):
            dim = field.cell_centroids().shape[1]
            curve = make_curve(curve, default_curve_order(field, dim), dim)
        self.curve = curve
        if grouping is None:
            grouping = default_grouping(field.value_range.length)
        order = linearize(field, curve)
        records = field.cell_records()
        groups = group_cells(records["vmin"][order].astype(np.float64),
                             records["vmax"][order].astype(np.float64),
                             grouping)
        super().__init__(field, order, groups, cache_pages=cache_pages,
                         page_size=page_size, retry_policy=retry_policy,
                         disk_backend=disk_backend, grouping=grouping)

    def describe(self) -> dict:
        info = super().describe()
        # None on a reloaded index: the manifest does not keep the curve.
        info["curve"] = getattr(self.curve, "name", None)
        info["grouping"] = type(self.grouping).__name__
        return info
