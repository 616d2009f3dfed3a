"""Geometric primitives: value intervals, n-D MBRs, polygon clipping."""

from .interval import Interval
from .polygon import (
    clip_halfplane,
    clip_to_value_band,
    polygon_area,
)
from .rect import Rect

__all__ = [
    "Interval",
    "Rect",
    "clip_halfplane",
    "clip_to_value_band",
    "polygon_area",
]
