"""Small 2-D polygon kernel for the estimation step.

The estimation step (paper §3.2, algorithm ``Estimate``) converts candidate
cells into exact answer regions by clipping each cell against the half-planes
``F(x) >= w_lo`` and ``F(x) <= w_hi``.  Under linear interpolation those
half-planes are straight lines inside a triangle, so Sutherland–Hodgman
clipping is exact.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

Point2 = tuple[float, float]


def polygon_area(points: Sequence[Point2]) -> float:
    """Unsigned area via the shoelace formula (0 for < 3 vertices)."""
    n = len(points)
    if n < 3:
        return 0.0
    twice = 0.0
    for i in range(n):
        x0, y0 = points[i]
        x1, y1 = points[(i + 1) % n]
        twice += x0 * y1 - x1 * y0
    return abs(twice) / 2.0


def clip_halfplane(points: Sequence[Point2],
                   inside: Callable[[Point2], float]) -> list[Point2]:
    """Clip a convex polygon against ``inside(p) >= 0``.

    ``inside`` must be an affine function of the point (linear interpolation
    guarantees this), so edge crossings are found by exact linear blending.
    """
    result: list[Point2] = []
    n = len(points)
    if n == 0:
        return result
    values = [inside(p) for p in points]
    for i in range(n):
        j = (i + 1) % n
        p, q = points[i], points[j]
        pv, qv = values[i], values[j]
        if pv >= 0.0:
            result.append(p)
            if qv < 0.0:
                result.append(_crossing(p, q, pv, qv))
        elif qv >= 0.0:
            result.append(_crossing(p, q, pv, qv))
    return result


def clip_to_value_band(points: Sequence[Point2],
                       value_at: Callable[[Point2], float],
                       lo: float, hi: float) -> list[Point2]:
    """Portion of a convex cell where ``lo <= value_at(p) <= hi``.

    ``value_at`` must be affine over the polygon (true for linear
    interpolation on a triangle).  Returns the clipped polygon's vertices,
    possibly empty.
    """
    band = clip_halfplane(points, lambda p: value_at(p) - lo)
    if not band:
        return band
    return clip_halfplane(band, lambda p: hi - value_at(p))


def _crossing(p: Point2, q: Point2, pv: float, qv: float) -> Point2:
    """Point where the affine function crosses zero on segment pq."""
    t = pv / (pv - qv)
    return (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))
