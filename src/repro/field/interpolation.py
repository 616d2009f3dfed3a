"""Interpolation functions over cells.

The paper assumes a *linear* interpolation in its examples and experiments
(§2.2, §4); we implement it exactly (barycentric over triangles), plus the
common alternatives (bilinear, nearest neighbor, inverse-distance) so the
model layer matches the paper's "arbitrary interpolation methods" framing.

Also provided is the closed-form *area fraction* of a linearly interpolated
triangle below a threshold — the vectorized kernel of the estimation step —
and its sweep over many thresholds at once, which the aggregate models'
curve tables are built from.
"""

from __future__ import annotations

import numpy as np

Point2 = tuple[float, float]


def plane_coefficients(points, values) -> tuple[float, float, float]:
    """Coefficients ``(a, b, c)`` with ``v(x, y) = a·x + b·y + c``.

    ``points`` is a 3×2 triangle; raises for degenerate triangles.
    """
    (x0, y0), (x1, y1), (x2, y2) = points
    v0, v1, v2 = values
    det = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
    if det == 0.0:
        raise ValueError("degenerate triangle has no interpolation plane")
    a = ((v1 - v0) * (y2 - y0) - (v2 - v0) * (y1 - y0)) / det
    b = ((v2 - v0) * (x1 - x0) - (v1 - v0) * (x2 - x0)) / det
    c = v0 - a * x0 - b * y0
    return (a, b, c)


def linear_triangle(point: Point2, points, values) -> float:
    """Barycentric (linear) interpolation inside a triangle."""
    a, b, c = plane_coefficients(points, values)
    return a * point[0] + b * point[1] + c


def barycentric_coordinates(point: Point2, points) -> tuple[float, float,
                                                            float]:
    """Barycentric coordinates of ``point`` w.r.t. a triangle."""
    (x0, y0), (x1, y1), (x2, y2) = points
    det = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
    if det == 0.0:
        raise ValueError("degenerate triangle")
    l1 = ((point[0] - x0) * (y2 - y0) - (x2 - x0) * (point[1] - y0)) / det
    l2 = ((x1 - x0) * (point[1] - y0) - (point[0] - x0) * (y1 - y0)) / det
    return (1.0 - l1 - l2, l1, l2)


def bilinear(point: Point2, origin: Point2, size: float,
             corner_values) -> float:
    """Bilinear interpolation on a square cell.

    ``corner_values`` are ``(v00, v10, v11, v01)`` at the corners
    (x0,y0), (x0+s,y0), (x0+s,y0+s), (x0,y0+s).
    """
    u = (point[0] - origin[0]) / size
    v = (point[1] - origin[1]) / size
    v00, v10, v11, v01 = corner_values
    return ((1 - u) * (1 - v) * v00 + u * (1 - v) * v10
            + u * v * v11 + (1 - u) * v * v01)


def nearest(point: Point2, points, values) -> float:
    """Value of the nearest sample point."""
    pts = np.asarray(points, dtype=float)
    vals = np.asarray(values, dtype=float)
    d2 = ((pts - np.asarray(point)) ** 2).sum(axis=1)
    return float(vals[np.argmin(d2)])


def inverse_distance(point: Point2, points, values,
                     power: float = 2.0) -> float:
    """Shepard inverse-distance-weighted interpolation."""
    pts = np.asarray(points, dtype=float)
    vals = np.asarray(values, dtype=float)
    d2 = ((pts - np.asarray(point)) ** 2).sum(axis=1)
    hit = d2 < 1e-24
    if hit.any():
        return float(vals[np.argmax(hit)])
    weights = d2 ** (-power / 2.0)
    return float((weights * vals).sum() / weights.sum())


def _sorted_samples(v0, v1, v2):
    """``(lo, mid, hi)`` of three float64 sample arrays.

    Exact 3-way selection (min / median / max) in five elementwise
    passes: selection only moves values, so the result is bit-identical
    to an ``np.sort`` at roughly half its cost.
    """
    a = np.asarray(v0, dtype=float)
    b = np.asarray(v1, dtype=float)
    c = np.asarray(v2, dtype=float)
    lo = np.minimum(np.minimum(a, b), c)
    hi = np.maximum(np.maximum(a, b), c)
    mid = np.maximum(np.minimum(a, b),
                     np.minimum(np.maximum(a, b), c))
    return lo, mid, hi


def triangle_fraction_below(v0, v1, v2, threshold):
    """Area fraction of a linear triangle where ``value <= threshold``.

    All arguments may be numpy arrays (vectorized over triangles).  For a
    linear function with vertex values ``v0 <= v1 <= v2`` the sub-level
    area fraction is the classic piecewise quadratic:

    * 0 below ``v0``;
    * ``(t−v0)² / ((v1−v0)(v2−v0))`` between ``v0`` and ``v1``;
    * ``1 − (v2−t)² / ((v2−v1)(v2−v0))`` between ``v1`` and ``v2``;
    * 1 above ``v2``.
    """
    lo, mid, hi = _sorted_samples(v0, v1, v2)
    t = np.asarray(threshold, dtype=float)
    span = hi - lo
    flat = span <= 0.0
    # Avoid divide-by-zero on flat triangles; they are handled separately.
    span = np.where(flat, 1.0, span)
    low_seg = mid - lo
    high_seg = hi - mid
    # Branches with empty segments are masked out below; silence the
    # overflow/invalid noise their dummy denominators can produce.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        frac_low = np.where(
            low_seg > 0.0,
            (t - lo) ** 2 / np.where(low_seg > 0, low_seg, 1.0) / span,
            np.inf)
        frac_high = 1.0 - np.where(
            high_seg > 0.0,
            (hi - t) ** 2 / np.where(high_seg > 0, high_seg, 1.0) / span,
            np.inf)
    result = np.where(t <= mid, frac_low, frac_high)
    # Degenerate segments: when t is in an empty segment the other branch
    # applies; clamp handles the boundaries exactly.
    result = np.where(t <= mid,
                      np.where(low_seg > 0.0, result, 0.0),
                      np.where(high_seg > 0.0, result, 1.0))
    result = np.clip(result, 0.0, 1.0)
    result = np.where(t < lo, 0.0, result)
    result = np.where(t >= hi, 1.0, result)
    # A completely flat triangle is fully below iff its value <= t.
    result = np.where(flat, (t >= lo).astype(float), result)
    return result


#: A curve piece whose quadratic denominator is under this fraction of
#: its squared reach is evaluated directly by
#: :func:`triangle_band_curves`, not through its prefix sums.
NEAR_FLAT = 1e-2


def triangle_band_curves(values, weights, thresholds):
    """Weighted below-threshold area curves of many linear triangles.

    ``values`` holds ``(m, 3)`` vertex samples, ``weights`` ``(m,)``
    and ``thresholds`` ``(g,)`` in any order.  Returns ``(area_le,
    area_lt)``: ``area_le[k]`` is the weighted sum of
    :func:`triangle_fraction_below` at ``thresholds[k]``, and
    ``area_lt[k]`` the same for ``value < thresholds[k]``, which
    differs only on flat triangles sitting exactly at the threshold.

    With sorted samples ``a <= b <= c`` each fraction is 0 below ``a``,
    one quadratic on ``[a, b]``, another on ``(b, c)`` and 1 from ``c``
    on.  Rather than evaluate every triangle at every threshold
    (O(m·g)), one sweep over the sorted thresholds carries prefix sums
    of the pieces' quadratic coefficients, and "fully below" is a
    cumulative weight found by binary search: O((m + g) log(m + g)),
    plus the direct evaluations below.
    Order, flatness and piece membership are decided on the raw
    float64 samples, as :func:`triangle_fraction_below` decides them;
    only the quadratic arithmetic is shifted to the lowest threshold.
    A piece whose denominator is under :data:`NEAR_FLAT` of its squared
    reach would carry large coefficients into every later prefix sum,
    so it is evaluated directly at the few thresholds it covers.  Both
    curves agree with the per-threshold kernel to about 1e-14 of the
    total weight.
    """
    v = np.asarray(values, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    t = np.asarray(thresholds, dtype=np.float64)
    g = len(t)
    if g == 0:
        return np.zeros(0), np.zeros(0)
    order = np.argsort(t, kind="stable")
    ts = t[order]
    a, b, c = _sorted_samples(v[:, 0], v[:, 1], v[:, 2])
    flat = a == c     # the same test as `c - a <= 0` on finite samples

    def cumulative(keys, wts):
        srt = np.argsort(keys, kind="stable")
        return keys[srt], np.concatenate([[0.0], np.cumsum(wts[srt])])

    # "Fully below": a sloped triangle from c on, a flat one from its
    # value on (`<=`) or only past it (`<`).
    keys, cum = cumulative(c[~flat], w[~flat])
    full = cum[np.searchsorted(keys, ts, side="right")]
    keys, cum = cumulative(a[flat], w[flat])
    full_le = full + cum[np.searchsorted(keys, ts, side="right")]
    full_lt = full + cum[np.searchsorted(keys, ts, side="left")]

    # Threshold index ranges [start, end) of the pieces [a, b] and
    # (b, c); the first stops short of c when b == c, where "fully
    # below" takes over.  Piece value: base + sw·(t - root)²/seg/spread.
    at_a = np.searchsorted(ts, a, side="left")
    past_b = np.searchsorted(ts, b, side="right")
    at_c = np.searchsorted(ts, c, side="left")
    low = np.flatnonzero(b > a)
    high = np.flatnonzero(c > b)
    start = np.concatenate([at_a[low], past_b[high]])
    end = np.concatenate([np.minimum(past_b, at_c)[low], at_c[high]])
    keep = start < end
    tri = np.concatenate([low, high])[keep]
    start, end = start[keep], end[keep]
    root = np.concatenate([a[low], c[high]])[keep]
    seg = np.concatenate([b[low] - a[low], c[high] - b[high]])[keep]
    spread = c[tri] - a[tri]
    base = np.concatenate([np.zeros(len(low)), w[high]])[keep]
    sw = np.concatenate([w[low], -w[high]])[keep]

    # `reach` bounds |t - root| over every threshold; a zero reach (one
    # threshold, at the root) goes direct too.
    g0 = ts[0]
    u = ts - g0
    r = root - g0
    reach = (ts[-1] - g0) + np.abs(r)
    denom = seg * spread
    swept = (denom > NEAR_FLAT * reach * reach) & (reach > 0.0)
    q = sw[swept] / denom[swept]
    r = r[swept]
    idx = np.concatenate([start[swept], end[swept]])
    poly = []
    for coef in (q, -2.0 * q * r, base[swept] + q * r * r):
        delta = np.bincount(idx, np.concatenate([coef, -coef]),
                            minlength=g + 1)
        poly.append(np.cumsum(delta[:g]))
    below = (poly[0] * u + poly[1]) * u + poly[2]

    direct = np.flatnonzero(~swept)
    count = end[direct] - start[direct]
    pairs = int(count.sum())
    if pairs:
        piece = np.repeat(direct, count)
        k = np.arange(pairs) + np.repeat(
            start[direct] - (np.cumsum(count) - count), count)
        d = ts[k] - root[piece]
        below += np.bincount(
            k, base[piece] + sw[piece] * (d * d / seg[piece]
                                          / spread[piece]),
            minlength=g)

    area_le = np.empty(g)
    area_lt = np.empty(g)
    area_le[order] = below + full_le
    area_lt[order] = below + full_lt
    return area_le, area_lt


def triangle_band_fraction(v0, v1, v2, lo, hi):
    """Area fraction of a linear triangle where ``lo <= value <= hi``."""
    below_hi = triangle_fraction_below(v0, v1, v2, hi)
    below_lo = triangle_fraction_below(v0, v1, v2, lo)
    frac = below_hi - below_lo
    # Flat triangles sitting exactly on the band boundary: fraction_below
    # uses a half-open convention (value <= t), so a flat triangle at
    # exactly ``lo`` would be counted in both terms and cancel; include it.
    a = np.asarray(v0, float)
    b = np.asarray(v1, float)
    c = np.asarray(v2, float)
    vmax = np.maximum(np.maximum(a, b), c)
    vmin = np.minimum(np.minimum(a, b), c)
    flat = (vmax - vmin) <= 0.0
    inside_flat = flat & (a >= lo) & (a <= hi)
    return np.where(inside_flat, 1.0, np.clip(frac, 0.0, 1.0))
