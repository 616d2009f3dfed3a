"""Disjunctive value queries: unions of bands on one field.

Real analyses often ask for unions — "comfortable (18–24°) or frost
(≤ 0°)" — which the paper's machinery answers band by band.  This module
adds the interval algebra to do it correctly: arbitrary input bands are
*normalized* (sorted, overlaps merged) so each cell is counted once and
band areas are additive.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from ..storage import IOStats
from .base import EstimateMode, ValueIndex


def normalize_bands(bands: list[tuple[float, float]]
                    ) -> list[tuple[float, float]]:
    """Sort bands and merge the ones that overlap or touch.

    The result is the canonical disjoint representation of the union:
    ascending, pairwise disjoint, with touching bands coalesced.
    """
    cleaned = []
    for lo, hi in bands:
        if lo > hi:
            raise ValueError(f"empty band: lo={lo} > hi={hi}")
        cleaned.append((float(lo), float(hi)))
    if not cleaned:
        return []
    cleaned.sort()
    merged = [cleaned[0]]
    for lo, hi in cleaned[1:]:
        last_lo, last_hi = merged[-1]
        if lo <= last_hi:
            merged[-1] = (last_lo, max(last_hi, hi))
        else:
            merged.append((lo, hi))
    return merged


@dataclass
class MultiBandResult:
    """Outcome of a union-of-bands query."""

    bands: list[tuple[float, float]]        # normalized
    candidate_count: int                    # distinct cells
    area: float | None = None
    per_band_candidates: list[int] = dc_field(default_factory=list)
    io: IOStats = dc_field(default_factory=IOStats)


def union_query(index: ValueIndex, bands: list[tuple[float, float]],
                estimate: EstimateMode = "area") -> MultiBandResult:
    """Answer the union of value bands against one index.

    Bands are normalized first, so results are exact regardless of input
    overlaps; with disjoint bands the per-band answer areas are additive
    and each candidate cell is reported once (cells spanning two bands
    are deduplicated by id).
    """
    normalized = normalize_bands(bands)
    before = index.stats.snapshot()
    seen: set[int] = set()
    per_band: list[int] = []
    area: float | None = 0.0 if estimate == "area" else None
    for lo, hi in normalized:
        records = index._candidates(lo, hi)
        per_band.append(int(len(records)))
        seen.update(int(c) for c in records["cell_id"])
        if estimate == "area":
            area += index.field_type.estimate_area(records, lo, hi)
        elif estimate != "none":
            raise ValueError(
                f"union_query supports estimate='area' or 'none', "
                f"got {estimate!r}")
    return MultiBandResult(
        bands=normalized,
        candidate_count=len(seen),
        area=area,
        per_band_candidates=per_band,
        io=index.stats.diff(before),
    )


def complement_bands(bands: list[tuple[float, float]], lo: float,
                     hi: float) -> list[tuple[float, float]]:
    """Complement of a band union within the value range ``[lo, hi]``.

    Enables difference queries: "NOT between 20 and 30" is the union of
    the complementary bands.
    """
    if lo > hi:
        raise ValueError(f"empty range: lo={lo} > hi={hi}")
    normalized = normalize_bands(bands)
    result: list[tuple[float, float]] = []
    cursor = lo
    for band_lo, band_hi in normalized:
        if band_lo > cursor and band_lo > lo:
            result.append((cursor, min(band_lo, hi)))
        cursor = max(cursor, band_hi)
        if cursor >= hi:
            break
    if cursor < hi:
        result.append((cursor, hi))
    return [(a, b) for a, b in result if a < b]


def intersect_bands(a: list[tuple[float, float]],
                    b: list[tuple[float, float]]
                    ) -> list[tuple[float, float]]:
    """Intersection of two band unions (both normalized first)."""
    left = normalize_bands(a)
    right = normalize_bands(b)
    result: list[tuple[float, float]] = []
    i = j = 0
    while i < len(left) and j < len(right):
        lo = max(left[i][0], right[j][0])
        hi = min(left[i][1], right[j][1])
        if lo <= hi:
            result.append((lo, hi))
        if left[i][1] < right[j][1]:
            i += 1
        else:
            j += 1
    return result
