"""Brute-force reference answers for value queries.

No pages and no index: a float64 interval filter over every cell record
of the field, kept in the index's storage order, followed by the §3.2
band kernel run on every candidate.  The reference does not call
``estimate_area``, so it shares none of its interior-cell shortcut.
Every access method's filter-then-estimate must reproduce it bit for
bit.
"""

from __future__ import annotations

import numpy as np

from repro.field import DEMField, TINField
from repro.field.interpolation import triangle_band_fraction


def storage_order_records(index) -> np.ndarray:
    """The field's cell records in the order ``index`` stores them:
    ``index.order`` for grouped indexes, cell order otherwise."""
    records = index.field.cell_records()
    order = getattr(index, "order", None)
    return records if order is None else records[order]


def oracle_candidates(index, lo: float, hi: float) -> np.ndarray:
    """Every record whose ``[vmin, vmax]`` intersects ``[lo, hi]``."""
    records = storage_order_records(index)
    mask = ((records["vmin"].astype(np.float64) <= hi)
            & (records["vmax"].astype(np.float64) >= lo))
    return records[mask]


def reference_area(field_type, records: np.ndarray, lo: float,
                   hi: float) -> float:
    """Answer-region area of ``records`` with the band kernel run on
    every cell: the per-cell array and its sum, as for DEM (two
    triangles per cell, in cell units) or TIN (fraction × area)."""
    if len(records) == 0:
        return 0.0
    if issubclass(field_type, DEMField):
        c = records["corners"].astype(np.float64)
        lower = triangle_band_fraction(c[:, 0], c[:, 1], c[:, 2], lo, hi)
        upper = triangle_band_fraction(c[:, 0], c[:, 2], c[:, 3], lo, hi)
        return float((lower + upper).sum() * 0.5)
    if issubclass(field_type, TINField):
        vs = records["vs"].astype(np.float64)
        frac = triangle_band_fraction(vs[:, 0], vs[:, 1], vs[:, 2], lo, hi)
        xs = records["xs"].astype(np.float64)
        ys = records["ys"].astype(np.float64)
        area = 0.5 * np.abs(
            (xs[:, 1] - xs[:, 0]) * (ys[:, 2] - ys[:, 0])
            - (xs[:, 2] - xs[:, 0]) * (ys[:, 1] - ys[:, 0]))
        return float((frac * area).sum())
    raise TypeError(f"no reference area for {field_type.__name__}")


def oracle_answer(index, query) -> tuple[np.ndarray, float]:
    """``(candidates, area)`` of ``query`` by brute force."""
    candidates = oracle_candidates(index, query.lo, query.hi)
    area = reference_area(index.field_type, candidates, query.lo, query.hi)
    return candidates, area
