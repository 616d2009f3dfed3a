"""Brute-force reference answers for value queries.

No pages and no index: a float64 interval filter over every cell record
of the field, kept in the index's storage order, followed by the field
type's §3.2 area estimator.  Every access method's filter-then-estimate
must reproduce it bit for bit.
"""

from __future__ import annotations

import numpy as np


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


def oracle_answer(index, query) -> tuple[np.ndarray, float]:
    """``(candidates, area)`` of ``query`` by brute force."""
    candidates = oracle_candidates(index, query.lo, query.hi)
    area = index.field_type.estimate_area(candidates, query.lo, query.hi)
    return candidates, area
