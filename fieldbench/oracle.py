"""Brute-force reference answers, and the checker every run ends with.

A value query's reference answer is a float64 filter over every live
cell record followed by the field's §3.2 estimator.  The records are
taken in the index's clustered (Hilbert) storage order, so the
estimator sums the same candidates in the same order and the area must
match bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.ihilbert import default_curve_order, linearize, make_curve

#: Float slack allowed between an aggregate and the brute-force exact
#: value beyond the aggregate's own bound: the two sum float64 terms in
#: different orders (relative error ~1e-13 over 262,144 cells), and the
#: engine's own bounds carry the same 1e-9 slack (core/aggregate.py).
AGGREGATE_SLACK = 1e-9


def clustered_order(field) -> np.ndarray:
    """The I-Hilbert storage order of ``field``'s cells."""
    return linearize(field, make_curve("hilbert",
                                       default_curve_order(field), 2))


class Oracle:
    """Reference answers over one field's live records.

    The field may be updated between calls (:meth:`update`); answers
    always reflect its current records.
    """

    def __init__(self, field) -> None:
        self.field = field
        self.order = clustered_order(field)
        self.field_type = type(field)
        self._cache = None

    def _records(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Clustered records with float64 interval bounds (cached until
        the next update)."""
        if self._cache is None:
            recs = self.field.cell_records()[self.order]
            self._cache = (recs, recs["vmin"].astype(np.float64),
                           recs["vmax"].astype(np.float64))
        return self._cache

    def query(self, lo: float, hi: float) -> tuple[int, float]:
        """``(candidates, area)`` of the value query ``[lo, hi]``."""
        recs, vmin, vmax = self._records()
        cands = recs[(vmin <= hi) & (vmax >= lo)]
        return int(len(cands)), self.field_type.estimate_area(cands, lo, hi)

    def aggregate(self, kind: str, lo: float, hi: float) -> float:
        """Exact COUNT, SUM (of cell midpoints) or area over ``[lo, hi]``."""
        recs, vmin, vmax = self._records()
        mask = (vmin <= hi) & (vmax >= lo)
        if kind == "count":
            return float(mask.sum())
        if kind == "sum":
            return float(((vmin + vmax) * 0.5)[mask].sum())
        if kind == "area":
            return self.field_type.estimate_area(recs[mask], lo, hi)
        raise ValueError(f"unsupported aggregate kind {kind!r}")

    def update(self, vertex_ids, values) -> int:
        """Apply an update to the reference field; returns dirty cells."""
        self._cache = None
        return int(len(self.field.apply_updates(vertex_ids, values)))


def query_ok(got: tuple, want: tuple) -> bool:
    """Same candidate count and the same area, bit for bit."""
    return got[0] == want[0] and got[1] == want[1]


def aggregate_ok(value: float, bound, exact: float,
                 tolerance: float) -> bool:
    """The answer lies within its own bound of the exact value, and that
    bound is within the requested tolerance."""
    if bound is None or not math.isfinite(bound) or bound > tolerance:
        return False
    slack = AGGREGATE_SLACK * max(1.0, abs(exact))
    return abs(value - exact) <= bound + slack
