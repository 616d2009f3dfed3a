"""Grouping policies: how linearized cells merge into subfields.

The paper's policy (§3.1.2) is cost-based: a subfield of interval size
``L`` is accessed by the average range query with probability ``P``
(Kamel–Faloutsos, ref [14]); dividing by the sum ``SI`` of member-cell
interval sizes yields the cost ``C = P / SI``.  A cell joins the current
subfield only when that strictly lowers ``C``.

The worked example in paper Fig. 5 computes ``P`` as the plain interval
size ``max − min + 1`` (no normalization, no additive 0.5), giving costs
21/45 → 31/58.  :class:`CostBasedGrouping` defaults reproduce that
example; the ``avg_query`` knob restores the prose's ``+0.5`` term for
normalized value spaces.

:class:`ThresholdGrouping` is the fixed-threshold criterion of the
Interval Quadtree predecessor (ref [15]), kept for ablations.
"""

from __future__ import annotations

import abc
from collections.abc import Sequence

import numpy as np

GroupState = tuple[float, float, float]   # (lo, hi, sum of interval sizes)


class GroupingPolicy(abc.ABC):
    """Decides whether the next linearized cell joins the open subfield."""

    @abc.abstractmethod
    def open_group(self, vmin: float, vmax: float) -> GroupState:
        """State of a fresh subfield holding one cell."""

    @abc.abstractmethod
    def admit(self, state: GroupState, vmin: float,
              vmax: float) -> GroupState | None:
        """State after adding the cell, or None to start a new subfield."""


class CostBasedGrouping(GroupingPolicy):
    """The paper's cost function ``C = P / SI`` (§3.1.2).

    Parameters
    ----------
    unit:
        Additive constant of the interval-size convention
        ``I = max − min + unit``; the paper uses 1.
    avg_query:
        Additive average-query-extent term of the access probability
        ``P = L + avg_query``; 0 reproduces the paper's worked example,
        0.5 matches the normalized-space formula in the prose.
    """

    def __init__(self, unit: float = 1.0, avg_query: float = 0.0) -> None:
        if unit < 0 or avg_query < 0:
            raise ValueError("unit and avg_query must be non-negative")
        if unit == 0 and avg_query == 0:
            raise ValueError(
                "unit and avg_query cannot both be zero: a constant cell "
                "would have zero size and infinite cost")
        self.unit = unit
        self.avg_query = avg_query

    def cost(self, state: GroupState) -> float:
        """Cost ``C`` of a subfield in the given state."""
        lo, hi, si = state
        return (hi - lo + self.unit + self.avg_query) / si

    def open_group(self, vmin: float, vmax: float) -> GroupState:
        return (vmin, vmax, vmax - vmin + self.unit)

    def admit(self, state: GroupState, vmin: float,
              vmax: float) -> GroupState | None:
        lo, hi, si = state
        after = (min(lo, vmin), max(hi, vmax),
                 si + (vmax - vmin + self.unit))
        if self.cost(after) < self.cost(state):
            return after
        return None


def default_grouping(span: float) -> CostBasedGrouping:
    """The paper's cost model on values normalized to [0, 1] (§3.1.2).

    Interval size = extent + 1 and P = L + 0.5 there; in raw value units
    over a field whose values span ``span`` that is ``unit = span`` and
    ``avg_query = span / 2`` (a constant field falls back to unit 1).
    """
    return CostBasedGrouping(unit=span if span > 0 else 1.0,
                             avg_query=0.5 * span)


class ThresholdGrouping(GroupingPolicy):
    """Fixed interval-size threshold (the Interval Quadtree criterion)."""

    def __init__(self, threshold: float, unit: float = 1.0) -> None:
        if threshold <= 0:
            raise ValueError(f"threshold must be positive, got {threshold}")
        self.threshold = threshold
        self.unit = unit

    def open_group(self, vmin: float, vmax: float) -> GroupState:
        return (vmin, vmax, vmax - vmin + self.unit)

    def admit(self, state: GroupState, vmin: float,
              vmax: float) -> GroupState | None:
        lo, hi, si = state
        new_lo = min(lo, vmin)
        new_hi = max(hi, vmax)
        if new_hi - new_lo + self.unit <= self.threshold:
            return (new_lo, new_hi, si + (vmax - vmin + self.unit))
        return None


def group_cells(vmins: Sequence[float], vmaxs: Sequence[float],
                policy: GroupingPolicy) -> list[tuple[int, int]]:
    """Greedy single-pass grouping of linearized cells (paper §3.1.2).

    ``vmins``/``vmaxs`` are the cell intervals *in linearized order*.
    Returns inclusive ``(start, end)`` position ranges, one per subfield.
    """
    vmins = np.asarray(vmins, dtype=np.float64)
    vmaxs = np.asarray(vmaxs, dtype=np.float64)
    if vmins.shape != vmaxs.shape:
        raise ValueError("vmins and vmaxs must have the same length")
    n = len(vmins)
    if n == 0:
        return []
    # The greedy pass is pure float arithmetic; for the two built-in
    # policies an inlined loop over python floats (``.tolist()``) avoids
    # ~4 method calls and 2 tuple allocations per cell — the same
    # operations in the same order, so the grouping is identical.
    if type(policy) is CostBasedGrouping:
        return _group_cost_based(vmins.tolist(), vmaxs.tolist(),
                                 policy.unit, policy.avg_query)
    if type(policy) is ThresholdGrouping:
        return _group_threshold(vmins.tolist(), vmaxs.tolist(),
                                policy.threshold, policy.unit)
    groups: list[tuple[int, int]] = []
    start = 0
    state = policy.open_group(float(vmins[0]), float(vmaxs[0]))
    for k in range(1, n):
        admitted = policy.admit(state, float(vmins[k]), float(vmaxs[k]))
        if admitted is None:
            groups.append((start, k - 1))
            start = k
            state = policy.open_group(float(vmins[k]), float(vmaxs[k]))
        else:
            state = admitted
    groups.append((start, n - 1))
    return groups


def _group_cost_based(vmins: list[float], vmaxs: list[float],
                      unit: float, avg_query: float) -> list[tuple[int, int]]:
    """Inlined greedy pass for :class:`CostBasedGrouping`."""
    n = len(vmins)
    groups: list[tuple[int, int]] = []
    start = 0
    lo, hi = vmins[0], vmaxs[0]
    si = hi - lo + unit
    extra = unit + avg_query
    for k in range(1, n):
        vmin, vmax = vmins[k], vmaxs[k]
        new_lo = lo if lo < vmin else vmin
        new_hi = hi if hi > vmax else vmax
        new_si = si + (vmax - vmin + unit)
        if (new_hi - new_lo + extra) / new_si < (hi - lo + extra) / si:
            lo, hi, si = new_lo, new_hi, new_si
        else:
            groups.append((start, k - 1))
            start = k
            lo, hi = vmin, vmax
            si = vmax - vmin + unit
    groups.append((start, n - 1))
    return groups


def _group_threshold(vmins: list[float], vmaxs: list[float],
                     threshold: float, unit: float) -> list[tuple[int, int]]:
    """Inlined greedy pass for :class:`ThresholdGrouping`."""
    n = len(vmins)
    groups: list[tuple[int, int]] = []
    start = 0
    lo, hi = vmins[0], vmaxs[0]
    for k in range(1, n):
        vmin, vmax = vmins[k], vmaxs[k]
        new_lo = lo if lo < vmin else vmin
        new_hi = hi if hi > vmax else vmax
        if new_hi - new_lo + unit <= threshold:
            lo, hi = new_lo, new_hi
        else:
            groups.append((start, k - 1))
            start = k
            lo, hi = vmin, vmax
    groups.append((start, n - 1))
    return groups
