"""Approximate range aggregates from learned polynomial models.

A new query class the paper lacks (ROADMAP item 3): COUNT / SUM / AVG /
area-of-region over a value interval ``[lo, hi]``, answered in O(model
lookup) per subfield with a *guaranteed* error bound, following PolyFit's
learned piecewise-polynomial index for approximate range aggregates
(arXiv:2003.08031).

Every aggregate decomposes into two cumulative curves per subfield::

    count(lo, hi) = count_le(hi) - count_lt(lo)

where ``count_le(v)`` counts cells with ``vmin <= v`` (the cells that
have *entered* the band by ``v``) and ``count_lt(v)`` counts cells with
``vmax < v`` (the cells that have *left* it).  The same decomposition
holds for the midpoint-weighted sum curves and — including the flat-cell
atoms handled by :meth:`~repro.field.base.Field.band_area_curves` — for
the answer-region area.  Each of the six curves is fitted with one
low-degree polynomial per subfield over the subfield's value domain
(subfields are the natural pieces of the piecewise model: the grouping
pass already cut the value axis where the distribution changes).

The error bound is not a statistical residual but a sup-norm bracket:
the fit grid contains *every distinct endpoint value* of the subfield,
so each true curve is either monotone between adjacent grid points or a
step function whose breakpoints all lie on the grid.  Its value over
``(g_k, g_{k+1})`` is therefore bracketed by ``[min(y_k, y_{k+1}),
max(y_k, y_{k+1})]``, while the polynomial's exact extremes on the same
interval come from its endpoints and derivative roots.  The stored bound
is the max bracket gap over all intervals, inflated by a float-slack
term — so a model answer ``m`` guarantees ``|m - exact| <= bound``.

The true area curves come from one sweep per subfield
(:func:`~repro.field.interpolation.triangle_band_curves` behind the DEM
and TIN ``band_area_curves``) in O((n + g) log n) for n cells and g grid
points; it agrees with the per-threshold definition to about 1e-14 of
the total, far inside the slack.  Models stay current under writes one
subfield at a time: an update refits the subfields it touched
(:meth:`AggregateModelSet.refit`), and ``compact()`` keeps the rows of
the subfields it left alone and refits only those it re-clustered.

Query evaluation is vectorized over subfields: fully covered subfields
contribute their stored exact totals, point-span subfields need no model
at all, and only *boundary* subfields (the query edge cuts their value
domain) use the polynomials.  When the accumulated bound exceeds the
query's tolerance, the evaluator greedily moves the worst-bound boundary
subfields to the exact vectorized estimation path (reading only their
clustered cell ranges) until the remaining bound fits — ``tolerance=0``
degenerates to the fully exact path, byte-for-byte identical to
``mode="exact"``.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

#: Aggregate kinds and their component curves.
AGGREGATE_KINDS = ("count", "sum", "avg", "area")
#: Evaluation modes: pure model, model with exact fallback, pure exact.
AGGREGATE_MODES = ("model", "hybrid", "exact")
#: Default polynomial degree (PolyFit uses 1–3; 3 is the sweet spot for
#: the smooth quadratic band-area curves of linear interpolants).
DEFAULT_DEGREE = 3

#: Order of the six fitted curves in the coeffs/bounds arrays.
CURVE_NAMES = ("count_le", "count_lt", "sum_le", "sum_lt",
               "area_le", "area_lt")
#: (le, lt) curve columns per component.
_CURVE_COLS = {"count": (0, 1), "sum": (2, 3), "area": (4, 5)}
#: Stored exact totals column per component.
_TOTAL_COL = {"count": 0, "sum": 1, "area": 2}
#: Components each aggregate kind needs.
_COMPONENTS = {"count": ("count",), "sum": ("sum",), "area": ("area",),
               "avg": ("count", "sum")}

#: Relative + absolute slack covering float noise between the fitted
#: curves (cumulative sums) and the exact vectorized path's reductions.
_REL_SLACK = 1e-9
_ABS_SLACK = 1e-9


def _validate(kind: str, lo: float, hi: float, mode: str,
              tolerance: float | None) -> None:
    if kind not in AGGREGATE_KINDS:
        raise ValueError(
            f"unknown aggregate kind {kind!r}; expected one of "
            f"{AGGREGATE_KINDS}")
    if mode not in AGGREGATE_MODES:
        raise ValueError(
            f"unknown aggregate mode {mode!r}; expected one of "
            f"{AGGREGATE_MODES}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"aggregate bounds must be finite: [{lo}, {hi}]")
    if lo > hi:
        raise ValueError(f"empty aggregate interval: lo={lo} > hi={hi}")
    if tolerance is not None and not tolerance >= 0:    # NaN too
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")


@dataclass
class AggregateResult:
    """One aggregate answer with its guarantee and cost accounting."""

    kind: str
    lo: float
    hi: float
    value: float
    #: Guaranteed ``|value - exact| <= bound``.  0.0 when the answer is
    #: exact; ``inf`` for an AVG whose count interval touches zero.
    bound: float
    mode: str
    tolerance: float | None
    #: Subfields answered from stored totals (fully covered).
    covered_subfields: int
    #: Boundary subfields answered by the polynomial models.
    model_subfields: int
    #: Boundary subfields answered by the exact vectorized path.
    exact_subfields: int
    page_reads: int

    def to_dict(self) -> dict:
        """JSON-safe summary (non-finite bounds become ``None``)."""
        return {
            "kind": self.kind,
            "lo": self.lo,
            "hi": self.hi,
            "value": self.value,
            "bound": self.bound if math.isfinite(self.bound) else None,
            "mode": self.mode,
            "tolerance": self.tolerance,
            "covered_subfields": self.covered_subfields,
            "model_subfields": self.model_subfields,
            "exact_subfields": self.exact_subfields,
            "page_reads": self.page_reads,
        }


# -- fitting ---------------------------------------------------------------


def _curve_table(field_type, block: np.ndarray,
                 grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(len(grid), 6)`` true curve values and the three exact totals."""
    vmins = block["vmin"].astype(np.float64)
    vmaxs = block["vmax"].astype(np.float64)
    weights = (vmins + vmaxs) * 0.5
    count_le = np.searchsorted(np.sort(vmins), grid, side="right")
    count_lt = np.searchsorted(np.sort(vmaxs), grid, side="left")
    # Prefix sums of midpoint weights in endpoint order give the sum
    # curves at the same breakpoints.
    pre_min = np.concatenate(
        [[0.0], np.cumsum(weights[np.argsort(vmins, kind="stable")])])
    pre_max = np.concatenate(
        [[0.0], np.cumsum(weights[np.argsort(vmaxs, kind="stable")])])
    area_le, area_lt, area_total = field_type.band_area_curves(block, grid)
    ys = np.column_stack([
        count_le.astype(np.float64), count_lt.astype(np.float64),
        pre_min[count_le], pre_max[count_lt],
        area_le, area_lt,
    ])
    totals = np.array([float(len(block)), float(weights.sum()),
                       float(area_total)])
    return ys, totals


def _residual_bounds(coeffs: np.ndarray, u: np.ndarray,
                     ys: np.ndarray) -> np.ndarray:
    """Sup-norm bracket bound per curve (see module docstring).

    ``coeffs`` is ``(6, degree + 1)`` highest-power-first, ``u`` the
    scaled grid in [0, 1], ``ys`` the ``(len(u), 6)`` true curve values.
    """
    npts = len(u)
    bounds = np.empty(6)
    for c in range(6):
        cs = coeffs[c]
        m = np.polyval(cs, u)
        y = ys[:, c]
        scale = max(1.0, float(np.abs(y).max()))
        if npts == 1:
            gap = abs(float(m[0] - y[0]))
        else:
            m_lo = np.minimum(m[:-1], m[1:])
            m_hi = np.maximum(m[:-1], m[1:])
            # Interior extremes of the polynomial on each grid interval:
            # endpoints plus real derivative roots.
            der = np.polyder(cs)
            if np.any(der):
                for root in np.atleast_1d(np.roots(der)):
                    if abs(root.imag) > 1e-12:
                        continue
                    uc = float(root.real)
                    if uc <= u[0] or uc >= u[-1]:
                        continue
                    k = min(max(int(np.searchsorted(u, uc, side="right"))
                                - 1, 0), npts - 2)
                    mc = float(np.polyval(cs, uc))
                    m_lo[k] = min(m_lo[k], mc)
                    m_hi[k] = max(m_hi[k], mc)
            y_lo = np.minimum(y[:-1], y[1:])
            y_hi = np.maximum(y[:-1], y[1:])
            gap = max(0.0, float(np.max(m_hi - y_lo)),
                      float(np.max(y_hi - m_lo)))
        bounds[c] = gap * (1.0 + _REL_SLACK) + _ABS_SLACK * scale
    return bounds


def _fit_subfield(field_type, block: np.ndarray, degree: int) -> tuple[
        tuple[float, float], np.ndarray, np.ndarray, np.ndarray]:
    """Fit the six curves of one subfield's cell block.

    Returns ``((dom_lo, dom_hi), totals, coeffs, bounds)`` with coeffs
    ``(6, degree + 1)`` highest-power-first over the scaled domain.
    """
    vmins = block["vmin"].astype(np.float64)
    vmaxs = block["vmax"].astype(np.float64)
    # The grid is every distinct endpoint: exactly the breakpoints of the
    # count/sum step curves and the knots of the piecewise-smooth area
    # curves, which is what makes the bracket bound a guarantee.
    grid = np.unique(np.concatenate([vmins, vmaxs]))
    dom_lo, dom_hi = float(grid[0]), float(grid[-1])
    ys, totals = _curve_table(field_type, block, grid)
    span = dom_hi - dom_lo
    u = (grid - dom_lo) / span if span > 0 else np.zeros_like(grid)
    deg = min(degree, max(len(grid) - 1, 0))
    # One least-squares solve fits all six curves (shared Vandermonde).
    vander = np.vander(u, deg + 1)
    sol, *_ = np.linalg.lstsq(vander, ys, rcond=None)
    if deg < degree:
        sol = np.vstack([np.zeros((degree - deg, 6)), sol])
    coeffs = np.ascontiguousarray(sol.T)
    bounds = _residual_bounds(coeffs, u, ys)
    return (dom_lo, dom_hi), totals, coeffs, bounds


@dataclass
class AggregateModelSet:
    """Per-subfield polynomial models of the six cumulative curves."""

    degree: int
    #: ``(n_subfields, 6, degree + 1)`` coefficients, highest power first,
    #: over the scaled domain ``u = (v - dom_lo) / (dom_hi - dom_lo)``.
    coeffs: np.ndarray
    #: ``(n_subfields, 6)`` guaranteed sup-norm residual per curve.
    bounds: np.ndarray
    #: ``(n_subfields, 3)`` exact totals: count, midpoint sum, area.
    totals: np.ndarray
    #: ``(n_subfields, 2)`` fitted value domain per subfield.
    dom: np.ndarray
    #: How SUM/AVG weigh a cell (recorded for persistence/UI).
    weight: str = "midpoint"

    @property
    def num_subfields(self) -> int:
        """Number of subfield rows the models cover."""
        return len(self.dom)

    @property
    def nbytes(self) -> int:
        """In-memory footprint of all model arrays, in bytes."""
        return (self.coeffs.nbytes + self.bounds.nbytes
                + self.totals.nbytes + self.dom.nbytes)

    def refit(self, field_type, sf_id: int, block: np.ndarray) -> None:
        """Refit one subfield's models from its (already read) block."""
        dom, totals, coeffs, bounds = _fit_subfield(
            field_type, block, self.degree)
        self.dom[sf_id] = dom
        self.totals[sf_id] = totals
        self.coeffs[sf_id] = coeffs
        self.bounds[sf_id] = bounds

    def regroup(self, rows: np.ndarray) -> "AggregateModelSet":
        """Models for a regrouped subfield list (see ``compact``).

        New subfield ``k`` keeps old row ``rows[k]``; a row of ``-1``
        marks a re-clustered subfield, left zero for :meth:`refit`.
        """
        rows = np.asarray(rows, dtype=np.int64)
        kept = rows >= 0

        def take(arr: np.ndarray) -> np.ndarray:
            out = np.zeros((len(rows),) + arr.shape[1:])
            out[kept] = arr[rows[kept]]
            return out

        return AggregateModelSet(
            degree=self.degree, coeffs=take(self.coeffs),
            bounds=take(self.bounds), totals=take(self.totals),
            dom=take(self.dom), weight=self.weight)

    def eval_rows(self, rows: np.ndarray, col: int,
                  value: float) -> np.ndarray:
        """Evaluate curve ``col`` of the given subfield rows at ``value``."""
        dom_lo = self.dom[rows, 0]
        span = self.dom[rows, 1] - dom_lo
        u = np.where(span > 0.0,
                     (value - dom_lo) / np.where(span > 0.0, span, 1.0),
                     0.0)
        cs = self.coeffs[rows, col, :]
        acc = np.zeros(len(rows))
        for k in range(cs.shape[1]):  # Horner over the shared degree
            acc = acc * u + cs[:, k]
        return acc

    def to_arrays(self) -> dict[str, np.ndarray]:
        """Arrays for ``np.savez`` persistence (see core.persist)."""
        return {
            "coeffs": self.coeffs,
            "bounds": self.bounds,
            "totals": self.totals,
            "dom": self.dom,
        }

    @classmethod
    def from_arrays(cls, arrays, degree: int,
                    weight: str = "midpoint") -> "AggregateModelSet":
        """Rebuild a model set from persisted ``np.savez`` arrays."""
        return cls(
            degree=degree,
            coeffs=np.ascontiguousarray(arrays["coeffs"], dtype=np.float64),
            bounds=np.ascontiguousarray(arrays["bounds"], dtype=np.float64),
            totals=np.ascontiguousarray(arrays["totals"], dtype=np.float64),
            dom=np.ascontiguousarray(arrays["dom"], dtype=np.float64),
            weight=weight,
        )

    def describe(self) -> dict:
        """Summary used by reports and the bench payload."""
        return {
            "degree": self.degree,
            "subfields": self.num_subfields,
            "weight": self.weight,
            "nbytes": self.nbytes,
            "max_count_bound": float(self.bounds[:, 0:2].max())
            if len(self.bounds) else 0.0,
        }


def fit_aggregate_models(index, degree: int = DEFAULT_DEGREE
                         ) -> AggregateModelSet:
    """Fit models for every subfield of a grouped index.

    The pass reads each subfield's clustered cell range once; the I/O is
    charged as maintenance, not query traffic.
    """
    subfields = index.subfields
    n_sf = len(subfields)
    coeffs = np.zeros((n_sf, 6, degree + 1))
    bounds = np.zeros((n_sf, 6))
    totals = np.zeros((n_sf, 3))
    dom = np.zeros((n_sf, 2))
    field_type = index.field_type
    with index._maintenance():
        for sf in subfields:
            block = index.store.read_range(sf.ptr_start, sf.ptr_end)
            (dlo, dhi), tot, cf, bd = _fit_subfield(
                field_type, block, degree)
            dom[sf.sf_id] = (dlo, dhi)
            totals[sf.sf_id] = tot
            coeffs[sf.sf_id] = cf
            bounds[sf.sf_id] = bd
    return AggregateModelSet(degree=degree, coeffs=coeffs, bounds=bounds,
                             totals=totals, dom=dom)


# -- evaluation ------------------------------------------------------------


def _exact_components(field_type, block: np.ndarray, lo: float,
                      hi: float, comps: tuple[str, ...]) -> dict[str, float]:
    """Exact per-block contributions of ``comps`` via the vectorized
    estimation path (only the components asked for are computed)."""
    vmins = block["vmin"].astype(np.float64)
    vmaxs = block["vmax"].astype(np.float64)
    mask = (vmins <= hi) & (vmaxs >= lo)
    out = {}
    if "count" in comps:
        out["count"] = float(int(mask.sum()))
    if "sum" in comps:
        out["sum"] = float(((vmins + vmaxs) * 0.5)[mask].sum())
    if "area" in comps:
        out["area"] = float(field_type.estimate_area(block[mask], lo, hi))
    return out


def _avg_bound(count: float, count_bound: float, total: float,
               sum_bound: float) -> float:
    """Interval-arithmetic bound for ``sum / count``."""
    if count_bound == 0.0 and sum_bound == 0.0:
        return 0.0
    c_lo = count - count_bound
    if c_lo <= 0.0:
        return math.inf
    c_hi = count + count_bound
    s_lo, s_hi = total - sum_bound, total + sum_bound
    corners = (s_lo / c_lo, s_lo / c_hi, s_hi / c_lo, s_hi / c_hi)
    avg = total / count
    return max(avg - min(corners), max(corners) - avg)


def evaluate_aggregate(index, models: AggregateModelSet, kind: str,
                       lo: float, hi: float, *,
                       tolerance: float | None = None,
                       mode: str = "hybrid") -> AggregateResult:
    """Answer one aggregate query against a grouped index's models.

    ``mode="exact"`` routes every boundary subfield through the exact
    path; ``mode="hybrid"`` does so only for the worst-bound subfields
    until the remaining bound fits ``tolerance`` (``tolerance=None``
    keeps everything on the models); ``mode="model"`` never reads pages.
    The contributions are accumulated in ascending subfield order in
    every mode, so a hybrid answer whose exact set is *all* boundary
    subfields is byte-for-byte the ``mode="exact"`` answer.
    """
    _validate(kind, lo, hi, mode, tolerance)
    comps = _COMPONENTS[kind]
    before = index.stats.snapshot()
    with index.tracer.span("aggregate", {"kind": kind}) as span:
        dom_lo = models.dom[:, 0]
        dom_hi = models.dom[:, 1]
        inter = (dom_lo <= hi) & (dom_hi >= lo)
        covered = inter & (lo <= dom_lo) & (dom_hi <= hi)
        boundary = np.flatnonzero(inter & ~covered)
        covered_ids = np.flatnonzero(covered)

        base = {c: float(models.totals[covered_ids, _TOTAL_COL[c]].sum())
                for c in comps}
        # Model contributions and bounds for boundary subfields.  A
        # query edge at/over the domain end clamps to the exact total
        # (le side) or zero (lt side) — no model, no bound.
        need_le = hi < dom_hi[boundary]
        need_lt = lo > dom_lo[boundary]
        contrib = {}
        row_bounds = {}
        for c in comps:
            col_le, col_lt = _CURVE_COLS[c]
            term_le = np.where(
                need_le, models.eval_rows(boundary, col_le, hi),
                models.totals[boundary, _TOTAL_COL[c]])
            term_lt = np.where(
                need_lt, models.eval_rows(boundary, col_lt, lo), 0.0)
            contrib[c] = term_le - term_lt
            row_bounds[c] = (need_le * models.bounds[boundary, col_le]
                             + need_lt * models.bounds[boundary, col_lt])

        # Choose the exact set: all boundary subfields (exact mode), or
        # greedily the worst total-bound rows until the remaining bound
        # fits the tolerance (hybrid), or none (model).
        exact_rows = np.zeros(len(boundary), dtype=bool)
        if mode == "exact":
            exact_rows[:] = True
        elif mode == "hybrid" and tolerance is not None:
            joint = np.zeros(len(boundary))
            for c in comps:
                joint += row_bounds[c]
            order = np.argsort(-joint, kind="stable")
            rem = {c: float(row_bounds[c].sum()) for c in comps}

            def current_bound() -> float:
                if kind == "avg":
                    cnt = base["count"] + float(contrib["count"].sum())
                    sm = base["sum"] + float(contrib["sum"].sum())
                    return _avg_bound(cnt, rem["count"], sm, rem["sum"])
                return rem[comps[0]]

            for pos in order:
                if current_bound() <= tolerance:
                    break
                exact_rows[pos] = True
                for c in comps:
                    rem[c] -= float(row_bounds[c][pos])

        # Assemble in ascending subfield order — identical accumulation
        # order in every mode.
        values = dict(base)
        for row, sf_id in enumerate(boundary):
            if exact_rows[row]:
                sf = index.subfields[sf_id]
                block = index.store.read_range(sf.ptr_start, sf.ptr_end)
                exact = _exact_components(index.field_type, block, lo, hi,
                                          comps)
                for c in comps:
                    values[c] += exact[c]
            else:
                for c in comps:
                    values[c] += float(contrib[c][row])
        final_bounds = {
            c: float(row_bounds[c][~exact_rows].sum()) for c in comps}

        if kind == "avg":
            count = values["count"]
            value = values["sum"] / count if count > 0 else 0.0
            bound = _avg_bound(count, final_bounds["count"],
                               values["sum"], final_bounds["sum"])
        else:
            value = values[comps[0]]
            bound = final_bounds[comps[0]]

        n_exact = int(exact_rows.sum())
        if span.enabled:
            span.attrs.update(
                covered=len(covered_ids),
                model=len(boundary) - n_exact, exact=n_exact)
    io = index.stats.diff(before)
    return AggregateResult(
        kind=kind, lo=lo, hi=hi, value=float(value), bound=float(bound),
        mode=mode, tolerance=tolerance,
        covered_subfields=len(covered_ids),
        model_subfields=len(boundary) - n_exact,
        exact_subfields=n_exact,
        page_reads=io.page_reads,
    )


def exact_aggregate(index, kind: str, lo: float,
                    hi: float) -> AggregateResult:
    """Exact aggregate for any access method via its candidate fetch.

    Used by non-grouped indexes (LinearScan, interval R-trees), which
    have no subfield model boundaries; grouped indexes use
    :func:`evaluate_aggregate` even in exact mode so hybrid answers can
    match it byte-for-byte.
    """
    _validate(kind, lo, hi, "exact", None)
    before = index.stats.snapshot()
    with index.tracer.span("aggregate", {"kind": kind}) as span:
        candidates = index._candidates(lo, hi)
        parts = _exact_components(index.field_type, candidates, lo, hi,
                                  _COMPONENTS[kind])
        if kind == "avg":
            value = (parts["sum"] / parts["count"]
                     if parts["count"] > 0 else 0.0)
        else:
            value = parts[kind]
        if span.enabled:
            span.attrs["candidates"] = len(candidates)
    io = index.stats.diff(before)
    return AggregateResult(
        kind=kind, lo=lo, hi=hi, value=float(value), bound=0.0,
        mode="exact", tolerance=None, covered_subfields=0,
        model_subfields=0, exact_subfields=0,
        page_reads=io.page_reads,
    )
