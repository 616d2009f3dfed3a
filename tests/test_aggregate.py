"""Tests for the learned-polynomial approximate aggregate subsystem.

The contract under test: every model answer carries a guaranteed bound
(``|value - exact| <= bound``), the hybrid path honors a requested
tolerance by greedy exact fallback, ``tolerance=0`` degenerates to the
byte-for-byte exact answer, and the models survive updates, compaction
and persistence without the guarantee going stale.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    AGGREGATE_KINDS,
    AggregateResult,
    EngineFacade,
    IHilbertIndex,
    LinearScanIndex,
    ValueQuery,
    load_index,
    save_index,
)
from repro.core.aggregate import exact_aggregate, fit_aggregate_models
from repro.field import DEMField
from repro.shard import ShardedEngine
from repro.synth import fractal_dem_heights, lyon_like

#: Fresh fields by kind; the TIN is a small Lyon-like triangulation.
FIELDS = {
    "dem": lambda: DEMField(fractal_dem_heights(16, 0.9, seed=11)),
    "tin": lambda: lyon_like(num_sites=220, seed=7),
}


@pytest.fixture(scope="module")
def field():
    return FIELDS["dem"]()


@pytest.fixture(scope="module")
def index(field):
    idx = IHilbertIndex(field)
    idx.fit_aggregate_models()
    return idx


@pytest.fixture(scope="module")
def fitted(field, index):
    """``(field, index with models)`` per field kind: the shared DEM and
    a small TIN."""
    tin = FIELDS["tin"]()
    tin_index = IHilbertIndex(tin)
    tin_index.fit_aggregate_models()
    return {"dem": (field, index), "tin": (tin, tin_index)}


def workload(field, n=30, seed=4):
    rng = np.random.default_rng(seed)
    records = field.cell_records()
    vlo = float(records["vmin"].min())
    vhi = float(records["vmax"].max())
    span = vhi - vlo
    queries = []
    for _ in range(n):
        lo = vlo + rng.uniform(0.0, 0.95) * span
        hi = min(vhi, lo + rng.uniform(0.01, 0.3) * span)
        queries.append((lo, hi))
    return queries


# ---------------------------------------------------- bound guarantee

@pytest.mark.parametrize("kind", AGGREGATE_KINDS)
def test_model_answers_within_bound(fitted, kind):
    for name, (field, index) in fitted.items():
        for lo, hi in workload(field):
            exact = exact_aggregate(index, kind, lo, hi)
            got = index.aggregate(kind, lo, hi, mode="model")
            assert got.mode == "model"
            if np.isfinite(got.bound):
                assert abs(got.value - exact.value) <= got.bound, name
            assert got.exact_subfields == 0


@pytest.mark.parametrize("kind", AGGREGATE_KINDS)
def test_hybrid_tolerance_zero_is_exact(fitted, kind):
    """tolerance=0 must drive every boundary subfield to the exact path
    and reproduce the exact value bit for bit."""
    for name, (field, index) in fitted.items():
        for lo, hi in workload(field, n=12):
            exact = index.aggregate(kind, lo, hi, mode="exact")
            got = index.aggregate(kind, lo, hi, tolerance=0.0,
                                  mode="hybrid")
            assert got.value == exact.value, name
            assert got.bound == 0.0
            assert got.model_subfields == 0
            # The standalone global-sum path agrees to rounding.
            ref = exact_aggregate(index, kind, lo, hi)
            assert got.value == pytest.approx(ref.value, rel=1e-12,
                                              abs=1e-9), name


def test_hybrid_respects_tolerance(index, field):
    for tolerance in (50.0, 5.0, 0.5):
        for lo, hi in workload(field, n=10, seed=9):
            got = index.aggregate("count", lo, hi,
                                  tolerance=tolerance, mode="hybrid")
            assert got.bound <= tolerance
            exact = exact_aggregate(index, "count", lo, hi)
            assert abs(got.value - exact.value) <= got.bound


def test_exact_count_matches_query_path(index, field):
    for lo, hi in workload(field, n=8, seed=2):
        result = index.query(ValueQuery(lo, hi))
        index.clear_caches()
        got = index.aggregate("count", lo, hi, mode="exact")
        assert got.value == float(result.candidate_count)
        assert got.bound == 0.0


def test_avg_consistent_with_count_and_sum(index, field):
    lo, hi = workload(field, n=1, seed=6)[0]
    count = index.aggregate("count", lo, hi, mode="exact")
    total = index.aggregate("sum", lo, hi, mode="exact")
    avg = index.aggregate("avg", lo, hi, mode="exact")
    assert avg.value == pytest.approx(total.value / count.value)


def test_empty_range_aggregates_to_zero(index, field):
    records = field.cell_records()
    above = float(records["vmax"].max()) + 5.0
    for kind in AGGREGATE_KINDS:
        got = index.aggregate(kind, above, above + 1.0, mode="model")
        assert got.value == 0.0
        assert got.bound == 0.0 or kind == "avg"


# ------------------------------------------------ degenerate geometry

def test_constant_field_flat_atoms():
    """Every triangle is flat at 5.0: the point band [5, 5] must count
    and cover everything, and [5.1, 6] nothing."""
    f = DEMField(np.full((5, 5), 5.0))
    idx = IHilbertIndex(f)
    idx.fit_aggregate_models()
    n_cells = len(f.cell_records())
    for mode in ("model", "hybrid", "exact"):
        got = idx.aggregate("count", 5.0, 5.0, mode=mode)
        assert got.value == pytest.approx(float(n_cells), abs=got.bound)
        area = idx.aggregate("area", 5.0, 5.0, mode=mode)
        assert area.value == pytest.approx(float(n_cells),
                                           abs=area.bound)
    assert idx.aggregate("count", 5.1, 6.0, mode="exact").value == 0.0


# -------------------------------------------------- update lifecycle

def test_models_survive_updates_and_compaction():
    for name, make_field in FIELDS.items():
        # Private field: apply_updates mutates the field's vertex
        # values, which would poison the module-scoped fixtures.
        field = make_field()
        idx = IHilbertIndex(field)
        idx.fit_aggregate_models()
        rng = np.random.default_rng(0)
        n_vertices = field.num_vertices
        lo, hi = workload(field, n=1, seed=13)[0]
        for _ in range(3):
            ids = rng.choice(n_vertices, size=12, replace=False)
            vr = field.value_range
            values = rng.uniform(vr.lo, vr.hi, size=12)
            idx.apply_updates(ids, values)
            for kind in ("count", "sum", "area"):
                exact = exact_aggregate(idx, kind, lo, hi)
                got = idx.aggregate(kind, lo, hi, mode="model")
                assert abs(got.value - exact.value) <= got.bound, name
        idx.compact()
        for kind in ("count", "sum", "area"):
            exact = exact_aggregate(idx, kind, lo, hi)
            got = idx.aggregate(kind, lo, hi, mode="model")
            assert abs(got.value - exact.value) <= got.bound, name


def assert_models_equal(got, want):
    for name in ("coeffs", "bounds", "totals", "dom"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


@pytest.mark.parametrize("kind_of_field", sorted(FIELDS))
def test_compaction_models_equal_a_fresh_fit(kind_of_field):
    """Compaction refits only the subfields it re-clustered, yet its
    model set is a fresh full fit bit for bit."""
    field = FIELDS[kind_of_field]()
    idx = IHilbertIndex(field)
    idx.fit_aggregate_models()
    rng = np.random.default_rng(3)
    vr = field.value_range
    reclustered = 0
    for _ in range(4):
        for _ in range(5):
            ids = rng.choice(field.num_vertices, size=8, replace=False)
            idx.apply_updates(ids, rng.uniform(vr.lo, vr.hi, size=8))
        summary = idx.compact()
        reclustered += summary["stale_runs"]
        models = idx.aggregate_models
        assert models.num_subfields == idx.num_subfields
        assert_models_equal(models, fit_aggregate_models(
            idx, degree=models.degree))
    assert reclustered > 0


def test_compaction_refits_out_of_step_models_in_full():
    """A model set whose subfield count differs from the index's has no
    rows to carry over: compaction fits it afresh."""
    field = FIELDS["dem"]()
    idx = IHilbertIndex(field)
    models = idx.fit_aggregate_models()
    rng = np.random.default_rng(5)
    vr = field.value_range
    ids = rng.choice(field.num_vertices, size=24, replace=False)
    idx.apply_updates(ids, rng.uniform(vr.lo, vr.hi, size=24))
    idx.aggregate_models = models.regroup(
        np.arange(models.num_subfields - 1))
    assert idx.compact()["stale_runs"] > 0
    assert idx.aggregate_models.num_subfields == idx.num_subfields
    assert_models_equal(idx.aggregate_models, fit_aggregate_models(
        idx, degree=models.degree))


def test_lazy_fit_on_first_aggregate(field):
    idx = IHilbertIndex(field)
    assert idx.aggregate_models is None
    got = idx.aggregate("count", *workload(field, n=1)[0])
    assert idx.aggregate_models is not None
    assert got.bound >= 0.0


# ------------------------------------------------------- persistence

def test_persistence_roundtrip_preserves_models(index, field, tmp_path):
    save_index(index, tmp_path)
    back = load_index(tmp_path)
    assert back.aggregate_models is not None
    assert back.aggregate_models.degree == index.aggregate_models.degree
    for lo, hi in workload(field, n=6, seed=21):
        for kind in AGGREGATE_KINDS:
            a = index.aggregate(kind, lo, hi, mode="model")
            b = back.aggregate(kind, lo, hi, mode="model")
            assert a.value == b.value
            assert a.bound == b.bound


def test_persistence_gc_keeps_one_model_file(index, tmp_path):
    save_index(index, tmp_path)
    save_index(index, tmp_path)
    npz = sorted(tmp_path.glob("agg-*.npz"))
    assert len(npz) == 1


def test_persistence_without_models(field, tmp_path):
    idx = IHilbertIndex(field)
    save_index(idx, tmp_path)
    back = load_index(tmp_path)
    assert back.aggregate_models is None
    # Lazy fit still works on the reloaded index.
    got = back.aggregate("count", *workload(field, n=1)[0])
    assert got.bound >= 0.0


# ------------------------------------------------- facade and errors

def test_facade_aggregate(field):
    facade = EngineFacade()
    facade.open_field("terrain", IHilbertIndex(field))
    lo, hi = workload(field, n=1, seed=17)[0]
    result = facade.aggregate("terrain", "sum", lo, hi, tolerance=10.0)
    assert result.kind == "sum"
    assert result.bound <= 10.0


def test_linear_scan_supports_only_exact(field):
    idx = LinearScanIndex(field)
    lo, hi = workload(field, n=1)[0]
    got = idx.aggregate("count", lo, hi, mode="exact")
    assert got.bound == 0.0
    with pytest.raises(ValueError, match="aggregate models"):
        idx.aggregate("count", lo, hi, mode="model")


def test_validation_errors(index):
    with pytest.raises(ValueError):
        index.aggregate("median", 0.0, 1.0)
    with pytest.raises(ValueError):
        index.aggregate("count", 2.0, 1.0)
    for tolerance in (-1.0, float("nan")):
        with pytest.raises(ValueError, match="tolerance"):
            index.aggregate("count", 0.0, 1.0, tolerance=tolerance)
    with pytest.raises(ValueError):
        index.aggregate("count", 0.0, 1.0, mode="psychic")


def test_result_to_dict_serializes_infinite_bound():
    result = AggregateResult(
        kind="avg", lo=0.0, hi=1.0, value=0.0, bound=float("inf"),
        mode="model", tolerance=None, covered_subfields=0,
        model_subfields=1, exact_subfields=0, page_reads=0)
    payload = result.to_dict()
    assert payload["bound"] is None
    assert payload["value"] == 0.0


# ------------------------------------------------------------ shards

@pytest.mark.parametrize("n_shards", [2, 3])
def test_sharded_matches_unsharded(field, index, n_shards):
    engine = ShardedEngine(field, n_shards=n_shards, method="I-Hilbert")
    for lo, hi in workload(field, n=8, seed=29):
        for kind in AGGREGATE_KINDS:
            exact = exact_aggregate(index, kind, lo, hi)
            got = engine.aggregate(kind, lo, hi, mode="exact")
            assert got.value == pytest.approx(exact.value,
                                              rel=1e-12, abs=1e-9)
            hybrid = engine.aggregate(kind, lo, hi,
                                      tolerance=5.0, mode="hybrid")
            if np.isfinite(hybrid.bound):
                assert abs(hybrid.value - exact.value) <= \
                    hybrid.bound + 1e-9
            if kind != "avg":
                assert hybrid.bound <= 5.0
