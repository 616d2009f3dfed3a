"""One filter path, checked against a brute-force oracle.

Every access method answers a value query by fetching candidate pages
and applying the float64 interval filter.  Two properties pin that path
across the full matrix of {DEM, TIN} fields × {LinearScan, I-All,
I-Hilbert, I-Hilbert+planner} × {list, remote} disk backends:

* candidates (records and order) and answer areas equal the brute-force
  oracle of :mod:`tests.oracle` bit for bit;
* an attached fault injector leaves the batched page-run fetch
  untouched: an index matches a copy of itself with an empty
  :class:`~repro.storage.faults.FaultInjector` attached (its hook runs
  on every read of the same batched path) in candidate counts, areas,
  per-query ``IOStats`` and pool counters, cold and with a warm cache.
  ``tests/test_page_reads.py`` pins the batched reads themselves
  against a page-at-a-time loop under every fault regime.

Plus hypothesis properties of the two kernels every query runs: the
shared frame→records codec every fetch decodes through, and the §3.2
area estimator, which must equal the band kernel run on every cell bit
for bit; and of the curve sweep the aggregate models are fitted on,
which must agree with one ``estimate_area`` call per threshold.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    IAllIndex,
    IHilbertIndex,
    LinearScanIndex,
    PlannedIndex,
    ValueQuery,
)
from repro.field import (
    DEM_RECORD_DTYPE,
    TIN_RECORD_DTYPE,
    DEMField,
    TINField,
)
from repro.storage import DiskManager, FaultInjector
from repro.storage.codec import decode_pages, decode_records
from repro.synth import fractal_dem_heights, lyon_like

from .backends import BACKENDS, disk_backend
from .oracle import oracle_answer, reference_area

METHODS = {
    "LinearScan": LinearScanIndex,
    "I-All": IAllIndex,
    "I-Hilbert": IHilbertIndex,
    "I-Hilbert+planner": PlannedIndex,
}

FIELDS = {
    "dem": lambda: DEMField(fractal_dem_heights(24, 0.6, seed=11)),
    "tin": lambda: lyon_like(num_sites=220, seed=7),
}


def queries_for(field) -> list[ValueQuery]:
    """Interval, exact and one-sided queries over the value range."""
    rng = np.random.default_rng(42)
    vr = field.value_range
    span = vr.hi - vr.lo
    queries = [
        ValueQuery(vr.lo, vr.hi),                    # everything
        ValueQuery.exact(float(field.cell_records()["vmin"][0])),
        ValueQuery.at_least(vr.lo + 0.5 * span, vr.hi),
    ]
    for _ in range(12):
        lo = vr.lo + rng.random() * span
        queries.append(ValueQuery(lo, min(vr.hi, lo + rng.random()
                                          * 0.2 * span)))
    return queries


def index_pair(method, field, backend="list", **kwargs):
    """An index and a copy of itself with an empty fault injector
    attached, each on page files of its own from ``backend``."""
    index, perpage = (
        METHODS[method](field, disk_backend=disk_backend(backend), **kwargs)
        for _ in range(2))
    perpage.inject_faults(FaultInjector())
    return index, perpage


def observe(index, query):
    """Candidate count, area, per-query I/O and pool traffic."""
    pools = index.pools()
    before = [p.counters() for p in pools]
    result = index.query(query)
    traffic = [p.counters().diff(b) for p, b in zip(pools, before)]
    return result.candidate_count, result.area, result.io, traffic


@pytest.fixture(scope="module", params=sorted(FIELDS))
def field(request):
    return FIELDS[request.param]()


@pytest.mark.parametrize("method", sorted(METHODS))
@pytest.mark.parametrize("backend", BACKENDS)
def test_matches_oracle(field, method, backend):
    """Candidates and areas equal the brute-force oracle bit for bit,
    with and without an attached injector."""
    for index in index_pair(method, field, backend):
        for query in queries_for(field):
            want, want_area = oracle_answer(index, query)
            got = index._candidates(query.lo, query.hi)
            assert got.dtype == want.dtype, query
            assert got.tobytes() == want.tobytes(), query
            index.clear_caches()
            result = index.query(query)
            assert result.candidate_count == len(want), query
            assert result.area == want_area, query


@pytest.mark.parametrize("method", sorted(METHODS))
@pytest.mark.parametrize("backend", BACKENDS)
def test_vectorized_equals_scalar(field, method, backend):
    """Cold: an attached empty injector changes nothing."""
    vec, scl = index_pair(method, field, backend)
    for query in queries_for(field):
        for index in (vec, scl):
            index.clear_caches()
            index.stats.reset()
        assert observe(vec, query) == observe(scl, query), query
        assert vec.stats == scl.stats, query


@pytest.mark.parametrize("method", sorted(METHODS))
def test_vectorized_equals_scalar_warm_cache(field, method):
    """The batched pool fetch keeps hit/miss accounting identical."""
    vec, scl = index_pair(method, field, cache_pages=64)
    for query in queries_for(field)[:8]:
        # Caches deliberately NOT cleared between queries.
        assert observe(vec, query) == observe(scl, query), query
    assert vec.stats == scl.stats
    assert ([p.counters() for p in vec.pools()]
            == [p.counters() for p in scl.pools()])


# -- codec round-trips -------------------------------------------------------

RECORD_DTYPE = np.dtype([("vmin", "<f4"), ("vmax", "<f4"),
                         ("cell", "<i8")])


@st.composite
def record_arrays(draw, max_len=64):
    n = draw(st.integers(min_value=0, max_value=max_len))
    arr = np.zeros(n, dtype=RECORD_DTYPE)
    floats = st.floats(allow_nan=False, width=32)
    arr["vmin"] = draw(st.lists(floats, min_size=n, max_size=n))
    arr["vmax"] = draw(st.lists(floats, min_size=n, max_size=n))
    arr["cell"] = draw(st.lists(
        st.integers(min_value=-2**62, max_value=2**62),
        min_size=n, max_size=n))
    return arr


@given(arr=record_arrays())
@settings(max_examples=100, deadline=None)
def test_codec_roundtrip_single_frame(arr):
    """decode_records(tobytes) is the identity (bit-for-bit)."""
    out = decode_records(arr.tobytes(), RECORD_DTYPE, len(arr))
    assert out.dtype == RECORD_DTYPE
    assert out.tobytes() == arr.tobytes()


USABLE_PAGE_SIZE = DiskManager().usable_page_size


@st.composite
def page_runs(draw):
    """``(dtype, payloads, counts)`` of a page run as page files return
    it: every payload padded to ``usable_page_size``, every page full
    but a partial tail, record bytes arbitrary."""
    dtype = draw(st.sampled_from(
        [RECORD_DTYPE, DEM_RECORD_DTYPE, TIN_RECORD_DTYPE]))
    per_page = USABLE_PAGE_SIZE // dtype.itemsize
    pages = draw(st.integers(min_value=0, max_value=6))
    tail = draw(st.integers(min_value=1, max_value=per_page))
    counts = [per_page] * pages
    if pages:
        counts[-1] = tail
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    payloads = [rng.bytes(n * dtype.itemsize).ljust(USABLE_PAGE_SIZE,
                                                    b"\0")
                for n in counts]
    return dtype, payloads, counts


@given(run=page_runs())
@settings(max_examples=100, deadline=None)
def test_codec_roundtrip_multi_frame(run):
    """decode_pages over padded frames equals the per-page decode_records
    concatenation byte for byte, and is an array of its own."""
    dtype, payloads, counts = run
    out = decode_pages(payloads, dtype, counts)
    want = b"".join(decode_records(p, dtype, n).tobytes()
                    for p, n in zip(payloads, counts))
    assert out.dtype == dtype
    assert len(out) == sum(counts)
    assert out.tobytes() == want
    assert out.flags.writeable


def test_codec_offset_and_inferred_count():
    arr = np.arange(6, dtype=np.int64)
    raw = b"\x00" * 8 + arr.tobytes()
    out = decode_records(raw, np.int64, offset=8)
    assert out.tolist() == arr.tolist()


def test_codec_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        decode_pages([b""], np.int64, [0, 0])
    with pytest.raises(ValueError):
        decode_pages([bytes(16), bytes(8)], np.int64, [2, 2])


# -- §3.2 estimator against the band kernel on every cell ---------------------


@st.composite
def band_cases(draw, field_type):
    """``(records, lo, hi)`` where ties are common: samples come from a
    pool of at most four float32 values (one value makes a constant
    field, flat cells are frequent), and each bound is either one of
    them or a float64 that float32 may not hold."""
    pool = draw(st.lists(st.floats(-1e3, 1e3, width=32), min_size=1,
                         max_size=4))
    n = draw(st.integers(min_value=0, max_value=40))
    k = 4 if field_type is DEMField else 3
    samples = np.asarray(draw(st.lists(st.sampled_from(pool),
                                       min_size=n * k, max_size=n * k)),
                         dtype=np.float32).reshape(n, k)
    bound = st.one_of(st.sampled_from(pool), st.floats(-1.1e3, 1.1e3))
    lo = draw(bound)
    hi = draw(st.one_of(st.just(lo), bound))
    lo, hi = min(lo, hi), max(lo, hi)
    return make_records(field_type, samples), lo, hi


def make_records(field_type, samples: np.ndarray) -> np.ndarray:
    """Records of ``field_type`` with these ``(n, 4)`` DEM corners or
    ``(n, 3)`` TIN vertex values; TIN triangles get seeded positions."""
    n = len(samples)
    records = np.zeros(n, dtype=field_type.record_dtype)
    records["vmin"] = samples.min(axis=1)
    records["vmax"] = samples.max(axis=1)
    if field_type is DEMField:
        records["corners"] = samples
        records["i"] = np.arange(n) % 7
        records["j"] = np.arange(n) // 7
    else:
        rng = np.random.default_rng(n)
        records["vs"] = samples
        records["xs"] = rng.random((n, 3)) * 10.0
        records["ys"] = rng.random((n, 3)) * 10.0
    return records


@pytest.mark.parametrize("field_type", [DEMField, TINField])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_estimate_area_equals_reference_kernel(field_type, data):
    """Interior cells skip the kernel; the area stays bit-identical to
    the kernel over every cell, ties at the bounds included."""
    records, lo, hi = data.draw(band_cases(field_type))
    got = field_type.estimate_area(records, lo, hi)
    want = reference_area(field_type, records, lo, hi)
    assert got == want


# -- the aggregate models' curve sweep against the per-threshold loop --------


@st.composite
def curve_cases(draw, field_type):
    """``(records, thresholds)``: samples from a pool of at most four
    float32 values, float32 subnormals among them, plus some of their
    one-ulp neighbours (near-flat triangles); thresholds are the
    endpoint grid the models are fitted on, plus pool values and
    arbitrary float64s, unsorted and with repeats."""
    value = st.one_of(st.floats(-1e3, 1e3, width=32),
                      st.sampled_from([0.0, 1e-45, -1e-45, 3e-45]))
    pool = np.asarray(draw(st.lists(value, min_size=1, max_size=4)),
                      dtype=np.float32)
    ulp_up = np.nextafter(pool, np.float32(np.inf))
    pool = np.concatenate([pool, ulp_up[:draw(st.integers(0, len(pool)))]])
    n = draw(st.integers(min_value=0, max_value=40))
    k = 4 if field_type is DEMField else 3
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n * k,
                          max_size=n * k))
    records = make_records(field_type, pool[picks].reshape(n, k))
    grid = np.unique(np.concatenate([records["vmin"], records["vmax"]])
                     .astype(np.float64))
    extra = draw(st.lists(st.one_of(st.sampled_from(pool.tolist()),
                                    st.floats(-1.1e3, 1.1e3)),
                          max_size=4))
    thresholds = np.concatenate([grid, np.asarray(extra, dtype=np.float64)])
    order = draw(st.permutations(range(len(thresholds))))
    return records, thresholds[list(order)]


def assert_curves_match_loop(field_type, records, thresholds):
    """The sweep agrees with the per-threshold ``estimate_area`` loop
    within 1e-12 of the total, and the total is the loop's bit for
    bit."""
    le, lt, total = field_type.band_area_curves(records, thresholds)
    want_le, want_lt, want_total = super(
        field_type, field_type).band_area_curves(records, thresholds)
    assert total == want_total
    tol = 1e-12 * max(1.0, total)
    np.testing.assert_allclose(le, want_le, rtol=0, atol=tol)
    np.testing.assert_allclose(lt, want_lt, rtol=0, atol=tol)


@pytest.mark.parametrize("field_type", [DEMField, TINField])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_band_curves_match_per_threshold_loop(field_type, data):
    assert_curves_match_loop(field_type,
                             *data.draw(curve_cases(field_type)))


@pytest.mark.parametrize("field_type, samples, thresholds", [
    # b == c with a threshold at c: the piece [a, b] must stop short of
    # c, or "fully below" counts the triangle twice there.
    pytest.param(TINField, [[0.0, 1.0, 1.0]], [0.0, 0.5, 1.0, 2.0],
                 id="tin-b-equals-c"),
    pytest.param(DEMField, [[0.0, 1.0, 1.0, 1.0]], [0.0, 0.5, 1.0],
                 id="dem-b-equals-c"),
    # A 1e-45 spread next to a -1 corner: shifting the samples by the
    # lowest threshold would round the upper triangle flat.
    pytest.param(DEMField, [[0.0, -1.0, 0.0, 1e-45]], [-1.0, 0.0, 1e-45],
                 id="dem-subnormal-spread"),
])
def test_band_curves_pinned_traps(field_type, samples, thresholds):
    assert_curves_match_loop(
        field_type, make_records(field_type,
                                 np.asarray(samples, dtype=np.float32)),
        np.asarray(thresholds))
