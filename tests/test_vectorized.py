"""One filter path, checked against a brute-force oracle.

Every access method answers a value query by fetching candidate pages
and applying the float64 interval filter.  Two properties pin that path
across the full matrix of {DEM, TIN} fields × {LinearScan, I-All,
I-Hilbert, I-Hilbert+planner} × {list, mmap} disk backends:

* candidates (records and order) and answer areas equal the brute-force
  oracle of :mod:`tests.oracle` bit for bit;
* the batched (vectorized) page-run fetch is observationally identical
  to the page-at-a-time (scalar) fetch that fault injection and
  ``on_fault="skip"`` need: an index matches a copy of itself with an
  empty :class:`~repro.storage.faults.FaultInjector` attached in
  candidate counts, areas, per-query ``IOStats`` and pool counters,
  cold and with a warm cache.

Plus hypothesis round-trips of the shared frame→records codec every
fetch decodes through.
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
from repro.field import DEMField
from repro.storage import FaultInjector
from repro.storage.codec import decode_pages, decode_records
from repro.synth import fractal_dem_heights, lyon_like

from .oracle import oracle_answer

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


def index_pair(method, field, **kwargs):
    """An index and a copy of itself forced onto the per-page fetch."""
    index = METHODS[method](field, **kwargs)
    perpage = METHODS[method](field, **kwargs)
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
@pytest.mark.parametrize("backend", ["list", "mmap"])
def test_matches_oracle(field, method, backend):
    """Candidates and areas equal the brute-force oracle bit for bit,
    on the batched and on the per-page fetch."""
    for index in index_pair(method, field, disk_backend=backend):
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
@pytest.mark.parametrize("backend", ["list", "mmap"])
def test_vectorized_equals_scalar(field, method, backend):
    """Cold: the batched fetch matches the per-page fetch exactly."""
    vec, scl = index_pair(method, field, disk_backend=backend)
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


@pytest.mark.parametrize("method", sorted(METHODS))
def test_attached_injector_forces_the_per_page_fetch(method):
    """The per-page copy above really never fetches a batch."""
    field = FIELDS["dem"]()
    _, perpage = index_pair(method, field)

    def batched(*args):
        raise AssertionError("batched fetch under an attached injector")

    perpage.store.read_pages = batched
    perpage.store.read_page_set = batched
    for query in queries_for(field):
        perpage.query(query)


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


@given(arrs=st.lists(record_arrays(max_len=16), min_size=0, max_size=8))
@settings(max_examples=100, deadline=None)
def test_codec_roundtrip_multi_frame(arrs):
    """decode_pages over per-page frames equals the concatenation."""
    payloads = [a.tobytes() for a in arrs]
    counts = [len(a) for a in arrs]
    out = decode_pages(payloads, RECORD_DTYPE, counts)
    want = (np.concatenate(arrs) if arrs
            else np.empty(0, dtype=RECORD_DTYPE))
    assert out.tobytes() == want.tobytes()
    assert len(out) == sum(counts)


def test_codec_offset_and_inferred_count():
    arr = np.arange(6, dtype=np.int64)
    raw = b"\x00" * 8 + arr.tobytes()
    out = decode_records(raw, np.int64, offset=8)
    assert out.tolist() == arr.tolist()


def test_codec_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        decode_pages([b""], np.int64, [0, 0])
