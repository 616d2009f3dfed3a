"""The brute-force oracle agrees with the engine, and its checks reject
wrong answers."""

import math

import numpy as np
import pytest

from fieldbench.oracle import Oracle, aggregate_ok, query_ok
from repro.core import IHilbertIndex, ValueQuery
from repro.field.dem import DEMField
from repro.synth import roseburg_like

INTERVALS = [(300.0, 300.0), (250.0, 260.0), (100.0, 600.0), (1.0, 2.0)]


@pytest.fixture(scope="module")
def heights():
    return roseburg_like(cells_per_side=32).heights.copy()


def test_oracle_matches_ihilbert_bit_for_bit(heights):
    index = IHilbertIndex(DEMField(heights.copy()))
    oracle = Oracle(DEMField(heights.copy()))
    for lo, hi in INTERVALS:
        r = index.query(ValueQuery(lo, hi))
        assert query_ok((r.candidate_count, r.area), oracle.query(lo, hi))


def test_oracle_follows_updates(heights):
    index = IHilbertIndex(DEMField(heights.copy()))
    oracle = Oracle(DEMField(heights.copy()))
    vids, vals = [5, 77, 400], np.float32([150.0, 420.5, 599.0])
    assert oracle.update(vids, vals) == len(index.apply_updates(vids, vals))
    for lo, hi in INTERVALS:
        r = index.query(ValueQuery(lo, hi))
        assert query_ok((r.candidate_count, r.area), oracle.query(lo, hi))


def test_oracle_aggregates_bracket_the_models(heights):
    index = IHilbertIndex(DEMField(heights.copy()))
    oracle = Oracle(DEMField(heights.copy()))
    for kind in ("count", "sum", "area"):
        total = index.aggregate(kind, 100.0, 600.0, mode="model").value
        r = index.aggregate(kind, 250.0, 330.0, tolerance=0.01 * total,
                            mode="hybrid")
        assert aggregate_ok(r.value, r.bound, oracle.aggregate(
            kind, 250.0, 330.0), 0.01 * total)


def test_query_check_rejects_one_ulp_and_one_candidate():
    right = (120, 37.25)
    assert query_ok(right, right)
    assert not query_ok((120, float(np.nextafter(37.25, math.inf))), right)
    assert not query_ok((121, 37.25), right)


def test_aggregate_check_rejects_out_of_bound_and_loose_bounds():
    assert aggregate_ok(100.5, 1.0, 100.0, tolerance=2.0)
    assert not aggregate_ok(102.0, 1.0, 100.0, tolerance=2.0)
    assert not aggregate_ok(100.0, 3.0, 100.0, tolerance=2.0)
    assert not aggregate_ok(100.0, None, 100.0, tolerance=2.0)
    assert not aggregate_ok(100.0, math.inf, 100.0, tolerance=math.inf)
