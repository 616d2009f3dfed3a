"""Unit and property tests for the n-D Rect primitive."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry import Rect

coord = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def rects(draw, dim=2):
    lows, highs = [], []
    for _ in range(dim):
        a = draw(coord)
        b = draw(coord)
        lows.append(min(a, b))
        highs.append(max(a, b))
    return Rect(tuple(lows), tuple(highs))


def test_construction_and_dim():
    r = Rect((0.0, 1.0), (2.0, 3.0))
    assert r.dim == 2
    assert r.lows == (0.0, 1.0)
    assert r.highs == (2.0, 3.0)


def test_mismatched_dims_rejected():
    with pytest.raises(ValueError):
        Rect((0.0,), (1.0, 2.0))


def test_inverted_box_rejected():
    with pytest.raises(ValueError):
        Rect((1.0,), (0.0,))


def test_from_interval_and_point():
    assert Rect.from_interval(1.0, 2.0) == Rect((1.0,), (2.0,))
    assert Rect.from_point((3.0, 4.0)) == Rect((3.0, 4.0), (3.0, 4.0))


def test_area_margin_center():
    r = Rect((0.0, 0.0), (2.0, 3.0))
    assert r.area() == 6.0
    assert r.margin() == 5.0
    assert r.center() == (1.0, 1.5)


def test_1d_area_is_length():
    assert Rect.from_interval(2.0, 7.0).area() == 5.0


def test_union():
    a = Rect((0.0, 0.0), (1.0, 1.0))
    b = Rect((2.0, -1.0), (3.0, 0.5))
    assert a.union(b) == Rect((0.0, -1.0), (3.0, 1.0))


def test_intersects_closed_boundaries():
    a = Rect((0.0, 0.0), (1.0, 1.0))
    assert a.intersects(Rect((1.0, 1.0), (2.0, 2.0)))   # corner touch
    assert not a.intersects(Rect((1.01, 0.0), (2.0, 1.0)))


def test_contains():
    outer = Rect((0.0, 0.0), (10.0, 10.0))
    inner = Rect((1.0, 1.0), (2.0, 2.0))
    assert outer.contains(inner)
    assert not inner.contains(outer)


def test_intersection_area():
    a = Rect((0.0, 0.0), (2.0, 2.0))
    b = Rect((1.0, 1.0), (3.0, 3.0))
    assert a.intersection_area(b) == 1.0
    assert a.intersection_area(Rect((5.0, 5.0), (6.0, 6.0))) == 0.0
    # Touching boxes overlap with zero area.
    assert a.intersection_area(Rect((2.0, 0.0), (3.0, 2.0))) == 0.0


def test_enlargement():
    a = Rect((0.0, 0.0), (1.0, 1.0))
    b = Rect((2.0, 0.0), (3.0, 1.0))
    assert a.enlargement(b) == 3.0 - 1.0
    assert a.enlargement(a) == 0.0


@given(rects(), rects())
def test_property_union_contains_operands(a, b):
    u = a.union(b)
    assert u.contains(a)
    assert u.contains(b)
    assert u.area() >= max(a.area(), b.area())


@given(rects(), rects())
def test_property_intersects_symmetric(a, b):
    assert a.intersects(b) == b.intersects(a)
    assert a.intersection_area(b) == pytest.approx(b.intersection_area(a))


@given(rects(), rects())
def test_property_positive_overlap_implies_intersects(a, b):
    if a.intersection_area(b) > 0:
        assert a.intersects(b)


@given(rects(dim=3), rects(dim=3))
def test_property_enlargement_non_negative_3d(a, b):
    assert a.enlargement(b) >= -1e-9
