"""Unit and property tests for the polygon kernel (estimation substrate)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.geometry import (
    clip_halfplane,
    clip_to_value_band,
    polygon_area,
)

UNIT_SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
TRIANGLE = [(0.0, 0.0), (2.0, 0.0), (0.0, 2.0)]


def test_area_known_shapes():
    assert polygon_area(UNIT_SQUARE) == 1.0
    assert polygon_area(TRIANGLE) == 2.0


def test_area_orientation_independent():
    assert polygon_area(list(reversed(UNIT_SQUARE))) == 1.0


def test_area_degenerate():
    assert polygon_area([]) == 0.0
    assert polygon_area([(0.0, 0.0)]) == 0.0
    assert polygon_area([(0.0, 0.0), (1.0, 1.0)]) == 0.0


def test_clip_halfplane_keeps_half_square():
    # Keep x <= 0.5, i.e. inside(p) = 0.5 - x >= 0.
    clipped = clip_halfplane(UNIT_SQUARE, lambda p: 0.5 - p[0])
    assert polygon_area(clipped) == pytest.approx(0.5)


def test_clip_halfplane_all_inside():
    clipped = clip_halfplane(UNIT_SQUARE, lambda p: 10.0)
    assert polygon_area(clipped) == pytest.approx(1.0)


def test_clip_halfplane_all_outside():
    assert clip_halfplane(UNIT_SQUARE, lambda p: -1.0) == []


def test_clip_halfplane_empty_input():
    assert clip_halfplane([], lambda p: 1.0) == []


def test_clip_to_value_band_on_linear_field():
    # value(x, y) = x over the unit square; band [0.25, 0.75] keeps the
    # middle vertical strip.
    clipped = clip_to_value_band(UNIT_SQUARE, lambda p: p[0], 0.25, 0.75)
    assert polygon_area(clipped) == pytest.approx(0.5)


def test_clip_to_value_band_degenerate_band():
    # Zero-width band slices a line: zero area.
    clipped = clip_to_value_band(UNIT_SQUARE, lambda p: p[0], 0.5, 0.5)
    assert polygon_area(clipped) == pytest.approx(0.0)


def test_clip_to_value_band_disjoint_band():
    assert clip_to_value_band(UNIT_SQUARE, lambda p: p[0], 2.0, 3.0) == []


@given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_property_band_partition_covers_square(a, b):
    """Band + its complement halves partition the unit square's area."""
    lo, hi = min(a, b), max(a, b)
    value = lambda p: p[0]     # noqa: E731 - tiny test helper
    below = clip_halfplane(UNIT_SQUARE, lambda p: lo - value(p))
    band = clip_to_value_band(UNIT_SQUARE, value, lo, hi)
    above = clip_halfplane(UNIT_SQUARE, lambda p: value(p) - hi)
    total = polygon_area(below) + polygon_area(band) + polygon_area(above)
    assert total == pytest.approx(1.0, abs=1e-9)


@given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
def test_property_clip_never_grows_area(a, b, c):
    inside = lambda p: a * p[0] + b * p[1] + c   # noqa: E731
    clipped = clip_halfplane(TRIANGLE, inside)
    assert polygon_area(clipped) <= polygon_area(TRIANGLE) + 1e-9
