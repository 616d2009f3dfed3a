"""Unit tests for the Interval primitive."""

import pytest

from repro.geometry import Interval


def test_construction_and_accessors():
    i = Interval(2.0, 5.0)
    assert i.lo == 2.0 and i.hi == 5.0
    assert i.length == 3.0
    assert i.as_tuple() == (2.0, 5.0)


def test_inverted_interval_rejected():
    with pytest.raises(ValueError):
        Interval(5.0, 2.0)


def test_size_uses_paper_convention():
    # Paper §3.1.2: interval size = max - min + 1; a constant cell has
    # size 1.
    assert Interval(20.0, 30.0).size() == 11.0
    assert Interval(5.0, 5.0).size() == 1.0
    assert Interval(5.0, 5.0).size(unit=0.5) == 0.5


def test_contains_closed_bounds():
    i = Interval(1.0, 2.0)
    assert i.contains(1.0)
    assert i.contains(2.0)
    assert i.contains(1.5)
    assert not i.contains(0.999)
    assert not i.contains(2.001)


def test_intersects_touching_counts():
    assert Interval(0.0, 1.0).intersects(Interval(1.0, 2.0))
    assert not Interval(0.0, 1.0).intersects(Interval(1.1, 2.0))
