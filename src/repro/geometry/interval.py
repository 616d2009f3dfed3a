"""1-D value intervals — the unit the paper indexes.

An :class:`Interval` is the one-dimensional MBR of all values (explicit and
interpolated) inside a cell or subfield.  The paper's *interval size*
convention (§3.1.2) is ``max − min + 1`` so that a constant cell still has
size 1; the additive unit is configurable because the experiments normalize
value space to ``[0, 1]`` where a unit of 1 would swamp the geometry.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Interval:
    """Closed interval ``[lo, hi]`` on the value domain."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError(f"empty interval: lo={self.lo} > hi={self.hi}")

    @property
    def length(self) -> float:
        """Geometric extent ``hi − lo``."""
        return self.hi - self.lo

    def size(self, unit: float = 1.0) -> float:
        """Paper's interval size ``max − min + unit`` (§3.1.2)."""
        return self.hi - self.lo + unit

    def contains(self, value: float) -> bool:
        """True when ``lo <= value <= hi``."""
        return self.lo <= value <= self.hi

    def intersects(self, other: "Interval") -> bool:
        """True when the closed intervals share at least one point."""
        return self.lo <= other.hi and other.lo <= self.hi

    def as_tuple(self) -> tuple[float, float]:
        """``(lo, hi)`` pair, for serialization."""
        return (self.lo, self.hi)
