"""n-dimensional axis-aligned rectangles (MBRs) for the R*-tree.

The R*-tree stores these for any dimensionality: 1-D boxes are value
intervals (the paper's use), 2-D boxes bound cells for conventional point
queries.  Coordinates are plain tuples — the tree manipulates millions of
small boxes and tuple arithmetic is the fastest pure-Python option.
"""

from __future__ import annotations

from dataclasses import dataclass
import math


@dataclass(frozen=True, slots=True)
class Rect:
    """Axis-aligned box given by per-dimension lows and highs."""

    lows: tuple[float, ...]
    highs: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.lows) != len(self.highs):
            raise ValueError(
                f"dimension mismatch: {len(self.lows)} lows vs "
                f"{len(self.highs)} highs")
        for lo, hi in zip(self.lows, self.highs):
            if lo > hi:
                raise ValueError(f"empty box: low {lo} > high {hi}")

    @classmethod
    def from_interval(cls, lo: float, hi: float) -> "Rect":
        """1-D box covering ``[lo, hi]``."""
        return cls((lo,), (hi,))

    @classmethod
    def from_point(cls, coords: tuple[float, ...]) -> "Rect":
        """Degenerate box at a single point."""
        coords = tuple(coords)
        return cls(coords, coords)

    @property
    def dim(self) -> int:
        """Number of dimensions."""
        return len(self.lows)

    def area(self) -> float:
        """Hyper-volume (product of extents)."""
        return math.prod(hi - lo for lo, hi in zip(self.lows, self.highs))

    def margin(self) -> float:
        """Sum of extents (the R* split criterion's perimeter proxy)."""
        return sum(hi - lo for lo, hi in zip(self.lows, self.highs))

    def center(self) -> tuple[float, ...]:
        """Geometric center."""
        return tuple((lo + hi) / 2.0
                     for lo, hi in zip(self.lows, self.highs))

    def union(self, other: "Rect") -> "Rect":
        """Smallest box covering both operands."""
        return Rect(
            tuple(min(a, b) for a, b in zip(self.lows, other.lows)),
            tuple(max(a, b) for a, b in zip(self.highs, other.highs)),
        )

    def intersects(self, other: "Rect") -> bool:
        """True when the closed boxes overlap in every dimension."""
        for lo, hi, olo, ohi in zip(self.lows, self.highs,
                                    other.lows, other.highs):
            if lo > ohi or olo > hi:
                return False
        return True

    def contains(self, other: "Rect") -> bool:
        """True when ``other`` lies fully inside this box."""
        for lo, hi, olo, ohi in zip(self.lows, self.highs,
                                    other.lows, other.highs):
            if olo < lo or ohi > hi:
                return False
        return True

    def intersection_area(self, other: "Rect") -> float:
        """Hyper-volume of the overlap region (0 when disjoint)."""
        product = 1.0
        for lo, hi, olo, ohi in zip(self.lows, self.highs,
                                    other.lows, other.highs):
            extent = min(hi, ohi) - max(lo, olo)
            if extent <= 0.0:
                return 0.0
            product *= extent
        return product

    def enlargement(self, other: "Rect") -> float:
        """Area growth needed to absorb ``other``."""
        return self.union(other).area() - self.area()
