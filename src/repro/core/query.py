"""Field value queries and their results (paper §2.2.2).

A value query asks for the regions where ``lo <= F(x) <= hi``; exact-match
and one-sided queries are degenerate cases (``lo == hi``, or an unbounded
side clamped to the field's value range).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..field.extraction import AnswerRegion
from ..storage import IOStats


@dataclass(frozen=True)
class ValueQuery:
    """A closed query interval on the value domain."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        # Written so a NaN bound fails too: every comparison with NaN
        # is false.
        if not self.lo <= self.hi:
            raise ValueError(
                f"empty query interval: lo={self.lo} > hi={self.hi}"
                if self.lo > self.hi else
                f"query bounds must be numbers: lo={self.lo}, "
                f"hi={self.hi}")

    @classmethod
    def exact(cls, value: float) -> "ValueQuery":
        """Exact-match query ``F(x) = value`` (paper: Qinterval = 0)."""
        return cls(value, value)

    @classmethod
    def at_least(cls, value: float, value_max: float) -> "ValueQuery":
        """One-sided query ``F(x) >= value`` clamped to the field range."""
        return cls(value, value_max)

    @classmethod
    def at_most(cls, value: float, value_min: float) -> "ValueQuery":
        """One-sided query ``F(x) <= value`` clamped to the field range."""
        return cls(value_min, value)

    @property
    def length(self) -> float:
        """Extent of the query interval."""
        return self.hi - self.lo


@dataclass
class QueryResult:
    """Outcome of one field value query against one access method."""

    query: ValueQuery
    #: Number of candidate cells whose interval intersects the query.
    candidate_count: int
    #: Total answer area (in cell units for DEM fields), when estimated.
    area: float | None = None
    #: Exact answer polygons, when requested.
    regions: list[AnswerRegion] | None = None
    #: I/O performed by this query (page reads, seq/random split, hits).
    io: IOStats = field(default_factory=IOStats)
    #: Storage faults survived in ``on_fault="skip"`` mode — one
    #: :class:`~repro.storage.faults.PageFault` per skipped page.  Empty
    #: for a clean query (and always empty in ``on_fault="raise"`` mode,
    #: where the fault propagates as a typed error instead).
    faults: list = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.candidate_count < 0:
            raise ValueError("candidate_count cannot be negative")

    @property
    def degraded(self) -> bool:
        """True when storage faults forced this query to skip pages.

        A degraded result is a *lower bound*: every reported candidate
        is genuine, but cells on the skipped pages are missing.
        """
        return bool(self.faults)
