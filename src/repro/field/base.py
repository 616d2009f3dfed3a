"""Abstract continuous-field interface.

A field (paper §2.1) is a pair ``(C, F)``: a subdivision of the domain into
cells carrying sample points, plus interpolation functions.  Concrete
implementations are :class:`~repro.field.dem.DEMField` (regular grid) and
:class:`~repro.field.tin.TINField` (triangulated irregular network).

The database-facing contract is record-oriented: ``cell_records()`` returns
one self-contained record per cell — id, value interval ``[min, max]`` and
the cell's sample points — which is exactly what the access methods store
on pages and what the estimation step reads back (paper Fig. 6: cells are
fetched from disk addresses, then inverse-interpolated).
"""

from __future__ import annotations

import abc

import numpy as np

from ..geometry import Interval


class Field(abc.ABC):
    """A scalar field over a 2-D spatial domain."""

    #: Structured dtype of one stored cell record.
    record_dtype: np.dtype

    # -- structure ------------------------------------------------------

    @property
    @abc.abstractmethod
    def num_cells(self) -> int:
        """Number of cells covering the domain."""

    @abc.abstractmethod
    def cell_records(self) -> np.ndarray:
        """One self-contained record per cell (``record_dtype``)."""

    @abc.abstractmethod
    def cell_centroids(self) -> np.ndarray:
        """``(num_cells, 2)`` array of cell center positions."""

    @abc.abstractmethod
    def cell_interval(self, cell_id: int) -> Interval:
        """Value interval (explicit and interpolated values) of one cell."""

    @property
    @abc.abstractmethod
    def value_range(self) -> Interval:
        """Interval covering every value in the field."""

    @property
    @abc.abstractmethod
    def bounds(self) -> tuple[float, float, float, float]:
        """Spatial domain as ``(xmin, ymin, xmax, ymax)``."""

    # -- live ingest ------------------------------------------------------

    def apply_updates(self, vertex_ids: np.ndarray,
                      values: np.ndarray) -> np.ndarray:
        """Apply new vertex measurements; return the dirty cell ids.

        ``values`` are *absolute* replacement samples for the named
        vertices (re-applying the same batch is a no-op), which is what
        makes write-ahead-log replay idempotent.  One vertex generally
        touches several cells — every cell whose record (interval,
        sample points) changed is returned, sorted and deduplicated, so
        the caller can push exactly those records into its indexes.

        Subclasses that support live ingest override this; the default
        field is read-only.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support live vertex updates")

    # -- conventional (Q1) queries ---------------------------------------

    @abc.abstractmethod
    def locate_cell(self, x: float, y: float) -> int:
        """Cell containing the point, or ``-1`` outside the domain."""

    @abc.abstractmethod
    def value_at(self, x: float, y: float) -> float:
        """Interpolated field value at a point (raises outside domain)."""

    # -- estimation step (record-based, used by all access methods) ------

    @classmethod
    @abc.abstractmethod
    def record_triangles(cls, record: np.void) -> list[
            tuple[list[tuple[float, float]], list[float]]]:
        """Linear sub-triangles of one cell record.

        Returns ``(points, values)`` pairs; linear interpolation over each
        triangle reproduces the cell's interpolation function, which is
        what makes half-plane clipping exact in the estimation step.
        """

    @classmethod
    @abc.abstractmethod
    def estimate_area(cls, records: np.ndarray, lo: float,
                      hi: float) -> float:
        """Total area where ``lo <= value <= hi`` across candidate records.

        Vectorized closed form (no polygon construction); the workhorse of
        the estimation step in large experiments.
        """

    @classmethod
    def band_area_curves(cls, records: np.ndarray,
                         thresholds: np.ndarray) -> tuple[
                             np.ndarray, np.ndarray, float]:
        """Cumulative band-area curves sampled at ``thresholds``.

        Returns ``(area_le, area_lt, total)`` where ``area_le[k]`` is the
        answer area of ``value <= thresholds[k]`` over the records,
        ``area_lt[k]`` the area of ``value < thresholds[k]`` (the two
        differ only on completely flat atoms sitting exactly at a
        threshold), and ``total`` the whole footprint area.  The exact
        band area of ``[lo, hi]`` decomposes as
        ``area_le(hi) - area_lt(lo)`` — the identity the aggregate models
        (``repro.core.aggregate``) are fitted on.

        Generic implementation: one :meth:`estimate_area` call per
        threshold, which only volume fields still use.  DEM and TIN
        fields override it with one sweep of
        :func:`~repro.field.interpolation.triangle_band_curves` over
        their triangles.
        """
        thresholds = np.asarray(thresholds, dtype=np.float64)
        total = float(cls.estimate_area(records, -np.inf, np.inf))
        area_le = np.array([cls.estimate_area(records, -np.inf, float(t))
                            for t in thresholds])
        area_lt = total - np.array(
            [cls.estimate_area(records, float(t), np.inf)
             for t in thresholds])
        return area_le, area_lt, total

    # -- spatial access (conventional queries through an index) ----------

    @classmethod
    @abc.abstractmethod
    def record_mbrs(cls, records: np.ndarray) -> np.ndarray:
        """``(n, 4)`` spatial MBRs ``(xmin, ymin, xmax, ymax)`` of records.

        Coordinates are in *record space* (see :meth:`to_record_space`).
        """

    def to_record_space(self, x: float, y: float) -> tuple[float, float]:
        """Map a domain point into the records' coordinate space.

        Identity by default; DEM records store grid units, so the DEM
        override divides by the cell size.
        """
        return (x, y)
