"""Bulk-load ingestion: build a clustered index without per-insert work.

The per-insert path would add every subfield MBR to the R*-tree one at
a time — a root-to-leaf descent, margin-minimizing split and possible
forced reinsert per entry.  For a fresh field none of that adaptivity
buys anything: the final clustered order is already known (ascending
Hilbert key), so every grouped build is a sort plus a sequential pack:

1. linearize cells by the Hilbert key of their center
   (``numpy.argsort``, vectorized curve arithmetic);
2. pack the record file sequentially in curve order
   (:meth:`~repro.storage.records.RecordStore.extend` — whole pages
   allocated at once and written straight from the sorted array);
3. build the R*-tree bottom-up, Kamel–Faloutsos style: pack sorted
   entries into leaves at the fill target, then parents over leaves,
   up to the root (:meth:`~repro.rstar.tree.RStarTree.bulk_load_arrays`
   — no descent, no splits, no reinsertion).

:func:`bulk_build` builds any method of :data:`repro.core.METHODS` and
times the build; the facade's ``bulk_build`` verb and ``python -m repro
build --bulk`` report that timing.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

from ..field.base import Field
from .base import ValueIndex


@dataclass(frozen=True)
class BulkLoadReport:
    """What one bulk build did, for logs and benchmarks."""

    method: str
    cells: int
    build_seconds: float
    cells_per_second: float
    data_pages: int
    index_pages: int
    subfields: int | None      # None for methods without grouping

    def to_dict(self) -> dict:
        """Plain-dict form of the report (JSON- and facade-friendly)."""
        return asdict(self)


def bulk_build(field: Field, method: str = "I-Hilbert",
               **kwargs) -> tuple[ValueIndex, BulkLoadReport]:
    """Build and time an index over ``field``.

    ``method`` names one of :data:`repro.core.METHODS`; remaining
    keyword arguments (``curve``, ``grouping``, ``cache_pages``,
    ``disk_backend``, ...) pass through to the index
    constructor.  Returns the built index and a timing report whose
    ``cells_per_second`` is the benchmark's ingestion metric.
    """
    from . import METHODS
    try:
        cls = METHODS[method]
    except KeyError:
        raise ValueError(
            f"unknown method {method!r}; expected one of "
            f"{sorted(METHODS)}") from None
    start = time.perf_counter()
    index = cls(field, **kwargs)
    elapsed = time.perf_counter() - start
    cells = len(index.store)
    return index, BulkLoadReport(
        method=index.name,
        cells=cells,
        build_seconds=elapsed,
        cells_per_second=cells / elapsed if elapsed > 0 else float("inf"),
        data_pages=index.data_pages,
        index_pages=index.index_pages,
        subfields=(len(index.subfields)
                   if hasattr(index, "subfields") else None),
    )
