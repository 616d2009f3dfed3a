"""Bulk-load ingestion: build a clustered index without per-insert work.

The incremental build path inserts every subfield MBR into the R*-tree
one at a time — a root-to-leaf descent, margin-minimizing split and
possible forced reinsert per entry — and appends cell records page by
page.  For a fresh field none of that adaptivity buys anything: the
final clustered order is already known (ascending Hilbert key), so the
build can be a sort plus a sequential pack:

1. linearize cells by the Hilbert key of their center
   (``numpy.argsort``, vectorized curve arithmetic);
2. pack the record file sequentially in curve order
   (:meth:`~repro.storage.records.RecordStore.bulk_extend` — whole
   pages written in one pass, no per-record tail shuffling);
3. build the R*-tree bottom-up, Kamel–Faloutsos style: pack sorted
   entries into leaves at the fill target, then parents over leaves,
   up to the root (:meth:`~repro.rstar.tree.RStarTree.bulk_load_arrays`
   — no descent, no splits, no reinsertion).

Everything downstream is unchanged: the same pages flow through the
same :class:`~repro.storage.disk.DiskManager`, so WAL/manifest commit
semantics, scrub coverage and crash-safety of a subsequent
:func:`~repro.core.persist.save_index` are identical to the
incremental path, and queries cannot tell the two builds apart.

:func:`bulk_build` is the one entry point; the facade's
``bulk_build`` verb and ``python -m repro build --bulk`` wrap it.
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


def bulk_methods() -> dict[str, type[ValueIndex]]:
    """Index classes that support the bulk build path, by method name."""
    from .iall import IAllIndex
    from .ihilbert import IHilbertIndex
    from .planner import PlannedIndex
    return {
        "I-All": IAllIndex,
        "I-Hilbert": IHilbertIndex,
        "I-Hilbert+planner": PlannedIndex,
    }


def bulk_build(field: Field, method: str = "I-Hilbert",
               **kwargs) -> tuple[ValueIndex, BulkLoadReport]:
    """Build an index over ``field`` through the bulk-load path.

    ``method`` names one of :func:`bulk_methods`; remaining keyword
    arguments (``curve``, ``grouping``, ``cache_pages``,
    ``disk_backend``, ...) pass through to the index
    constructor.  Returns the built index and a timing report whose
    ``cells_per_second`` is the benchmark's ingestion metric.
    """
    methods = bulk_methods()
    try:
        cls = methods[method]
    except KeyError:
        raise ValueError(
            f"method {method!r} has no bulk build path; expected one of "
            f"{sorted(methods)}") from None
    start = time.perf_counter()
    index = cls(field, bulk=True, **kwargs)
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
