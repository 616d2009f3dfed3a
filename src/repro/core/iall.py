"""The 'I-All' baseline (paper §3): one R*-tree entry per cell interval.

Every cell's ``[min, max]`` becomes a 1-D MBR in an R*-tree whose leaf
entries point at the cell's record id.  The tree is large (one entry per
cell) and its leaves are heavily overlapping, so while low-selectivity
queries are fast, high-selectivity queries degrade into per-cell random
reads — the failure mode the paper demonstrates in Fig. 11.
"""

from __future__ import annotations

import numpy as np

from ..field.base import Field
from ..geometry import Rect
from ..rstar import RStarTree
from ..storage import DiskManager, IOStats, PAGE_SIZE, RetryPolicy
from .base import DiskBackend, ValueIndex


class IAllIndex(ValueIndex):
    """R*-tree over every individual cell interval.

    Parameters
    ----------
    field:
        Field to index.
    bulk:
        When True (default) the tree is built with Hilbert-packed bulk
        loading (Kamel–Faloutsos, paper ref [14]); when False, entries are
        inserted one by one through the full R* insertion path.
    cache_pages:
        Buffer-pool capacity for both the data file and the tree file.
    """

    name = "I-All"

    def __init__(self, field: Field, bulk: bool = True,
                 cache_pages: int = 0, stats: IOStats | None = None,
                 page_size: int = PAGE_SIZE,
                 retry_policy: RetryPolicy | None = None,
                 disk_backend: DiskBackend = DiskManager) -> None:
        super().__init__(field, cache_pages=cache_pages, stats=stats,
                         page_size=page_size, retry_policy=retry_policy,
                         disk_backend=disk_backend)
        records = field.cell_records()
        self.store.extend(records)
        self.index_disk = self._make_disk("iall-tree")
        self.tree = RStarTree(dim=1, disk=self.index_disk,
                              cache_pages=cache_pages)
        if bulk:
            # Array-native packing: identical pages to the Rect-object
            # bulk_load (float() of a float32 is exact in float64).
            self.tree.bulk_load_arrays(
                records["vmin"].astype(np.float64),
                records["vmax"].astype(np.float64),
                np.arange(len(records), dtype=np.int64))
        else:
            for rid, (lo, hi) in enumerate(zip(records["vmin"],
                                               records["vmax"])):
                self.tree.insert(Rect.from_interval(float(lo), float(hi)),
                                 rid)
        self.tree.flush()

    @property
    def index_pages(self) -> int:
        return self.index_disk.num_pages

    def _apply_cell_updates(self, cell_ids: np.ndarray,
                            records: np.ndarray) -> None:
        # rid == cell_id (records are stored in cell order).  Each dirty
        # cell's old interval entry migrates in the tree: delete the
        # entry under its previous rectangle (re-read from the store —
        # float() of a float32 is exact, so the rect matches the one
        # inserted at build time), rewrite the page, insert the new one.
        for cell_id, record in zip(cell_ids, records):
            rid = int(cell_id)
            old = self.store.get(rid)
            old_lo, old_hi = float(old["vmin"]), float(old["vmax"])
            new_lo, new_hi = float(record["vmin"]), float(record["vmax"])
            self.store.update(rid, record)
            if (old_lo, old_hi) == (new_lo, new_hi):
                continue
            if not self.tree.delete(Rect.from_interval(old_lo, old_hi), rid):
                raise RuntimeError(
                    f"I-All tree lost the entry for cell {rid} "
                    f"[{old_lo}, {old_hi}] — index is inconsistent")
            self.tree.insert(Rect.from_interval(new_lo, new_hi), rid)
        self.tree.flush()

    def _candidates(self, lo: float, hi: float) -> np.ndarray:
        tracer = self.tracer
        with tracer.span("filter") as span:
            rids = self.tree.search(Rect.from_interval(lo, hi))
            if span.enabled:
                span.attrs["entries"] = len(rids)
        if len(rids) == 0:
            return np.empty(0, dtype=self.store.dtype)
        with tracer.span("fetch"):
            return self._fetch_rids(rids)
