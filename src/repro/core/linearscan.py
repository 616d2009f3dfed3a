"""The 'LinearScan' baseline (paper §2.2.2).

No index: every value query reads every cell page front to back and tests
each cell's interval against the query.  All reads are sequential, so the
method is not as catastrophic as its asymptotics suggest — the paper (and
our Fig. 11 reproduction) shows it *beating* I-All at high selectivity.
"""

from __future__ import annotations

import numpy as np

from ..field.base import Field
from ..storage import IOStats, PAGE_SIZE, RetryPolicy
from .base import DiskBackend, ValueIndex


class LinearScanIndex(ValueIndex):
    """Full-scan access method over the cell record file."""

    name = "LinearScan"

    def __init__(self, field: Field, cache_pages: int = 0,
                 stats: IOStats | None = None,
                 page_size: int = PAGE_SIZE,
                 retry_policy: RetryPolicy | None = None,
                 disk_backend: DiskBackend = "list") -> None:
        super().__init__(field, cache_pages=cache_pages, stats=stats,
                         page_size=page_size, retry_policy=retry_policy,
                         disk_backend=disk_backend)
        self.store.extend(field.cell_records())

    def _apply_cell_updates(self, cell_ids: np.ndarray,
                            records: np.ndarray) -> None:
        # Records are stored in cell order, so rid == cell_id and an
        # update is a plain in-place page rewrite; there is no index
        # structure to maintain.
        for cell_id, record in zip(cell_ids, records):
            self.store.update(int(cell_id), record)

    def _candidates(self, lo: float, hi: float) -> np.ndarray:
        return self._scan_filter(lo, hi)
