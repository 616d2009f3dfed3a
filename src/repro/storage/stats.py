"""I/O accounting shared by every disk-backed structure.

The paper's central claim is about *access patterns* (clustered sequential
bursts vs. scattered random probes vs. full scans), so the reproduction
counts page reads and classifies them as sequential or random.  A read is
*sequential* when it targets the page immediately following the previously
read page of the same simulated file, which is how the clustered subfield
layout of I-Hilbert earns its advantage.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

#: Simulated disk service times per 4 KiB page, calibrated to the paper's
#: era (c. 2001 commodity disk: ~8.5 ms average seek + rotational delay
#: for a random page, ~0.2 ms streaming transfer for a sequential page).
#: The bench harness and the batch engine's device model both derive
#: their timing from these constants, so "simulated disk time" means the
#: same thing everywhere.
RANDOM_READ_MS = 8.5
SEQUENTIAL_READ_MS = 0.2


@dataclass
class IOStats:
    """Mutable counters for simulated disk traffic.

    One :class:`IOStats` instance is typically shared by several
    :class:`~repro.storage.disk.DiskManager` files so that an experiment can
    report a single aggregate, while sequentiality is still judged per file.
    """

    page_reads: int = 0
    sequential_reads: int = 0
    random_reads: int = 0
    #: Pages skipped by short forward seeks (they stream past the head and
    #: cost transfer time, not a full seek); see DiskManager.NEAR_WINDOW.
    skipped_pages: int = 0
    page_writes: int = 0
    pages_allocated: int = 0
    cache_hits: int = 0
    #: Read attempts repeated after a transient fault (each retry is
    #: also charged as a page read; see DiskManager.read).
    read_retries: int = 0
    #: Reads that failed page-checksum verification (CorruptPageError).
    checksum_failures: int = 0

    def reset(self) -> None:
        """Zero every counter in place."""
        for f in fields(self):
            setattr(self, f.name, 0)

    def snapshot(self) -> "IOStats":
        """Return an independent copy of the current counters."""
        return replace(self)

    def diff(self, earlier: "IOStats") -> "IOStats":
        """Return the counter deltas accumulated since ``earlier``."""
        return type(self)(**{
            f.name: getattr(self, f.name) - getattr(earlier, f.name)
            for f in fields(self)})

    def __add__(self, other: "IOStats") -> "IOStats":
        """Field-wise sum (e.g. merging per-worker counters)."""
        return type(self)(**{
            f.name: getattr(self, f.name) + getattr(other, f.name)
            for f in fields(self)})

    def __iadd__(self, other: "IOStats") -> "IOStats":
        for f in fields(self):
            setattr(self, f.name,
                    getattr(self, f.name) + getattr(other, f.name))
        return self

    def restore(self, earlier: "IOStats") -> None:
        """Copy every counter of ``earlier`` into this instance.

        Lets metadata passes (e.g. EXPLAIN's statistics scan) roll their
        accounting back so they stay invisible to the experiment.
        """
        for f in fields(self):
            setattr(self, f.name, getattr(earlier, f.name))

    def simulated_cost(self, *, random_read: float = RANDOM_READ_MS,
                       sequential_read: float = SEQUENTIAL_READ_MS) -> float:
        """Simulated device time in ms: :data:`RANDOM_READ_MS` per
        random read and :data:`SEQUENTIAL_READ_MS` per sequential read
        unless weighted otherwise.

        Skipped pages stream past the head, so they cost a sequential
        read.  The bench harness, the batch engine's device model and
        the planner all weigh reads this way.
        """
        return (self.random_reads * random_read
                + (self.sequential_reads + self.skipped_pages)
                * sequential_read)
