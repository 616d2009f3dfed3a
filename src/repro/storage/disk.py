"""A simulated disk of fixed-size, checksummed pages.

Each :class:`DiskManager` models one file of 4 KiB pages (the page size
used in the paper's experiments, §4).  Reads and writes are accounted in
an :class:`~repro.storage.stats.IOStats` object; a read is classified as
sequential when it targets the page directly after the previously read
page of the same file.

Every page is stored as a *frame*: a 16-byte header (magic, format
version, checksum algorithm, payload length, CRC of the payload)
followed by the payload, which therefore holds at most
:attr:`DiskManager.usable_page_size` = ``page_size - 16`` bytes.
:meth:`DiskManager.write` computes the checksum; every read verifies it
and raises :class:`CorruptPageError` on mismatch, so bit rot and torn
writes surface as typed errors instead of silently wrong query answers.
In memory the header fields live beside the payload (no per-read
slicing or copying); :meth:`DiskManager.frame_bytes` materializes the
full on-disk frame for snapshots and scrubbing.

Every accounted read runs through one loop, :meth:`DiskManager.read_many`
(:meth:`DiskManager.read` is a one-page call into it).  Failure
injection hooks into it: attach a
:class:`~repro.storage.faults.FaultInjector` via :attr:`fault_injector`
and reads/writes start failing on the injector's deterministic
schedule.  A :class:`RetryPolicy` given at construction makes reads
retry transient faults with exponential (simulated) backoff, and a
skip-mode fault list turns a page that still fails into a reported
fault.  With none of these the only hot-path overhead is the checksum
verification itself.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from ..obs.metrics import REGISTRY
from .faults import CorruptPageError, PageError, PageFault, TransientIOError
from .stats import IOStats

try:                                    # pragma: no cover - optional wheel
    from crc32c import crc32c as page_checksum
    CHECKSUM_ALGO = 2
    CHECKSUM_NAME = "crc32c"
except ImportError:                     # stdlib fallback, same guarantees
    from zlib import crc32 as page_checksum
    CHECKSUM_ALGO = 1
    CHECKSUM_NAME = "crc32"

#: Page size used throughout the system; matches the paper's 4 KB pages.
PAGE_SIZE = 4096

#: Bytes of every page reserved for the frame header.
PAGE_HEADER_SIZE = 16

#: Frame header: magic, format version, checksum algorithm, payload
#: length, payload CRC, 4 reserved bytes.
_FRAME = struct.Struct("<4sBBHI4x")
_FRAME_MAGIC = b"RPG\x01"
FRAME_VERSION = 1

assert _FRAME.size == PAGE_HEADER_SIZE

_READS = REGISTRY.counter(
    "repro_disk_page_reads_total",
    "Accounted page reads per simulated file, split by sequentiality.")
_SKIPPED = REGISTRY.counter(
    "repro_disk_skipped_pages_total",
    "Pages streamed past by short forward seeks, per simulated file.")
_WRITES = REGISTRY.counter(
    "repro_disk_page_writes_total",
    "Accounted page writes per simulated file.")
_ALLOCS = REGISTRY.counter(
    "repro_disk_pages_allocated_total",
    "Pages allocated per simulated file.")
_CORRUPT = REGISTRY.counter(
    "repro_disk_corrupt_pages_total",
    "Reads that failed page-checksum verification, per simulated file.")
_INJECTED = REGISTRY.counter(
    "repro_disk_injected_faults_total",
    "Faults fired by an attached FaultInjector, per file and kind.")
_RETRIES = REGISTRY.counter(
    "repro_disk_read_retries_total",
    "Read attempts repeated after a transient fault, per simulated file.")
_EXHAUSTED = REGISTRY.counter(
    "repro_disk_retries_exhausted_total",
    "Reads abandoned after max_attempts transient faults, per file.")


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to retry a transient read fault, and how fast.

    Production storage distinguishes *transient* faults (a timed-out
    request — retry it) from *permanent* ones (a page whose checksum
    fails — retrying re-reads the same rotten bytes); only
    :class:`~repro.storage.faults.TransientIOError` is retried.
    ``backoff_ms(attempt)`` grows exponentially:
    ``backoff_base_ms * backoff_factor ** (attempt - 1)`` for the
    attempt-th retry (1-based).
    """

    max_attempts: int = 4
    backoff_base_ms: float = 1.0
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}")

    def backoff_ms(self, attempt: int) -> float:
        """Simulated delay before the ``attempt``-th retry (1-based)."""
        return self.backoff_base_ms * self.backoff_factor ** (attempt - 1)


class DiskManager:
    """An in-memory array of checksummed pages with I/O accounting.

    Parameters
    ----------
    stats:
        Counter object to charge reads/writes to.  Several files may share
        one ``IOStats`` so an experiment reports a single aggregate.
    name:
        Label used in error messages and debugging output.
    page_size:
        Page capacity in bytes; defaults to :data:`PAGE_SIZE`.  Must
        exceed :data:`PAGE_HEADER_SIZE`; payloads may use at most
        :attr:`usable_page_size` bytes.
    retry_policy:
        When given, reads retry
        :class:`~repro.storage.faults.TransientIOError` under this
        policy; ``None`` (default) lets the first transient fault
        propagate.  Corruption is never retried.
    """

    #: Forward gaps up to this many pages count as streaming past (the
    #: skipped pages cost transfer time) rather than a full random seek.
    NEAR_WINDOW = 16

    def __init__(self, stats: IOStats | None = None, name: str = "disk",
                 page_size: int = PAGE_SIZE,
                 near_window: int | None = None,
                 retry_policy: RetryPolicy | None = None) -> None:
        if page_size <= PAGE_HEADER_SIZE:
            raise PageError(
                f"page size {page_size} leaves no payload room after the "
                f"{PAGE_HEADER_SIZE}-byte frame header")
        self.stats = stats if stats is not None else IOStats()
        self.name = name
        self.page_size = page_size
        self.near_window = (self.NEAR_WINDOW if near_window is None
                            else near_window)
        self.retry_policy = retry_policy
        #: Total simulated backoff delay spent on retries.
        self.simulated_backoff_ms = 0.0
        #: Optional :class:`~repro.storage.faults.FaultInjector`; when
        #: None (default) reads and writes never fail on purpose.
        self.fault_injector = None
        self._last_read: int | None = None
        self._zero_payload = bytes(self.usable_page_size)
        self._zero_crc = page_checksum(self._zero_payload)
        self._init_storage()

    def _init_storage(self) -> None:
        """Create the backing store (overridable by other backends)."""
        self._pages: list[bytes] = []    # payloads, usable_page_size each
        self._crcs: list[int] = []       # stored payload checksums
        self._lens: list[int] = []       # payload length as written

    def __len__(self) -> int:
        return self.num_pages

    @property
    def num_pages(self) -> int:
        """Number of allocated pages."""
        return len(self._pages)

    @property
    def usable_page_size(self) -> int:
        """Payload bytes available per page after the frame header."""
        return self.page_size - PAGE_HEADER_SIZE

    def allocate(self) -> int:
        """Allocate a zeroed page and return its id."""
        self._append_pages(1)
        self.stats.pages_allocated += 1
        if REGISTRY.enabled:
            _ALLOCS.inc(1, disk=self.name)
        return self.num_pages - 1

    def allocate_many(self, count: int) -> int:
        """Allocate ``count`` contiguous pages; return the first id."""
        if count < 0:
            raise PageError(f"cannot allocate {count} pages")
        first = self.num_pages
        self._append_pages(count)
        self.stats.pages_allocated += count
        if REGISTRY.enabled and count:
            _ALLOCS.inc(count, disk=self.name)
        return first

    def _append_pages(self, count: int) -> None:
        """Grow the backing store by ``count`` zeroed pages."""
        self._pages.extend(self._zero_payload for _ in range(count))
        self._crcs.extend(self._zero_crc for _ in range(count))
        self._lens.extend(0 for _ in range(count))

    def read(self, page_id: int) -> bytes:
        """Return one page's payload: a one-page :meth:`read_many`."""
        return self.read_many((page_id,))[0]

    def read_many(self, page_ids, faults: list | None = None) -> list:
        """Read pages in order; return their payloads.

        Every attempt to read a page is one accounted transfer,
        sequential when it lands at most :attr:`near_window` pages
        past the previous one (the gap streams past the head) and
        random otherwise.  The counters are applied once per batch, in
        a ``finally`` that covers every attempted transfer, so a batch
        that stops early leaves them as a loop of single-page reads
        would.  An attached fault injector is consulted once per
        attempt and may raise :class:`TransientIOError` or damage the
        page; the payload checksum is then verified against the frame
        header, and a mismatch is a :class:`CorruptPageError` (the
        failed transfer still moved the head).

        With a :attr:`retry_policy`, a :class:`TransientIOError` is
        retried up to ``max_attempts`` times; each retry counts in
        ``IOStats.read_retries`` and adds its backoff to
        :attr:`simulated_backoff_ms`.  Corruption is never retried.

        A page that still fails raises its typed error, whose
        ``partial`` lists the payloads read before it.  With
        ``faults`` (a query's skip-mode fault list) the failure is
        appended there as a :class:`~repro.storage.faults.PageFault`
        instead, the page's payload is ``None``, and the batch goes on.
        """
        for pid in page_ids:
            self._check(pid)
        payloads: list = []
        seq = rand = skip = 0
        last = self._last_read
        near = self.near_window
        verify = self._verified_payload
        injector = self.fault_injector
        try:
            for pid in page_ids:
                attempt = 1
                while True:
                    gap = pid - last - 1 if last is not None else -1
                    if 0 <= gap <= near:
                        seq += 1
                        skip += gap
                    else:
                        rand += 1
                    last = pid
                    try:
                        if injector is not None:
                            self._injected_read(pid)
                        payloads.append(verify(pid))
                        break
                    except (TransientIOError, CorruptPageError) as exc:
                        if (isinstance(exc, TransientIOError)
                                and self._retried(attempt)):
                            attempt += 1
                            continue
                        if faults is None:
                            exc.partial = payloads
                            raise
                        faults.append(PageFault(exc.disk, exc.page_id,
                                                type(exc).__name__,
                                                str(exc)))
                        payloads.append(None)
                        break
        finally:
            stats = self.stats
            stats.page_reads += seq + rand
            stats.sequential_reads += seq
            stats.random_reads += rand
            stats.skipped_pages += skip
            self._last_read = last
            if REGISTRY.enabled:
                if seq:
                    _READS.inc(seq, disk=self.name, kind="sequential")
                if rand:
                    _READS.inc(rand, disk=self.name, kind="random")
                if skip:
                    _SKIPPED.inc(skip, disk=self.name)
        return payloads

    def _retried(self, attempt: int) -> bool:
        """Whether a transient fault on the ``attempt``-th try of a page
        is retried under :attr:`retry_policy`; accounts the retry."""
        policy = self.retry_policy
        if policy is None:
            return False
        if attempt >= policy.max_attempts:
            if REGISTRY.enabled:
                _EXHAUSTED.inc(1, disk=self.name)
            return False
        self.stats.read_retries += 1
        self.simulated_backoff_ms += policy.backoff_ms(attempt)
        if REGISTRY.enabled:
            _RETRIES.inc(1, disk=self.name)
        return True

    def _verified_payload(self, page_id: int) -> bytes:
        """Checksum-verified payload of an already-accounted read."""
        data = self._pages[page_id]
        if page_checksum(data) != self._crcs[page_id]:
            self._checksum_failed(page_id)
        return data

    def _checksum_failed(self, page_id: int,
                         detail: str = "checksum mismatch") -> None:
        """Account one verification failure and raise the typed error."""
        self.stats.checksum_failures += 1
        if REGISTRY.enabled:
            _CORRUPT.inc(1, disk=self.name)
        raise CorruptPageError(self.name, page_id, detail)

    def write(self, page_id: int, data: bytes) -> None:
        """Frame and store the payload, charging one accounted write.

        Payloads larger than :attr:`usable_page_size` are rejected —
        the frame header claims the first :data:`PAGE_HEADER_SIZE`
        bytes of every page.  Shorter payloads are zero-padded; the
        header records the original length and the checksum of the
        padded payload.
        """
        self._check(page_id)
        if len(data) > self.usable_page_size:
            raise PageError(
                f"{self.name}: payload of {len(data)} bytes exceeds the "
                f"usable page size {self.usable_page_size} "
                f"({self.page_size}-byte page minus {PAGE_HEADER_SIZE}-byte "
                f"frame header)")
        length = len(data)
        if length < self.usable_page_size:
            data = bytes(data) + bytes(self.usable_page_size - length)
        else:
            data = bytes(data)
        crc = page_checksum(data)
        if self.fault_injector is not None:
            data, crc = self.fault_injector.on_write(self, page_id,
                                                     data, crc)
            if REGISTRY.enabled and self.fault_injector.events:
                last = self.fault_injector.events[-1]
                if last.kind == "torn_write" and last.page_id == page_id:
                    _INJECTED.inc(1, disk=self.name, kind="torn_write")
        self._store_payload(page_id, data, crc, length)
        self.stats.page_writes += 1
        if REGISTRY.enabled:
            _WRITES.inc(1, disk=self.name)

    def _store_payload(self, page_id: int, data: bytes, crc: int,
                       length: int) -> None:
        """Persist one framed payload into the backing store."""
        self._pages[page_id] = data
        self._crcs[page_id] = crc
        self._lens[page_id] = length

    def page_payload(self, page_id: int) -> bytes:
        """Stored payload of one page, unaccounted and unverified.

        Internal plumbing for the buffer pool's write-through admission,
        the fault injector's torn-write path and snapshot loading —
        places that need the raw stored bytes without charging I/O or
        re-running verification.
        """
        self._check(page_id)
        return self._pages[page_id]

    def reset_head(self) -> None:
        """Forget the last-read position (e.g. between queries).

        The next read will count as random, mimicking a cold disk arm.
        """
        self._last_read = None

    # -- framing (snapshots, scrub) ------------------------------------------

    def frame_bytes(self, page_id: int) -> bytes:
        """Full on-disk frame of one page (header + payload)."""
        self._check(page_id)
        header = _FRAME.pack(_FRAME_MAGIC, FRAME_VERSION, CHECKSUM_ALGO,
                             self._lens[page_id], self._crcs[page_id])
        return header + self._pages[page_id]

    def store_frame(self, page_id: int, frame: bytes,
                    verify: bool = True) -> None:
        """Install a serialized frame (snapshot load path).

        Parses and validates the frame header; with ``verify=True`` the
        payload checksum is also recomputed and compared, raising
        :class:`CorruptPageError` on mismatch.  Not accounted I/O.
        """
        self._check(page_id)
        length, crc, payload = parse_frame(self.name, page_id, frame,
                                           self.page_size)
        if verify and page_checksum(payload) != crc:
            raise CorruptPageError(self.name, page_id)
        self._pages[page_id] = payload
        self._crcs[page_id] = crc
        self._lens[page_id] = length

    def verify_page(self, page_id: int) -> bool:
        """Unaccounted checksum check of one page (scrub path)."""
        self._check(page_id)
        return page_checksum(self._pages[page_id]) == self._crcs[page_id]

    # -- fault-injection internals -------------------------------------------

    def _injected_read(self, page_id: int) -> None:
        try:
            self.fault_injector.on_read(self, page_id)
        except TransientIOError:
            if REGISTRY.enabled:
                _INJECTED.inc(1, disk=self.name, kind="read_error")
            raise
        if REGISTRY.enabled and self.fault_injector.events:
            last = self.fault_injector.events[-1]
            if last.page_id == page_id and last.kind in ("bit_flip",
                                                         "latency"):
                _INJECTED.inc(1, disk=self.name, kind=last.kind)

    def _flip_bit(self, page_id: int, byte_index: int, bit: int) -> None:
        """Flip one stored payload bit in place (bit-rot injection)."""
        page = bytearray(self._pages[page_id])
        page[byte_index] ^= 1 << bit
        self._pages[page_id] = bytes(page)

    def _check(self, page_id: int) -> None:
        if not 0 <= page_id < self.num_pages:
            raise PageError(
                f"{self.name}: page {page_id} out of range "
                f"(file has {self.num_pages} pages)")


def parse_frame(disk: str, page_id: int, frame: bytes,
                page_size: int) -> tuple[int, int, bytes]:
    """Split one serialized frame into ``(payload_len, crc, payload)``.

    Validates size, magic, version, and checksum algorithm; raises
    :class:`CorruptPageError` describing what is wrong.  The checksum
    itself is *not* recomputed here — callers decide whether to verify.
    """
    if len(frame) != page_size:
        raise CorruptPageError(
            disk, page_id,
            f"frame of {len(frame)} bytes, expected {page_size}")
    magic, version, algo, length, crc = _FRAME.unpack_from(frame, 0)
    if magic != _FRAME_MAGIC:
        raise CorruptPageError(disk, page_id, "bad frame magic")
    if version != FRAME_VERSION:
        raise CorruptPageError(
            disk, page_id, f"unsupported frame version {version}")
    if algo != CHECKSUM_ALGO:
        raise CorruptPageError(
            disk, page_id,
            f"frame written with checksum algorithm {algo}, this build "
            f"uses {CHECKSUM_ALGO} ({CHECKSUM_NAME})")
    if length > page_size - PAGE_HEADER_SIZE:
        raise CorruptPageError(
            disk, page_id, f"payload length {length} exceeds the page")
    return length, crc, frame[PAGE_HEADER_SIZE:]
