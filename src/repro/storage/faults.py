"""Typed storage failures and deterministic fault injection.

The simulated disk never fails on its own; production disks do.  This
module defines the failure taxonomy every storage layer raises —
:class:`TransientIOError` for faults a retry can cure,
:class:`CorruptPageError` for permanent damage a checksum catches — and
a seedable :class:`FaultInjector` that makes the simulated disk fail on
purpose: transient read errors, torn (partial) page writes, bit rot,
and added latency, targeted by page id, probability, or an explicit
operation schedule.  Every decision is drawn from one ``random.Random``
seed, so a failing run is exactly reproducible: same seed, same fault
sites, same outcome.

The injector is attached to a :class:`~repro.storage.disk.DiskManager`
via its ``fault_injector`` attribute; with no injector attached the
disk's hot path pays a single ``is None`` check and nothing else.
"""

from __future__ import annotations

import random
from collections.abc import Iterable
from dataclasses import dataclass, field


class PageError(Exception):
    """Base error of the paged-storage layer (bad ids, bad payloads)."""

    #: Payloads of the pages a batched read returned before the page
    #: that raised (set by :meth:`~repro.storage.disk.DiskManager.read_many`).
    partial: tuple | list = ()


class TransientIOError(PageError):
    """A read failed for a reason a retry can cure (timeout, bus reset).

    Carries the file name and page id so retry layers and reports can
    say *which* read failed.
    """

    def __init__(self, disk: str, page_id: int,
                 detail: str = "injected transient read error") -> None:
        super().__init__(f"{disk}: page {page_id}: {detail}")
        self.disk = disk
        self.page_id = page_id
        self.detail = detail


class CorruptPageError(PageError):
    """A page's checksum does not match its contents (permanent fault).

    A retry cannot help: the stored bytes themselves are damaged (bit
    rot, torn write).  The page must be rewritten or restored from a
    snapshot.
    """

    def __init__(self, disk: str, page_id: int,
                 detail: str = "checksum mismatch") -> None:
        super().__init__(f"{disk}: page {page_id}: {detail}")
        self.disk = disk
        self.page_id = page_id
        self.detail = detail


class SimulatedCrash(RuntimeError):
    """Raised by persistence code at a named crash point (tests only).

    Crash-recovery tests pass ``crash_point=<name>`` to
    :func:`~repro.storage.snapshot.save_disk` /
    :func:`~repro.core.persist.save_index`; the writer stops dead at
    that point, leaving the filesystem exactly as a process kill would.
    """

    def __init__(self, point: str) -> None:
        super().__init__(f"simulated crash at {point!r}")
        self.point = point


@dataclass(frozen=True)
class PageFault:
    """One storage fault observed (and survived) during a query."""

    disk: str
    page_id: int
    kind: str
    detail: str


#: Fault kinds the injector understands, and the operation they hit.
FAULT_KINDS = {
    "read_error": "read",    # transient: raise TransientIOError
    "bit_flip": "read",      # permanent: flip one stored bit (bit rot)
    "torn_write": "write",   # permanent: only a prefix of the frame lands
    "latency": "read",       # accounted delay, no failure
}


@dataclass(frozen=True)
class FaultSpec:
    """One fault-injection rule.

    Parameters
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    probability:
        Chance the rule fires on a matching operation (rolled from the
        injector's seeded RNG, so runs are reproducible).
    page_ids:
        Restrict the rule to these page ids (``None`` = any page).
    schedule:
        Restrict the rule to these 0-based operation indices, counted
        per operation type (read/write) across all disks sharing the
        injector.  ``None`` = every operation.  A scheduled rule with
        ``probability=1.0`` fires at exactly those operations.
    max_faults:
        Stop firing after this many injections (``None`` = unlimited).
    latency_ms:
        Simulated delay added per fire (``kind="latency"`` only).
    """

    kind: str
    probability: float = 1.0
    page_ids: frozenset | None = None
    schedule: frozenset | None = None
    max_faults: int | None = None
    latency_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{sorted(FAULT_KINDS)}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"probability must be in [0, 1], got {self.probability}")

    def matches(self, op: str, op_index: int, page_id: int) -> bool:
        """Whether this rule applies to the given operation."""
        if FAULT_KINDS[self.kind] != op:
            return False
        if self.page_ids is not None and page_id not in self.page_ids:
            return False
        if self.schedule is not None and op_index not in self.schedule:
            return False
        return True


@dataclass(frozen=True)
class FaultEvent:
    """A record of one injected fault (for determinism assertions)."""

    op_index: int
    kind: str
    disk: str
    page_id: int


@dataclass
class FaultInjector:
    """Deterministic fault-injection policy over one or more disks.

    Attach with ``disk.fault_injector = injector`` (or
    :meth:`~repro.core.base.ValueIndex.inject_faults` to cover an
    index's data and index files at once).  All randomness comes from
    ``random.Random(seed)``, consumed in a fixed order per operation,
    so the full fault sequence is a pure function of the seed and the
    operation stream.

    The fired-fault log is kept in :attr:`events`; total simulated
    latency in :attr:`injected_latency_ms`.
    """

    seed: int = 0
    specs: list = field(default_factory=list)
    events: list = field(default_factory=list)
    injected_latency_ms: float = 0.0

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)
        self._op_counts = {"read": 0, "write": 0}
        self._fired = [0] * len(self.specs)

    def add(self, kind: str, probability: float = 1.0,
            page_ids: Iterable[int] | None = None,
            schedule: Iterable[int] | None = None,
            max_faults: int | None = None,
            latency_ms: float = 0.0) -> FaultSpec:
        """Register one rule; returns the immutable spec."""
        spec = FaultSpec(
            kind=kind, probability=probability,
            page_ids=None if page_ids is None else frozenset(page_ids),
            schedule=None if schedule is None else frozenset(schedule),
            max_faults=max_faults, latency_ms=latency_ms)
        self.specs.append(spec)
        self._fired.append(0)
        return spec

    # -- hooks called by DiskManager ----------------------------------------

    def on_read(self, disk, page_id: int) -> None:
        """Consulted once per accounted read, before verification.

        May raise :class:`TransientIOError`, flip a stored bit (so the
        disk's own checksum verification raises
        :class:`CorruptPageError`), or add simulated latency.
        """
        op_index = self._op_counts["read"]
        self._op_counts["read"] += 1
        for i, spec in enumerate(self.specs):
            if not self._fires(i, spec, "read", op_index, page_id):
                continue
            self._record(op_index, spec.kind, disk.name, page_id)
            if spec.kind == "latency":
                self.injected_latency_ms += spec.latency_ms
            elif spec.kind == "bit_flip":
                byte = self._rng.randrange(disk.usable_page_size)
                bit = self._rng.randrange(8)
                disk._flip_bit(page_id, byte, bit)
            elif spec.kind == "read_error":
                raise TransientIOError(disk.name, page_id)

    def on_write(self, disk, page_id: int, payload: bytes,
                 crc: int) -> tuple[bytes, int]:
        """Consulted once per write; returns the bytes that truly land.

        A torn write stores the *new* header (checksum included) but
        only a prefix of the new payload — the stored page then fails
        verification on the next read, exactly like a real partial
        sector write after power loss.
        """
        op_index = self._op_counts["write"]
        self._op_counts["write"] += 1
        for i, spec in enumerate(self.specs):
            if spec.kind != "torn_write":
                continue
            if not self._fires(i, spec, "write", op_index, page_id):
                continue
            self._record(op_index, spec.kind, disk.name, page_id)
            old = bytes(disk.page_payload(page_id))
            tear = self._rng.randrange(1, len(payload))
            torn = payload[:tear] + old[tear:]
            if torn != payload:
                return torn, crc
        return payload, crc

    # -- internals ----------------------------------------------------------

    def _fires(self, i: int, spec: FaultSpec, op: str, op_index: int,
               page_id: int) -> bool:
        if not spec.matches(op, op_index, page_id):
            return False
        if spec.max_faults is not None and self._fired[i] >= spec.max_faults:
            return False
        if spec.probability < 1.0 and self._rng.random() >= spec.probability:
            return False
        self._fired[i] += 1
        return True

    def _record(self, op_index: int, kind: str, disk: str,
                page_id: int) -> None:
        self.events.append(FaultEvent(op_index, kind, disk, page_id))
