"""Crash-safe binary snapshots of simulated disks.

A :class:`~repro.storage.disk.DiskManager` can be flushed to a real file
and reloaded later, giving indexes a persistence path: build once, save,
reload in another process and query without rebuilding.

File layout (format 2): a fixed header (magic, version, page size, page
count) followed by the raw page *frames* — each page's 16-byte checksum
header plus payload, exactly :data:`~repro.storage.disk.PAGE_HEADER_SIZE`
+ payload bytes = ``page_size`` per page.  Loading re-validates every
frame, so bit rot on the real file surfaces as a typed error instead of
a corrupted index.

Writes are crash-safe: the snapshot is written to a temporary sibling,
fsynced, and atomically renamed over the destination, so a crash at any
point leaves either the complete old file or the complete new file —
never a torn mixture.  Crash-recovery tests exercise exactly that via
the ``crash_point`` parameter, which raises
:class:`~repro.storage.faults.SimulatedCrash` at a named step.
"""

from __future__ import annotations

import json
import os
import struct
from pathlib import Path

from .disk import DiskManager, page_checksum, parse_frame
from .faults import CorruptPageError, SimulatedCrash
from .stats import IOStats

_MAGIC = b"RPRODISK"
_VERSION = 2
_HEADER = struct.Struct("<8sIIQ")   # magic, version, page_size, num_pages

#: Crash points honoured by :func:`save_disk`, in execution order.
SAVE_DISK_CRASH_POINTS = ("temp-written", "pre-rename", "post-rename")


class SnapshotError(Exception):
    """Raised for malformed or incompatible snapshot files."""


def maybe_crash(point: str, crash_point: str | None) -> None:
    """Raise :class:`~repro.storage.faults.SimulatedCrash` when the
    caller's ``crash_point`` (tests only) names this ``point``."""
    if crash_point == point:
        raise SimulatedCrash(point)


def fsync_dir(directory: str | Path) -> None:
    """fsync a directory so a just-renamed entry survives power loss."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def commit_file(directory: str | Path, name: str, text: str) -> None:
    """Atomically replace ``directory/name`` with ``text``.

    Write a temporary sibling, flush and fsync it, rename it over the
    target, then fsync the directory.  The rename is the commit point:
    a crash leaves the complete old file or the complete new one.
    """
    directory = Path(directory)
    tmp = directory / (name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, directory / name)
    fsync_dir(directory)


def read_json(path: str | Path) -> dict | None:
    """The JSON document at ``path``, or None when the file is absent."""
    path = Path(path)
    if not path.exists():
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def save_disk(disk: DiskManager, path: str | Path,
              crash_point: str | None = None) -> int:
    """Atomically write every page frame of ``disk`` to ``path``.

    The snapshot lands via write-to-temp + fsync + rename; returns the
    bytes written.  ``crash_point`` (tests only) aborts with
    :class:`~repro.storage.faults.SimulatedCrash` at the named step —
    one of :data:`SAVE_DISK_CRASH_POINTS`.
    """
    path = Path(path)
    if crash_point is not None and crash_point not in SAVE_DISK_CRASH_POINTS:
        raise ValueError(
            f"unknown crash point {crash_point!r}; expected one of "
            f"{SAVE_DISK_CRASH_POINTS}")
    header = _HEADER.pack(_MAGIC, _VERSION, disk.page_size,
                          disk.num_pages)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(header)
        for page_id in range(disk.num_pages):
            fh.write(disk.frame_bytes(page_id))
        fh.flush()
        maybe_crash("temp-written", crash_point)
        os.fsync(fh.fileno())
    maybe_crash("pre-rename", crash_point)
    os.replace(tmp, path)
    maybe_crash("post-rename", crash_point)
    fsync_dir(path.parent)
    return _HEADER.size + disk.num_pages * disk.page_size


def read_snapshot_header(path: str | Path) -> tuple[int, int]:
    """Validate a snapshot header; returns ``(page_size, num_pages)``."""
    path = Path(path)
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
    if len(header) < _HEADER.size:
        raise SnapshotError(f"{path}: truncated header")
    magic, version, page_size, num_pages = _HEADER.unpack(header)
    if magic != _MAGIC:
        raise SnapshotError(f"{path}: not a disk snapshot")
    if version != _VERSION:
        raise SnapshotError(
            f"{path}: unsupported snapshot version {version} (format "
            f"{_VERSION} adds per-page checksums; rebuild and re-save)")
    return page_size, num_pages


def load_disk(path: str | Path, stats: IOStats | None = None,
              name: str = "disk") -> DiskManager:
    """Reconstruct a :class:`DiskManager` from a snapshot file.

    Every page frame's header is validated and its payload checksum
    recomputed, so on-disk corruption raises :class:`SnapshotError`
    naming the bad page instead of producing a silently wrong index.
    """
    path = Path(path)
    page_size, num_pages = read_snapshot_header(path)
    expected = _HEADER.size + num_pages * page_size
    actual = path.stat().st_size
    if actual != expected:
        raise SnapshotError(
            f"{path}: {actual} bytes on disk, header promises {expected}")
    disk = DiskManager(stats=stats, name=name, page_size=page_size)
    with open(path, "rb") as fh:
        fh.seek(_HEADER.size)
        for page_id in range(num_pages):
            frame = fh.read(page_size)
            if len(frame) != page_size:
                raise SnapshotError(
                    f"{path}: truncated at page {page_id}")
            disk.allocate()
            try:
                disk.store_frame(page_id, frame)
            except CorruptPageError as exc:
                raise SnapshotError(f"{path}: {exc}") from exc
    # Loading is not accounted I/O against the simulated disk.
    disk.stats.reset()
    return disk


def verify_snapshot(path: str | Path) -> list[tuple[int, str]]:
    """Checksum every page of a snapshot; returns ``(page_id, detail)``
    pairs for the pages that fail (empty list = clean).

    Unlike :func:`load_disk` this never raises on page damage — it
    keeps going and reports every bad page, which is what a scrub
    wants.  Header-level damage still raises :class:`SnapshotError`.
    """
    path = Path(path)
    page_size, num_pages = read_snapshot_header(path)
    bad: list[tuple[int, str]] = []
    with open(path, "rb") as fh:
        fh.seek(_HEADER.size)
        for page_id in range(num_pages):
            frame = fh.read(page_size)
            if len(frame) != page_size:
                bad.append((page_id, "truncated frame"))
                break
            try:
                _length, crc, payload = parse_frame(
                    path.name, page_id, frame, page_size)
            except CorruptPageError as exc:
                bad.append((page_id, str(exc)))
                continue
            if page_checksum(payload) != crc:
                bad.append((page_id, "checksum mismatch"))
    return bad
