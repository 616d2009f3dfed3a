"""Offline verification (and light repair) of saved index directories.

``python -m repro scrub <index-dir>`` walks a directory written by
:func:`~repro.core.persist.save_index`: it checks the manifest's
whole-file checksums, then opens every ``.pages`` snapshot and verifies
each page frame, reporting per-page status — which page ids are
damaged, in which file.  A clean report means the index can be loaded
and every page read without a :class:`~repro.storage.faults.CorruptPageError`.

Repair is deliberately conservative: page payloads carry no redundancy,
so a page whose checksum fails is *reported*, never guessed at.  What
``repair_index`` can fix is manifest drift — a stale whole-file
checksum over a file whose pages all verify — by recomputing the
manifest entries and rewriting ``meta.json`` atomically.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from ..obs.metrics import REGISTRY
from .snapshot import SnapshotError, commit_file, read_json, verify_snapshot

_SCRUBBED = REGISTRY.counter(
    "repro_scrub_pages_total",
    "Pages examined by scrub, per verification outcome.")


def file_sha256(path: str | Path) -> str:
    """Hex SHA-256 of a file's contents (streamed)."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass
class FileStatus:
    """Scrub outcome of one manifest file."""

    role: str
    name: str
    ok: bool
    detail: str = "ok"
    pages: int = 0
    #: ``(page_id, reason)`` for every page that failed verification.
    bad_pages: list = field(default_factory=list)

    def to_dict(self) -> dict:
        """JSON-safe dump."""
        return {"role": self.role, "name": self.name, "ok": self.ok,
                "detail": self.detail, "pages": self.pages,
                "bad_pages": [{"page_id": pid, "detail": why}
                              for pid, why in self.bad_pages]}


@dataclass
class ScrubReport:
    """Full scrub outcome of one index directory."""

    directory: str
    generation: int
    files: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether every file and every page verified."""
        return all(f.ok for f in self.files)

    @property
    def bad_page_count(self) -> int:
        """Total pages that failed verification."""
        return sum(len(f.bad_pages) for f in self.files)

    def to_dict(self) -> dict:
        """JSON-safe dump (the CLI's ``--json`` output)."""
        return {"directory": self.directory, "generation": self.generation,
                "ok": self.ok, "files": [f.to_dict() for f in self.files]}

    def render(self) -> str:
        """Human-readable report, one line per file plus bad pages."""
        lines = [f"scrub {self.directory} (generation {self.generation})"]
        for f in self.files:
            if f.pages:
                good = f.pages - len(f.bad_pages)
                lines.append(f"  {f.name} [{f.role}]: "
                             f"{good}/{f.pages} pages ok — {f.detail}")
            else:
                lines.append(f"  {f.name} [{f.role}]: {f.detail}")
            for page_id, why in f.bad_pages:
                lines.append(f"    page {page_id}: {why}")
        lines.append(f"status: {'CLEAN' if self.ok else 'CORRUPT'}")
        return "\n".join(lines)


def _read_manifest(directory: Path) -> dict:
    manifest = read_json(directory / "meta.json")
    if manifest is None:
        raise FileNotFoundError(
            f"{directory}: no meta.json — not an index directory")
    return manifest


def manifest_entry_problem(directory: Path, entry: dict) -> str | None:
    """What is wrong with one manifest file entry, or None.

    The file must exist with its recorded size and then its recorded
    SHA-256.  :func:`scrub_index`, :func:`~repro.core.persist.load_index`
    and the shard map check entries here.
    """
    path = directory / entry["name"]
    if not path.exists():
        return "missing"
    size = path.stat().st_size
    if size != entry["bytes"]:
        return f"size {size}, manifest says {entry['bytes']}"
    if file_sha256(path) != entry["sha256"]:
        return "whole-file checksum mismatch"
    return None


def _scrub_file(directory: Path, role: str, entry: dict) -> FileStatus:
    """Verify one manifest entry: size, whole-file hash, page frames."""
    name = entry["name"]
    path = directory / name
    problem = manifest_entry_problem(directory, entry)
    status = FileStatus(role=role, name=name, ok=problem is None,
                        detail=problem or "ok")
    if problem == "missing":
        return status
    if name.endswith(".pages"):
        try:
            from .snapshot import read_snapshot_header
            _page_size, num_pages = read_snapshot_header(path)
            status.pages = num_pages
            status.bad_pages = verify_snapshot(path)
        except SnapshotError as exc:
            status.ok = False
            status.detail = str(exc)
            return status
        if status.bad_pages:
            status.ok = False
            if status.detail == "ok":
                status.detail = f"{len(status.bad_pages)} corrupt pages"
        if REGISTRY.enabled:
            good = status.pages - len(status.bad_pages)
            if good:
                _SCRUBBED.inc(good, status="ok")
            if status.bad_pages:
                _SCRUBBED.inc(len(status.bad_pages), status="corrupt")
    return status


def _scrub_wal(path: Path) -> FileStatus:
    """Verify the write-ahead log next to a saved index.

    The WAL is intentionally outside the manifest (it outlives any one
    generation), so it gets its own classification: a torn tail is the
    expected signature of a crash mid-append — the batch was never
    acknowledged, recovery discards it, the directory is still CLEAN.
    A checksum mismatch over complete records is real corruption.
    """
    from .wal import scan_wal

    status = FileStatus(role="wal", name=path.name, ok=True)
    try:
        scan = scan_wal(path)
    except OSError as exc:
        status.ok = False
        status.detail = str(exc)
        return status
    pending = (f"{len(scan.batches)} pending batch"
               f"{'es' if len(scan.batches) != 1 else ''}")
    if scan.error is None:
        status.detail = pending
    elif scan.torn_tail:
        status.detail = f"{pending}; {scan.error} (recovery discards it)"
    else:
        status.ok = False
        status.detail = f"{pending}; {scan.error}"
    if REGISTRY.enabled:
        _SCRUBBED.inc(len(scan.batches), status="ok")
        if scan.error is not None and not scan.torn_tail:
            _SCRUBBED.inc(1, status="corrupt")
    return status


def scrub_index(directory: str | Path) -> ScrubReport:
    """Verify every file and page of a saved index directory.

    Raises ``FileNotFoundError`` when the directory holds no manifest;
    damaged files/pages are *reported* in the returned
    :class:`ScrubReport`, not raised.  A ``wal.log`` next to the
    manifest is scanned too (see :func:`_scrub_wal`).
    """
    directory = Path(directory)
    manifest = _read_manifest(directory)
    report = ScrubReport(directory=str(directory),
                         generation=int(manifest.get("generation", 0)))
    for role, entry in sorted(manifest.get("files", {}).items()):
        report.files.append(_scrub_file(directory, role, entry))
    wal_path = directory / "wal.log"
    if wal_path.exists():
        report.files.append(_scrub_wal(wal_path))
    return report


def repair_index(directory: str | Path) -> tuple[ScrubReport, list[str]]:
    """Repair what can honestly be repaired; returns (report, actions).

    Manifest entries whose file's pages all verify but whose recorded
    size/hash disagree are recomputed and the manifest rewritten
    atomically.  Pages with checksum damage carry no redundancy and are
    left alone — the returned report still lists them, and the caller
    should restore from a good snapshot or rebuild.
    """
    directory = Path(directory)
    report = scrub_index(directory)
    actions: list[str] = []
    manifest = _read_manifest(directory)
    changed = False
    for status in report.files:
        if status.ok or status.bad_pages:
            continue
        if status.role not in manifest.get("files", {}):
            continue    # e.g. a corrupt WAL: no redundancy, report only
        path = directory / status.name
        if not path.exists():
            continue
        entry = manifest["files"][status.role]
        entry["sha256"] = file_sha256(path)
        entry["bytes"] = path.stat().st_size
        actions.append(f"recomputed manifest entry for {status.name}")
        changed = True
    if changed:
        commit_file(directory, "meta.json",
                    json.dumps(manifest, indent=1) + "\n")
        report = scrub_index(directory)
    return report, actions
