"""Saving and loading built value indexes, crash-safely.

A grouped index (I-Hilbert, Interval Quadtree) is fully described by its
clustered cell file, its subfield list, and its R*-tree pages; all three
serialize to a directory so an index built once can be reloaded — field
data not required — and queried immediately.

Layout of the index directory (format 2)::

    meta.json         manifest: dtype, counts, subfields, tree shape,
                      field type, and per-file SHA-256 checksums
    data-<g>.pages    DiskManager snapshot of the cell record file
    tree-<g>.pages    DiskManager snapshot of the subfield R*-tree
    order-<g>.npy     the cell permutation (for provenance/debugging)

``<g>`` is a generation number that increments on every save.  Data
files are written first under fresh generation names, fsynced, and only
then does ``meta.json`` move to the new generation via an atomic
write-to-temp + rename — the manifest rename *is* the commit point.  A
crash anywhere before it leaves the previous generation fully intact
(the half-written files are unreferenced orphans, garbage-collected by
the next save); a crash after it leaves the new generation committed.
Either way a reload sees one complete, checksummed index — never a torn
mixture.  ``python -m repro scrub`` verifies exactly these invariants
offline.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from ..field.dem import DEMField
from ..field.tin import TINField
from ..field.volume import VolumeField
from ..rstar import RStarTree
from ..storage import RecordStore
from ..storage.scrub import file_sha256, manifest_entry_problem
from ..storage.snapshot import (SnapshotError, commit_file, load_disk,
                                maybe_crash, read_json, save_disk)
from ..storage.wal import WriteAheadLog
from .cost import CostBasedGrouping, ThresholdGrouping
from .subfield import Subfield

#: Field classes reconstructible by name (record semantics only).
FIELD_TYPES = {
    "DEMField": DEMField,
    "TINField": TINField,
    "VolumeField": VolumeField,
}

#: Format 2 = checksummed page frames + generational manifest commit.
_FORMAT_VERSION = 2

#: Crash points honoured by :func:`save_index`, in execution order.
SAVE_INDEX_CRASH_POINTS = ("data-written", "tree-written", "order-written",
                          "pre-commit", "post-commit")

#: Role → generation-stamped file name.
_ROLE_PATTERNS = {"data": "data-{g}.pages", "tree": "tree-{g}.pages",
                  "order": "order-{g}.npy"}


class PersistError(Exception):
    """Raised for malformed or incompatible index directories."""


def _manifest_entry(directory: Path, name: str) -> dict:
    path = directory / name
    return {"name": name, "sha256": file_sha256(path),
            "bytes": path.stat().st_size}


def _save_order(order: np.ndarray, path: Path) -> None:
    """Write the permutation array with the same fsync discipline as
    the page snapshots (content durability before the commit point)."""
    with open(path, "wb") as fh:
        np.save(fh, order)
        fh.flush()
        os.fsync(fh.fileno())


def _save_aggregate(models, path: Path) -> None:
    """Write the aggregate model arrays (same fsync discipline)."""
    with open(path, "wb") as fh:
        np.savez(fh, **models.to_arrays())
        fh.flush()
        os.fsync(fh.fileno())


def _grouping_to_meta(grouping) -> dict | None:
    """JSON form of the grouping policy's cost parameters, so a
    reloaded index can track staleness and compact with the same
    §3.1.2 convention the build used."""
    if isinstance(grouping, CostBasedGrouping):
        return {"type": "cost", "unit": grouping.unit,
                "avg_query": grouping.avg_query}
    if isinstance(grouping, ThresholdGrouping):
        return {"type": "threshold", "threshold": grouping.threshold,
                "unit": grouping.unit}
    return None


def _grouping_from_meta(entry: dict | None):
    if not entry:
        return None
    if entry.get("type") == "cost":
        return CostBasedGrouping(unit=entry["unit"],
                                 avg_query=entry["avg_query"])
    if entry.get("type") == "threshold":
        return ThresholdGrouping(entry["threshold"], unit=entry["unit"])
    return None


def _collect_garbage(directory: Path, keep: set[str]) -> None:
    """Remove generation files no manifest references (orphans from a
    superseded generation or an aborted save)."""
    for path in directory.iterdir():
        name = path.name
        if name in keep or name == "meta.json":
            continue
        if name.endswith((".pages", ".npy", ".npz", ".tmp")):
            path.unlink(missing_ok=True)


def save_index(index, directory: str | Path,
               crash_point: str | None = None) -> None:
    """Serialize a grouped index into ``directory`` (created if needed).

    Crash-safe: the previous save (if any) stays loadable until the new
    manifest lands atomically; see the module docstring for the
    protocol.  ``crash_point`` (tests only) aborts with
    :class:`~repro.storage.faults.SimulatedCrash` at a named step — one
    of :data:`SAVE_INDEX_CRASH_POINTS`.
    """
    if crash_point is not None and crash_point not in SAVE_INDEX_CRASH_POINTS:
        raise ValueError(
            f"unknown crash point {crash_point!r}; expected one of "
            f"{SAVE_INDEX_CRASH_POINTS}")
    field_name = index.field_type.__name__
    if field_name not in FIELD_TYPES:
        raise PersistError(
            f"cannot persist indexes over {field_name}: estimation "
            f"semantics would not be reconstructible")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    index.tree.flush()

    previous = read_json(directory / "meta.json")
    generation = (int(previous.get("generation", 0)) + 1
                  if previous else 0)
    names = {role: pattern.format(g=generation)
             for role, pattern in _ROLE_PATTERNS.items()}

    save_disk(index.data_disk, directory / names["data"])
    maybe_crash("data-written", crash_point)
    save_disk(index.index_disk, directory / names["tree"])
    maybe_crash("tree-written", crash_point)
    _save_order(index.order, directory / names["order"])
    maybe_crash("order-written", crash_point)
    # Aggregate models are optional — only a fitted index writes the
    # ``agg`` generation file (and its manifest entry / meta block).
    models = getattr(index, "aggregate_models", None)
    if models is not None:
        names["agg"] = f"agg-{generation}.npz"
        _save_aggregate(models, directory / names["agg"])

    built_costs = getattr(index, "_built_costs", None)
    if built_costs is not None:
        built_costs = [float(c) for c in built_costs]
    meta = {
        "format": _FORMAT_VERSION,
        "generation": generation,
        "method": index.name,
        "field_type": field_name,
        **index.store.manifest(),
        "subfields": [[sf.lo, sf.hi, sf.ptr_start, sf.ptr_end]
                      for sf in index.subfields],
        "tree": index.tree.manifest(),
        "grouping": _grouping_to_meta(getattr(index, "grouping", None)),
        "built_costs": built_costs,
        "files": {role: _manifest_entry(directory, name)
                  for role, name in names.items()},
    }
    if models is not None:
        meta["aggregate"] = {"degree": models.degree,
                             "weight": models.weight}
    maybe_crash("pre-commit", crash_point)
    commit_file(directory, "meta.json", json.dumps(meta, indent=1) + "\n")
    maybe_crash("post-commit", crash_point)
    _collect_garbage(directory, keep=set(names.values()))
    # The committed generation contains every applied update, so this
    # save is a WAL checkpoint: truncate the log.  A crash between the
    # manifest commit and this truncation merely leaves batches to be
    # replayed redundantly on the next load — replay is idempotent.
    wal = getattr(index, "wal", None)
    if wal is not None:
        wal.checkpoint()


def load_index(directory: str | Path, cache_pages: int = 0):
    """Reload an index saved by :func:`save_index`.

    The returned object answers queries exactly like the original (same
    records, same subfields, same tree pages); it carries no in-memory
    field, so ``index.field`` is None.  Every file is checked against
    its manifest size and SHA-256 and every page frame against its
    checksum before the index is handed back, so on-disk corruption
    raises :class:`PersistError` instead of producing silently wrong
    answers.

    A ``wal.log`` next to the manifest is opened and its pending
    batches — updates acknowledged after the saved generation
    committed — are re-applied before the index is returned; the log
    stays attached, so further updates keep being journaled.
    """
    directory = Path(directory)
    meta = read_json(directory / "meta.json")
    if meta is None:
        raise PersistError(f"{directory}: no meta.json — not an index "
                           f"directory")
    if meta.get("format") != _FORMAT_VERSION:
        raise PersistError(
            f"{directory}: unsupported index format {meta.get('format')} "
            f"(format {_FORMAT_VERSION} adds checksummed page frames; "
            f"rebuild the index and save it again)")
    try:
        field_type = FIELD_TYPES[meta["field_type"]]
    except KeyError:
        raise PersistError(
            f"{directory}: unknown field type "
            f"{meta['field_type']!r}") from None
    files = meta["files"]
    for role, entry in files.items():
        problem = manifest_entry_problem(directory, entry)
        if problem is not None:
            raise PersistError(
                f"{directory / entry['name']} ({role} file): {problem} — "
                f"run 'python -m repro scrub {directory}' for details")

    # Cell record file.
    try:
        data_disk = load_disk(directory / files["data"]["name"], name="data")
    except SnapshotError as exc:
        raise PersistError(str(exc)) from exc

    from .grouped import GroupedIntervalIndex
    from .planner import PlannedIndex
    if meta["method"] == PlannedIndex.name:
        # A planner keeps planning after a reload; the curve that
        # ordered the cells is not in the manifest.
        index = PlannedIndex.__new__(PlannedIndex)
        index.last_plan = None
        index.curve = None
    else:
        index = GroupedIntervalIndex.__new__(GroupedIntervalIndex)
        index.name = meta["method"]
    index._init_state(None, field_type, stats=data_disk.stats,
                      page_size=data_disk.page_size)
    index.data_disk = data_disk
    index.grouping = _grouping_from_meta(meta.get("grouping"))
    built_costs = meta.get("built_costs")
    if built_costs is not None:
        index._built_costs = [float(c) for c in built_costs]
    index.store = RecordStore.reopen(data_disk, meta,
                                     cache_pages=cache_pages)
    index.order = np.load(directory / files["order"]["name"])
    index.subfields = [
        Subfield(sf_id, lo, hi, int(start), int(end))
        for sf_id, (lo, hi, start, end) in enumerate(meta["subfields"])
    ]
    try:
        index.index_disk = load_disk(directory / files["tree"]["name"],
                                     stats=index.stats, name="sf-tree")
    except SnapshotError as exc:
        raise PersistError(str(exc)) from exc
    index.tree = RStarTree.reopen(index.index_disk, meta["tree"],
                                  cache_pages=cache_pages)

    # Aggregate models (optional generation file; older manifests
    # simply have no "agg" role).  Loaded before WAL replay so pending
    # update batches refit the touched subfields like the live index.
    index.aggregate_models = None
    agg_entry = files.get("agg")
    if agg_entry is not None:
        from .aggregate import AggregateModelSet
        agg_meta = meta.get("aggregate", {})
        with np.load(directory / agg_entry["name"]) as arrays:
            index.aggregate_models = AggregateModelSet.from_arrays(
                arrays, degree=int(agg_meta.get("degree", 3)),
                weight=agg_meta.get("weight", "midpoint"))
        if index.aggregate_models.num_subfields != len(index.subfields):
            raise PersistError(
                f"{directory}: aggregate model file covers "
                f"{index.aggregate_models.num_subfields} subfields, "
                f"manifest has {len(index.subfields)}")

    # Recovery: re-apply updates acknowledged after the checkpoint.
    wal_path = directory / "wal.log"
    if wal_path.exists():
        from ..storage.wal import WalError
        try:
            wal = WriteAheadLog(wal_path)
        except WalError as exc:
            raise PersistError(str(exc)) from exc
        for batch in wal.pending:
            index._apply_update_batch(batch.cell_ids,
                                      batch.decode(index.store.dtype))
        index.wal = wal

    index._start_cold()
    return index
