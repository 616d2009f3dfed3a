"""Shard map: partition of a field by contiguous Hilbert-key range.

The paper's linearization already lays every cell on one global
Hilbert-key axis (§3.1.1), so horizontal partitioning falls out of the
same machinery: cut the *sorted key sequence* into N contiguous ranges
and each shard owns a half-open key interval plus the matching slice of
the global clustered order.  The cuts obey two alignment rules that the
cross-shard equivalence matrix depends on:

* **page alignment** — cuts land on multiples of the page quantum
  (records per page), so the shards' clustered files partition the
  unsharded file's pages exactly and per-page accounting adds up;
* **key alignment** — a cut never separates cells with equal Hilbert
  keys (it slides forward to the next strict key increase), so shard
  ownership is expressible purely as key bounds.

The map is a tiny value object (:class:`ShardMap` of
:class:`ShardSpec` rows) with pure ``split``/``merge`` operations that
return new maps, and it persists with the same crash-safety idiom as
``core/persist.py`` manifests: payload under a fresh generation name,
SHA-256 recorded in ``shard-meta.json``, and an atomic
write-temp + fsync + rename as the commit point.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..storage.scrub import file_sha256, manifest_entry_problem
from ..storage.snapshot import commit_file, read_json

SHARD_MAP_FORMAT = 1
_META_NAME = "shard-meta.json"


class ShardMapError(ValueError):
    """A shard map violated the partition invariants."""


@dataclass(frozen=True)
class ShardSpec:
    """One shard: a half-open Hilbert-key range and its order slice.

    ``[key_lo, key_hi)`` is the owned key interval; ``[start, stop)``
    is the matching slice of the global linearized cell order (global
    *positions*, not cell ids).
    """

    shard_id: int
    key_lo: int
    key_hi: int
    start: int
    stop: int

    @property
    def num_cells(self) -> int:
        """Cells this shard owns (global positions ``[start, stop)``)."""
        return self.stop - self.start

    def to_dict(self) -> dict:
        """JSON-ready representation of this spec."""
        return {"shard_id": self.shard_id, "key_lo": self.key_lo,
                "key_hi": self.key_hi, "start": self.start,
                "stop": self.stop}


@dataclass(frozen=True)
class ShardMap:
    """Contiguous Hilbert-range partition of one field.

    Parameters
    ----------
    curve_name / curve_order / dim:
        The linearization that produced the keys — recorded so a
        reload can verify it recreates the same key space.
    n_cells:
        Total cells across all shards.
    key_space:
        Exclusive upper bound of the key axis (``side ** dim``).
    page_quantum:
        The records-per-page value the cuts were aligned to.
    shards:
        The partition, ascending by key range.
    """

    curve_name: str
    curve_order: int
    dim: int
    n_cells: int
    key_space: int
    page_quantum: int
    shards: tuple[ShardSpec, ...]

    def __post_init__(self) -> None:
        self.validate()

    # -- invariants ----------------------------------------------------------

    def validate(self) -> None:
        """Check the partition invariants; raise :class:`ShardMapError`.

        Every Hilbert key in ``[0, key_space)`` must fall in exactly
        one shard (key ranges are contiguous, half-open, and cover the
        keyspace) and the order slices must tile ``[0, n_cells)``.
        """
        if not self.shards:
            raise ShardMapError("a shard map needs at least one shard")
        if self.key_space <= 0:
            raise ShardMapError(
                f"key_space must be positive, got {self.key_space}")
        expected_key = 0
        expected_pos = 0
        for k, sh in enumerate(self.shards):
            if sh.shard_id != k:
                raise ShardMapError(
                    f"shard ids must be dense and ascending; slot {k} "
                    f"holds id {sh.shard_id}")
            if sh.key_lo != expected_key:
                raise ShardMapError(
                    f"shard {k}: key_lo {sh.key_lo} leaves a gap after "
                    f"{expected_key}")
            if sh.key_hi <= sh.key_lo:
                raise ShardMapError(
                    f"shard {k}: empty key range "
                    f"[{sh.key_lo}, {sh.key_hi})")
            if sh.start != expected_pos:
                raise ShardMapError(
                    f"shard {k}: order slice starts at {sh.start}, "
                    f"expected {expected_pos}")
            if sh.stop < sh.start:
                raise ShardMapError(
                    f"shard {k}: negative slice [{sh.start}, {sh.stop})")
            expected_key = sh.key_hi
            expected_pos = sh.stop
        if expected_key != self.key_space:
            raise ShardMapError(
                f"shards cover keys [0, {expected_key}) but the key "
                f"space is [0, {self.key_space})")
        if expected_pos != self.n_cells:
            raise ShardMapError(
                f"order slices cover [0, {expected_pos}) but the field "
                f"has {self.n_cells} cells")

    # -- lookup --------------------------------------------------------------

    @property
    def num_shards(self) -> int:
        """Number of shards in the map."""
        return len(self.shards)

    @property
    def _bounds(self) -> np.ndarray:
        """Interior key boundaries (``key_hi`` of all but the last)."""
        return np.asarray([sh.key_hi for sh in self.shards[:-1]],
                          dtype=np.int64)

    def assign(self, keys: np.ndarray) -> np.ndarray:
        """Owning shard id for each Hilbert key (vectorized).

        Keys outside ``[0, key_space)`` raise — ownership must be
        total, never clamped silently.
        """
        keys = np.asarray(keys, dtype=np.int64)
        if keys.size and (keys.min() < 0 or keys.max() >= self.key_space):
            raise ShardMapError(
                f"keys outside the key space [0, {self.key_space})")
        return np.searchsorted(self._bounds, keys, side="right")

    def assign_positions(self, positions: np.ndarray) -> np.ndarray:
        """Owning shard id for global order positions (vectorized)."""
        positions = np.asarray(positions, dtype=np.int64)
        if positions.size and (positions.min() < 0
                               or positions.max() >= self.n_cells):
            raise ShardMapError(
                f"positions outside [0, {self.n_cells})")
        stops = np.asarray([sh.stop for sh in self.shards[:-1]],
                           dtype=np.int64)
        return np.searchsorted(stops, positions, side="right")

    # -- rebalancing primitives ---------------------------------------------

    def split(self, shard_id: int, position: int,
              boundary_key: int) -> "ShardMap":
        """Split one shard at a global order position; returns a new map.

        ``boundary_key`` must be the Hilbert key of the cell *at*
        ``position`` (the first cell of the new right half) and must
        exceed the key of the cell before it — i.e. the cut sits on a
        strict key increase, which the caller establishes with
        :func:`aligned_cut`.
        """
        sh = self.shards[shard_id]
        if not sh.start < position < sh.stop:
            raise ShardMapError(
                f"split position {position} outside shard {shard_id}'s "
                f"open slice ({sh.start}, {sh.stop})")
        if not sh.key_lo < boundary_key < sh.key_hi:
            raise ShardMapError(
                f"boundary key {boundary_key} outside shard "
                f"{shard_id}'s open key range ({sh.key_lo}, {sh.key_hi})")
        left = ShardSpec(shard_id, sh.key_lo, boundary_key,
                         sh.start, position)
        right = ShardSpec(shard_id + 1, boundary_key, sh.key_hi,
                          position, sh.stop)
        shards = (self.shards[:shard_id] + (left, right)
                  + tuple(ShardSpec(s.shard_id + 1, s.key_lo, s.key_hi,
                                    s.start, s.stop)
                          for s in self.shards[shard_id + 1:]))
        return ShardMap(self.curve_name, self.curve_order, self.dim,
                        self.n_cells, self.key_space, self.page_quantum,
                        shards)

    def merge(self, shard_id: int) -> "ShardMap":
        """Merge one shard with its right neighbour; returns a new map."""
        if shard_id >= len(self.shards) - 1:
            raise ShardMapError(
                f"shard {shard_id} has no right neighbour to merge with")
        a = self.shards[shard_id]
        b = self.shards[shard_id + 1]
        merged = ShardSpec(shard_id, a.key_lo, b.key_hi, a.start, b.stop)
        shards = (self.shards[:shard_id] + (merged,)
                  + tuple(ShardSpec(s.shard_id - 1, s.key_lo, s.key_hi,
                                    s.start, s.stop)
                          for s in self.shards[shard_id + 2:]))
        return ShardMap(self.curve_name, self.curve_order, self.dim,
                        self.n_cells, self.key_space, self.page_quantum,
                        shards)

    # -- (de)serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-ready representation (the persisted manifest body)."""
        return {"format": SHARD_MAP_FORMAT,
                "curve_name": self.curve_name,
                "curve_order": self.curve_order,
                "dim": self.dim,
                "n_cells": self.n_cells,
                "key_space": self.key_space,
                "page_quantum": self.page_quantum,
                "shards": [sh.to_dict() for sh in self.shards]}

    @classmethod
    def from_dict(cls, doc: dict) -> "ShardMap":
        """Rebuild a map from :meth:`to_dict` output; validates it."""
        if doc.get("format") != SHARD_MAP_FORMAT:
            raise ShardMapError(
                f"unsupported shard-map format {doc.get('format')!r}")
        shards = tuple(
            ShardSpec(int(s["shard_id"]), int(s["key_lo"]),
                      int(s["key_hi"]), int(s["start"]), int(s["stop"]))
            for s in doc["shards"])
        return cls(str(doc["curve_name"]), int(doc["curve_order"]),
                   int(doc["dim"]), int(doc["n_cells"]),
                   int(doc["key_space"]), int(doc["page_quantum"]), shards)


# -- cut placement -----------------------------------------------------------

def aligned_cut(sorted_keys: np.ndarray, position: int,
                page_quantum: int = 1) -> int | None:
    """Slide a tentative cut forward until it is page- and key-aligned.

    Returns the smallest position ``>= position`` that is a multiple of
    ``page_quantum`` *and* sits on a strict key increase
    (``sorted_keys[p-1] < sorted_keys[p]``), or ``None`` when no such
    interior position exists before the end of the sequence.
    """
    n = len(sorted_keys)
    q = max(1, int(page_quantum))
    p = ((max(1, position) + q - 1) // q) * q
    while p < n and sorted_keys[p - 1] == sorted_keys[p]:
        p += q
    return p if 0 < p < n else None


def build_shard_map(sorted_keys: np.ndarray, n_shards: int,
                    key_space: int, *, curve_name: str, curve_order: int,
                    dim: int, page_quantum: int = 1) -> ShardMap:
    """Cut the sorted Hilbert-key sequence into ``n_shards`` ranges.

    Tentative cuts are placed at equal cell-count fractions, then
    aligned forward with :func:`aligned_cut`; cuts that collide after
    alignment collapse, so the result may hold fewer shards than
    requested (never more).  Key bounds are derived from the keys at
    the cuts, which the alignment rule guarantees is lossless.
    """
    sorted_keys = np.asarray(sorted_keys, dtype=np.int64)
    n = len(sorted_keys)
    if n == 0:
        raise ShardMapError("cannot shard an empty field")
    if n_shards < 1:
        raise ShardMapError(f"n_shards must be >= 1, got {n_shards}")
    if np.any(np.diff(sorted_keys) < 0):
        raise ShardMapError("keys must be sorted ascending")
    if sorted_keys[0] < 0 or sorted_keys[-1] >= key_space:
        raise ShardMapError(
            f"keys outside the key space [0, {key_space})")
    cuts: list[int] = []
    for i in range(1, n_shards):
        cut = aligned_cut(sorted_keys, (i * n + n_shards - 1) // n_shards,
                          page_quantum)
        if cut is not None and (not cuts or cut > cuts[-1]):
            cuts.append(cut)
    edges = [0] + cuts + [n]
    shards = []
    for k in range(len(edges) - 1):
        start, stop = edges[k], edges[k + 1]
        key_lo = 0 if k == 0 else int(sorted_keys[start])
        key_hi = (key_space if k == len(edges) - 2
                  else int(sorted_keys[stop]))
        shards.append(ShardSpec(k, key_lo, key_hi, start, stop))
    return ShardMap(curve_name, curve_order, dim, n, key_space,
                    max(1, int(page_quantum)), tuple(shards))


# -- persistence (the core/persist.py manifest idiom) -------------------------

def save_shard_map(directory: str | Path, smap: ShardMap,
                   extra: dict | None = None) -> int:
    """Commit a shard map (plus optional extra metadata) atomically.

    The map is serialized under a fresh generation name
    (``shard-map-<g>.json``), fsynced, and referenced — with its
    SHA-256 — from ``shard-meta.json``, whose write-temp + fsync +
    atomic rename is the commit point.  A crash at any step leaves the
    previous generation fully intact.  Returns the committed
    generation number.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    previous = read_json(directory / _META_NAME)
    generation = (previous["generation"] + 1) if previous else 1
    map_name = f"shard-map-{generation}.json"
    payload = json.dumps(smap.to_dict(), indent=2, sort_keys=True)
    with open(directory / map_name, "w", encoding="utf-8") as fh:
        fh.write(payload)
        fh.flush()
        os.fsync(fh.fileno())
    meta = {"format": SHARD_MAP_FORMAT,
            "generation": generation,
            "shard_map": {
                "name": map_name,
                "sha256": file_sha256(directory / map_name),
                "bytes": (directory / map_name).stat().st_size,
            },
            "num_shards": smap.num_shards,
            "extra": extra or {}}
    commit_file(directory, _META_NAME,
                json.dumps(meta, indent=2, sort_keys=True))
    _collect_garbage(directory, keep={map_name, _META_NAME})
    return generation


def load_shard_map(directory: str | Path) -> tuple[ShardMap, dict]:
    """Load and verify the committed shard map; returns (map, extra).

    The referenced payload must exist, match its recorded size and
    SHA-256, and pass :meth:`ShardMap.validate` (which ``from_dict``
    runs implicitly).
    """
    directory = Path(directory)
    meta = read_json(directory / _META_NAME)
    if meta is None:
        raise ShardMapError(f"no committed shard map under {directory}")
    entry = meta["shard_map"]
    problem = manifest_entry_problem(directory, entry)
    if problem is not None:
        raise ShardMapError(f"shard-map payload {entry['name']}: {problem}")
    with open(directory / entry["name"], encoding="utf-8") as fh:
        smap = ShardMap.from_dict(json.load(fh))
    return smap, meta.get("extra", {})


def _collect_garbage(directory: Path, keep: set[str]) -> None:
    for path in directory.glob("shard-map-*.json"):
        if path.name not in keep:
            path.unlink(missing_ok=True)
