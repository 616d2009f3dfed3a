"""Disk-backed R*-tree (Beckmann, Kriegel, Schneider, Seeger — SIGMOD 1990).

This is the index structure the paper layers over value intervals: 1-D for
interval MBRs (I-All, I-Hilbert) and 2-D for conventional point queries.
Nodes live one-per-page on a :class:`~repro.storage.disk.DiskManager`;
searches read and deserialize real page images so that I/O counts and
CPU work are honest.  Besides dynamic insertion with forced reinsert, the
tree offers Kamel–Faloutsos Hilbert-packed bulk loading (the paper's
ref [14]) used to build the large I-All indexes in reasonable time.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from ..curves import HilbertCurve2D
from ..geometry import Rect
from ..storage import BufferPool, DiskManager
from .node import Node, entry_dtype, node_capacity
from .split import rstar_split

Entry = tuple[Rect, int]

#: Fraction of the node the R* forced-reinsert evicts.
REINSERT_FRACTION = 0.3
#: Minimum node fill as a fraction of capacity.
MIN_FILL_FRACTION = 0.4
#: Entries considered when computing overlap enlargement in ChooseSubtree.
CHOOSE_SUBTREE_CANDIDATES = 32


class RStarTree:
    """An R*-tree over ``dim``-dimensional rectangles.

    Parameters
    ----------
    dim:
        Dimensionality of indexed rectangles (1 for value intervals).
    disk:
        Page file for the nodes; a private one is created when omitted.
    cache_pages:
        Buffer-pool capacity used by accounted searches.
    max_entries:
        Override the page-derived node capacity (mainly for tests that
        want tiny nodes and deep trees).
    """

    def __init__(self, dim: int, disk: DiskManager | None = None,
                 cache_pages: int = 0,
                 max_entries: int | None = None) -> None:
        disk = disk if disk is not None else DiskManager(name="rstar")
        page_cap = node_capacity(disk.usable_page_size, dim)
        if max_entries is not None and not 4 <= max_entries <= page_cap:
            raise ValueError(
                f"max_entries must be in [4, {page_cap}], "
                f"got {max_entries}")
        self._configure(dim, disk, cache_pages,
                        page_cap if max_entries is None else max_entries)
        self._root_id = self._new_node(is_leaf=True).page_id
        self._height = 1
        self._count = 0
        self._dirty = True

    def _configure(self, dim: int, disk: DiskManager, cache_pages: int,
                   capacity: int) -> None:
        """Set the node geometry and an empty node map (no root yet)."""
        self.dim = dim
        self.disk = disk
        self.capacity = capacity
        self.min_fill = max(2, int(MIN_FILL_FRACTION * capacity))
        self.reinsert_count = max(1, int(REINSERT_FRACTION * capacity))
        self.pool = BufferPool(disk, capacity=cache_pages)
        self._nodes: dict[int, Node] = {}
        self._reinserted_levels: set[int] = set()

    @classmethod
    def reopen(cls, disk: DiskManager, manifest: dict,
               cache_pages: int = 0) -> "RStarTree":
        """Reopen a flushed tree over ``disk`` from its :meth:`manifest`.

        Every node is decoded from its page; allocation continues after
        the disk's last page, so the reopened tree evolves exactly as
        the original would have.
        """
        tree = cls.__new__(cls)
        tree._configure(manifest["dim"], disk, cache_pages,
                        manifest["capacity"])
        for node_id in manifest["node_ids"]:
            tree._nodes[node_id] = Node.from_bytes(
                node_id, disk.page_payload(node_id), tree.dim)
        tree._root_id = manifest["root_id"]
        tree._height = manifest["height"]
        tree._count = manifest["count"]
        tree._dirty = False
        return tree

    def manifest(self) -> dict:
        """JSON-safe description :meth:`reopen` rebuilds the tree from.

        Flush first: :meth:`reopen` reads the nodes from their pages.
        """
        return {"dim": self.dim, "capacity": self.capacity,
                "root_id": self._root_id, "height": self._height,
                "count": self._count, "node_ids": sorted(self._nodes)}

    # ------------------------------------------------------------------
    # public surface
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._count

    @property
    def height(self) -> int:
        """Number of levels (1 = a single leaf root)."""
        return self._height

    def insert(self, rect: Rect, ident: int) -> None:
        """Insert a rectangle with an opaque integer id."""
        self._require_dim(rect)
        self._reinserted_levels = set()
        self._insert_top(rect, ident, target_level=0)
        self._count += 1
        self._dirty = True

    def delete(self, rect: Rect, ident: int) -> bool:
        """Remove one entry matching ``(rect, ident)`` exactly.

        Returns True when an entry was found and removed.  Underfull nodes
        are dissolved and their entries reinserted (the classic condense
        step); a non-leaf root with a single child is cut.
        """
        self._require_dim(rect)
        found = self._delete_rec(self._root_id, self._height - 1,
                                 rect, ident)
        if not found:
            return False
        self._count -= 1
        root = self._nodes[self._root_id]
        while not root.is_leaf and len(root.entries) == 1:
            child_id = root.entries[0][1]
            del self._nodes[self._root_id]
            self._root_id = child_id
            self._height -= 1
            root = self._nodes[self._root_id]
        self._dirty = True
        return True

    def search(self, rect: Rect) -> np.ndarray:
        """Ids of all entries whose rectangle intersects ``rect``.

        Traversal reads node pages through the buffer pool, charging I/O;
        intersection tests run vectorized over each page's entry array.
        """
        self._require_dim(rect)
        if self._dirty:
            self.flush()
        qlows = np.asarray(rect.lows)
        qhighs = np.asarray(rect.highs)
        hits: list[np.ndarray] = []
        stack = [self._root_id]
        while stack:
            data = self.pool.read(stack.pop())
            is_leaf, records = Node.read_arrays(data, self.dim)
            mask = (np.all(records["lows"] <= qhighs, axis=1)
                    & np.all(records["highs"] >= qlows, axis=1))
            ids = records["id"][mask]
            if is_leaf:
                if len(ids):
                    hits.append(ids)
            else:
                # tolist() converts the child ids in one C pass; the
                # per-element int() generator it replaces dominated
                # profile time on deep traversals.
                stack.extend(ids.tolist())
        if not hits:
            return np.empty(0, dtype=np.int64)
        if len(hits) == 1:
            return hits[0].copy()
        return np.concatenate(hits)

    def bulk_load(self, rects: Sequence[Rect], idents: Iterable[int],
                  fill: float = 1.0) -> None:
        """Hilbert-pack ``rects`` into a fresh tree (Kamel–Faloutsos).

        Rectangles are sorted by the Hilbert value of their centers (plain
        center order in 1-D) and packed bottom-up at ``fill`` × capacity.
        The tree must be empty.
        """
        idents = list(idents)
        if len(rects) != len(idents):
            raise ValueError(
                f"{len(rects)} rects vs {len(idents)} ids")
        for rect in rects:
            self._require_dim(rect)
        n = len(rects)
        lows = np.array([r.lows for r in rects],
                        dtype=np.float64).reshape(n, self.dim)
        highs = np.array([r.highs for r in rects],
                         dtype=np.float64).reshape(n, self.dim)
        self.bulk_load_arrays(lows, highs,
                              np.asarray(idents, dtype=np.int64), fill=fill)

    def bulk_load_arrays(self, lows: np.ndarray, highs: np.ndarray,
                         idents: np.ndarray, fill: float = 1.0) -> None:
        """Array-native bulk load: same packing, no per-entry objects.

        ``lows``/``highs`` are float64 arrays of shape ``(n, dim)`` (or
        ``(n,)`` for 1-D trees) and ``idents`` an int64 array of ids.
        Produces a tree byte-identical to :meth:`bulk_load` over the
        equivalent ``Rect`` sequence — same page allocation order, same
        node records — but sorts, chunks, and packs straight over the
        input arrays, so the build cost is the ``argsort`` plus one
        record-array fill per node.  This is the bulk-ingestion entry
        point: :meth:`bulk_load` itself converts and delegates here.
        """
        if self._count:
            raise ValueError("bulk_load requires an empty tree")
        if not 0.0 < fill <= 1.0:
            raise ValueError(f"fill must be in (0, 1], got {fill}")
        lows = np.asarray(lows, dtype=np.float64)
        highs = np.asarray(highs, dtype=np.float64)
        idents = np.asarray(idents, dtype=np.int64)
        if lows.ndim == 1:
            lows = lows[:, None]
        if highs.ndim == 1:
            highs = highs[:, None]
        n = len(lows)
        if lows.shape != (n, self.dim) or highs.shape != (n, self.dim):
            raise ValueError(
                f"expected ({n}, {self.dim}) bounds arrays, got "
                f"{lows.shape} / {highs.shape}")
        if len(idents) != n:
            raise ValueError(f"{n} rects vs {len(idents)} ids")
        if not n:
            return
        order = self._packing_order_arrays(lows, highs)
        slows = np.ascontiguousarray(lows[order])
        shighs = np.ascontiguousarray(highs[order])
        sids = np.ascontiguousarray(idents[order])
        per_node = max(self.min_fill, int(self.capacity * fill))
        dtype = entry_dtype(self.dim)
        self._nodes.clear()
        self._height = 1
        while True:
            bounds = self._chunk_bounds(len(sids), per_node)
            is_leaf = self._height == 1
            up_lows = np.empty((len(bounds), self.dim))
            up_highs = np.empty((len(bounds), self.dim))
            up_ids = np.empty(len(bounds), dtype=np.int64)
            for k, (s, e) in enumerate(bounds):
                records = np.empty(e - s, dtype=dtype)
                records["lows"] = slows[s:e]
                records["highs"] = shighs[s:e]
                records["id"] = sids[s:e]
                page_id = self.disk.allocate()
                self._nodes[page_id] = Node.from_records(
                    page_id, is_leaf, records)
                up_lows[k] = slows[s:e].min(axis=0)
                up_highs[k] = shighs[s:e].max(axis=0)
                up_ids[k] = page_id
            if len(bounds) == 1:
                self._root_id = int(up_ids[0])
                break
            slows, shighs, sids = up_lows, up_highs, up_ids
            self._height += 1
        self._count = n
        self._dirty = True

    def _chunk_bounds(self, n: int, per_node: int) -> list[tuple[int, int]]:
        """Slice bounds of ~``per_node`` groups, none below ``min_fill``.

        A short remainder borrows from the previous full group so every
        packed node satisfies the fill invariant (the array twin of the
        object path's balanced chunking).
        """
        bounds = [(s, min(s + per_node, n)) for s in range(0, n, per_node)]
        if len(bounds) > 1 and bounds[-1][1] - bounds[-1][0] < self.min_fill:
            s0 = bounds[-2][0]
            e1 = bounds[-1][1]
            half = (e1 - s0) // 2
            bounds[-2:] = [(s0, s0 + half), (s0 + half, e1)]
        return bounds

    def flush(self) -> None:
        """Serialize every node to its page (mirror for accounted reads).

        A no-op when nothing changed since the last flush.
        """
        if not self._dirty:
            return
        for node in self._nodes.values():
            self.disk.write(node.page_id,
                            node.to_bytes(self.disk.usable_page_size,
                                          self.dim))
        self.pool.clear()
        self._dirty = False

    def check_invariants(self) -> None:
        """Validate structural invariants; raises AssertionError on breach.

        Checks: every internal entry's rect equals its child's MBR, node
        fill bounds (root exempt), uniform leaf depth, and entry count.
        """
        counted = self._check_rec(self._root_id, self._height - 1)
        assert counted == self._count, (
            f"entry count mismatch: tree says {self._count}, "
            f"walk found {counted}")

    # ------------------------------------------------------------------
    # insertion internals
    # ------------------------------------------------------------------

    def _insert_top(self, rect: Rect, ident: int, target_level: int) -> None:
        root_before = self._root_id
        root_level = self._height - 1
        split = self._insert_rec(root_before, root_level,
                                 rect, ident, target_level)
        if split is None:
            return
        if self._root_id == root_before:
            old_root = self._nodes[root_before]
            new_root = self._new_node(is_leaf=False)
            new_root.entries = [(old_root.mbr(), old_root.page_id), split]
            self._root_id = new_root.page_id
            self._height += 1
        else:
            # A nested forced-reinsert grew the tree above ``root_before``
            # while we were working: attach the sibling to the level that
            # now sits above the old root instead of minting a new root.
            self._insert_top(split[0], split[1],
                             target_level=root_level + 1)

    def _insert_rec(self, node_id: int, level: int, rect: Rect,
                    ident: int, target_level: int) -> Entry | None:
        node = self._nodes[node_id]
        if level == target_level:
            node.entries.append((rect, ident))
        else:
            idx = self._pick_child(node, rect, level)
            child_id = node.entries[idx][1]
            split = self._insert_rec(child_id, level - 1,
                                     rect, ident, target_level)
            child = self._nodes[child_id]
            # Re-locate the child by id: nested forced-reinserts may have
            # appended entries or even migrated the child to a sibling
            # during the recursive call, leaving a stale MBR behind.
            holder, k = self._find_parent_entry(node, child_id)
            holder.entries[k] = (child.mbr(), child_id)
            if split is not None:
                node.entries.append(split)
        if len(node.entries) > self.capacity:
            return self._overflow(node, level)
        return None

    def _overflow(self, node: Node, level: int) -> Entry | None:
        is_root = node.page_id == self._root_id
        if not is_root and level not in self._reinserted_levels:
            self._reinserted_levels.add(level)
            self._force_reinsert(node, level)
            return None
        left, right = rstar_split(node.entries, self.min_fill, self.dim)
        node.entries = left
        sibling = self._new_node(node.is_leaf)
        sibling.entries = right
        return (sibling.mbr(), sibling.page_id)

    def _force_reinsert(self, node: Node, level: int) -> None:
        center = node.mbr().center()
        by_distance = sorted(
            node.entries,
            key=lambda e: self._center_distance(e[0], center),
            reverse=True)
        evicted = by_distance[:self.reinsert_count]
        node.entries = by_distance[self.reinsert_count:]
        # Close reinsert: push the nearest evictee back in first.
        for rect, ident in reversed(evicted):
            self._insert_top(rect, ident, target_level=level)

    def _pick_child(self, node: Node, rect: Rect, level: int) -> int:
        children_are_leaves = level == 1
        if not children_are_leaves:
            return self._least_enlargement(node.entries, rect)
        # R* leaf-level rule: minimize overlap enlargement among the
        # candidates with least area enlargement.
        ranked = sorted(
            range(len(node.entries)),
            key=lambda i: (node.entries[i][0].enlargement(rect),
                           node.entries[i][0].area()))
        candidates = ranked[:CHOOSE_SUBTREE_CANDIDATES]
        best = candidates[0]
        best_key = None
        for i in candidates:
            box = node.entries[i][0]
            grown = box.union(rect)
            overlap_delta = 0.0
            for j, (other, _unused) in enumerate(node.entries):
                if j == i:
                    continue
                overlap_delta += (grown.intersection_area(other)
                                  - box.intersection_area(other))
            key = (overlap_delta, box.enlargement(rect), box.area())
            if best_key is None or key < best_key:
                best_key = key
                best = i
        return best

    @staticmethod
    def _least_enlargement(entries: list[Entry], rect: Rect) -> int:
        best = 0
        best_key = None
        for i, (box, _unused) in enumerate(entries):
            key = (box.enlargement(rect), box.area())
            if best_key is None or key < best_key:
                best_key = key
                best = i
        return best

    # ------------------------------------------------------------------
    # deletion internals
    # ------------------------------------------------------------------

    def _delete_rec(self, node_id: int, level: int, rect: Rect,
                    ident: int) -> bool:
        node = self._nodes[node_id]
        if node.is_leaf:
            for i, (box, entry_id) in enumerate(node.entries):
                if entry_id == ident and box == rect:
                    node.entries.pop(i)
                    return True
            return False
        for box, child_id in list(node.entries):
            if not box.intersects(rect):
                continue
            if not self._delete_rec(child_id, level - 1, rect, ident):
                continue
            child = self._nodes[child_id]
            # Re-locate by id: the recursion may have reshuffled entries
            # (orphan reinsertion can split ancestors).
            holder, k = self._find_parent_entry(node, child_id)
            if len(child.entries) < self.min_fill:
                holder.entries.pop(k)
                orphans = self._collect_entries(child_id, level - 1)
                self._reinserted_levels = set(range(self._height))
                for orphan_level, orect, oid in orphans:
                    self._insert_top(orect, oid, target_level=orphan_level)
                self._dissolve_if_underfull(holder, node, level)
            else:
                holder.entries[k] = (child.mbr(), child_id)
            return True
        return False

    def _dissolve_if_underfull(self, holder: Node, frame: Node,
                               level: int) -> None:
        """Condense ``holder`` when an out-of-frame pop underfilled it.

        Normally the caller's parent frame handles underflow of the node
        it descended into; when the popped entry had migrated to a
        sibling, that sibling has no active frame, so it is dissolved
        here.
        """
        if (holder.page_id == frame.page_id
                or holder.page_id == self._root_id
                or len(holder.entries) >= self.min_fill):
            return
        parent, k = self._find_parent_entry(frame, holder.page_id)
        parent.entries.pop(k)
        orphans = self._collect_entries(holder.page_id, level)
        self._reinserted_levels = set(range(self._height))
        for orphan_level, orect, oid in orphans:
            self._insert_top(orect, oid, target_level=orphan_level)

    def _collect_entries(self, node_id: int,
                         level: int) -> list[tuple[int, Rect, int]]:
        node = self._nodes.pop(node_id)
        if node.is_leaf:
            return [(0, rect, ident) for rect, ident in node.entries]
        collected: list[tuple[int, Rect, int]] = []
        for _unused, child_id in node.entries:
            collected.extend(self._collect_entries(child_id, level - 1))
        return collected

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------

    def _find_parent_entry(self, likely: Node,
                           child_id: int) -> tuple[Node, int]:
        """Locate the internal entry pointing at ``child_id``.

        ``likely`` is checked first (the common case); when a nested
        forced-reinsert migrated the entry to a sibling, every node is
        scanned — rare enough that O(nodes) is acceptable.
        """
        for k, (_unused, cid) in enumerate(likely.entries):
            if cid == child_id:
                return likely, k
        for node in self._nodes.values():
            if node.is_leaf or node.page_id == likely.page_id:
                continue
            for k, (_unused, cid) in enumerate(node.entries):
                if cid == child_id:
                    return node, k
        raise AssertionError(
            f"no parent entry found for node {child_id}")

    def _new_node(self, is_leaf: bool) -> Node:
        page_id = self.disk.allocate()
        node = Node(page_id, is_leaf)
        self._nodes[page_id] = node
        return node

    def _packing_order_arrays(self, lows: np.ndarray,
                              highs: np.ndarray) -> np.ndarray:
        # (lo + hi) / 2.0 matches Rect.center() bit for bit, so the
        # array path sorts exactly as the object path did.
        centers = (lows + highs) / 2.0
        if self.dim == 1:
            return np.argsort(centers[:, 0], kind="stable")
        curve = HilbertCurve2D(16)
        lo = centers.min(axis=0)
        hi = centers.max(axis=0)
        span = np.where(hi - lo > 0, hi - lo, 1.0)
        grid = ((centers[:, :2] - lo[:2]) / span[:2]
                * (curve.side - 1)).astype(np.int64)
        keys = curve.indices(grid)
        return np.argsort(keys, kind="stable")

    @staticmethod
    def _center_distance(rect: Rect, center: tuple[float, ...]) -> float:
        c = rect.center()
        return sum((a - b) ** 2 for a, b in zip(c, center))

    def _require_dim(self, rect: Rect) -> None:
        if rect.dim != self.dim:
            raise ValueError(
                f"rect dimension {rect.dim} does not match tree "
                f"dimension {self.dim}")

    def _check_rec(self, node_id: int, level: int) -> int:
        node = self._nodes[node_id]
        is_root = node_id == self._root_id
        if not is_root:
            assert len(node.entries) >= self.min_fill, (
                f"underfull node {node_id}: {len(node.entries)} entries")
        assert len(node.entries) <= self.capacity, (
            f"overfull node {node_id}")
        if node.is_leaf:
            assert level == 0, f"leaf {node_id} at level {level}"
            return len(node.entries)
        assert level > 0, f"internal node {node_id} at leaf level"
        total = 0
        for rect, child_id in node.entries:
            child = self._nodes[child_id]
            assert child.mbr() == rect, (
                f"stale MBR for child {child_id} of node {node_id}")
            total += self._check_rec(child_id, level - 1)
        return total
