"""Main-memory Interval tree baseline (paper §2.3 related work).

The isosurface/isoline literature the paper builds on indexed cell
intervals with Edelsbrunner's *Interval tree* — a main-memory structure.
The paper dismisses it for large field databases precisely because it is
memory-resident; this implementation makes that comparison concrete: the
``ITreeIndex`` access method answers the filtering step entirely in RAM
(no index I/O at all) but still pays data-file I/O to fetch candidate
records, and its memory footprint scales with the cell count.

The structure is the classic static centered interval tree: each node
stores the intervals containing its center value, sorted by low and by
high endpoint, so a stabbing query costs O(log n + answer).
"""

from __future__ import annotations

import numpy as np

from ..field.base import Field
from .base import ValueIndex


class IntervalTreeNode:
    """One node of a centered interval tree."""

    __slots__ = ("center", "by_low", "by_high", "left", "right")

    def __init__(self, center: float, by_low: np.ndarray,
                 by_high: np.ndarray) -> None:
        self.center = center
        #: Intervals containing ``center``, ids sorted by low endpoint.
        self.by_low = by_low          # (k, 2) columns: low, id
        #: Same intervals, ids sorted by descending high endpoint.
        self.by_high = by_high        # (k, 2) columns: high, id
        self.left: IntervalTreeNode | None = None
        self.right: IntervalTreeNode | None = None


def build_interval_tree(lows: np.ndarray, highs: np.ndarray,
                        ids: np.ndarray) -> IntervalTreeNode | None:
    """Build a centered interval tree over ``[lows[i], highs[i]]``."""
    if len(lows) == 0:
        return None
    center = float(np.median(np.concatenate([lows, highs])))
    here = (lows <= center) & (highs >= center)
    left_mask = highs < center
    right_mask = lows > center
    order_low = np.argsort(lows[here], kind="stable")
    order_high = np.argsort(-highs[here], kind="stable")
    node = IntervalTreeNode(
        center,
        np.column_stack([lows[here][order_low], ids[here][order_low]]),
        np.column_stack([highs[here][order_high],
                         ids[here][order_high]]),
    )
    node.left = build_interval_tree(lows[left_mask], highs[left_mask],
                                    ids[left_mask])
    node.right = build_interval_tree(lows[right_mask], highs[right_mask],
                                     ids[right_mask])
    return node


def query_interval_tree(root: IntervalTreeNode | None, lo: float,
                        hi: float) -> list[int]:
    """Ids of stored intervals intersecting the closed query [lo, hi]."""
    result: list[int] = []
    stack = [root]
    while stack:
        node = stack.pop()
        if node is None:
            continue
        if hi < node.center:
            # Only intervals whose low endpoint is <= hi can intersect.
            lows = node.by_low[:, 0]
            cut = int(np.searchsorted(lows, hi, side="right"))
            result.extend(int(i) for i in node.by_low[:cut, 1])
            stack.append(node.left)
        elif lo > node.center:
            highs = -node.by_high[:, 0]
            cut = int(np.searchsorted(highs, -lo, side="right"))
            result.extend(int(i) for i in node.by_high[:cut, 1])
            stack.append(node.right)
        else:
            # The query straddles the center: every stored interval here
            # intersects, and both subtrees may contribute.
            result.extend(int(i) for i in node.by_low[:, 1])
            stack.append(node.left)
            stack.append(node.right)
    return result


def tree_height(root: IntervalTreeNode | None) -> int:
    """Height of the tree (0 for empty)."""
    if root is None:
        return 0
    return 1 + max(tree_height(root.left), tree_height(root.right))


def tree_size(root: IntervalTreeNode | None) -> int:
    """Number of stored intervals."""
    if root is None:
        return 0
    return (len(root.by_low) + tree_size(root.left)
            + tree_size(root.right))


class ITreeIndex(ValueIndex):
    """Access method filtering with a main-memory interval tree.

    The filtering step is free of index I/O (the tree lives in RAM, as
    in the isosurface literature); candidate cell records are then
    fetched from the paged data file exactly like I-All does.  The
    comparison against I-Hilbert quantifies the paper's argument that a
    main-memory structure does not address the disk-resident case: the
    data-fetch pattern is as scattered as I-All's.
    """

    name = "I-Tree"

    def __init__(self, field: Field, cache_pages: int = 0) -> None:
        super().__init__(field, cache_pages=cache_pages)
        records = field.cell_records()
        self.store.extend(records)
        self.root = build_interval_tree(
            records["vmin"].astype(np.float64),
            records["vmax"].astype(np.float64),
            np.arange(len(records), dtype=np.int64))

    def describe(self) -> dict:
        info = super().describe()
        info["tree_height"] = tree_height(self.root)
        info["memory_resident"] = True
        return info

    def _candidates(self, lo: float, hi: float) -> np.ndarray:
        rids = query_interval_tree(self.root, lo, hi)
        if not rids:
            return np.empty(0, dtype=self.store.dtype)
        return self._fetch_rids(rids)
