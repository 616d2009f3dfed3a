"""Unit, randomized and property tests for the R*-tree."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Rect
from repro.rstar import RStarTree
from repro.storage import load_disk, save_disk


def random_boxes(n, rng, extent=100.0, size=5.0):
    out = []
    for i in range(n):
        x, y = rng.random(2) * extent
        w, h = rng.random(2) * size
        out.append((Rect((x, y), (x + w, y + h)), i))
    return out


def brute_search(data, query):
    return sorted(i for rect, i in data if rect.intersects(query))


def test_empty_tree_search():
    tree = RStarTree(dim=2)
    assert list(tree.search(Rect((0.0, 0.0), (1.0, 1.0)))) == []
    assert len(tree) == 0
    assert tree.height == 1


def test_single_insert_and_search():
    tree = RStarTree(dim=1)
    tree.insert(Rect.from_interval(1.0, 2.0), 7)
    assert list(tree.search(Rect.from_interval(1.5, 1.6))) == [7]
    assert list(tree.search(Rect.from_interval(3.0, 4.0))) == []
    assert len(tree) == 1


def test_dimension_mismatch_rejected():
    tree = RStarTree(dim=2)
    with pytest.raises(ValueError):
        tree.insert(Rect.from_interval(0.0, 1.0), 0)
    with pytest.raises(ValueError):
        tree.search(Rect.from_interval(0.0, 1.0))


def test_max_entries_validation():
    with pytest.raises(ValueError):
        RStarTree(dim=1, max_entries=3)
    with pytest.raises(ValueError):
        RStarTree(dim=1, max_entries=100000)


def test_duplicate_rect_different_ids():
    tree = RStarTree(dim=1, max_entries=4)
    r = Rect.from_interval(0.0, 1.0)
    for i in range(10):
        tree.insert(r, i)
    assert sorted(tree.search(r)) == list(range(10))


def test_insert_grows_height():
    tree = RStarTree(dim=2, max_entries=4)
    rng = np.random.default_rng(1)
    for rect, i in random_boxes(100, rng):
        tree.insert(rect, i)
    assert tree.height >= 3
    tree.check_invariants()


def test_insert_search_matches_brute_force():
    tree = RStarTree(dim=2, max_entries=8)
    rng = np.random.default_rng(2)
    data = random_boxes(400, rng)
    for rect, i in data:
        tree.insert(rect, i)
    tree.check_invariants()
    for _ in range(40):
        x, y = rng.random(2) * 90
        query = Rect((x, y), (x + 10, y + 10))
        assert sorted(tree.search(query)) == brute_search(data, query)


def test_search_returns_only_intersecting_ids():
    tree = RStarTree(dim=1, max_entries=4)
    tree.insert(Rect.from_interval(0.0, 1.0), 5)
    tree.insert(Rect.from_interval(10.0, 11.0), 6)
    found = tree.search(Rect.from_interval(0.5, 0.6))
    assert found.tolist() == [5]


def test_delete_removes_only_exact_entry():
    tree = RStarTree(dim=1, max_entries=4)
    a = Rect.from_interval(0.0, 1.0)
    b = Rect.from_interval(0.0, 2.0)
    tree.insert(a, 1)
    tree.insert(b, 2)
    assert tree.delete(a, 1)
    assert not tree.delete(a, 1)          # already gone
    assert not tree.delete(b, 99)         # id mismatch
    assert sorted(tree.search(Rect.from_interval(0.0, 5.0))) == [2]
    assert len(tree) == 1


def test_delete_condenses_tree():
    tree = RStarTree(dim=2, max_entries=4)
    rng = np.random.default_rng(3)
    data = random_boxes(200, rng)
    for rect, i in data:
        tree.insert(rect, i)
    for rect, i in data[:150]:
        assert tree.delete(rect, i)
    tree.check_invariants()
    rest = data[150:]
    for _ in range(20):
        x, y = rng.random(2) * 90
        query = Rect((x, y), (x + 15, y + 15))
        assert sorted(tree.search(query)) == brute_search(rest, query)


def test_delete_everything_leaves_empty_tree():
    tree = RStarTree(dim=1, max_entries=4)
    data = [(Rect.from_interval(float(i), float(i + 1)), i)
            for i in range(50)]
    for rect, i in data:
        tree.insert(rect, i)
    for rect, i in data:
        assert tree.delete(rect, i)
    assert len(tree) == 0
    assert list(tree.search(Rect.from_interval(0.0, 100.0))) == []


def test_bulk_load_matches_dynamic_inserts():
    rng = np.random.default_rng(4)
    data = random_boxes(500, rng)
    dynamic = RStarTree(dim=2, max_entries=16)
    for rect, i in data:
        dynamic.insert(rect, i)
    packed = RStarTree(dim=2, max_entries=16)
    packed.bulk_load([r for r, _i in data], [i for _r, i in data])
    packed.check_invariants()
    for _ in range(30):
        x, y = rng.random(2) * 90
        query = Rect((x, y), (x + 10, y + 10))
        assert sorted(dynamic.search(query)) == sorted(packed.search(query))


def test_bulk_load_1d_intervals():
    tree = RStarTree(dim=1)
    rects = [Rect.from_interval(float(i), float(i + 2)) for i in range(1000)]
    tree.bulk_load(rects, range(1000))
    tree.check_invariants()
    assert sorted(tree.search(Rect.from_interval(500.5, 500.6))) == \
        [499, 500]


def test_bulk_load_requires_empty_tree():
    tree = RStarTree(dim=1)
    tree.insert(Rect.from_interval(0.0, 1.0), 0)
    with pytest.raises(ValueError):
        tree.bulk_load([Rect.from_interval(0.0, 1.0)], [1])


def test_bulk_load_validates_lengths_and_fill():
    tree = RStarTree(dim=1)
    with pytest.raises(ValueError):
        tree.bulk_load([Rect.from_interval(0.0, 1.0)], [1, 2])
    with pytest.raises(ValueError):
        tree.bulk_load([Rect.from_interval(0.0, 1.0)], [1], fill=0.0)


def test_bulk_load_empty_is_noop():
    tree = RStarTree(dim=1)
    tree.bulk_load([], [])
    assert len(tree) == 0


def test_bulk_load_no_underfull_nodes():
    # 171 = one full leaf + a 1-entry remainder; balancing must fix it.
    tree = RStarTree(dim=1)
    n = tree.capacity + 1
    rects = [Rect.from_interval(float(i), float(i)) for i in range(n)]
    tree.bulk_load(rects, range(n))
    tree.check_invariants()


def test_search_accounts_page_reads():
    tree = RStarTree(dim=1, max_entries=8)
    for i in range(100):
        tree.insert(Rect.from_interval(float(i), float(i + 1)), i)
    tree.flush()
    tree.disk.stats.reset()
    tree.search(Rect.from_interval(50.0, 51.0))
    assert tree.disk.stats.page_reads >= tree.height


def test_buffer_pool_serves_repeat_searches():
    tree = RStarTree(dim=1, max_entries=8, cache_pages=64)
    for i in range(100):
        tree.insert(Rect.from_interval(float(i), float(i + 1)), i)
    query = Rect.from_interval(10.0, 11.0)
    tree.search(query)
    tree.disk.stats.reset()
    tree.search(query)
    assert tree.disk.stats.page_reads == 0
    assert tree.disk.stats.cache_hits > 0


def test_forced_reinsert_path_is_exercised():
    """With a tiny capacity, inserts trigger reinsert + cascading splits."""
    tree = RStarTree(dim=2, max_entries=5)
    rng = np.random.default_rng(5)
    # Clustered insertion order provokes overflow in hot regions.
    data = []
    for c in range(10):
        cx, cy = rng.random(2) * 100
        for k in range(30):
            x, y = cx + rng.random() * 5, cy + rng.random() * 5
            rect = Rect((x, y), (x + 0.5, y + 0.5))
            data.append((rect, len(data)))
            tree.insert(rect, len(data) - 1)
    tree.check_invariants()
    query = Rect((0.0, 0.0), (110.0, 110.0))   # covers every box
    assert sorted(tree.search(query)) == list(range(len(data)))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.floats(0, 100, allow_nan=False),
                          st.floats(0, 100, allow_nan=False),
                          st.floats(0, 5, allow_nan=False),
                          st.floats(0, 5, allow_nan=False)),
                min_size=1, max_size=120),
       st.integers(0, 10000))
def test_property_insert_delete_search(entries, seed):
    """Random workloads keep invariants and agree with brute force."""
    tree = RStarTree(dim=2, max_entries=6)
    data = []
    for i, (x, y, w, h) in enumerate(entries):
        rect = Rect((x, y), (x + w, y + h))
        tree.insert(rect, i)
        data.append((rect, i))
    # Delete a deterministic subset.
    rng = np.random.default_rng(seed)
    keep = []
    for rect, i in data:
        if rng.random() < 0.4:
            assert tree.delete(rect, i)
        else:
            keep.append((rect, i))
    tree.check_invariants()
    for _ in range(5):
        x, y = rng.random(2) * 90
        query = Rect((x, y), (x + 20, y + 20))
        assert sorted(tree.search(query)) == brute_search(keep, query)


def test_reopened_tree_evolves_like_the_original(tmp_path):
    """A tree reopened from its manifest and a copy of its page file
    ends an insert/delete sequence on the original's pages."""
    rng = np.random.default_rng(21)
    rects = [Rect.from_interval(lo, lo + w) for lo, w in
             zip(rng.random(300) * 100.0, rng.random(300) * 2.0)]
    tree = RStarTree(dim=1, max_entries=8)
    for ident, rect in enumerate(rects[:200]):
        tree.insert(rect, ident)
    tree.flush()
    save_disk(tree.disk, tmp_path / "tree.pages")
    reopened = RStarTree.reopen(load_disk(tmp_path / "tree.pages"),
                                tree.manifest())
    for t in (tree, reopened):
        for ident in range(0, 200, 3):
            assert t.delete(rects[ident], ident)
        for ident in range(200, 300):
            t.insert(rects[ident], ident)
        t.flush()
        t.check_invariants()
    assert reopened.manifest() == tree.manifest()
    assert reopened.disk.num_pages == tree.disk.num_pages
    for pid in range(tree.disk.num_pages):
        assert reopened.disk.read(pid) == tree.disk.read(pid)
