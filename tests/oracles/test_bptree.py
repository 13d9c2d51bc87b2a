"""Unit and property tests for the B+-tree substrate."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.oracles.bptree import BPlusTree


def build_insert(pairs, order=8):
    tree = BPlusTree(order=order)
    for key, value in pairs:
        tree.insert(key, value)
    return tree


class TestConstruction:
    def test_order_floor(self):
        with pytest.raises(ValueError):
            BPlusTree(order=2)

    def test_empty_tree(self):
        tree = BPlusTree()
        assert len(tree) == 0
        assert list(tree.items()) == []
        assert tree.min_key() is None
        assert tree.max_key() is None
        assert tree.search(1.0) == []
        assert tree.range_search(0.0, 10.0) == []

    def test_insert_grows_height(self):
        tree = build_insert([(float(i), i) for i in range(200)], order=4)
        assert tree.height > 1
        tree.check_invariants()

    def test_bulk_matches_insert(self):
        pairs = [(float(i % 37) * 0.5, i) for i in range(300)]
        bulk = BPlusTree.from_items(pairs, order=8)
        inserted = build_insert(pairs, order=8)
        assert sorted(bulk.items()) == sorted(inserted.items())
        bulk.check_invariants()
        inserted.check_invariants()

    def test_bulk_empty(self):
        tree = BPlusTree.from_items([], order=8)
        assert len(tree) == 0
        tree.check_invariants()


class TestSearch:
    def test_exact_search(self):
        tree = build_insert([(1.0, 10), (2.0, 20), (2.0, 21), (3.0, 30)])
        assert tree.search(2.0) == [20, 21] or sorted(tree.search(2.0)) == [20, 21]
        assert tree.search(5.0) == []

    def test_duplicates_across_leaves(self):
        # Many duplicate keys force duplicates to straddle leaf boundaries.
        tree = build_insert([(1.0, i) for i in range(50)], order=4)
        assert sorted(tree.search(1.0)) == list(range(50))

    def test_range_search_inclusive(self):
        tree = build_insert([(float(i), i) for i in range(20)], order=4)
        got = tree.range_search(5.0, 9.0)
        assert [key for key, _ in got] == [5.0, 6.0, 7.0, 8.0, 9.0]

    def test_range_search_empty_interval(self):
        tree = build_insert([(float(i), i) for i in range(10)])
        assert tree.range_search(3.5, 3.4) == []

    def test_range_search_beyond_extremes(self):
        tree = build_insert([(float(i), i) for i in range(10)], order=4)
        assert len(tree.range_search(-100.0, 100.0)) == 10

    def test_min_max(self):
        tree = build_insert([(3.0, 1), (1.0, 2), (2.0, 3)])
        assert tree.min_key() == 1.0
        assert tree.max_key() == 3.0


class TestCursor:
    def test_cursor_walks_both_directions(self):
        tree = build_insert([(float(i), i) for i in range(10)], order=4)
        cursor = tree.cursor(4.5)
        assert cursor.peek_right() == (5.0, 5)
        assert cursor.peek_left() == (4.0, 4)
        assert cursor.move_right() == (5.0, 5)
        assert cursor.move_right() == (6.0, 6)
        assert cursor.move_left() == (4.0, 4)
        assert cursor.move_left() == (3.0, 3)

    def test_cursor_at_extremes(self):
        tree = build_insert([(float(i), i) for i in range(5)], order=4)
        low = tree.cursor(-10.0)
        assert low.peek_left() is None
        assert low.peek_right() == (0.0, 0)
        high = tree.cursor(100.0)
        assert high.peek_right() is None
        assert high.peek_left() == (4.0, 4)

    def test_cursor_drains_everything(self):
        tree = build_insert([(float(i), i) for i in range(30)], order=4)
        cursor = tree.cursor(15.0)
        seen = []
        while True:
            entry = cursor.move_right()
            if entry is None:
                break
            seen.append(entry[1])
        while True:
            entry = cursor.move_left()
            if entry is None:
                break
            seen.append(entry[1])
        assert sorted(seen) == list(range(30))

    def test_cursor_on_empty_tree(self):
        tree = BPlusTree()
        cursor = tree.cursor(0.0)
        assert cursor.peek_left() is None
        assert cursor.peek_right() is None
        assert cursor.move_left() is None
        assert cursor.move_right() is None


class TestProperties:
    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=0, max_size=300),
        st.integers(min_value=3, max_value=32),
    )
    @settings(max_examples=40, deadline=None)
    def test_sorted_multimap_property(self, keys, order):
        tree = BPlusTree(order=order)
        for i, key in enumerate(keys):
            tree.insert(key, i)
        tree.check_invariants()
        items = list(tree.items())
        assert len(items) == len(keys)
        assert [k for k, _ in items] == sorted(keys)
        assert sorted(v for _, v in items) == list(range(len(keys)))

    @given(
        st.lists(st.floats(-100, 100), min_size=1, max_size=200),
        st.floats(-100, 100),
        st.floats(-100, 100),
    )
    @settings(max_examples=40, deadline=None)
    def test_range_search_matches_filter(self, keys, a, b):
        lo, hi = min(a, b), max(a, b)
        tree = BPlusTree.from_items([(k, i) for i, k in enumerate(keys)], order=6)
        got = tree.range_search(lo, hi)
        expected = sorted(k for k in keys if lo <= k <= hi)
        assert [k for k, _ in got] == expected

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=150))
    @settings(max_examples=30, deadline=None)
    def test_bulk_load_invariants(self, keys):
        tree = BPlusTree.from_items([(k, i) for i, k in enumerate(keys)], order=5)
        tree.check_invariants()

    @given(
        st.lists(st.floats(-100, 100), min_size=1, max_size=120),
        st.floats(-100, 100),
    )
    @settings(max_examples=30, deadline=None)
    def test_cursor_partition_property(self, keys, pivot):
        """Everything left of a cursor is < pivot; right is >= pivot."""
        tree = BPlusTree.from_items([(k, i) for i, k in enumerate(keys)], order=4)
        cursor = tree.cursor(pivot)
        left = cursor.peek_left()
        right = cursor.peek_right()
        if left is not None:
            assert left[0] < pivot
        if right is not None:
            assert right[0] >= pivot
