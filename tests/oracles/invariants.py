"""Structural invariants of a packed PM-tree, checked on its arrays.

:func:`check_invariants` takes anything with :class:`FlatPMTree`'s
fields — a :class:`~repro.pmtree.tree.PMTree` as built, a flat snapshot,
or one that :meth:`~repro.pmtree.flat.FlatPMTree.compacted` filtered —
and asserts what makes every pruning test *safe*:

* the levels tile the node ids top-down and every leaf is on the last
  one (the tree is balanced), and each entry's child is on the level
  below its node;
* the inner spans partition the routing entries, the leaf spans the
  indexed slots, and ``leaf_ids`` is a permutation of the indexed rows;
* every slot lies inside the covering radius and the hyper-rings of
  every routing entry above it, and every stored parent distance is
  the distance it names — up to the filters' ulp slack
  (:func:`~repro.kernels.fast.filter_slack`).
"""

from __future__ import annotations

import numpy as np

from repro.kernels.fast import filter_slack


def _distances(rows: np.ndarray, anchors: np.ndarray) -> np.ndarray:
    diff = rows - anchors
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def _within(a: np.ndarray, b: np.ndarray, slack: float) -> bool:
    """``a ≤ b`` up to the filters' relative slack."""
    return bool(np.all(a <= b + slack * (np.abs(a) + np.abs(b))))


def check_invariants(tree) -> None:
    """Raise ``AssertionError`` describing the first violated invariant."""
    num_nodes = tree.is_leaf.size
    num_entries = tree.entry_radius.size
    levels = np.asarray(tree.levels, dtype=np.int64)
    assert levels[0].tolist() == [0, 1], f"the root is not node 0: {tree.levels}"
    assert np.all(levels[1:, 0] == levels[:-1, 1]), "levels are not contiguous"
    assert levels[-1, 1] == num_nodes, "levels do not cover every node"
    depth = np.repeat(np.arange(levels.shape[0]), levels[:, 1] - levels[:, 0])
    assert np.all(tree.is_leaf == (depth == levels.shape[0] - 1)), "leaves at different depths"

    inner, leaves = np.flatnonzero(~tree.is_leaf), np.flatnonzero(tree.is_leaf)
    starts, ends = tree.span_start, tree.span_end
    assert np.all(starts <= ends), "a negative span"
    for nodes, total, what in (
        (inner, num_entries, "entries"),
        (leaves, tree.leaf_ids.size, "slots"),
    ):
        if nodes.size == 0:  # a single-leaf tree has no routing entries
            assert total == 0, f"{what} without a node"
            continue
        assert starts[nodes[0]] == 0 and ends[nodes[-1]] == total, f"spans miss {what}"
        assert np.all(starts[nodes[1:]] == ends[nodes[:-1]]), f"spans do not partition the {what}"
    assert np.all(ends[inner] > starts[inner]), "an empty inner node"
    np.testing.assert_array_equal(
        np.sort(tree.leaf_ids), np.arange(tree.leaf_ids.size), "leaf_ids is not a permutation"
    )
    owner = np.repeat(np.arange(num_nodes), ends - starts)  # node of each entry, then slot
    entry_node, slot_leaf = owner[: num_entries], owner[num_entries:]
    assert np.all(depth[tree.entry_child] == depth[entry_node] + 1), "a child off its level"
    parent_entry = np.full(num_nodes, -1, dtype=np.int64)
    parent_entry[tree.entry_child] = np.arange(num_entries)
    assert np.all(parent_entry[1:] >= 0) and parent_entry[0] == -1, "entry_child is not a tree"

    slack = filter_slack(tree.points.shape[1])
    points = tree.points[tree.leaf_ids]
    # Parent distances: a leaf member's to its leaf's routing object, an
    # entry's to its node's; 0 under the root.
    for rows, owners, stored, what in (
        (points, slot_leaf, tree.leaf_pd, "leaf member"),
        (tree.entry_center, entry_node, tree.entry_pd, "routing entry"),
    ):
        above = parent_entry[owners]
        actual = np.zeros(stored.size)
        has = above >= 0
        actual[has] = _distances(rows[has], tree.entry_center[above[has]])
        assert _within(stored, actual, slack) and _within(actual, stored, slack), (
            f"a stored {what} parent distance diverges from the actual distance"
        )
    # Every slot against every entry on its path to the root.
    rings = tree.pivot_dists[tree.leaf_ids]
    entry = parent_entry[slot_leaf]
    while np.any(entry >= 0):
        on = np.flatnonzero(entry >= 0)
        e = entry[on]
        dists = _distances(points[on], tree.entry_center[e])
        assert _within(dists, tree.entry_radius[e], slack), "a covering radius is violated"
        assert _within(tree.entry_hr_min[e], rings[on], slack), "a ring lower bound is violated"
        assert _within(rings[on], tree.entry_hr_max[e], slack), "a ring upper bound is violated"
        entry[on] = parent_entry[entry_node[e]]
