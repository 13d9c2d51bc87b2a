"""The array build against the pointer-tree oracle, node by node, and
the flat traversal against the oracle's recursive walk.

Two families of guarantees:

* the build is the pointer tree laid out breadth-first — every routing
  entry (radius, parent distance, hyper-rings, child) and every leaf
  membership of the oracle's node graph, built from the same seed,
  reappears in the packed arrays;
* the batched level-synchronous traversal answers as the recursive one —
  same result sets with the same floats — and visits the same nodes; its
  distance counter charges every live slot its leaf pass scores, where
  the walk's counts what the per-member Eq. 5 filters leave.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pmtree.tree import PMTree
from tests.oracles.pointer_tree import PointerPMTree, bfs_levels


@st.composite
def point_cloud(draw):
    n = draw(st.integers(min_value=5, max_value=150))
    dim = draw(st.integers(min_value=1, max_value=8))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    rng = np.random.default_rng(seed)
    kind = draw(st.sampled_from(["normal", "lattice"]))
    if kind == "normal":
        points = rng.normal(size=(n, dim)) * draw(st.sampled_from([0.5, 5.0]))
    else:
        # Integer lattice: many exact duplicates and distance ties.
        points = rng.integers(-3, 4, size=(n, dim)).astype(np.float64)
    return points


def _walk_pairs(tree):
    """(pointer node, BFS id) pairs in the flat tree's breadth-first order."""
    return list(enumerate(node for level in bfs_levels(tree) for node in level))


def _both(points, **kwargs):
    """The oracle's pointer tree and the product's flat tree, one seed."""
    return PointerPMTree.build(points, **kwargs), PMTree.build(points, **kwargs).flatten()


@given(
    point_cloud(),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=4, max_value=16),
)
@settings(max_examples=30, deadline=None)
def test_build_lays_out_the_pointer_tree(points, num_pivots, capacity):
    num_pivots = min(num_pivots, points.shape[0])
    tree, flat = _both(points, num_pivots=num_pivots, capacity=capacity, seed=0)
    assert len(flat) == len(tree)
    assert flat.height == tree.height()
    pairs = _walk_pairs(tree)
    assert flat.num_nodes == len(pairs)
    entry_cursor = {}
    for node_id, node in pairs:
        assert bool(flat.is_leaf[node_id]) == node.is_leaf
        lo, hi = int(flat.span_start[node_id]), int(flat.span_end[node_id])
        if node.is_leaf:
            np.testing.assert_array_equal(flat.leaf_ids[lo:hi], node.ids_array)
        else:
            assert hi - lo == len(node.entries)
            np.testing.assert_array_equal(flat.entry_center[lo:hi], node.centers)
            np.testing.assert_array_equal(flat.entry_radius[lo:hi], node.radii)
            np.testing.assert_array_equal(flat.entry_pd[lo:hi], node.pds)
            if tree.num_pivots:
                np.testing.assert_array_equal(flat.entry_hr_min[lo:hi], node.hr_min)
                np.testing.assert_array_equal(flat.entry_hr_max[lo:hi], node.hr_max)
            entry_cursor[node_id] = (lo, hi)
    # Child pointers resolve to the children's BFS ids, in entry order.
    id_of = {id(node): node_id for node_id, node in pairs}
    for node_id, node in pairs:
        if node.is_leaf:
            continue
        lo, hi = entry_cursor[node_id]
        expected = [id_of[id(entry.child)] for entry in node.entries]
        np.testing.assert_array_equal(flat.entry_child[lo:hi], expected)
    # Every indexed point appears exactly once in the packed leaf array.
    assert sorted(flat.leaf_ids.tolist()) == sorted(
        pid for _, node in pairs if node.is_leaf for pid in node.ids
    )


@given(
    point_cloud(),
    st.integers(min_value=0, max_value=4),
    st.floats(min_value=0.0, max_value=10.0),
)
@settings(max_examples=30, deadline=None)
def test_flat_range_matches_recursive_results_and_node_counters(
    points, num_pivots, radius
):
    """Same matches, same floats, same nodes visited per query as the
    pointer tree's walk — tombstones included, which the walk skips only
    in its output."""
    num_pivots = min(num_pivots, points.shape[0])
    tree, flat = _both(points, num_pivots=num_pivots, capacity=8, seed=1)
    dead = np.arange(0, points.shape[0], 7, dtype=np.int64)
    flat.set_tombstones(dead)
    queries = np.stack([points[0] + 0.25, points[-1] * 0.5, points[0] - 1.0])
    lims, ids, dists, stats = flat.batch_range(queries, radius)
    dead_set = set(dead.tolist())
    for i, q in enumerate(queries):
        tree.reset_counters()
        expected = sorted(
            (d, pid) for pid, d in tree.range_query(q, radius, exclude=dead_set)
        )
        got = list(zip(dists[lims[i] : lims[i + 1]], ids[lims[i] : lims[i + 1]]))
        assert got == expected  # bit-identical kernels
        assert stats.nodes[i] == tree.node_accesses
    # The per-level counters sum to the node-access total.
    assert int(stats.level_visits.sum()) == int(stats.nodes.sum())
    # A ball that holds everything reaches every routing entry and leaf,
    # and is charged every live slot once.
    _, _, _, everything = flat.batch_range(queries, 1e9)
    np.testing.assert_array_equal(
        everything.dist_comps, flat.entry_radius.size + flat.num_live
    )


class TestCappedAndAnnulusFetch:
    @pytest.fixture(scope="class")
    def built(self):
        rng = np.random.default_rng(3)
        points = rng.normal(size=(600, 6))
        return (points, *_both(points, num_pivots=3, capacity=16, seed=4))

    def test_limits_keep_the_closest_prefix(self, built):
        points, tree, flat = built
        queries = points[:5] + 0.1
        radius, limit = 2.0, 7
        lims, ids, dists, _ = flat.batch_range(
            queries, radius, limits=np.full(5, limit, dtype=np.int64)
        )
        for i, q in enumerate(queries):
            expected = tree.range_query(q, radius, limit=limit)
            got_ids = ids[lims[i] : lims[i + 1]]
            assert got_ids.size == len(expected)
            assert set(got_ids.tolist()) == {pid for pid, _ in expected}
            # ascending projected distance, capped at the limit
            assert np.all(np.diff(dists[lims[i] : lims[i + 1]]) >= 0)

    def test_annulus_excludes_the_inner_ball(self, built):
        points, tree, flat = built
        queries = points[:4] - 0.2
        inner, outer = 1.0, 2.5
        lims_o, ids_o, dists_o, _ = flat.batch_range(queries, outer, lower=inner)
        lims_i, ids_i, _, _ = flat.batch_range(queries, inner)
        lims_f, ids_f, _, _ = flat.batch_range(queries, outer)
        for i in range(4):
            annulus = set(ids_o[lims_o[i] : lims_o[i + 1]].tolist())
            ball_inner = set(ids_i[lims_i[i] : lims_i[i + 1]].tolist())
            ball_outer = set(ids_f[lims_f[i] : lims_f[i + 1]].tolist())
            assert annulus == ball_outer - ball_inner
            assert np.all(dists_o[lims_o[i] : lims_o[i + 1]] > inner)

    def test_flatten_single_leaf_root(self):
        points = np.random.default_rng(0).normal(size=(5, 3))
        tree = PMTree.build(points, num_pivots=2, capacity=8, seed=0)
        flat = tree.flatten()
        assert flat.height == 1
        lims, ids, _, _ = flat.batch_range(points[:2], 10.0)
        assert np.all(np.diff(lims) == 5)
        assert len(flat) == 5
