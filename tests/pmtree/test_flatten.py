"""Flatten round-trip and flat-vs-recursive traversal equivalence.

Two families of guarantees:

* ``flatten()`` is a faithful snapshot — every routing entry (radius,
  parent distance, hyper-rings, child), every leaf membership and every
  parent distance of the pointer tree reappears in the packed arrays;
* the batched level-synchronous traversal is *observationally identical*
  to the recursive one: same result sets with the same floats, and the
  same node-access / distance-computation counters on plain range
  queries.
"""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pmtree import flat as flat_module
from repro.pmtree.tree import PMTree


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
    flat_order = [tree.root]
    frontier = [tree.root]
    while frontier:
        nxt = [
            entry.child
            for node in frontier
            if not node.is_leaf
            for entry in node.entries
        ]
        flat_order.extend(nxt)
        frontier = nxt
    return list(enumerate(flat_order))


@given(
    point_cloud(),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=4, max_value=16),
)
@settings(max_examples=30, deadline=None)
def test_flatten_round_trips_the_pointer_tree(points, num_pivots, capacity):
    num_pivots = min(num_pivots, points.shape[0])
    tree = PMTree.build(points, num_pivots=num_pivots, capacity=capacity, seed=0)
    flat = tree.flatten()
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
            np.testing.assert_array_equal(flat.leaf_pd[lo:hi], node.pd_array)
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
def test_flat_range_matches_recursive_results_and_counters(
    points, num_pivots, radius
):
    """Same matches, same floats, same node-visit and distance counters —
    on the traversal side of the leaf-level choice, which is the side that
    mirrors the pointer tree's work (the dense side: next test)."""
    num_pivots = min(num_pivots, points.shape[0])
    tree = PMTree.build(points, num_pivots=num_pivots, capacity=8, seed=1)
    flat = tree.flatten()
    queries = np.stack([points[0] + 0.25, points[-1] * 0.5, points[0] - 1.0])
    tree.reset_counters()
    flat.reset_counters()
    with mock.patch.object(flat_module, "_DENSE_COVERAGE", math.inf):
        lims, ids, dists, stats = flat.batch_range(queries, radius)
    for i, q in enumerate(queries):
        expected = sorted((d, pid) for pid, d in tree.range_query(q, radius))
        got = list(
            zip(dists[lims[i] : lims[i + 1]], ids[lims[i] : lims[i + 1]])
        )
        assert len(got) == len(expected)
        for (exp_d, exp_id), (got_d, got_id) in zip(expected, got):
            assert exp_id == got_id
            assert exp_d == got_d  # bit-identical kernels
    assert flat.node_accesses == tree.node_accesses
    assert flat.distance_computations == tree.distance_computations
    # The per-level counters sum to the node-access total.
    assert int(stats.level_visits.sum()) == flat.node_accesses
    assert int(stats.nodes.sum()) == flat.node_accesses
    assert int(stats.dist_comps.sum()) == flat.distance_computations


@given(
    point_cloud(),
    st.integers(min_value=0, max_value=4),
    st.floats(min_value=0.0, max_value=10.0),
)
@settings(max_examples=30, deadline=None)
def test_dense_range_matches_recursive_results_and_charges_live_members(
    points, num_pivots, radius
):
    """The dense side: same matches and floats as the pointer tree, the
    same frontier counters as the traversal side, and ``dist_comps`` =
    the inner levels' centre distances + every live member streamed."""
    num_pivots = min(num_pivots, points.shape[0])
    tree = PMTree.build(points, num_pivots=num_pivots, capacity=8, seed=1)
    flat = tree.flatten()
    dead = np.arange(0, points.shape[0], 7, dtype=np.int64)
    flat.set_tombstones(dead)
    queries = np.stack([points[0] + 0.25, points[-1] * 0.5, points[0] - 1.0])
    with mock.patch.object(flat_module, "_DENSE_COVERAGE", math.inf):
        _, _, _, walked = flat.batch_range(queries, radius)
    with mock.patch.object(flat_module, "_DENSE_COVERAGE", 0.0):
        lims, ids, dists, stats = flat.batch_range(queries, radius)
        _, _, _, everything = flat.batch_range(queries, 1e9)
    dead_set = set(dead.tolist())
    for i, q in enumerate(queries):
        expected = sorted(
            (d, pid) for pid, d in tree.range_query(q, radius, exclude=dead_set)
        )
        got = list(zip(dists[lims[i] : lims[i + 1]], ids[lims[i] : lims[i + 1]]))
        assert got == expected
    np.testing.assert_array_equal(stats.nodes, walked.nodes)
    np.testing.assert_array_equal(stats.level_visits, walked.level_visits)
    # Queries that reach no leaf are charged nothing at the leaf level;
    # the others at least what the per-pair side scored.
    assert np.all(stats.dist_comps >= walked.dist_comps)
    # A ball that holds everything reaches every routing entry and leaf.
    np.testing.assert_array_equal(
        everything.dist_comps, flat.entry_radius.size + flat.num_live
    )


class TestCappedAndAnnulusFetch:
    @pytest.fixture(scope="class")
    def built(self):
        rng = np.random.default_rng(3)
        points = rng.normal(size=(600, 6))
        tree = PMTree.build(points, num_pivots=3, capacity=16, seed=4)
        return points, tree, tree.flatten()

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

    def test_batch_knn_is_exact_with_canonical_ties(self, built):
        points, _, flat = built
        queries = points[10:16] * 0.9
        ids, dists = flat.batch_knn(queries, 9)
        diff = points[None, :, :] - queries[:, None, :]
        truth = np.sqrt(np.einsum("qij,qij->qi", diff, diff))
        for i in range(queries.shape[0]):
            order = np.lexsort((np.arange(points.shape[0]), truth[i]))[:9]
            np.testing.assert_array_equal(ids[i], order)
            np.testing.assert_array_equal(dists[i], truth[i][order])

    def test_flatten_empty_tree_rejected(self):
        tree = PMTree(np.zeros((1, 3)), num_pivots=0)
        with pytest.raises(ValueError):
            tree.flatten()

    def test_flatten_single_leaf_root(self):
        points = np.random.default_rng(0).normal(size=(5, 3))
        tree = PMTree.build(points, num_pivots=2, capacity=8, seed=0)
        flat = tree.flatten()
        assert flat.height == 1
        lims, ids, _, _ = flat.batch_range(points[:2], 10.0)
        assert np.all(np.diff(lims) == 5)
        assert len(flat) == 5
