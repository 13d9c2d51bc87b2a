"""Self-tests of the pointer PM-tree oracle: construction, range
queries, kNN, counters — each against brute force, so that the oracle the
array build and the flat traversal are held to is itself right."""

from __future__ import annotations

import numpy as np
import pytest

from tests.oracles.invariants import check_invariants
from tests.oracles.pointer_tree import PointerPMTree, pack


@pytest.fixture(scope="module")
def built_tree(projected_points):
    return PointerPMTree.build(projected_points, num_pivots=5, capacity=16, seed=9)


def brute_range(points, query, radius):
    dists = np.linalg.norm(points - query, axis=1)
    return {int(i) for i in np.flatnonzero(dists <= radius)}


class TestConstruction:
    def test_counts(self, built_tree, projected_points):
        assert len(built_tree) == projected_points.shape[0]

    def test_invariants(self, built_tree):
        check_invariants(pack(built_tree))

    def test_capacity_floor(self, projected_points):
        with pytest.raises(ValueError):
            PointerPMTree(projected_points, capacity=2)

    def test_zero_pivots_is_mtree(self, projected_points):
        tree = PointerPMTree.build(projected_points, num_pivots=0, capacity=16, seed=0)
        check_invariants(pack(tree))
        query = projected_points[0]
        got = {pid for pid, _ in tree.range_query(query, 3.0)}
        assert got == brute_range(projected_points, query, 3.0)

    def test_single_point(self):
        tree = PointerPMTree.build(np.ones((1, 4)), num_pivots=1, capacity=4, seed=0)
        assert tree.range_query(np.ones(4), 0.1) == [(0, 0.0)]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            PointerPMTree(np.empty((0, 3)))

    def test_height_grows(self, projected_points):
        tree = PointerPMTree.build(projected_points, capacity=8, seed=0)
        assert tree.height() >= 2


class TestRangeQuery:
    def test_matches_brute_force(self, built_tree, projected_points):
        rng = np.random.default_rng(1)
        for _ in range(10):
            query = projected_points[rng.integers(0, len(projected_points))] + 0.1
            radius = float(rng.uniform(0.5, 6.0))
            got = {pid for pid, _ in built_tree.range_query(query, radius)}
            assert got == brute_range(projected_points, query, radius)

    def test_distances_exact(self, built_tree, projected_points):
        query = projected_points[7] + 0.05
        for pid, dist in built_tree.range_query(query, 3.0):
            assert dist == pytest.approx(
                float(np.linalg.norm(projected_points[pid] - query)), rel=1e-9
            )

    def test_negative_radius(self, built_tree):
        with pytest.raises(ValueError):
            built_tree.range_query(np.zeros(15), -0.1)

    def test_limit_returns_closest(self, built_tree, projected_points):
        query = projected_points[3] + 0.2
        all_dists = np.sort(np.linalg.norm(projected_points - query, axis=1))
        radius = float(all_dists[70])  # ball holds ~70 points
        limited = built_tree.range_query(query, radius, limit=25)
        assert len(limited) == 25
        got = np.array([d for _, d in limited])
        np.testing.assert_allclose(got, all_dists[:25], rtol=1e-9)

    def test_limit_zero(self, built_tree):
        assert built_tree.range_query(np.zeros(15), 5.0, limit=0) == []

    def test_exclude_skips_ids(self, built_tree, projected_points):
        query = projected_points[11]
        base = built_tree.range_query(query, 4.0, limit=10)
        excluded = {pid for pid, _ in base[:3]}
        redo = built_tree.range_query(query, 4.0, limit=10, exclude=excluded)
        assert not excluded & {pid for pid, _ in redo}

    def test_pruning_ablation_same_results(self, projected_points):
        """Rings and parent filter must never change results, only cost."""
        query = projected_points[2] + 0.3
        baseline = None
        for rings in (True, False):
            for parent in (True, False):
                tree = PointerPMTree.build(
                    projected_points, num_pivots=4, capacity=16,
                    use_rings=rings, use_parent_filter=parent, seed=3,
                )
                got = sorted(pid for pid, _ in tree.range_query(query, 4.0))
                if baseline is None:
                    baseline = got
                assert got == baseline

    def test_rings_reduce_distance_computations(self, projected_points):
        query = projected_points[2] + 0.3
        with_rings = PointerPMTree.build(
            projected_points, num_pivots=5, capacity=16, use_rings=True, seed=3
        )
        without = PointerPMTree.build(
            projected_points, num_pivots=5, capacity=16, use_rings=False, seed=3
        )
        with_rings.range_query(query, 2.0)
        without.range_query(query, 2.0)
        assert with_rings.distance_computations <= without.distance_computations


class TestKnn:
    def test_matches_brute_force(self, built_tree, projected_points):
        rng = np.random.default_rng(4)
        for _ in range(5):
            query = projected_points[rng.integers(0, len(projected_points))] + 0.2
            got = built_tree.knn(query, 10)
            exact = np.argsort(np.linalg.norm(projected_points - query, axis=1))[:10]
            assert {pid for pid, _ in got} == {int(i) for i in exact}

    def test_sorted_ascending(self, built_tree, projected_points):
        dists = [d for _, d in built_tree.knn(projected_points[0] + 0.1, 20)]
        assert all(a <= b + 1e-12 for a, b in zip(dists, dists[1:]))

    def test_k_larger_than_n_capped(self, projected_points):
        tree = PointerPMTree.build(projected_points[:30], capacity=8, seed=0)
        got = tree.knn(projected_points[0], 30)
        assert len(got) == 30

    def test_rejects_bad_k(self, built_tree):
        with pytest.raises(ValueError):
            built_tree.knn(np.zeros(15), 0)


class TestKnnWithin:
    def test_radius_respected(self, built_tree, projected_points):
        got = built_tree.knn_within(projected_points[9], k=50, radius=2.0)
        assert all(d <= 2.0 for _, d in got)

    def test_equals_range_intersection(self, built_tree, projected_points):
        query = projected_points[21] + 0.1
        within = built_tree.knn_within(query, k=15, radius=3.0)
        in_ball = sorted(built_tree.range_query(query, 3.0), key=lambda p: p[1])
        assert [pid for pid, _ in within] == [pid for pid, _ in in_ball[:15]]


class TestCounters:
    def test_accumulate_and_reset(self, built_tree):
        built_tree.reset_counters()
        built_tree.range_query(np.zeros(15), 5.0)
        assert built_tree.node_accesses > 0
        assert built_tree.distance_computations > 0
        built_tree.reset_counters()
        assert built_tree.node_accesses == 0

    def test_iter_nodes_covers_tree(self, built_tree, projected_points):
        leaf_points = sum(
            len(node) for _, node in built_tree.iter_nodes() if node.is_leaf
        )
        assert leaf_points == projected_points.shape[0]

    def test_iter_entries_nonempty(self, built_tree):
        assert sum(1 for _ in built_tree.iter_entries()) > 0
