"""Unit tests for the R-tree (properties live in test_properties.py)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.rtree.tree import RTree


@pytest.fixture(scope="module")
def built_tree(projected_points):
    return RTree.build(projected_points, capacity=16)


def brute_range(points, query, radius):
    dists = np.linalg.norm(points - query, axis=1)
    return {int(i) for i in np.flatnonzero(dists <= radius)}


class TestConstruction:
    def test_capacity_floor(self, projected_points):
        with pytest.raises(ValueError):
            RTree(projected_points, capacity=2)

    def test_build_takes_no_method(self, projected_points):
        """STR packing is the one build: there is no insert path to pick."""
        with pytest.raises(TypeError, match="method"):
            RTree.build(projected_points, method="str")
        assert not hasattr(RTree, "insert")

    def test_all_points_indexed(self, built_tree, projected_points):
        assert len(built_tree) == projected_points.shape[0]
        built_tree.check_invariants()

    def test_single_point(self):
        tree = RTree.build(np.zeros((1, 4)), capacity=4)
        assert len(tree) == 1
        assert tree.range_query(np.zeros(4), 0.1) == [(0, 0.0)]


class TestRangeQuery:
    def test_matches_brute_force(self, built_tree, projected_points):
        rng = np.random.default_rng(0)
        for _ in range(10):
            query = projected_points[rng.integers(0, len(projected_points))] + 0.1
            radius = float(rng.uniform(0.5, 6.0))
            got = {pid for pid, _ in built_tree.range_query(query, radius)}
            assert got == brute_range(projected_points, query, radius)

    def test_distances_are_exact(self, built_tree, projected_points):
        query = projected_points[5] + 0.05
        for pid, dist in built_tree.range_query(query, 3.0):
            assert dist == pytest.approx(
                float(np.linalg.norm(projected_points[pid] - query)), rel=1e-9
            )

    def test_zero_radius(self, built_tree, projected_points):
        query = projected_points[17].copy()
        got = built_tree.range_query(query, 0.0)
        assert any(pid == 17 for pid, _ in got)

    def test_negative_radius_rejected(self, built_tree):
        with pytest.raises(ValueError):
            built_tree.range_query(np.zeros(15), -1.0)

    def test_limit_returns_closest(self, built_tree, projected_points):
        """A limited range query must return the closest in-ball points."""
        query = projected_points[3] + 0.2
        full_dists = np.sort(np.linalg.norm(projected_points - query, axis=1))
        radius = float(full_dists[60])  # ball holds ~60 points
        limited = built_tree.range_query(query, radius, limit=20)
        assert len(limited) == 20
        got_dists = np.array([d for _, d in limited])
        np.testing.assert_allclose(got_dists, full_dists[:20], rtol=1e-9)


class TestNearestIter:
    def test_yields_sorted(self, built_tree, projected_points):
        query = projected_points[0] + 0.3
        dists = [d for _, d in zip(range(50), built_tree.nearest_iter(query))]
        dists = [d for _, d in built_tree.knn(query, 50)]
        assert all(a <= b + 1e-12 for a, b in zip(dists, dists[1:]))

    def test_matches_brute_force_order(self, built_tree, projected_points):
        query = projected_points[42] + 0.1
        expected = np.argsort(np.linalg.norm(projected_points - query, axis=1))[:25]
        got = [pid for pid, _ in built_tree.knn(query, 25)]
        assert set(got) == set(int(i) for i in expected)

    def test_full_drain(self, built_tree, projected_points):
        query = np.zeros(projected_points.shape[1])
        seen = [pid for pid, _ in built_tree.nearest_iter(query)]
        assert len(seen) == len(projected_points)
        assert len(set(seen)) == len(seen)

    def test_knn_rejects_bad_k(self, built_tree):
        with pytest.raises(ValueError):
            built_tree.knn(np.zeros(15), 0)


class TestKnnWithin:
    def test_respects_radius(self, built_tree, projected_points):
        query = projected_points[9]
        got = built_tree.knn_within(query, k=100, radius=2.0)
        assert all(d <= 2.0 for _, d in got)

    def test_matches_knn_at_infinite_radius(self, built_tree, projected_points):
        query = projected_points[10] + 0.05
        a = built_tree.knn_within(query, k=12)
        b = built_tree.knn(query, 12)
        assert [pid for pid, _ in a] == [pid for pid, _ in b]

    def test_exclude(self, built_tree, projected_points):
        query = projected_points[4] + 0.01
        base = built_tree.knn_within(query, k=5)
        excluded = {base[0][0]}
        redo = built_tree.knn_within(query, k=5, exclude=excluded)
        assert base[0][0] not in {pid for pid, _ in redo}


class TestCounters:
    def test_counters_accumulate_and_reset(self, built_tree):
        built_tree.reset_counters()
        built_tree.range_query(np.zeros(15), 5.0)
        assert built_tree.node_accesses > 0
        assert built_tree.distance_computations > 0
        built_tree.reset_counters()
        assert built_tree.node_accesses == 0
        assert built_tree.distance_computations == 0

