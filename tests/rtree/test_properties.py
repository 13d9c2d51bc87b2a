"""Property-based tests: the R-tree is exact for range and kNN queries
regardless of data distribution or capacity."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rtree.tree import RTree


@st.composite
def point_cloud(draw):
    n = draw(st.integers(min_value=2, max_value=100))
    dim = draw(st.integers(min_value=1, max_value=6))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    kind = draw(st.sampled_from(["normal", "lattice"]))
    rng = np.random.default_rng(seed)
    if kind == "normal":
        return rng.normal(size=(n, dim)) * draw(st.sampled_from([0.5, 5.0]))
    return rng.integers(-3, 4, size=(n, dim)).astype(np.float64)


@given(
    point_cloud(),
    st.integers(min_value=4, max_value=16),
    st.floats(min_value=0.0, max_value=8.0),
)
@settings(max_examples=40, deadline=None)
def test_range_query_is_exact(points, capacity, radius):
    tree = RTree.build(points, capacity=capacity)
    tree.check_invariants()
    query = points[0] + 0.3
    got = sorted(pid for pid, _ in tree.range_query(query, radius))
    dists = np.linalg.norm(points - query, axis=1)
    expected = sorted(int(i) for i in np.flatnonzero(dists <= radius))
    assert got == expected


@given(point_cloud(), st.integers(min_value=1, max_value=12))
@settings(max_examples=40, deadline=None)
def test_knn_is_exact(points, k):
    k = min(k, points.shape[0])
    tree = RTree.build(points, capacity=8)
    query = points[-1] * 0.5
    got = tree.knn(query, k)
    assert len(got) == k
    dists = np.sort(np.linalg.norm(points - query, axis=1))
    got_dists = np.array([d for _, d in got])
    np.testing.assert_allclose(got_dists, dists[:k], rtol=1e-9, atol=1e-9)


@given(
    point_cloud(),
    st.integers(min_value=1, max_value=25),
    st.floats(min_value=0.1, max_value=10.0),
)
@settings(max_examples=40, deadline=None)
def test_knn_within_returns_closest_in_ball(points, limit, radius):
    tree = RTree.build(points, capacity=8)
    query = points[0] + 0.1
    got = tree.knn_within(query, k=limit, radius=radius)
    dists = np.sort(np.linalg.norm(points - query, axis=1))
    in_ball = dists[dists <= radius]
    expected_count = min(limit, in_ball.size)
    assert len(got) == expected_count
    got_dists = np.array([d for _, d in got])
    np.testing.assert_allclose(got_dists, in_ball[:expected_count], rtol=1e-9, atol=1e-9)


@given(point_cloud())
@settings(max_examples=25, deadline=None)
def test_nearest_iter_is_globally_sorted(points):
    tree = RTree.build(points, capacity=8)
    query = points[0] * 0.25
    dists = [d for _, d in tree.nearest_iter(query)]
    assert len(dists) == points.shape[0]
    assert all(a <= b + 1e-12 for a, b in zip(dists, dists[1:]))
