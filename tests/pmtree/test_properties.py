"""Property-based tests: the PM-tree is exact for range and kNN queries
regardless of data distribution, capacity or pivot count — and so is its
flat snapshot however many of the rows arrived later, through ``extend``
steps into the unindexed tail, dead rows included."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pmtree.tree import PMTree
from repro.pmtree.validate import check_invariants


@st.composite
def point_cloud(draw):
    n = draw(st.integers(min_value=5, max_value=120))
    dim = draw(st.integers(min_value=1, max_value=8))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    scale = draw(st.sampled_from([0.1, 1.0, 25.0]))
    rng = np.random.default_rng(seed)
    kind = draw(st.sampled_from(["normal", "uniform", "lattice"]))
    if kind == "normal":
        points = rng.normal(size=(n, dim)) * scale
    elif kind == "uniform":
        points = rng.uniform(-scale, scale, size=(n, dim))
    else:
        # Integer lattice: many exact duplicates and ties.
        points = rng.integers(-3, 4, size=(n, dim)).astype(np.float64)
    return points


@st.composite
def grown_cloud(draw):
    """A point cloud, how many of its rows the tree indexes, the row
    counts after each later ``extend`` step, and ids to tombstone (drawn
    over all rows, so tree and tail both lose some)."""
    points = draw(point_cloud())
    n = points.shape[0]
    indexed = draw(st.integers(min_value=1, max_value=n))
    steps = draw(st.sets(st.integers(indexed, n), max_size=3)) | {n}
    dead = draw(st.lists(st.integers(0, n - 1), max_size=n // 2, unique=True))
    return points, indexed, sorted(steps - {indexed}), dead


@given(
    point_cloud(),
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=4, max_value=16),
    st.floats(min_value=0.0, max_value=10.0),
)
@settings(max_examples=40, deadline=None)
def test_range_query_is_exact(points, num_pivots, capacity, radius):
    num_pivots = min(num_pivots, points.shape[0])
    tree = PMTree.build(points, num_pivots=num_pivots, capacity=capacity, seed=0)
    check_invariants(tree)
    query = points[0] + 0.25
    got = sorted(pid for pid, _ in tree.range_query(query, radius))
    dists = np.linalg.norm(points - query, axis=1)
    expected = sorted(int(i) for i in np.flatnonzero(dists <= radius))
    assert got == expected


@given(point_cloud(), st.integers(min_value=1, max_value=15))
@settings(max_examples=40, deadline=None)
def test_knn_is_exact(points, k):
    k = min(k, points.shape[0])
    tree = PMTree.build(points, num_pivots=2 if len(points) >= 2 else 0,
                        capacity=8, seed=1)
    query = points[-1] + 0.1
    got = tree.knn(query, k)
    assert len(got) == k
    dists = np.linalg.norm(points - query, axis=1)
    kth = np.sort(dists)[k - 1]
    # Distance multiset must match (ids may differ on ties).
    got_dists = np.array([d for _, d in got])
    np.testing.assert_allclose(got_dists, np.sort(dists)[:k], rtol=1e-9, atol=1e-9)
    assert got_dists.max() <= kth + 1e-9


@given(
    point_cloud(),
    st.integers(min_value=1, max_value=30),
    st.floats(min_value=0.1, max_value=20.0),
)
@settings(max_examples=40, deadline=None)
def test_limited_range_returns_closest_prefix(points, limit, radius):
    tree = PMTree.build(points, num_pivots=min(3, len(points)), capacity=8, seed=2)
    query = points[0] * 0.5
    got = tree.range_query(query, radius, limit=limit)
    dists = np.sort(np.linalg.norm(points - query, axis=1))
    in_ball = dists[dists <= radius]
    expected_count = min(limit, in_ball.size)
    assert len(got) == expected_count
    got_dists = np.array([d for _, d in got])
    np.testing.assert_allclose(got_dists, in_ball[:expected_count], rtol=1e-9, atol=1e-9)


@given(
    grown_cloud(),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=4, max_value=16),
    st.floats(min_value=0.0, max_value=10.0),
    st.integers(min_value=0, max_value=30),
)
@settings(max_examples=60, deadline=None)
def test_grown_flat_tree_answers_like_a_bulk_build_over_every_row(
    case, num_pivots, capacity, radius, limit
):
    """``flatten()`` of a tree over a prefix, then ``extend`` steps: range,
    capped range and kNN are those of one pointer tree bulk-built over all
    the rows with the same pivots — same ids, same floats, same
    ``(distance, id)`` order at the cut — and the tail is counted wherever
    the leaves are."""
    points, indexed, steps, dead = case
    tree = PMTree.build(
        points[:indexed], num_pivots=min(num_pivots, indexed), capacity=capacity, seed=0
    )
    check_invariants(tree)
    flat = tree.flatten()
    half = len(dead) // 2
    flat.set_tombstones(np.asarray(dead[:half], dtype=np.int64))  # before growth
    for stop in steps:
        flat.extend(points[:stop])
    flat.set_tombstones(np.asarray(dead, dtype=np.int64))
    n = points.shape[0]
    assert len(flat) == n and flat.leaf_ids.size == indexed
    assert flat.num_live == n - len(dead)
    oracle = PMTree.build(points, capacity=capacity, pivots=tree.pivots, seed=0)
    # Offsets no drawn radius lands on: at a distance *equal* to the radius
    # the Eq. 5 filters of two differently shaped trees may disagree
    # (docs/kernels.md, "The one exception").
    queries = np.stack([points[0] + 0.2537, points[-1] * 0.4871, points[0] - 1.0193])
    dead_set = set(dead)
    lims, ids, dists, stats = flat.batch_range(queries, radius)
    capped = flat.batch_range(queries, radius, limits=np.full(3, limit))
    for i, query in enumerate(queries):
        expected = sorted(
            (d, pid) for pid, d in oracle.range_query(query, radius, exclude=dead_set)
        )
        assert list(zip(dists[lims[i] : lims[i + 1]], ids[lims[i] : lims[i + 1]])) == expected
        lo, hi = capped[0][i], capped[0][i + 1]
        assert list(zip(capped[2][lo:hi], capped[1][lo:hi])) == expected[:limit]
    # Every live tail row is scored once per query, on top of the tree's work.
    tail_live = (n - indexed) - sum(1 for pid in dead if pid >= indexed)
    assert np.all(stats.dist_comps >= tail_live)
    live = np.setdiff1d(np.arange(n), dead)
    if live.size:
        k = min(live.size, 5)
        got_ids, got_dists = flat.batch_knn(queries, k)
        for i, query in enumerate(queries):
            diff = points[live] - query  # the traversal's own reduction
            exact = np.sqrt(np.einsum("ij,ij->i", diff, diff))
            best = np.lexsort((live, exact))[:k]
            assert got_ids[i].tolist() == live[best].tolist()
            assert got_dists[i].tolist() == exact[best].tolist()
        with np.testing.assert_raises(ValueError):
            flat.batch_knn(queries, live.size + 1)
