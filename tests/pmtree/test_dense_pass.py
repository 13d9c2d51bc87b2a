"""The leaf pass: one route, two inputs, the capped ball every time.

``FlatPMTree.batch_range`` scores the leaves the inner levels reached as
runs of adjacent slots, in one blocked-GEMM pass per call: over a view of
the slot range the runs span when they fill at least ``_VIEW_FILL`` of
it, over a gather of just their rows otherwise.  The scores are
estimates with a proven error band — a slot is re-scored by the exact
kernel only when its score lies within the band of ``radius``, of
``lower`` or of a query's L-th score — so every decision is the exact
kernel's, and the answers are each query's brute-force capped ball: with
``sort=True`` its exact ``(distance, id)`` list (tie order at the limit
cut included), with ``sort=False`` its id *set* (that call returns no
distances).  Forcing the view and the gather (``_VIEW_FILL`` 0 and ∞)
must give the same bytes.  The hard cases are drawn on purpose:
tombstones, duplicate blocks exactly at the L-th place, limits of 0, 1
and a query's match count, a point exactly at ``radius`` and one exactly
at ``lower``, a single-leaf tree, a tree whose last rows sit in the
unindexed tail (scored in the leaves' pass or in one of its own), a
compacted snapshot whose dropped rows leave empty leaves, and data
10⁶–10⁸ away from the origin, where the GEMM scores lose every digit and
the band must swallow rows rather than decide them wrongly.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PMLSH, Knn, PMLSHParams, Range, create_index, kernels
from tests.parallel._leaks import own_leaked_segments
from repro.pmtree import flat as flat_module
from repro.pmtree.tree import PMTree


def _view():
    return mock.patch.object(flat_module, "_VIEW_FILL", 0.0)


def _gather():
    return mock.patch.object(flat_module, "_VIEW_FILL", math.inf)


def _exact_distances(points: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Distances with the traversal's own reduction (``pair_distances``)."""
    diff = points - query
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def _empty_some_leaves(flat, points, first: int, count: int):
    """*flat* compacted without every member of leaves ``first ..
    first + count`` (so they stay, empty), and the kept points."""
    leaves = np.flatnonzero(flat.is_leaf)[first : first + count]
    dropped = flat.leaf_ids[flat.span_start[leaves[0]] : flat.span_end[leaves[-1]]]
    live = np.setdiff1d(np.arange(len(flat)), dropped)
    return flat.compacted(live, points[live]), points[live]


@st.composite
def scenario(draw):
    seed = draw(st.integers(min_value=0, max_value=2**16))
    rng = np.random.default_rng(seed)
    n = draw(st.sampled_from([12, 150, 700]))
    dim = draw(st.integers(min_value=2, max_value=8))
    points = rng.normal(size=(n, dim)) * draw(st.sampled_from([0.5, 5.0]))
    # A duplicate block: distance ties the budget cut must break by id.
    points[n // 3 : n // 3 + 6] = points[n // 3]
    offset = draw(st.sampled_from([0.0, 1e6, 1e8]))  # worst cancellation
    points += offset
    capacity = draw(st.sampled_from([4, 16, 1024]))  # 1024: a single leaf
    num_pivots = draw(st.integers(min_value=0, max_value=3))
    # The tree indexes a prefix; the rest arrives as add() delivers it.
    indexed = draw(st.sampled_from([n, n - 1, n // 2 + 1]))
    tree = PMTree.build(
        points[:indexed], num_pivots=num_pivots, capacity=capacity, seed=1
    )
    flat = tree.flatten()
    for stop in sorted({(indexed + n) // 2, n} - {indexed}):
        flat.extend(points[:stop])
    if flat.levels[-1][1] - flat.levels[-1][0] > 3 and draw(st.booleans()):
        flat, points = _empty_some_leaves(flat, points, 1, 2)
        n = points.shape[0]
    dead = rng.choice(n, size=n // 5, replace=False) if draw(st.booleans()) else None
    if dead is not None:
        flat.set_tombstones(dead)
    rows = draw(st.sampled_from([1, 7, 64]))
    queries = points[rng.choice(n, size=rows)] + rng.normal(size=(rows, dim)) * 0.05
    if rows > 1:
        queries[0] = points[n // 3]  # sits on the duplicate block
    # Radius and lower bound are *computed distances* of real members to
    # the last (off-sample, so radius > 0) query: one point exactly on
    # each boundary.  A zero radius has its own test below.
    ranked = np.sort(_exact_distances(points, queries[-1]))
    radius = float(ranked[draw(st.sampled_from([1, n // 10, n // 2, n - 1]))])
    lower = draw(st.sampled_from([None, float(ranked[draw(st.integers(0, n // 12))])]))
    limits = _draw_limits(draw, points, dead, queries, radius, lower)
    return points, dead, flat, queries, radius, lower, limits, draw(st.booleans())


def _draw_limits(draw, points, dead, queries, radius, lower):
    """Per-query limits: none, 0, 1, a few, half the ball, more than n, every
    query's exact match count (the limit equals the candidate count), or
    the duplicate block's place plus 3 (the L-th match is one of six
    copies, so the cut is decided by id among equal distances)."""
    n, rows = points.shape[0], queries.shape[0]
    kind = draw(
        st.sampled_from(["none", "zero", "one", "few", "half", "over", "exact", "ties"])
    )
    if kind == "none":
        return None
    ball = np.array([len(_oracle(points, dead, q, radius, lower, None)) for q in queries])
    if kind == "ties":
        dup = _exact_distances(points[n // 3][None, :], queries)  # (rows,) per query
        inside = [_oracle(points, dead, q, radius, lower, None) for q in queries]
        limits = np.array([sum(d < dup[i] for d, _ in inside[i]) + 3 for i in range(rows)])
    else:
        limits = {
            "zero": np.zeros(rows), "one": np.ones(rows), "few": np.full(rows, 3),
            "half": np.maximum(1, ball // 2),
            "over": np.full(rows, n + 5), "exact": ball,
        }[kind]
    limits = np.asarray(limits, dtype=np.int64)
    if rows > 1:
        limits[1] = draw(st.sampled_from([0, 1, n]))  # per-query limits differ
    return limits


def _oracle(points, dead, query, radius, lower, limit):
    """The ball by brute force, cut to *limit* by ``(distance, id)``."""
    dists = _exact_distances(points, query)
    inside = dists <= radius
    if lower is not None:
        inside &= dists > lower
    if dead is not None:
        inside[dead] = False
    ids = np.flatnonzero(inside)
    order = np.lexsort((ids, dists[ids]))
    ids = ids[order] if limit is None else ids[order][: max(limit, 0)]
    return list(zip(dists[ids].tolist(), ids.tolist()))


def _assert_answers(result, points, dead, queries, radius, lower, limits, sort):
    """Each query's matches against the brute-force ball: the exact
    ``(distance, id)`` list with ``sort``, the id set without (and no
    distances: ``sort=False`` returns ``None``)."""
    lims, ids, dists, _ = result
    for i, query in enumerate(queries):
        limit = None if limits is None else int(limits[i])
        expected = _oracle(points, dead, query, radius, lower, limit)
        got_ids = ids[lims[i] : lims[i + 1]].tolist()
        if sort:
            assert list(zip(dists[lims[i] : lims[i + 1]].tolist(), got_ids)) == expected
        else:
            assert dists is None
            assert sorted(got_ids) == sorted(pid for _, pid in expected)


def _assert_same(viewed, gathered, sort):
    """The two inputs: same bytes with ``sort``, same id sets without."""
    lims = viewed[0]
    assert viewed[0].tobytes() == gathered[0].tobytes()
    if sort:
        for name, a, b in zip(("ids", "dists"), viewed[1:3], gathered[1:3]):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    else:
        for i in range(lims.size - 1):
            a, b = (np.sort(r[1][lims[i] : lims[i + 1]]) for r in (viewed, gathered))
            assert a.tobytes() == b.tobytes(), i
    # Same frontier, whichever slots its leaves were scored with.
    np.testing.assert_array_equal(viewed[3].nodes, gathered[3].nodes)
    np.testing.assert_array_equal(viewed[3].level_visits, gathered[3].level_visits)


@given(scenario())
@settings(max_examples=160, deadline=None)
def test_leaf_pass_equals_the_capped_ball_by_view_and_by_gather(case):
    points, dead, flat, queries, radius, lower, limits, sort = case
    with _view():
        viewed = flat.batch_range(queries, radius, limits=limits, lower=lower, sort=sort)
    _assert_answers(viewed, points, dead, queries, radius, lower, limits, sort)
    with _gather():
        gathered = flat.batch_range(queries, radius, limits=limits, lower=lower, sort=sort)
    _assert_answers(gathered, points, dead, queries, radius, lower, limits, sort)
    _assert_same(viewed, gathered, sort)
    shipped = flat.batch_range(queries, radius, limits=limits, lower=lower, sort=sort)
    _assert_same(viewed, shipped, sort)


@given(scenario(), st.integers(min_value=2, max_value=4))
@settings(max_examples=60, deadline=None)
def test_annulus_ladder_with_a_member_on_every_boundary(case, steps):
    """Algorithm 2's rounds: each fetches the fresh annulus (lower = the
    previous radius) capped at what is left of a budget, and every radius
    of the ladder is the exact distance of a member — the ball and the
    annulus band are both hit on every round, by view and by gather."""
    points, dead, flat, queries, _, _, _, sort = case
    n = points.shape[0]
    ranked = np.sort(_exact_distances(points, queries[-1]))
    ladder = ranked[np.linspace(n // 8, n - 1, steps).astype(int)]
    budget = np.full(queries.shape[0], max(1, n // 3), dtype=np.int64)
    seen = np.zeros_like(budget)
    lower = None
    for radius in ladder.tolist():
        limits = np.maximum(budget - seen, 0)
        with _view():
            viewed = flat.batch_range(queries, radius, limits=limits, lower=lower, sort=sort)
        with _gather():
            gathered = flat.batch_range(queries, radius, limits=limits, lower=lower, sort=sort)
        _assert_answers(viewed, points, dead, queries, radius, lower, limits, sort)
        _assert_same(viewed, gathered, sort)
        seen += np.diff(viewed[0])
        lower = radius


@pytest.mark.parametrize("limit", [None, 30])
def test_offset_data_degrades_the_filter_not_the_answer(limit):
    """At +10⁸ per coordinate ‖p‖² ≈ m·10¹⁶, the scores are off by more
    than radius² and so is their error bound: every live slot scored lands
    in the band of ``radius`` and is re-scored exactly — ``rescored``
    counts all of them, the leaf charge of ``dist_comps`` — and the result
    is the true ball, cut exactly, by view and by gather."""
    rng = np.random.default_rng(4)
    points = rng.normal(size=(400, 6)) + 1e8
    flat = PMTree.build(points, num_pivots=0, capacity=16, seed=2).flatten()
    queries = points[:5] + 0.01
    limits = None if limit is None else np.full(5, limit)
    with _gather(), _spy() as calls:
        gathered = flat.batch_range(queries, 1.5, limits=limits)
    with _view():
        viewed = flat.batch_range(queries, 1.5, limits=limits)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(gathered[:3], viewed[:3]))
    for i, query in enumerate(queries):
        expected = _oracle(points, None, query, 1.5, None, limit)
        assert viewed[1][viewed[0][i] : viewed[0][i + 1]].tolist() == [pid for _, pid in expected]
    assert 0 < viewed[0][-1] < 5 * 400  # a real ball, not everything
    ((kind, scored, rows),) = calls
    assert rows == 5
    assert gathered[3].rescored.tolist() == [scored] * 5  # pass-all: every slot re-scored


def test_near_the_origin_the_band_is_tiny():
    """The other end: unit-scale data, a big capped ball — the leaf pass
    re-scores next to nothing, and never anything it is not asked to decide."""
    rng = np.random.default_rng(9)
    points = rng.normal(size=(3000, 8))
    flat = PMTree.build(points, num_pivots=3, capacity=16, seed=1).flatten()
    queries = points[:16] + 0.01
    lims, ids, dists, stats = flat.batch_range(queries, 4.0, limits=np.full(16, 200))
    assert np.all(np.diff(lims) == 200)  # every ball holds more than the limit
    for i, query in enumerate(queries):
        expected = _oracle(points, None, query, 4.0, None, 200)
        assert list(zip(dists[lims[i] : lims[i + 1]], ids[lims[i] : lims[i + 1]])) == expected
    assert stats.rescored.sum() <= 16  # ≪ the 16 balls' rows


def _matches(result, i: int) -> set:
    """Query i's ``(distance, id)`` pairs out of a ``batch_range`` result."""
    lims, ids, dists = result[:3]
    return set(zip(dists[lims[i] : lims[i + 1]].tolist(), ids[lims[i] : lims[i + 1]].tolist()))


@pytest.mark.parametrize("offset", [0.0, 50.0, 1e6, 1e8])
def test_copies_of_indexed_points_match_with_pivots_on(offset):
    """A radius of zero (or a few ulps) with queries that are copies of
    indexed points, five pivots, data up to 10⁸ from the origin: the inner
    levels' Eq. 5 filters difference separately rounded distances, every
    one of them computed by differences, so with their ulp slack they
    never prune the leaf holding a copy — view ≡ gather ≡ the true ball,
    with the exact kernel's distances.  (Pivot distances from the norm
    expansion kept 0 of 264 copies at +50 under per-member filters.)"""
    for seed in range(6):
        rng = np.random.default_rng(seed)
        points = rng.normal(size=(600, 8)) + offset
        points[100:104] = points[100]
        flat = PMTree.build(points, num_pivots=5, capacity=16, seed=seed).flatten()
        queries = points[96:128].copy()
        for radius in (0.0, 1e-12, 1e-9):
            with _view():
                viewed = flat.batch_range(queries, radius)
            with _gather():
                gathered = flat.batch_range(queries, radius)
            for i, query in enumerate(queries):
                ball = set(_oracle(points, None, query, radius, None, None))
                assert _matches(viewed, i) == _matches(gathered, i) == ball, (seed, radius, i)


# ----------------------------------------------------------------------
# Which input the shipped rule scores, and the tail
# ----------------------------------------------------------------------


@contextmanager
def _spy():
    """Record every ``_dense_leaves`` call as ``(input, slots scored,
    rows)``: input ``"view"`` for a slice, ``"gather"`` for an index array."""
    calls = []
    real = flat_module.FlatPMTree._dense_leaves

    def spy(tree, queries, radius, lower, limits, rows_q, slots, *rest):
        kind = "view" if isinstance(slots, slice) else "gather"
        calls.append((kind, tree.slot_ids[slots].size, rows_q.size))
        return real(tree, queries, radius, lower, limits, rows_q, slots, *rest)

    with mock.patch.object(flat_module.FlatPMTree, "_dense_leaves", spy):
        yield calls


def _assert_balls(flat, points, dead, queries, radius, **kwargs):
    result = flat.batch_range(queries, radius, **kwargs)
    _assert_answers(
        result, points, dead, queries, radius, kwargs.get("lower"), kwargs.get("limits"),
        kwargs.get("sort", True),
    )
    return result


@pytest.fixture(scope="module")
def clustered():
    """4 000 points in 6-D around 40 far-apart centres, indexed in
    16-member leaves: a zero-radius query reaches its own cluster's
    leaves and no other."""
    rng = np.random.default_rng(8)
    centres = rng.normal(size=(40, 6)) * 50.0
    points = centres[rng.integers(0, 40, size=4000)] + rng.normal(size=(4000, 6))
    return points


@pytest.mark.parametrize("offset", [0.0, 1e6, 1e8])
def test_shipped_rule_gathers_far_apart_leaves_and_views_a_wide_ball(clustered, offset):
    """Two rows on the first and the last leaf reach two runs at the two
    ends of the slot range: a gather.  A ball over most of the tree fills
    its range: a view.  Both answer the capped ball, tombstones inside the
    gathered slots included."""
    points = clustered + offset
    flat = PMTree.build(points, num_pivots=3, capacity=16, seed=3).flatten()
    ends = points[flat.leaf_ids[[0, -1]]]
    dead = flat.leaf_ids[np.r_[1:4, flat.leaf_ids.size - 4 : flat.leaf_ids.size - 1]]
    flat.set_tombstones(dead)
    for limits in (None, np.array([0, 1]), np.array([1, 3])):
        for radius in (0.0, 1.0):
            with _spy() as calls:
                _assert_balls(flat, points, dead, ends, radius, limits=limits)
            ((kind, scored, rows),) = calls
            assert (kind, rows) == ("gather", 2)
            assert scored < len(flat) // 2
    with _spy() as calls:
        _assert_balls(flat, points, dead, points[:8] + 0.01, 200.0, limits=np.full(8, 50))
    assert calls == [("view", len(flat), 8)]


def test_the_tail_rides_a_last_run_that_ends_at_the_last_leaf_slot(clustered):
    """The tail's slots follow the last leaf slot: a last run ending there
    scores the tail in the same pass (a gather of the runs plus the tail
    here); any other frontier leaves a second pass, over the tail alone."""
    points = clustered
    flat = PMTree.build(points[:3700], num_pivots=3, capacity=16, seed=3).flatten()
    flat.extend(points)
    first, last = flat.leaf_ids[[0, -1]]
    dead = np.r_[3710:3730, flat.leaf_ids[:3]]
    flat.set_tombstones(dead)
    with _spy() as calls:
        _assert_balls(flat, points, dead, points[[first, last]], 1.0, limits=np.array([5, 5]))
    ((kind, scored, rows),) = calls
    assert kind == "gather" and rows == 2 and scored >= 300
    for kwargs in (dict(sort=False), dict(lower=0.5), dict(limits=np.array([4]))):
        with _spy() as calls:
            _assert_balls(flat, points, dead, points[[first]], 1.0, **kwargs)
        assert len(calls) == 2 and calls[1] == ("view", 300, 1)  # the tail alone


def test_a_compacted_snapshot_with_empty_leaves(clustered):
    """Compaction keeps the routing entries and may leave leaves empty;
    the runs skip them and the answers stay the ball of the kept rows —
    for a query that reaches nothing but empty leaves too (a dropped
    row's own place, radius 0)."""
    flat = PMTree.build(clustered, num_pivots=3, capacity=16, seed=3).flatten()
    compacted, kept = _empty_some_leaves(flat, clustered, 1, 3)
    assert np.count_nonzero(compacted.span_end == compacted.span_start) >= 3
    # The sixth row of leaf 1, dropped: its place lies in no kept leaf's ball.
    dropped = clustered[flat.leaf_ids[flat.span_start[np.flatnonzero(flat.is_leaf)[1]] + 5]]
    with _spy() as calls:
        _assert_balls(compacted, kept, None, dropped[None], 0.0)
    assert calls == []  # only empty leaves reached: nothing to score
    queries = np.vstack([kept[compacted.leaf_ids[:1]], dropped, kept[:4] + 0.01])
    for radius in (0.0, 2.0, 60.0):
        for limits in (None, np.zeros(6, dtype=np.int64), np.full(6, 7)):
            with _view():
                viewed = _assert_balls(compacted, kept, None, queries, radius, limits=limits)
            with _gather():
                gathered = _assert_balls(compacted, kept, None, queries, radius, limits=limits)
            _assert_same(viewed, gathered, True)


# ----------------------------------------------------------------------
# Through the index: every query type, and across the process boundary
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def index_and_queries():
    rng = np.random.default_rng(21)
    data = rng.normal(size=(1500, 24))
    data[300:310] = data[300]
    index = PMLSH(params=PMLSHParams(node_capacity=16), seed=3).fit(data)
    index.delete(np.arange(40, 90))
    return index, data[:12] + rng.normal(size=(12, 24)) * 0.02


def test_knn_is_identical_by_view_and_by_gather(index_and_queries):
    index, queries = index_and_queries
    with _gather():
        gathered = index.run(queries, Knn(10))
    with _view():
        viewed = index.run(queries, Knn(10))
    assert gathered.ids.tobytes() == viewed.ids.tobytes()
    assert gathered.distances.tobytes() == viewed.distances.tobytes()
    for key in ("candidates", "rounds", "final_radius", "tree_nodes"):
        assert gathered.stats[key] == viewed.stats[key], key


def test_range_is_identical_by_view_and_by_gather(index_and_queries):
    index, queries = index_and_queries
    for radius in (3.0, 6.5):
        with _gather():
            gathered = index.run(queries, Range(radius))
        with _view():
            viewed = index.run(queries, Range(radius))
        for field in ("lims", "ids", "distances"):
            assert getattr(gathered, field).tobytes() == getattr(viewed, field).tobytes()
        assert gathered.stats["candidates"] == viewed.stats["candidates"]


def test_no_query_type_calls_the_member_filter_kernel(index_and_queries):
    """The leaf level has one route: kNN, ``Range`` and the ball-cover
    query never run ``leaf_prune``."""
    index, queries = index_and_queries
    kernels.reset_kernel_calls()
    index.run(queries, Knn(10))
    index.run(queries, Range(3.0))
    index.ball_cover_query(index.data[7] + 0.01, 1.0)
    calls = kernels.kernel_calls()
    assert calls.get(("fast", "leaf_prune"), 0) == 0
    assert calls[("fast", "inner_prune")] > 0  # the inner levels still filter


def test_sharded_thread_gather_equals_process_default():
    """Four shards: the thread pool pinned to the gather in this process
    against the process pool, whose spawned workers import the module
    afresh and so run the shipped rule."""
    rng = np.random.default_rng(33)
    data = rng.normal(size=(1200, 20))
    data[700] = data[15]
    queries = data[:9] + rng.normal(size=(9, 20)) * 0.02

    def build(pool_backend):
        return create_index(
            "sharded", backend="pm-lsh", pool_backend=pool_backend,
            num_shards=4, num_workers=2, seed=5,
        ).fit(data)

    thread, process = build("thread"), build("process")
    try:
        with _gather():
            gathered = thread.search(queries, 8), thread.range_search(queries, 5.0)
        pooled = process.search(queries, 8), process.range_search(queries, 5.0)
        assert gathered[0].ids.tobytes() == pooled[0].ids.tobytes()
        assert gathered[0].distances.tobytes() == pooled[0].distances.tobytes()
        for field in ("lims", "ids", "distances"):
            assert getattr(gathered[1], field).tobytes() == getattr(pooled[1], field).tobytes()
    finally:
        process.close()
        thread.close()
    assert own_leaked_segments() == ()
