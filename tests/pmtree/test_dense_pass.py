"""Dense leaf pass vs per-pair traversal: one tree, one block, two routes.

``FlatPMTree.batch_range`` scores its leaf level either pair by pair
(Eq. 5 member filters, gathered distances) or as blocked GEMMs over the
reached slot range, chosen from the frontier's coverage against
``_DENSE_COVERAGE``.  The dense scores are estimates with a proven error
band — a slot is re-scored by the exact kernel only when its score lies
within the band of ``radius``, of ``lower`` or of a query's L-th score —
so every decision is the exact kernel's, and forcing the constant to
"always" and to "never" must give the same answers: with ``sort=True``
the same *bytes* (ids, projected distances, ``(distance, id)`` tie order
at the limit cut), with ``sort=False`` the same id *set* per query (that
call returns no distances).  The hard cases are drawn on purpose:
tombstones, duplicate blocks exactly at the L-th place, a limit equal to
a query's match count and a limit of 0, a point exactly at ``radius`` and
one exactly at ``lower``, a single-leaf tree, a tree whose last rows sit
in the unindexed tail (scored densely on both sides, dead rows included,
so the per-pair side's matches arrive in two chunks: leaves, then the
tail pass), and data 10⁶–10⁸ away from the origin, where the GEMM scores
lose every digit and the band must swallow rows rather than decide them
wrongly.
"""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import PMLSH, Knn, PMLSHParams, Range, create_index
from repro.parallel.shm import leaked_segments
from repro.pmtree import flat as flat_module
from repro.pmtree.tree import PMTree


def _never():
    return mock.patch.object(flat_module, "_DENSE_COVERAGE", math.inf)


def _always():
    return mock.patch.object(flat_module, "_DENSE_COVERAGE", 0.0)


def _exact_distances(points: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Distances with the traversal's own reduction (``pair_distances``)."""
    diff = points - query
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


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
    """Per-query limits: none, 0, a few, half the ball, more than n, every
    query's exact match count (the limit equals the candidate count), or
    the duplicate block's place plus 3 (the L-th match is one of six
    copies, so the cut is decided by id among equal distances)."""
    n, rows = points.shape[0], queries.shape[0]
    kind = draw(st.sampled_from(["none", "zero", "few", "half", "over", "exact", "ties"]))
    if kind == "none":
        return None
    ball = np.array([len(_oracle(points, dead, q, radius, lower, None)) for q in queries])
    if kind == "ties":
        dup = _exact_distances(points[n // 3][None, :], queries)  # (rows,) per query
        inside = [_oracle(points, dead, q, radius, lower, None) for q in queries]
        limits = np.array([sum(d < dup[i] for d, _ in inside[i]) + 3 for i in range(rows)])
    else:
        limits = {
            "zero": np.zeros(rows), "few": np.full(rows, 3), "half": np.maximum(1, ball // 2),
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


def _assert_same(walked, dense, sort):
    """The two routes: same bytes with ``sort``, same id sets without."""
    lims = walked[0]
    assert walked[0].tobytes() == dense[0].tobytes()
    if sort:
        for name, a, b in zip(("ids", "dists"), walked[1:3], dense[1:3]):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    else:
        for i in range(lims.size - 1):
            a, b = (np.sort(r[1][lims[i] : lims[i + 1]]) for r in (walked, dense))
            assert a.tobytes() == b.tobytes(), i
    # Same frontier, whichever way its members were scored.
    np.testing.assert_array_equal(walked[3].nodes, dense[3].nodes)
    np.testing.assert_array_equal(walked[3].level_visits, dense[3].level_visits)


@given(scenario())
@settings(max_examples=160, deadline=None)
def test_dense_pass_equals_the_ball_and_the_traversal(case):
    points, dead, flat, queries, radius, lower, limits, sort = case
    with _always():
        dense = flat.batch_range(queries, radius, limits=limits, lower=lower, sort=sort)
    _assert_answers(dense, points, dead, queries, radius, lower, limits, sort)
    with _never():
        walked = flat.batch_range(queries, radius, limits=limits, lower=lower, sort=sort)
    _assert_answers(walked, points, dead, queries, radius, lower, limits, sort)
    _assert_same(walked, dense, sort)


@given(scenario(), st.integers(min_value=2, max_value=4))
@settings(max_examples=60, deadline=None)
def test_annulus_ladder_with_a_member_on_every_boundary(case, steps):
    """Algorithm 2's rounds: each fetches the fresh annulus (lower = the
    previous radius) capped at what is left of a budget, and every radius
    of the ladder is the exact distance of a member — the ball and the
    annulus band are both hit on every round, on both routes."""
    points, dead, flat, queries, _, _, _, sort = case
    n = points.shape[0]
    ranked = np.sort(_exact_distances(points, queries[-1]))
    ladder = ranked[np.linspace(n // 8, n - 1, steps).astype(int)]
    budget = np.full(queries.shape[0], max(1, n // 3), dtype=np.int64)
    seen = np.zeros_like(budget)
    lower = None
    for radius in ladder.tolist():
        limits = np.maximum(budget - seen, 0)
        with _always():
            dense = flat.batch_range(queries, radius, limits=limits, lower=lower, sort=sort)
        with _never():
            walked = flat.batch_range(queries, radius, limits=limits, lower=lower, sort=sort)
        _assert_answers(dense, points, dead, queries, radius, lower, limits, sort)
        _assert_same(walked, dense, sort)
        seen += np.diff(dense[0])
        lower = radius


@pytest.mark.parametrize("limit", [None, 30])
def test_offset_data_degrades_the_filter_not_the_answer(limit):
    """At +10⁸ per coordinate ‖p‖² ≈ m·10¹⁶, the scores are off by more
    than radius² and so is their error bound: every live member lands in
    the band of ``radius`` and is re-scored exactly — ``rescored`` counts
    all of them — and the result is the true ball, cut exactly."""
    rng = np.random.default_rng(4)
    points = rng.normal(size=(400, 6)) + 1e8
    flat = PMTree.build(points, num_pivots=0, capacity=16, seed=2).flatten()
    queries = points[:5] + 0.01
    limits = None if limit is None else np.full(5, limit)
    with _never():
        walked = flat.batch_range(queries, 1.5, limits=limits)
    with _always():
        dense = flat.batch_range(queries, 1.5, limits=limits)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(walked[:3], dense[:3]))
    for i, query in enumerate(queries):
        expected = _oracle(points, None, query, 1.5, None, limit)
        assert dense[1][dense[0][i] : dense[0][i + 1]].tolist() == [pid for _, pid in expected]
    assert 0 < dense[0][-1] < 5 * 400  # a real ball, not everything
    assert dense[3].rescored.tolist() == [400] * 5  # pass-all: every member re-scored
    assert walked[3].rescored.tolist() == [0] * 5  # the per-pair side estimates nothing


def test_near_the_origin_the_band_is_tiny():
    """The other end: unit-scale data, a big capped ball — the dense pass
    re-scores next to nothing, and never anything it is not asked to decide."""
    rng = np.random.default_rng(9)
    points = rng.normal(size=(3000, 8))
    flat = PMTree.build(points, num_pivots=3, capacity=16, seed=1).flatten()
    queries = points[:16] + 0.01
    with _always():
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
def test_copies_of_indexed_points_match_on_both_routes_with_pivots_on(offset):
    """A radius of zero (or a few ulps) with queries that are copies of
    indexed points, five pivots, data up to 10⁸ from the origin: the Eq. 5
    filters difference separately rounded distances, every one of them
    computed by differences, so with their ulp slack the per-pair route
    keeps every copy — per-pair ≡ dense ≡ the true ball, with the exact
    kernel's distances on both.  (Pivot distances from the norm
    expansion kept 0 of 264 copies at +50 and the dense route 195.)"""
    for seed in range(6):
        rng = np.random.default_rng(seed)
        points = rng.normal(size=(600, 8)) + offset
        points[100:104] = points[100]
        flat = PMTree.build(points, num_pivots=5, capacity=16, seed=seed).flatten()
        queries = points[96:128].copy()
        for radius in (0.0, 1e-12, 1e-9):
            with _never():
                walked = flat.batch_range(queries, radius)
            with _always():
                dense = flat.batch_range(queries, radius)
            for i, query in enumerate(queries):
                ball = set(_oracle(points, None, query, radius, None, None))
                assert _matches(walked, i) == _matches(dense, i) == ball, (seed, radius, i)


def test_shipped_constant_takes_both_sides():
    """The rule as shipped: a ball over most of the tree streams, a small
    one gathers — observed through which leaf kernel runs.  The small
    ball is one row (2.5 % coverage against a one-row break-even of
    22 %): a block shares the slot read, so it streams from ~3 %."""
    rng = np.random.default_rng(8)
    points = rng.normal(size=(4000, 6))
    flat = PMTree.build(points, num_pivots=3, capacity=16, seed=3).flatten()
    calls = []
    real = flat_module.FlatPMTree._dense_leaves

    def spy(self, *args):
        calls.append(args[4].size)  # rows_q
        return real(self, *args)

    with mock.patch.object(flat_module.FlatPMTree, "_dense_leaves", spy):
        flat.batch_range(points[:1] + 0.01, 0.3)
        assert calls == []
        flat.batch_range(points[:8] + 0.01, 6.0)
        assert calls == [8]


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


def test_knn_is_identical_on_both_sides(index_and_queries):
    index, queries = index_and_queries
    with _never():
        walked = index.run(queries, Knn(10))
    with _always():
        dense = index.run(queries, Knn(10))
    assert walked.ids.tobytes() == dense.ids.tobytes()
    assert walked.distances.tobytes() == dense.distances.tobytes()
    for key in ("candidates", "rounds", "final_radius", "tree_nodes"):
        assert walked.stats[key] == dense.stats[key], key


def test_range_is_identical_on_both_sides(index_and_queries):
    index, queries = index_and_queries
    for radius in (3.0, 6.5):
        with _never():
            walked = index.run(queries, Range(radius))
        with _always():
            dense = index.run(queries, Range(radius))
        for field in ("lims", "ids", "distances"):
            assert getattr(walked, field).tobytes() == getattr(dense, field).tobytes()
        assert walked.stats["candidates"] == dense.stats["candidates"]


def test_closest_pairs_are_identical_on_both_sides(index_and_queries):
    index, _ = index_and_queries
    with _never():
        walked = index.closest_pairs(15)
    with _always():
        dense = index.closest_pairs(15)
    assert walked.pairs.tobytes() == dense.pairs.tobytes()
    assert walked.distances.tobytes() == dense.distances.tobytes()


def test_sharded_thread_traversal_equals_process_default():
    """Four shards: the thread pool pinned to the traversal in this
    process against the process pool, whose spawned workers import the
    module afresh and so run the shipped rule."""
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
        with _never():
            walked = thread.search(queries, 8), thread.range_search(queries, 5.0)
        pooled = process.search(queries, 8), process.range_search(queries, 5.0)
        assert walked[0].ids.tobytes() == pooled[0].ids.tobytes()
        assert walked[0].distances.tobytes() == pooled[0].distances.tobytes()
        for field in ("lims", "ids", "distances"):
            assert getattr(walked[1], field).tobytes() == getattr(pooled[1], field).tobytes()
    finally:
        process.close()
        thread.close()
    assert leaked_segments() == ()
