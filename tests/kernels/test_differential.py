"""The differential harness: product kernels are byte-identical to the oracle.

Every kernel in :data:`repro.kernels.KERNEL_NAMES` has a straight-line
reference twin in ``tests/oracles/kernels_reference.py`` (the semantic
contract).  These property tests drive both with hypothesis-generated adversarial
inputs (d=1, n<k, empty pools, duplicate distances, float32/float64,
NaN parent distances, tiny chunk sizes) and assert the outputs match to
the byte, not to a tolerance.  Byte-identity is what makes the fast
layer safe: any future "optimisation" that reorders a reduction fails
here before it can ship.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import fast
from tests.oracles import kernels_reference as reference


@contextmanager
def dist_chunk(chunk: int):
    """Shrink the kernels' distance block (to its 64-row floor) so
    hypothesis-sized inputs actually exercise multi-block evaluation.
    Restores on exit (a plain save/restore, not a fixture — hypothesis
    re-runs the test body per example and function-scoped fixtures would
    not reset)."""
    previous = fast._BLOCK_BYTES
    fast._BLOCK_BYTES = int(chunk)
    try:
        yield
    finally:
        fast._BLOCK_BYTES = previous


@contextmanager
def lexsort_min_groups(groups: int):
    """Lower the group count at which the cut kernels switch from
    per-group selection to one pooled lexsort, so hypothesis-sized pools
    reach both branches."""
    previous = fast._LEXSORT_MIN_GROUPS
    fast._LEXSORT_MIN_GROUPS = int(groups)
    try:
        yield
    finally:
        fast._LEXSORT_MIN_GROUPS = previous


def assert_bytes_equal(got, want):
    """Byte-identity: same dtype, same shape, same bits (NaNs included)."""
    if want is None:
        assert got is None
        return
    got = np.asarray(got)
    want = np.asarray(want)
    assert got.dtype == want.dtype, (got.dtype, want.dtype)
    assert got.shape == want.shape, (got.shape, want.shape)
    assert got.tobytes() == want.tobytes()


@st.composite
def distance_pairs(draw):
    """(rows, query_rows) for the distance kernels — any n, d >= 1."""
    n = draw(st.integers(min_value=0, max_value=200))
    d = draw(st.integers(min_value=1, max_value=24))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(n, d)).astype(dtype)
    query_rows = rng.normal(size=(n, d)).astype(dtype)
    if n >= 2 and draw(st.booleans()):
        rows[1] = rows[0]  # duplicate point => duplicate distance
        query_rows[1] = query_rows[0]
    return rows, query_rows


@given(distance_pairs(), st.integers(min_value=1, max_value=64))
@settings(max_examples=60, deadline=None)
def test_pair_distances(pair, chunk):
    rows, query_rows = pair
    want = reference.pair_distances(rows.copy(), query_rows)
    with dist_chunk(chunk):
        got = fast.pair_distances(rows.copy(), query_rows)
    assert_bytes_equal(got, want)


@st.composite
def verify_inputs(draw):
    """(data, ids, queries, rep_q) for gathered verification."""
    n = draw(st.integers(min_value=1, max_value=150))
    d = draw(st.integers(min_value=1, max_value=16))
    num_queries = draw(st.integers(min_value=1, max_value=6))
    pool = draw(st.integers(min_value=0, max_value=300))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(n, d)).astype(dtype)
    queries = rng.normal(size=(num_queries, d)).astype(dtype)
    ids = rng.integers(0, n, size=pool).astype(np.int64)
    rep_q = np.sort(rng.integers(0, num_queries, size=pool)).astype(np.int64)
    return data, ids, queries, rep_q


@given(verify_inputs(), st.integers(min_value=1, max_value=64))
@settings(max_examples=60, deadline=None)
def test_verify_distances(inputs, chunk):
    data, ids, queries, rep_q = inputs
    want = reference.verify_distances(data, ids, queries, rep_q)
    with dist_chunk(chunk):
        got = fast.verify_distances(data, ids, queries, rep_q)
    assert_bytes_equal(got, want)


@st.composite
def grouped_pool(draw):
    """A query-grouped candidate pool with deliberate distance ties."""
    num_queries = draw(st.integers(min_value=1, max_value=8))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 40, size=num_queries)  # empty groups included
    total = int(counts.sum())
    q = np.repeat(np.arange(num_queries, dtype=np.int64), counts)
    ids = rng.integers(0, 500, size=total).astype(np.int64)
    # Quantized distances => many exact duplicates; ties resolve by id.
    dists = np.round(rng.uniform(0, 3, size=total), 1).astype(np.float64)
    return num_queries, counts.astype(np.int64), q, ids, dists


@given(grouped_pool(), st.integers(min_value=0, max_value=50), st.sampled_from([1, 1024]))
@settings(max_examples=80, deadline=None)
def test_group_topk(pool, k, min_groups):
    num_queries, _, q, ids, dists = pool
    want = reference.group_topk(q, ids, dists, num_queries, k)
    with lexsort_min_groups(min_groups):
        got = fast.group_topk(q, ids, dists, num_queries, k)
    for w, g in zip(want, got):
        assert_bytes_equal(g, w)


@given(grouped_pool(), st.integers(min_value=0, max_value=30), st.sampled_from([1, 1024]))
@settings(max_examples=80, deadline=None)
def test_budget_cut(pool, limit, min_groups):
    num_queries, counts, q, ids, dists = pool
    lims = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    rng = np.random.default_rng(int(counts.sum()) + limit)
    limits = rng.integers(0, max(1, limit + 1), size=num_queries).astype(np.int64)
    want = reference.budget_cut(q, ids, dists, counts, lims, limits)
    with lexsort_min_groups(min_groups):
        got = fast.budget_cut(q, ids, dists, counts, lims, limits)
    assert_bytes_equal(got, want)
    if want is not None:
        # The cut really enforces the per-query limits.
        kept = np.bincount(q[want], minlength=num_queries)
        assert np.all(kept <= np.maximum(limits, np.minimum(counts, limits)))


@given(grouped_pool(), st.integers(min_value=1, max_value=40))
@settings(max_examples=40, deadline=None)
def test_closest_mask_matches_canonical_order(pool, k):
    """closest_mask (the selection-based boundary cut) == full (dist, id) sort."""
    _, _, _, ids, dists = pool
    if dists.size == 0:
        return
    assert_bytes_equal(
        fast.closest_mask(dists, ids, k), reference.closest_mask(dists, ids, k)
    )


@st.composite
def estimate_inputs(draw):
    """(data, sqnorm, ids, query) for the norm-expansion estimates: any d,
    repeated ids, duplicate rows, and offsets up to 10⁸ where the
    expansion cancels every digit it has."""
    n = draw(st.integers(min_value=1, max_value=150))
    d = draw(st.integers(min_value=1, max_value=140))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    rng = np.random.default_rng(seed)
    scale = draw(st.sampled_from([1e-3, 1.0, 50.0]))
    offset = draw(st.sampled_from([0.0, 1e3, 1e6, 1e8]))
    data = rng.normal(size=(n, d)) * scale + offset
    if n >= 2 and draw(st.booleans()):
        data[1] = data[0]
    query = data[rng.integers(n)] + rng.normal(size=d) * scale * draw(st.sampled_from([0, 1e-9, 1]))
    ids = rng.integers(0, n, size=draw(st.integers(min_value=0, max_value=300)))
    return data, np.einsum("ij,ij->i", data, data), ids, query


@given(estimate_inputs(), st.integers(min_value=1, max_value=64))
@settings(max_examples=80, deadline=None)
def test_sq_distance_estimates_within_their_band(inputs, chunk):
    """Not pinned by bytes — a GEMV's reduction order may follow a row's
    place in its block — but by the contract every caller relies on: the
    estimate is within ``expansion_tol`` of the exact kernel's d², and
    within it of the straight-line reference too."""
    data, sqnorm, ids, query = inputs
    q_sqnorm = float(query @ query)
    with dist_chunk(chunk):
        got = fast.sq_distance_estimates(data, sqnorm, ids, query, q_sqnorm)
    want = reference.sq_distance_estimates(data, sqnorm, ids, query, q_sqnorm)
    exact = fast.verify_distances(data, ids, query[None, :], np.zeros(ids.size, dtype=np.int64))
    tol = fast.expansion_tol(data.shape[1], sqnorm.max() + q_sqnorm)
    assert got.dtype == np.float64 and got.shape == ids.shape
    assert np.all(np.abs(got - exact * exact) <= tol)
    assert np.all(np.abs(got - want) <= tol)


@given(grouped_pool(), st.integers(min_value=-2, max_value=50), st.sampled_from([0.0, 0.05, 1.0]))
@settings(max_examples=80, deadline=None)
def test_limit_band(pool, limit, tol):
    """Selection (np.partition) == full sort, and the band keeps exactly
    what the canonical cut can keep: a key under ``lo`` is in the
    ``limit`` best for any exact values within ``tol`` of the keys, a
    key over ``hi`` in none of them."""
    _, _, _, ids, keys = pool
    lo, hi = fast.limit_band(keys, tol, limit)
    assert (lo, hi) == reference.limit_band(keys, tol, limit)
    if keys.size == 0:
        return
    rng = np.random.default_rng(keys.size + limit)
    for _ in range(5):  # exact values anywhere the band allows
        exact = keys + rng.uniform(-tol, tol, size=keys.size)
        best = reference.closest_mask(exact, ids, limit)
        assert best[keys < lo].all()
        assert not best[keys > hi].any()


@st.composite
def leaf_prune_inputs(draw):
    num_members = draw(st.integers(min_value=0, max_value=120))
    num_leaf_rows = draw(st.integers(min_value=1, max_value=200))
    num_queries = draw(st.integers(min_value=1, max_value=5))
    num_pivots = draw(st.integers(min_value=0, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    rng = np.random.default_rng(seed)
    member = rng.integers(0, num_leaf_rows, size=num_members).astype(np.int64)
    rep_q = rng.integers(0, num_queries, size=num_members).astype(np.int64)
    rep_pd = rng.uniform(0, 2, size=num_members)
    rep_pd[rng.random(num_members) < 0.2] = np.nan  # root-leaf members
    leaf_pd = rng.uniform(0, 2, size=num_leaf_rows)
    ring_cols = [rng.uniform(0, 2, size=num_leaf_rows) for _ in range(num_pivots)]
    query_rings = (
        rng.uniform(0, 2, size=(num_queries, num_pivots)) if num_pivots else None
    )
    radius = float(rng.uniform(0, 1.5))
    use_parent = draw(st.booleans())
    return dict(
        member=member,
        rep_q=rep_q,
        rep_pd=rep_pd if draw(st.booleans()) else None,
        leaf_pd=leaf_pd,
        ring_cols=ring_cols,
        query_rings=query_rings,
        radius=radius,
        use_parent_filter=use_parent,
        dim=draw(st.integers(min_value=1, max_value=32)),
    )


@given(leaf_prune_inputs())
@settings(max_examples=80, deadline=None)
def test_leaf_prune(kwargs):
    assert_bytes_equal(fast.leaf_prune(**kwargs), reference.leaf_prune(**kwargs))


@st.composite
def inner_prune_inputs(draw):
    num_pairs = draw(st.integers(min_value=0, max_value=120))
    num_entries = draw(st.integers(min_value=1, max_value=80))
    num_queries = draw(st.integers(min_value=1, max_value=5))
    num_pivots = draw(st.integers(min_value=0, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    rng = np.random.default_rng(seed)
    eidx = rng.integers(0, num_entries, size=num_pairs).astype(np.int64)
    rep_q = rng.integers(0, num_queries, size=num_pairs).astype(np.int64)
    rep_pd = rng.uniform(0, 2, size=num_pairs)
    rep_pd[rng.random(num_pairs) < 0.2] = np.nan
    hr_min = rng.uniform(0, 1, size=(num_entries, num_pivots))
    hr_max = hr_min + rng.uniform(0, 1, size=(num_entries, num_pivots))
    query_rings = (
        rng.uniform(0, 2, size=(num_queries, num_pivots)) if num_pivots else None
    )
    radius = float(rng.uniform(0, 1.5))
    return dict(
        eidx=eidx,
        rep_q=rep_q,
        rep_pd=rep_pd if draw(st.booleans()) else None,
        entry_pd=rng.uniform(0, 2, size=num_entries),
        entry_radius=rng.uniform(0, 1, size=num_entries),
        hr_min=hr_min,
        hr_max=hr_max,
        query_rings=query_rings,
        radius=radius,
        use_parent_filter=draw(st.booleans()),
        dim=draw(st.integers(min_value=1, max_value=32)),
    )


@given(inner_prune_inputs())
@settings(max_examples=80, deadline=None)
def test_inner_prune(kwargs):
    assert_bytes_equal(fast.inner_prune(**kwargs), reference.inner_prune(**kwargs))


@st.composite
def projection_inputs(draw):
    n = draw(st.integers(min_value=0, max_value=60))
    d = draw(st.integers(min_value=1, max_value=32))
    m = draw(st.integers(min_value=1, max_value=10))
    s = draw(st.integers(min_value=1, max_value=min(8, d)))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n, d))
    if draw(st.booleans()):
        # Non-contiguous view: the gather must pin the layout itself.
        points = rng.normal(size=(n, 2 * d))[:, ::2]
    sample_idx = rng.integers(0, d, size=(m, s)).astype(np.int64)
    weights = rng.normal(size=(m, s))
    single = n >= 1 and draw(st.booleans())
    return (points[0] if single else points), sample_idx, weights


@given(projection_inputs())
@settings(max_examples=80, deadline=None)
def test_sampled_project(inputs):
    points, sample_idx, weights = inputs
    want = reference.sampled_project(points, sample_idx, weights)
    got = fast.sampled_project(points, sample_idx, weights)
    assert_bytes_equal(got, want)


# ----------------------------------------------------------------------
# Pinned adversarial corners (cheap, always run, no generation budget)
# ----------------------------------------------------------------------


class TestPinnedCorners:
    @pytest.mark.parametrize("min_groups", [1, 1024], ids=["lexsort", "per-group"])
    def test_group_topk_k_exceeds_every_count(self, min_groups):
        q = np.array([0, 0, 2], dtype=np.int64)  # query 1 empty
        ids = np.array([5, 3, 9], dtype=np.int64)
        dists = np.array([1.0, 1.0, 0.5])  # exact tie within query 0
        want = reference.group_topk(q, ids, dists, 3, 10)
        with lexsort_min_groups(min_groups):
            got = fast.group_topk(q, ids, dists, 3, 10)
        for w, g in zip(want, got):
            assert_bytes_equal(g, w)
        np.testing.assert_array_equal(got[1], [3, 5, 9])  # tie -> id order

    def test_group_topk_empty_pool(self):
        e = np.empty(0, dtype=np.int64)
        want = reference.group_topk(e, e, e.astype(np.float64), 4, 3)
        got = fast.group_topk(e, e, e.astype(np.float64), 4, 3)
        for w, g in zip(want, got):
            assert_bytes_equal(g, w)
        assert got[1].size == 0

    def test_budget_cut_no_query_over_limit_returns_none(self):
        q = np.array([0, 1], dtype=np.int64)
        counts = np.array([1, 1], dtype=np.int64)
        lims = np.array([0, 1, 2], dtype=np.int64)
        limits = np.array([5, 5], dtype=np.int64)
        ids = np.array([1, 2], dtype=np.int64)
        dists = np.array([0.1, 0.2])
        assert reference.budget_cut(q, ids, dists, counts, lims, limits) is None
        assert fast.budget_cut(q, ids, dists, counts, lims, limits) is None

    def test_closest_mask_k_zero_and_k_ge_n(self):
        dists = np.array([0.3, 0.1])
        ids = np.array([1, 0], dtype=np.int64)
        assert not fast.closest_mask(dists, ids, 0).any()
        assert fast.closest_mask(dists, ids, 2).all()
        assert fast.closest_mask(dists, ids, 5).all()

    def test_limit_band_edges(self):
        keys = np.array([0.3, 0.1, 0.1, 0.7])
        assert fast.limit_band(keys, 0.0, 0) == (-np.inf, -np.inf)  # keeps nothing
        assert fast.limit_band(keys, 0.0, 4) == (np.inf, np.inf)  # within its limit
        assert fast.limit_band(keys, 0.0, 2) == (0.1, 0.1)  # the tie is the band
        lo, hi = fast.limit_band(keys, 0.05, 3)
        assert (lo, hi) == pytest.approx((0.2, 0.4))

    def test_pair_distances_d1_float32(self):
        rows = np.array([[1.0], [2.0]], dtype=np.float32)
        qrows = np.array([[0.5], [2.0]], dtype=np.float32)
        want = reference.pair_distances(rows.copy(), qrows)
        got = fast.pair_distances(rows.copy(), qrows)
        assert_bytes_equal(got, want)
        assert got.dtype == np.float32

    def test_filters_keep_rounding_level_gaps_at_radius_zero(self):
        """Two copies of a point whose distances to a pivot were rounded
        apart by a few ulps pass every Eq. 5 test at radius 0; a gap a
        thousand times wider than the slack still fails them."""
        a = np.array([1.0, 1.0, 1.0])
        b = np.array([1.0, np.nextafter(np.nextafter(1.0, 2.0), 2.0), 1.0 + 1e-9])
        member = np.arange(3, dtype=np.int64)
        leaf = dict(
            member=member, rep_q=member, rep_pd=b, leaf_pd=a,
            ring_cols=[a], query_rings=b[:, None], radius=0.0,
            use_parent_filter=True, dim=24,
        )
        inner = dict(
            eidx=member, rep_q=member, rep_pd=b, entry_pd=a,
            entry_radius=np.zeros(3), hr_min=a[:, None], hr_max=a[:, None],
            query_rings=b[:, None], radius=0.0, use_parent_filter=True, dim=24,
        )
        for kernel, kwargs in ((fast.leaf_prune, leaf), (fast.inner_prune, inner)):
            assert kernel(**kwargs).tolist() == [True, True, False]
        assert_bytes_equal(fast.leaf_prune(**leaf), reference.leaf_prune(**leaf))
        assert_bytes_equal(fast.inner_prune(**inner), reference.inner_prune(**inner))

    def test_leaf_prune_all_rows_nan_parent(self):
        kwargs = dict(
            member=np.array([0, 1], dtype=np.int64),
            rep_q=np.array([0, 0], dtype=np.int64),
            rep_pd=np.array([np.nan, np.nan]),
            leaf_pd=np.array([0.5, 0.7]),
            ring_cols=[np.array([0.2, 0.9])],
            query_rings=np.array([[0.4]]),
            radius=0.3,
            use_parent_filter=True,
            dim=15,
        )
        assert_bytes_equal(
            fast.leaf_prune(**kwargs), reference.leaf_prune(**kwargs)
        )
