"""End-to-end byte-identity: whole-index results, product vs oracle.

The differential harness pins each kernel in isolation; these tests pin
the composition — a full PM-LSH index (flat-tree traversal, Eq. 5
pruning, budget cut, verification) answering kNN / range / closest-pair
queries must return byte-identical ids, distances and result stats with
the reference kernels swapped onto the kernel set, including after
deletes that fully tombstone leaves and under the sampled hash family.

The middle part draws indexes where an estimate could decide wrongly —
ties planted exactly at the k-th answer and at the L-th candidate, a
budget equal to k, data 10⁶ away from the origin (the bands swallow
rows), tombstones, unindexed tail rows, multi-round ladders — and holds
every answer to the per-query pointer-tree probes of
``tests/oracles/recursive_probe.py``: ids, distances and stats.

The last part pins the one choice the traversal makes from its input:
a capped ``batch_range`` scores its leaf level pair by pair or as one
dense pass over the reached slot range.  Both sides must return the
pointer tree's capped set — with tombstones and planted distance ties —
and charge ``dist_comps`` for what they scored.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.pmtree.flat as flat_module
from repro import PMLSH, PMLSHParams
from repro.pmtree.tree import PMTree
from repro.queries import Knn, Range
from tests.oracles import recursive_probe, reference_kernels


def _dataset():
    rng = np.random.default_rng(77)
    data = rng.normal(size=(900, 16))
    data[40] = data[10]  # planted duplicates: exact distance ties
    data[41] = data[10]
    return data


def _build(data, hash_family="dense"):
    params = PMLSHParams(node_capacity=32, hash_family=hash_family)
    return PMLSH(params=params, seed=11).fit(data)


def _knn(index, queries):
    result = index.search(queries, k=10)
    return result.ids, result.distances, result.per_query_stats


def _range(index, queries):
    result = index.range_search(queries, r=4.0)
    return result.lims, result.ids, result.distances


def _closest_pairs(index, _queries):
    result = index.closest_pairs(m=6)
    return result.pairs, result.distances


def _deleted_knn(index, queries):
    # Tombstone a contiguous id block: node_capacity=32 guarantees at
    # least one leaf goes fully dead (the all-tombstoned-leaf case).
    index.delete(list(range(0, 64)))
    result = index.search(queries, k=10)
    return result.ids, result.distances, result.per_query_stats


@pytest.mark.parametrize("hash_family", ["dense", "sampled"])
@pytest.mark.parametrize(
    "runner", [_knn, _range, _closest_pairs, _deleted_knn],
    ids=["knn", "range", "closest-pairs", "knn-after-delete"],
)
def test_pmlsh_product_vs_reference_kernels_byte_identical(runner, hash_family):
    data = _dataset()
    queries = np.vstack([data[:8] + 0.01, data[10][None, :]])  # one exact hit
    product = runner(_build(data, hash_family), queries)
    with reference_kernels():  # fresh same-seed build under the oracle too
        oracle = runner(_build(data, hash_family), queries)
    for got, want in zip(product, oracle):
        if isinstance(got, tuple):  # per_query_stats
            assert got == want
        else:
            got, want = np.asarray(got), np.asarray(want)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


def test_sampled_family_differs_from_dense_but_is_self_consistent():
    """hash_family='sampled' is a different estimator (different hashes),
    not a different answer contract: both families return k results."""
    data = _dataset()
    dense = _build(data, "dense").search(data[:4] + 0.01, k=5)
    sampled = _build(data, "sampled").search(data[:4] + 0.01, k=5)
    assert dense.ids.shape == sampled.ids.shape == (4, 5)
    # Different projection family => different probe order => the stats
    # (candidate counts) will generally differ even when answers agree.
    assert dense.stats != sampled.stats or not np.array_equal(
        dense.ids, sampled.ids
    )


# ----------------------------------------------------------------------
# Where an estimate could decide wrongly, against the per-query oracle
# ----------------------------------------------------------------------


def _distances(points, query):
    diff = points - query
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


@st.composite
def banded_index(draw):
    """An index and a spec drawn at the places the bands must get right."""
    seed = draw(st.integers(min_value=0, max_value=2**16))
    rng = np.random.default_rng(seed)
    n, d = draw(st.sampled_from([150, 400])), draw(st.integers(min_value=2, max_value=24))
    offset = draw(st.sampled_from([0.0, 1e6]))
    data = rng.normal(size=(n, d))
    queries = data[rng.choice(n, size=4, replace=False)] + rng.normal(size=(4, d)) * 0.05
    k = draw(st.sampled_from([1, 5, 10]))
    tied = None
    if draw(st.booleans()):  # copies of query 0's (k-1)-th neighbour: ties at the k-th
        order = np.argsort(_distances(data, queries[0]))
        tied = order[max(0, k - 2)]
        data[rng.choice(order[k + 2 :], size=4, replace=False)] = data[tied]
    data += offset
    queries += offset
    fitted = draw(st.sampled_from([n, n - n // 4]))  # the rest arrives by add()
    params = PMLSHParams(
        node_capacity=draw(st.sampled_from([8, 32])),
        # Pivot distances come from the norm expansion with no error bound
        # (ROADMAP, correctness): offset data is indexed without pivots.
        num_pivots=0 if offset else draw(st.sampled_from([0, 3])),
        radius_shrink=draw(st.sampled_from([1.0, 0.05])),  # 0.05: many rounds
    )
    index = PMLSH(params=params, seed=seed).fit(data[:fitted])
    if fitted < n:
        index.add(data[fitted:])
    if draw(st.booleans()):
        index.delete(rng.choice(n, size=n // 8, replace=False))
    budget = draw(st.sampled_from([None, "k", "ties"]))
    if budget == "k":  # the candidate count equals k
        budget = k
    elif budget == "ties":  # the L-th candidate: one of the copies, if planted
        projected = _distances(index.projected, index.projection.project(queries[0]))
        at = projected[tied] if tied is not None else np.sort(projected)[k + 3]
        budget = max(k, int(np.count_nonzero(projected < at)) + 2)
    return index, queries, k, budget


@given(banded_index())
@settings(max_examples=60, deadline=None)
def test_knn_range_and_pairs_equal_the_recursive_oracle(case):
    index, queries, k, budget = case
    spec = Knn(k, budget=budget)
    got, want = index.run(queries, spec), recursive_probe.knn(index, queries, spec)
    for field in ("ids", "distances"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field
    assert got.per_query_stats == want.per_query_stats
    radius = float(np.median(want.distances[:, -1]))
    ranged = Range(radius, budget=budget)
    got, want = index.run(queries, ranged), recursive_probe.range_search(index, queries, ranged)
    for field in ("lims", "ids", "distances"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field
    assert got.per_query_stats == want.per_query_stats
    got, want = index.closest_pairs(4), recursive_probe.closest_pairs(index, 4)
    assert got.pairs.tobytes() == want.pairs.tobytes()
    assert got.distances.tobytes() == want.distances.tobytes()


def test_closest_pairs_oracle_at_an_offset():
    """The draw that once turned the test above red: at +10⁶ the oracle's
    projected neighbourhoods came from the norm expansion, which put
    (41, 106) ahead of the product's 4th pair (145, 345).  The product was
    right — its budget leaves (41, 106) unverified, which the (c, k)
    contract allows — and the sound scan now agrees with it."""
    rng = np.random.default_rng(12)
    data = rng.normal(size=(400, 14)) + 1e6
    params = PMLSHParams(node_capacity=8, num_pivots=0)
    index = PMLSH(params=params, seed=12).fit(data)
    got, want = index.closest_pairs(4), recursive_probe.closest_pairs(index, 4)
    assert got.pairs.tobytes() == want.pairs.tobytes()
    assert got.distances.tobytes() == want.distances.tobytes()
    assert got.pairs[3].tolist() == [145, 345]


@pytest.mark.parametrize("shrink", [1.0, 0.05], ids=["one-round", "many-rounds"])
def test_far_from_the_origin_every_candidate_is_rescored(shrink):
    """At +10⁸ the original-space estimates cannot tell any two candidates
    apart, so every kNN candidate lands in a band and gets an exact
    distance — ``stats["rescored"]`` says so — and the answers, rounds
    and final radii (termination test 1, with a short ladder start) are
    still the oracle's; near the origin the band holds next to nothing."""
    rng = np.random.default_rng(12)
    data = rng.normal(size=(500, 8))
    queries = data[:6] + rng.normal(size=(6, 8)) * 0.05
    for offset, many in ((0.0, False), (1e8, True)):
        params = PMLSHParams(num_pivots=0, radius_shrink=shrink)
        index = PMLSH(params=params, seed=4).fit(data + offset)
        before = index.metrics.total("candidates_rescored")
        got = index.run(queries + offset, Knn(5))
        # The registry counter is the same count, unlabeled, in total.
        assert index.metrics.total("candidates_rescored") - before == pytest.approx(
            got.stats["rescored"] * queries.shape[0]
        )
        want = recursive_probe.knn(index, queries + offset, Knn(5))
        assert got.ids.tobytes() == want.ids.tobytes()
        assert got.distances.tobytes() == want.distances.tobytes()
        assert got.per_query_stats == want.per_query_stats
        if many:
            assert got.stats["rescored"] >= got.stats["candidates"]
        else:
            assert got.stats["rescored"] <= 1.0


# ----------------------------------------------------------------------
# Both sides of the per-pair / dense-pass choice
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def capped_tree():
    """A 3 000-point tree with a duplicate block (distance ties at the
    budget cut) and a tombstoned id range that kills whole leaves."""
    rng = np.random.default_rng(5)
    points = rng.normal(size=(3000, 6))
    points[100:140] = points[100]  # 40 exact duplicates
    tree = PMTree.build(points, num_pivots=3, capacity=16, seed=4)
    flat = tree.flatten()
    dead = np.arange(200, 420, dtype=np.int64)
    flat.set_tombstones(dead)
    queries = np.vstack([points[100][None, :], points[:31] + 0.05])  # 32 rows
    return tree, flat, set(dead.tolist()), queries


def _oracle_capped(tree, dead, query, radius, limit):
    """The pointer tree's closest-``limit`` live set inside the ball."""
    expected = tree.range_query(query, radius, limit=limit, exclude=dead)
    return sorted((dist, pid) for pid, dist in expected)


@pytest.mark.parametrize("rows", [1, 32], ids=["one-row", "32-row"])
def test_capped_batch_range_matches_pointer_tree(capped_tree, rows, monkeypatch):
    tree, flat, dead, queries = capped_tree
    # Pinned to the per-pair side of the leaf-level choice (the dense
    # side: next test).
    monkeypatch.setattr(flat_module, "_DENSE_COVERAGE", math.inf)
    block = queries[:rows]
    radius, limit = 2.5, 25
    lims, ids, dists, stats = flat.batch_range(
        block, radius, limits=np.full(rows, limit, dtype=np.int64)
    )
    for i, query in enumerate(block):
        expected = _oracle_capped(tree, dead, query, radius, limit)
        got = list(zip(dists[lims[i] : lims[i + 1]], ids[lims[i] : lims[i + 1]]))
        assert got == expected  # same floats, same ids, same tie order
        assert not dead & set(ids[lims[i] : lims[i + 1]].tolist())
    # Row 0 sits on the duplicate block: the cut keeps the smallest ids.
    np.testing.assert_array_equal(ids[: lims[1]][:25], np.arange(100, 125))
    # The cap is applied after the ball is computed: the work counters
    # equal the uncapped traversal's (and so the pointer tree's —
    # tests/pmtree/test_flatten.py).
    full_ball = flat.batch_range(block, radius)[3]
    np.testing.assert_array_equal(stats.dist_comps, full_ball.dist_comps)


@pytest.mark.parametrize("rows", [1, 32], ids=["one-row", "32-row"])
def test_capped_dense_pass_matches_pointer_tree(capped_tree, rows, monkeypatch):
    """The other side of the leaf-level choice: same answers, and every
    live member of the streamed slot range charged once per query."""
    tree, flat, dead, queries = capped_tree
    monkeypatch.setattr(flat_module, "_DENSE_COVERAGE", 0.0)
    charged = []
    real_dense = flat_module.FlatPMTree._dense_leaves

    def spying_dense(self, queries, radius, lower, limits, rows_q, lo, hi, dist_comps, *rest):
        before = dist_comps.copy()
        real_dense(self, queries, radius, lower, limits, rows_q, lo, hi, dist_comps, *rest)
        charged.append((rows_q, int(self.leaf_alive[lo:hi].sum()), dist_comps - before))

    monkeypatch.setattr(flat_module.FlatPMTree, "_dense_leaves", spying_dense)
    block = queries[:rows]
    radius, limit = 2.5, 25
    lims, ids, dists, _ = flat.batch_range(
        block, radius, limits=np.full(rows, limit, dtype=np.int64)
    )
    for i, query in enumerate(block):
        expected = _oracle_capped(tree, dead, query, radius, limit)
        got = list(zip(dists[lims[i] : lims[i + 1]], ids[lims[i] : lims[i + 1]]))
        assert got == expected
    np.testing.assert_array_equal(ids[: lims[1]][:25], np.arange(100, 125))
    (rows_q, live, delta), = charged
    assert 0 < live <= flat.num_live
    np.testing.assert_array_equal(delta[rows_q], live)
    assert int(delta.sum()) == live * rows_q.size
