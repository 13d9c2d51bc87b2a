"""End-to-end byte-identity: whole-index results, product vs oracle.

The differential harness pins each kernel in isolation; these tests pin
the composition — a full PM-LSH index (flat-tree traversal, Eq. 5
pruning, budget cut, verification) answering kNN / range / closest-pair
queries must return byte-identical ids, distances and result stats with
the reference kernels swapped onto the kernel set, including after
deletes that fully tombstone leaves and under the sampled hash family.

The second half pins the one choice the traversal makes from its input:
a capped ``batch_range`` scores its leaf level pair by pair or as one
dense pass over the reached slot range.  Both sides must return the
pointer tree's capped set — with tombstones and planted distance ties —
and charge ``dist_comps`` for what they scored.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import repro.pmtree.flat as flat_module
from repro import PMLSH, PMLSHParams
from repro.pmtree.tree import PMTree
from tests.oracles import reference_kernels


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
