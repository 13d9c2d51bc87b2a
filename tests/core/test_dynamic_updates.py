"""Tests for dynamic updates: ``PMLSH.add`` appends to the flat tree's
unindexed tail and folds it by a bulk build — it never inserts.

How a row reached the index cannot change an answer (candidate sets are
defined by projected distances alone), so the contract is *identity*:
``fit(A).add(B)`` answers with the bytes of the same index after its
tail is folded, and of a pointer tree bulk-built over A∪B with the same
pivots (``tests/oracles/recursive_probe.py``).
"""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest

from repro import kernels
from repro.core import pmlsh as pmlsh_module
from repro.core.params import PMLSHParams
from repro.core.pmlsh import PMLSH
from repro.pmtree.flat import FlatPMTree
from repro.pmtree.tree import PMTree
from repro.queries import Knn, Range
from tests.oracles import exact_fallbacks, recursive_probe
from tests.oracles.invariants import check_invariants

SPLIT = 500  # rows fitted; the rest arrive through add()


def _grown(data, *, fold, dead=(), **params):
    """``fit(data[:SPLIT])``, deletes, ``add(rest)`` in two calls, more
    deletes — with the tail kept (``fold=False``) or folded at each add."""
    index = PMLSH(params=PMLSHParams(node_capacity=16, **params), seed=3).fit(data[:SPLIT])
    dead = np.asarray(dead, dtype=np.int64)
    index.delete(dead[dead < SPLIT])
    with mock.patch.object(pmlsh_module, "_TAIL_FOLD_RATIO", 0.0 if fold else math.inf):
        index.add(data[SPLIT : SPLIT + 100])
        index.add(data[SPLIT + 100 :])
    index.delete(dead[dead >= SPLIT])
    assert index.flat_tree.leaf_ids.size == (data.shape[0] if fold else SPLIT)
    return index


def _assert_same_bytes(got, want, fields, stat="candidates"):
    for field in fields:
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field
    assert [s[stat] for s in got.per_query_stats] == [s[stat] for s in want.per_query_stats]


#: no deletes / dead rows among the fitted rows and in both add() blocks
#: (705 is a planted duplicate of 31: a distance-0 tie across tree and tail)
DEAD = [(), (3, 31, 77, 499, 500, 555, 640, 799)]


@pytest.fixture(scope="module")
def grown_data(small_clustered):
    data = small_clustered.copy()
    data[705] = data[31]
    return data


@pytest.fixture(scope="module", params=DEAD, ids=["no deletes", "dead in tree and tail"])
def trio(request, grown_data):
    """(index with a 300-row tail, the same index folded, queries)."""
    queries = np.vstack([grown_data[31:32], grown_data[[5, 520, 700]] * 1.01])
    return (
        _grown(grown_data, fold=False, dead=request.param),
        _grown(grown_data, fold=True, dead=request.param),
        queries,
    )


class TestTailIdentity:
    """tail == folded == bulk-built oracle, for every query type."""

    def test_knn_dense_route(self, trio):
        tail, folded, queries = trio
        kernels.reset_kernel_calls()
        got = tail.run(queries, Knn(10))
        assert kernels.kernel_calls().get(("fast", "leaf_prune"), 0) == 0  # dense
        _assert_same_bytes(got, folded.run(queries, Knn(10)), ("ids", "distances"))
        _assert_same_bytes(got, recursive_probe.knn(tail, queries, 10), ("ids", "distances"))

    def test_range_small_ball(self, trio):
        """A range query: the tail's rows answer beside the leaves'."""
        tail, folded, queries = trio
        spec = Range(r=4.0)
        got = tail.run(queries, spec)
        assert np.diff(got.lims).min() >= 5
        fields = ("lims", "ids", "distances")
        _assert_same_bytes(got, folded.run(queries, spec), fields)
        _assert_same_bytes(got, recursive_probe.range_search(tail, queries, spec), fields)

    def test_multi_round_annulus(self, grown_data, trio):
        """A tiny r_min: several radius-enlarging rounds, each fetching the
        fresh annulus (``lower``) under the budget left (``limits``)."""
        dead = trio[0].tombstones.ids()
        tail = _grown(grown_data, fold=False, dead=dead, radius_shrink=0.02)
        folded = _grown(grown_data, fold=True, dead=dead, radius_shrink=0.02)
        queries = trio[2]
        got = tail.run(queries, Knn(10))
        assert min(s["rounds"] for s in got.per_query_stats) >= 3
        want = folded.run(queries, Knn(10))
        _assert_same_bytes(got, want, ("ids", "distances"))
        _assert_same_bytes(got, want, (), stat="final_radius")
        _assert_same_bytes(got, recursive_probe.knn(tail, queries, 10), ("ids", "distances"))

    def test_closest_pairs(self, trio):
        tail, folded, _ = trio
        got, want = tail.closest_pairs(12), folded.closest_pairs(12)
        oracle = exact_fallbacks.closest_pairs_fallback(tail, 12)
        for other in (want, oracle):
            assert got.pairs.tobytes() == other.pairs.tobytes()
            assert got.distances.tobytes() == other.distances.tobytes()
            assert got.stats == other.stats
        if not tail.num_tombstones:
            assert got.pairs[0].tolist() == [31, 705] and got.distances[0] == 0.0

    def test_ball_cover_query(self, trio):
        tail, folded, queries = trio
        tree = recursive_probe.full_tree(tail)
        dead = tail.tombstones.as_set()
        for q in queries:
            for r in (0.5, 2.0, 6.0):
                got = tail.ball_cover_query(q, r)
                assert got == folded.ball_cover_query(q, r)
                fetched = tree.range_query(
                    tail.projection.project(q), tail.solved.t * r,
                    limit=tail.candidate_budget(1), exclude=dead,
                )
                if not fetched:
                    assert got is None
                    continue
                ids = np.asarray([pid for pid, _ in fetched])
                true = np.linalg.norm(tail.data[ids] - q, axis=1)
                hit = len(fetched) >= tail.candidate_budget(1) or true.min() <= tail.params.c * r
                assert (got is not None) == hit
                if hit:
                    assert got[1] == pytest.approx(true.min(), rel=1e-12)


class TestTailBookkeeping:
    """The tail is counted wherever the leaves are."""

    def test_add_keeps_the_snapshot_and_a_valid_pointer_tree(self, small_clustered):
        index = PMLSH(params=PMLSHParams(node_capacity=16), seed=0).fit(small_clustered[:400])
        flat, tree = index.flat_tree, index.tree
        with mock.patch.object(PMTree, "build", side_effect=AssertionError("rebuilt")):
            index.add(small_clustered[400:600])
        assert index.flat_tree is flat and index.tree is tree
        assert (len(flat), flat.leaf_ids.size, len(tree)) == (600, 400, 400)
        check_invariants(tree)
        assert len(FlatPMTree.from_tree(tree)) == 400
        np.testing.assert_array_equal(flat.points, index.projected)

    def test_delete_in_tail(self, small_clustered):
        index = PMLSH(seed=0).fit(small_clustered[:400])
        new_ids = index.add(small_clustered[400:500])
        assert int(index.query(small_clustered[450], k=1).ids[0]) == 450
        index.delete([450, 7])
        assert index.flat_tree.num_live == index.nlive == 498
        assert 450 not in index.search(small_clustered[450:451], 20).ids
        index.add(small_clustered[500:510])  # the dead mask grows with the tail
        assert index.flat_tree.num_live == index.nlive == 508
        got = index.search(small_clustered[440:460], 5)
        assert not np.isin(got.ids, [450, 7]).any()
        assert np.isin(new_ids[[49, 51]], got.ids).all()

    def test_k_equal_to_nlive_with_half_the_points_in_the_tail(self, small_clustered):
        index = PMLSH(seed=0).fit(small_clustered[:60])
        index.add(small_clustered[60:120])  # tail == indexed: not folded
        assert index.flat_tree.leaf_ids.size == 60
        index.delete([10, 100])
        live = index.live_ids()
        got = index.search(small_clustered[:3], index.nlive)
        assert all(sorted(row.tolist()) == live.tolist() for row in got.ids)
        with pytest.raises(ValueError):
            index.search(small_clustered[:3], index.nlive + 1)

    def test_add_of_one_row(self, small_clustered):
        index = PMLSH(seed=0).fit(small_clustered[:300])
        assert index.add(small_clustered[300]).tolist() == [300]
        assert len(index.flat_tree) == 301
        hit = index.query(small_clustered[300], k=1)
        assert (int(hit.ids[0]), float(hit.distances[0])) == (300, 0.0)

    def test_add_crossing_the_fold_threshold_mid_call(self, small_clustered):
        """100 indexed + 60 in the tail; 50 more would make the tail the
        larger part, so the whole call lands in one fresh bulk build."""
        index = PMLSH(params=PMLSHParams(node_capacity=16), seed=0).fit(small_clustered[:100])
        index.add(small_clustered[100:160])
        index.delete([5, 130])
        flat, pivots = index.flat_tree, index.flat_tree.pivots
        assert flat.leaf_ids.size == 100
        assert index.add(small_clustered[160:210]).tolist() == list(range(160, 210))
        folded = index.flat_tree
        assert folded is not flat and folded.leaf_ids.size == len(folded) == 210
        assert folded.num_live == 208
        np.testing.assert_array_equal(folded.pivots, pivots)
        check_invariants(index.tree)
        assert len(index.tree) == 210
        queries = small_clustered[[5, 130, 200]] + 0.01
        got = index.search(queries, 8)
        assert not np.isin(got.ids, [5, 130]).any()
        _assert_same_bytes(got, recursive_probe.knn(index, queries, 8), ("ids", "distances"))

    @pytest.mark.parametrize("rows, failing", [(10, "extend"), (400, "from_tree")])
    def test_failed_add_leaves_the_index_as_it_was(self, small_clustered, rows, failing):
        index = PMLSH(seed=0).fit(small_clustered[:300])
        index.add(small_clustered[300:320])
        queries = small_clustered[:5] + 0.01
        before = (index.data, index.projected, index.flat_tree, index.tree, index.epoch)
        want = index.search(queries, 5)
        with mock.patch.object(FlatPMTree, failing, side_effect=MemoryError("no room")):
            with pytest.raises(MemoryError):
                index.add(small_clustered[320 : 320 + rows])
        after = (index.data, index.projected, index.flat_tree, index.tree, index.epoch)
        assert all(a is b or a == b for a, b in zip(after, before))
        assert len(index.flat_tree) == index.ntotal == 320
        _assert_same_bytes(index.search(queries, 5), want, ("ids", "distances"))


class TestPMLSHAdd:
    def test_add_finds_new_points(self, small_clustered):
        base, extra = small_clustered[:600], small_clustered[600:650]
        index = PMLSH(params=PMLSHParams(node_capacity=32), seed=0).fit(base)
        new_ids = index.add(extra)
        assert index.n == 650
        # A query at a new point returns it first.
        result = index.query(extra[10], k=1)
        assert int(result.ids[0]) == int(new_ids[10])
        assert result.distances[0] == pytest.approx(0.0, abs=1e-9)

    def test_add_preserves_quality(self, small_clustered):
        from repro.baselines.exact import ExactKNN
        from repro.evaluation.metrics import recall

        base, extra = small_clustered[:600], small_clustered[600:]
        index = PMLSH(params=PMLSHParams(node_capacity=32), seed=0).fit(base)
        index.add(extra)
        exact = ExactKNN().fit(small_clustered[:800])
        rng = np.random.default_rng(1)
        recalls = []
        for _ in range(10):
            q = small_clustered[rng.integers(0, 800)] + 0.01
            got = index.query(q, k=10)
            truth = exact.query(q, k=10)
            recalls.append(recall(got.ids, truth.ids))
        assert np.mean(recalls) > 0.85

    def test_add_before_build_rejected(self, small_clustered):
        index = PMLSH(seed=0)
        with pytest.raises(RuntimeError):
            index.add(small_clustered[100:110])

    def test_add_dimension_check(self, small_clustered):
        index = PMLSH(seed=0).fit(small_clustered[:100])
        with pytest.raises(ValueError):
            index.add(np.zeros((2, 3)))

    def test_projected_matrix_stays_consistent(self, small_clustered):
        index = PMLSH(seed=0).fit(small_clustered[:200])
        index.add(small_clustered[200:220])
        expected = index.projection.project(index.data)
        np.testing.assert_allclose(index.projected, expected, rtol=1e-10)


class TestBudgetConsistencyAfterGrowth:
    """Regression tests: n-dependent quantities must track add()."""

    def test_candidate_budget_follows_n(self, small_clustered):
        index = PMLSH(params=PMLSHParams(node_capacity=32), seed=0).fit(
            small_clustered[:500]
        )
        k = 10
        before = index.candidate_budget(k)
        assert before == int(np.ceil(index.solved.beta * 500)) + k
        index.add(small_clustered[500:])
        n = small_clustered.shape[0]
        assert index.n == n
        assert index.candidate_budget(k) == int(np.ceil(index.solved.beta * n)) + k
        assert index.candidate_budget(k) > before

    def test_query_respects_grown_budget(self, small_clustered):
        index = PMLSH(params=PMLSHParams(node_capacity=32), seed=0).fit(
            small_clustered[:500]
        )
        index.add(small_clustered[500:])
        result = index.query(small_clustered[10] + 0.01, k=10)
        assert result.stats["candidates"] <= index.candidate_budget(10)

    def test_batch_search_after_add_matches_loop(self, small_clustered):
        index = PMLSH(params=PMLSHParams(node_capacity=32), seed=0).fit(
            small_clustered[:600]
        )
        index.add(small_clustered[600:])
        queries = small_clustered[:8] + 0.01
        batch = index.search(queries, k=5)
        for i, q in enumerate(queries):
            np.testing.assert_array_equal(batch.ids[i], index.query(q, 5).ids)
