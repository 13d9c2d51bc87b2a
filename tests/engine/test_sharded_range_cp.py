"""Sharded range / closest-pair equivalence with the single-index path.

With exact shards every stage of the distributed pipeline is exact, so
the merged answers must be **byte-identical** to one exact index over the
full dataset — including under exact distance ties (duplicate points),
which the deterministic ``(distance, id)`` / ``(distance, i, j)``
orderings resolve identically on both paths.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import ExactKNN, ShardedIndex, create_index
from repro.engine.merge import merge_shard_range_results
from repro.queries import RangeResult

RADIUS = 5.0


@pytest.fixture(scope="module")
def data(small_clustered):
    return small_clustered[:500]


@pytest.fixture(scope="module")
def tied_data(small_clustered):
    """A dataset with planted exact duplicates: tied distances everywhere.

    Rows 0..49 are repeated three times, so every query sits at exactly
    the same distance from three distinct ids, and zero-distance pairs
    abound for closest-pair search.
    """
    base = small_clustered[:200]
    return np.vstack([base, base[:50], base[:50]])


@pytest.fixture(scope="module")
def single(data):
    return ExactKNN().fit(data)


def make_engine(num_shards, num_workers, backend="exact"):
    return create_index(
        "sharded", backend=backend, num_shards=num_shards, num_workers=num_workers
    )


class TestShardedRangeEquivalence:
    @pytest.mark.parametrize("num_shards,num_workers", [(2, 1), (3, 2), (5, 4)])
    def test_byte_identical_to_single_exact(
        self, data, single, num_shards, num_workers
    ):
        queries = data[:12] + 0.01
        truth = single.range_search(queries, RADIUS)
        engine = make_engine(num_shards, num_workers).fit(data)
        merged = engine.range_search(queries, RADIUS)
        np.testing.assert_array_equal(merged.lims, truth.lims)
        np.testing.assert_array_equal(merged.ids, truth.ids)
        np.testing.assert_array_equal(merged.distances, truth.distances)
        engine.close()

    def test_tied_distances_order_identically(self, tied_data):
        single = ExactKNN().fit(tied_data)
        engine = make_engine(3, 2).fit(tied_data)
        queries = tied_data[:8]  # duplicated rows: exact ties at distance 0
        truth = single.range_search(queries, RADIUS)
        merged = engine.range_search(queries, RADIUS)
        np.testing.assert_array_equal(merged.lims, truth.lims)
        np.testing.assert_array_equal(merged.ids, truth.ids)
        np.testing.assert_array_equal(merged.distances, truth.distances)
        engine.close()

    def test_range_after_add(self, data, single):
        engine = make_engine(3, 1).fit(data[:400])
        engine.add(data[400:])
        queries = data[:6] + 0.01
        truth = single.range_search(queries, RADIUS)
        merged = engine.range_search(queries, RADIUS)
        np.testing.assert_array_equal(merged.ids, truth.ids)
        np.testing.assert_array_equal(merged.distances, truth.distances)
        engine.close()

    def test_stats_counters(self, data):
        engine = make_engine(2, 1).fit(data)
        engine.range_search(data[:5] + 0.01, RADIUS)
        stats = engine.stats()
        assert stats.engine_range_queries_served == 5
        assert stats.engine_queries_served == 5
        engine.close()


class TestShardedClosestPairEquivalence:
    @pytest.mark.parametrize("num_shards,num_workers", [(2, 1), (3, 2), (4, 4)])
    def test_byte_identical_to_single_exact(
        self, data, single, num_shards, num_workers
    ):
        truth = single.closest_pairs(8)
        engine = make_engine(num_shards, num_workers).fit(data)
        merged = engine.closest_pairs(8)
        np.testing.assert_array_equal(merged.pairs, truth.pairs)
        np.testing.assert_array_equal(merged.distances, truth.distances)
        engine.close()

    def test_tied_zero_distance_pairs(self, tied_data):
        """Duplicate triples create zero-distance pairs whose members live
        on different shards; the cross-shard sweep must recover them and
        order the ties by (i, j) exactly like the single index."""
        single = ExactKNN().fit(tied_data)
        truth = single.closest_pairs(20)
        assert float(truth.distances[0]) == 0.0  # the planting worked
        engine = make_engine(3, 2).fit(tied_data)
        merged = engine.closest_pairs(20)
        np.testing.assert_array_equal(merged.pairs, truth.pairs)
        np.testing.assert_array_equal(merged.distances, truth.distances)
        engine.close()

    def test_fallback_when_shards_too_small(self, data):
        """More shards than intra pairs per shard: the engine's exact
        global fallback still answers correctly."""
        tiny = data[:8]
        single = ExactKNN().fit(tiny)
        engine = make_engine(4, 1).fit(tiny)
        truth = single.closest_pairs(20)
        merged = engine.closest_pairs(20)
        np.testing.assert_array_equal(merged.pairs, truth.pairs)
        np.testing.assert_array_equal(merged.distances, truth.distances)
        engine.close()

    def test_cp_counter(self, data):
        engine = make_engine(2, 1).fit(data)
        engine.closest_pairs(3)
        assert engine.stats().engine_closest_pair_calls == 1
        engine.close()


class TestShardedPMLSHRangeCP:
    """With LSH shards the engine inherits the approximate guarantees."""

    def test_pmlsh_sharded_range_recall(self, data, single):
        from repro.evaluation.metrics import range_recall

        engine = ShardedIndex(
            backend="pm-lsh", num_shards=3, num_workers=2, seed=5
        ).fit(data)
        queries = data[:10] + 0.01
        truth = single.range_search(queries, RADIUS)
        merged = engine.range_search(queries, RADIUS)
        recalls = [
            range_recall(merged[i].ids, truth[i].ids) for i in range(len(truth))
        ]
        assert float(np.mean(recalls)) >= 0.9
        # nothing beyond the c·r slack
        assert all(
            np.all(merged[i].distances <= 1.5 * RADIUS + 1e-9)
            for i in range(len(merged))
        )
        engine.close()

    def test_pmlsh_sharded_cp_quality(self, data, single):
        truth = single.closest_pairs(5)
        engine = ShardedIndex(
            backend="pm-lsh", num_shards=3, num_workers=2, seed=5
        ).fit(data)
        merged = engine.closest_pairs(5)
        ratios = merged.distances / truth.distances
        assert np.all(ratios >= 1.0 - 1e-12)
        assert float(np.mean(ratios)) <= 1.3
        engine.close()


class TestRangeMergeUnit:
    def test_merge_reorders_by_distance_then_gid(self):
        shard_a = RangeResult(
            lims=np.array([0, 2]),
            ids=np.array([0, 1]),          # local ids
            distances=np.array([0.5, 0.2]),
        )
        shard_b = RangeResult(
            lims=np.array([0, 2]),
            ids=np.array([0, 1]),
            distances=np.array([0.2, 0.4]),
        )
        merged = merge_shard_range_results(
            [shard_a, shard_b],
            [np.array([0, 2]), np.array([1, 3])],
        )
        np.testing.assert_array_equal(merged.lims, [0, 4])
        # distances 0.2 (gid 2), 0.2 (gid 1) tie -> gid order; then 0.4, 0.5
        np.testing.assert_array_equal(merged.ids, [1, 2, 3, 0])
        np.testing.assert_array_equal(merged.distances, [0.2, 0.2, 0.4, 0.5])

    def test_mismatched_query_counts_rejected(self):
        one = RangeResult(
            lims=np.array([0, 1]), ids=np.array([0]), distances=np.array([0.1])
        )
        two = RangeResult(
            lims=np.array([0, 0, 0]),
            ids=np.empty(0, dtype=np.int64),
            distances=np.empty(0),
        )
        with pytest.raises(ValueError):
            merge_shard_range_results([one, two], [np.array([0]), np.array([1])])

    def test_empty_shard_list_rejected(self):
        with pytest.raises(ValueError):
            merge_shard_range_results([], [])


class TestKnnBoundaryTies:
    def test_exact_knn_matches_sharded_when_ties_straddle_k(self):
        """Regression: argpartition used to pick an arbitrary subset of
        points tied at the k-th distance, so single-exact and sharded-exact
        could disagree on which tied ids made the cut."""
        # 8 points at distance 1 from the origin-query, 42 tied at 2.
        d = 6
        close = np.zeros((8, d))
        close[:, 0] = 1.0
        far = np.zeros((42, d))
        far[:, 1] = 2.0
        data = np.vstack([close, far])
        q = np.zeros((1, d))
        single = ExactKNN().fit(data).search(q, 10)
        engine = make_engine(3, 2).fit(data)
        merged = engine.search(q, 10)
        np.testing.assert_array_equal(single.ids, merged.ids)
        np.testing.assert_array_equal(single.distances, merged.distances)
        # the deterministic cut: the two tied slots go to the SMALLEST ids
        np.testing.assert_array_equal(np.sort(single.ids[0][:8]), np.arange(8))
        np.testing.assert_array_equal(single.ids[0][8:], [8, 9])
        engine.close()
