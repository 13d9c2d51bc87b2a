"""Flat traversal vs the recursive oracle: byte-identical query answers.

``PMLSH`` answers every query type through the flattened
structure-of-arrays traversal; ``tests/oracles/recursive_probe.py``
answers the same queries by per-query pointer-tree walks.  Every query
type — the kNN adaptive-radius loop, the (r, c)-ball range probe, the
closest-pair self-join — must agree byte for byte, including per-query
stats, runtime-knob overrides, and after dynamic growth.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import PMLSH, PMLSHParams, ShardedIndex
from repro.datasets.synthetic import gaussian_mixture
from repro.queries import Knn, Range
from tests.oracles import recursive_probe


@pytest.fixture(scope="module")
def dataset():
    return gaussian_mixture(900, 32, num_clusters=12, cluster_std=0.7, seed=2)


@pytest.fixture(scope="module")
def index(dataset):
    return PMLSH(params=PMLSHParams(node_capacity=32), seed=3).fit(dataset)


def _assert_batches_identical(a, b):
    np.testing.assert_array_equal(a.ids, b.ids)
    np.testing.assert_array_equal(a.distances, b.distances)
    assert a.per_query_stats == b.per_query_stats


class TestKnnEquivalence:
    def test_search_identical(self, index, dataset):
        queries = dataset[:40] + 0.01
        _assert_batches_identical(
            index.search(queries, 10), recursive_probe.knn(index, queries, 10)
        )

    def test_search_matches_query_loop(self, index, dataset):
        queries = dataset[:12] + 0.01
        batch = index.search(queries, 7)
        for i, q in enumerate(queries):
            single = index.query(q, 7)
            valid = batch.ids[i] >= 0
            np.testing.assert_array_equal(batch.ids[i][valid], single.ids)
            np.testing.assert_array_equal(batch.distances[i][valid], single.distances)
            assert batch.per_query_stats[i] == single.stats

    def test_knob_overrides_identical(self, index, dataset):
        queries = dataset[:15] + 0.01
        for spec in (Knn(k=5, budget=30), Knn(k=5, c=2.5), Knn(k=8, budget=2000)):
            _assert_batches_identical(
                index.run(queries, spec), recursive_probe.knn(index, queries, spec)
            )

    def test_capped_fetch_ties_resolve_canonically(self, dataset):
        """Duplicates straddling a budget cut pick the smallest ids in the
        product AND the oracle — the canonical (distance, id) boundary rule."""
        data = np.vstack([dataset[:300], np.repeat(dataset[:1], 40, axis=0)])
        spec = Knn(k=5, budget=10)
        index = PMLSH(params=PMLSHParams(node_capacity=32), seed=11).fit(data)
        flat_result = index.run(dataset[:1], spec)
        recursive_result = recursive_probe.knn(index, dataset[:1], spec)
        np.testing.assert_array_equal(flat_result.ids, recursive_result.ids)
        np.testing.assert_array_equal(
            flat_result.distances, recursive_result.distances
        )
        # 41 tied candidates (id 0 + the 40 copies) at projected distance 0;
        # the budget cut keeps the smallest ids, the answer the 5 smallest.
        np.testing.assert_array_equal(flat_result.ids[0], [0, 300, 301, 302, 303])
        np.testing.assert_array_equal(flat_result.distances[0], np.zeros(5))

    def test_capped_fetch_ties_at_a_wider_projection(self, dataset):
        """The same duplicates at m = 24.  Once the budget holds only
        copies, the oracle's admission radius is 0, and its Eq. 5 filters
        compare separately rounded distances; without their ulp slack they
        dropped the copies there and returned [319 … 323]."""
        data = np.vstack([dataset[:300], np.repeat(dataset[:1], 40, axis=0)])
        spec = Knn(k=5, budget=10)
        index = PMLSH(params=PMLSHParams(m=24, node_capacity=32), seed=11).fit(data)
        flat_result = index.run(dataset[:1], spec)
        recursive_result = recursive_probe.knn(index, dataset[:1], spec)
        np.testing.assert_array_equal(flat_result.ids, recursive_result.ids)
        np.testing.assert_array_equal(flat_result.ids[0], [0, 300, 301, 302, 303])

    def test_tree_work_reported_in_batch_stats(self, index, dataset):
        batch = index.search(dataset[:10] + 0.01, 5)
        assert batch.stats["tree_nodes"] > 0
        assert batch.stats["tree_dist_comps"] > 0
        assert batch.stats["tree_levels"] >= 1
        # One per-level counter per tree depth, summing to the node total.
        levels = int(batch.stats["tree_levels"])
        per_level = [batch.stats[f"tree_visits_l{d}"] for d in range(levels)]
        assert sum(per_level) == pytest.approx(batch.stats["tree_nodes"])


class TestRangeEquivalence:
    def test_range_identical(self, index, dataset):
        queries = dataset[:25] + 0.01
        radius = float(np.quantile(index.distance_distribution.samples, 0.03))
        a = index.range_search(queries, radius)
        b = recursive_probe.range_search(index, queries, Range(r=radius))
        np.testing.assert_array_equal(a.lims, b.lims)
        np.testing.assert_array_equal(a.ids, b.ids)
        np.testing.assert_array_equal(a.distances, b.distances)
        assert a.per_query_stats == b.per_query_stats
        assert a.stats["tree_nodes"] > 0

    def test_range_knob_overrides_identical(self, index, dataset):
        queries = dataset[:10] + 0.01
        radius = float(np.quantile(index.distance_distribution.samples, 0.03))
        for spec in (Range(r=radius, budget=40), Range(r=radius, c=2.0)):
            a = index.run(queries, spec)
            b = recursive_probe.range_search(index, queries, spec)
            np.testing.assert_array_equal(a.lims, b.lims)
            np.testing.assert_array_equal(a.ids, b.ids)
            np.testing.assert_array_equal(a.distances, b.distances)


class TestClosestPairEquivalence:
    def test_closest_pairs_identical(self, index):
        a = index.closest_pairs(12)
        b = recursive_probe.closest_pairs(index, 12)
        np.testing.assert_array_equal(a.pairs, b.pairs)
        np.testing.assert_array_equal(a.distances, b.distances)
        assert a.stats["tree_nodes"] > 0

    def test_tree_work_is_the_sum_of_the_traversals_it_ran(self, dataset, monkeypatch):
        """CP publishes what ``batch_knn`` handed back, block by block —
        nothing read off the shared flat tree, which a concurrent search
        could write between two reads."""
        index = PMLSH(params=PMLSHParams(node_capacity=32), seed=3).fit(dataset)
        monkeypatch.setattr(index, "_flat_query_block", lambda: 128)  # several blocks
        flat, handed_back = index.flat_tree, []
        real = flat.batch_knn

        def spy(queries, k):
            ids, dists, work = real(queries, k)
            handed_back.append(work)
            return ids, dists, work

        monkeypatch.setattr(flat, "batch_knn", spy)
        result = index.closest_pairs(12)
        assert len(handed_back) == -(-index.nlive // 128)
        nodes = sum(int(work.nodes.sum()) for work in handed_back)
        dist_comps = sum(int(work.dist_comps.sum()) for work in handed_back)
        assert nodes > 0 and dist_comps > 0
        assert result.stats["tree_nodes"] == nodes / index.nlive
        assert result.stats["tree_dist_comps"] == dist_comps / index.nlive
        assert not hasattr(flat, "node_accesses")  # a query writes nothing on it

    def test_planted_duplicates_recovered(self, dataset):
        data = np.vstack([dataset, dataset[:6]])  # six distance-0 pairs
        index = PMLSH(params=PMLSHParams(node_capacity=32), seed=5).fit(data)
        result = index.closest_pairs(6)
        np.testing.assert_array_equal(result.distances, np.zeros(6))
        expected = np.column_stack(
            [np.arange(6), dataset.shape[0] + np.arange(6)]
        )
        np.testing.assert_array_equal(result.pairs, expected)


class TestDynamicGrowth:
    def test_add_extends_the_snapshot_and_stays_identical(self, dataset):
        index = PMLSH(params=PMLSHParams(node_capacity=32), seed=7).fit(dataset[:700])
        queries = dataset[:20] + 0.01
        _assert_batches_identical(
            index.search(queries, 6), recursive_probe.knn(index, queries, 6)
        )
        snapshot = index.flat_tree
        index.add(dataset[700:])
        assert index.flat_tree is snapshot  # grown in place, never re-flattened
        assert len(index.flat_tree) == dataset.shape[0]
        _assert_batches_identical(
            index.search(queries, 6), recursive_probe.knn(index, queries, 6)
        )


class TestShardedTreeStats:
    def test_engine_surfaces_tree_work_per_shard(self, dataset):
        engine = ShardedIndex(backend="pm-lsh", num_shards=3, num_workers=1, seed=1)
        engine.fit(dataset)
        engine.search(dataset[:8] + 0.01, 5)
        stats = engine.stats()
        assert all(stats[f'engine_shard_tree_nodes{{shard="{s}"}}'] > 0 for s in range(3))
        assert 'engine_shard_tree_nodes{shard="2"}' in stats.as_table()

    def test_exact_backend_reports_nan(self, dataset):
        engine = ShardedIndex(backend="exact", num_shards=2, num_workers=1)
        engine.fit(dataset[:100])
        engine.search(dataset[:4], 3)
        stats = engine.stats()
        assert all(np.isnan(stats[f'engine_shard_tree_nodes{{shard="{s}"}}']) for s in range(2))
