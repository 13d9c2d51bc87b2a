"""Tests for the shared ANNIndex interface and QueryResult."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.base import ANNIndex, QueryResult


class TestQueryResult:
    def test_from_pairs_sorts(self):
        result = QueryResult.from_pairs([(3, 2.0), (1, 1.0), (2, 3.0)])
        np.testing.assert_array_equal(result.ids, [1, 3, 2])
        np.testing.assert_array_equal(result.distances, [1.0, 2.0, 3.0])

    def test_from_pairs_breaks_ties_by_id(self):
        """Tied distances order by id — the same (distance, id) key the
        sharded engine's merge uses, so single-index and merged results
        agree on ties."""
        result = QueryResult.from_pairs([(9, 1.0), (2, 1.0), (5, 0.5), (7, 1.0)])
        np.testing.assert_array_equal(result.ids, [5, 2, 7, 9])
        np.testing.assert_array_equal(result.distances, [0.5, 1.0, 1.0, 1.0])

    def test_len(self):
        result = QueryResult(ids=np.array([1, 2]), distances=np.array([0.1, 0.2]))
        assert len(result) == 2

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            QueryResult(ids=np.array([1, 2]), distances=np.array([0.1]))

    def test_stats_default(self):
        result = QueryResult.from_pairs([(1, 1.0)])
        assert result.stats == {}


class _Dummy(ANNIndex):
    name = "Dummy"

    def _fit(self):
        pass

    def _query_one(self, q, k):
        dists = np.linalg.norm(self.data - q, axis=1)
        order = np.argsort(dists)[:k]
        return QueryResult(ids=order, distances=dists[order])


class TestANNIndex:
    def test_properties(self, tiny_uniform):
        index = _Dummy().fit(tiny_uniform)
        assert index.n == tiny_uniform.shape[0]
        assert index.d == tiny_uniform.shape[1]
        assert index.is_built

    def test_unfitted_index_has_no_shape(self):
        index = _Dummy()
        assert not index.is_built
        with pytest.raises(RuntimeError):
            index.n

    def test_rejects_bad_data(self):
        with pytest.raises(ValueError):
            _Dummy().fit(np.zeros(5))
        with pytest.raises(ValueError):
            _Dummy().fit(np.empty((0, 3)))

    def test_require_built(self):
        index = _Dummy()
        with pytest.raises(RuntimeError):
            index._require_built()

    def test_validate_query(self, tiny_uniform):
        index = _Dummy().fit(tiny_uniform)
        with pytest.raises(ValueError):
            index.query(np.zeros(tiny_uniform.shape[1] + 1), 1)
        with pytest.raises(ValueError):
            index.query(tiny_uniform[0], 0)

    def test_legacy_shims_removed(self, tiny_uniform):
        with pytest.raises(TypeError):
            _Dummy(tiny_uniform)
        index = _Dummy().fit(tiny_uniform)
        with pytest.raises(AttributeError):
            index.build()

    def test_default_search_matches_query(self, tiny_uniform):
        index = _Dummy().fit(tiny_uniform)
        queries = tiny_uniform[:6] + 0.001
        batch = index.search(queries, k=4)
        for i, q in enumerate(queries):
            np.testing.assert_array_equal(batch.ids[i], index.query(q, 4).ids)

    def test_default_add_refits(self, tiny_uniform):
        index = _Dummy().fit(tiny_uniform[:150])
        new_ids = index.add(tiny_uniform[150:])
        assert list(new_ids) == list(range(150, tiny_uniform.shape[0]))
        assert index.n == tiny_uniform.shape[0]
        hit = index.query(tiny_uniform[160], k=1)
        assert int(hit.ids[0]) == 160
