"""Tests for C2LSH (dynamic collision counting)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.baselines.c2lsh import C2LSH, derive_parameters
from repro.baselines.exact import ExactKNN
from repro.core.hashing import collision_probability


class TestParameterDerivation:
    def test_alpha_between_probabilities(self):
        n, c, w = 10_000, 1.5, 1.0
        m, alpha = derive_parameters(n, c, w, delta=1 / math.e, beta=100 / n)
        p1 = collision_probability(1.0, w)
        p2 = collision_probability(c, w)
        assert p2 < alpha < p1
        assert m >= 1

    def test_m_grows_with_n(self):
        m_small, _ = derive_parameters(1_000, 1.5, 1.0, 1 / math.e, 100 / 1_000)
        m_large, _ = derive_parameters(100_000, 1.5, 1.0, 1 / math.e, 100 / 100_000)
        assert m_large > m_small

    def test_invalid(self):
        with pytest.raises(ValueError):
            derive_parameters(0, 1.5, 1.0, 0.5, 0.1)
        with pytest.raises(ValueError):
            derive_parameters(10, 1.0, 1.0, 0.5, 0.1)


class TestC2LSHIndex:
    @pytest.fixture(scope="class")
    def data(self, small_clustered):
        return small_clustered[:400]

    @pytest.fixture(scope="class")
    def index(self, data):
        return C2LSH(c=1.5, seed=0).fit(data)

    def test_returns_k_sorted(self, index, data):
        result = index.query(data[0] + 0.01, k=10)
        assert len(result) == 10
        assert np.all(np.diff(result.distances) >= -1e-12)

    def test_recall_floor(self, index, data):
        exact = ExactKNN().fit(data)
        rng = np.random.default_rng(1)
        hits = total = 0
        for _ in range(10):
            q = data[rng.integers(0, index.n)] + 0.01
            got = set(index.query(q, 10).ids.tolist())
            truth = set(exact.query(q, 10).ids.tolist())
            hits += len(got & truth)
            total += 10
        assert hits / total > 0.7

    def test_threshold_in_range(self, index):
        assert 1 <= index.collision_threshold <= index.m

    def test_stats_populated(self, index, data):
        result = index.query(data[3], k=5)
        assert result.stats["rounds"] >= 1
        assert result.stats["candidates"] >= 5

    def test_deterministic(self, data):
        a = C2LSH(seed=9).fit(data).query(data[0], 5)
        b = C2LSH(seed=9).fit(data).query(data[0], 5)
        np.testing.assert_array_equal(a.ids, b.ids)

    def test_invalid_params(self, data):
        with pytest.raises(ValueError):
            C2LSH(c=1.0)
        with pytest.raises(ValueError):
            C2LSH(w=0.0)

    @pytest.mark.parametrize(
        "kwargs",
        [{"delta": 0.0}, {"delta": 1.0}, {"delta": 1.5}, {"false_positive_base": 0}],
    )
    def test_rejects_bad_delta_and_beta_at_construction(self, kwargs):
        with pytest.raises(ValueError):
            C2LSH(**kwargs)

    def test_bucket_alignment_differs_from_query_centering(self, index, data):
        """C2LSH's cells are grid-aligned: the query need not be centred in
        its own cell (the 'bucket-to-bucket' granularity weakness)."""
        q = data[0]
        query_shifted = (index._query_directions @ q) + index._offsets
        cell = index._unit_width
        # Position of the query inside its cell, per hash function.
        within = query_shifted - np.floor(query_shifted / cell) * cell
        assert within.min() >= 0.0
        assert within.max() <= cell
        # Some hash functions leave the query visibly off-centre.
        assert np.abs(within / cell - 0.5).max() > 0.2
