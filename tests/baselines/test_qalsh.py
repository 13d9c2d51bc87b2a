"""Tests for QALSH: parameter derivation, query quality."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.baselines.exact import ExactKNN
from repro.baselines.qalsh import (
    QALSH,
    collision_probabilities,
    derive_parameters,
    optimal_bucket_width,
)


class TestParameterDerivation:
    def test_optimal_width_formula(self):
        c = 1.5
        expected = math.sqrt(8 * c * c * math.log(c) / (c * c - 1))
        assert optimal_bucket_width(c) == pytest.approx(expected)

    def test_width_rejects_c(self):
        with pytest.raises(ValueError):
            optimal_bucket_width(1.0)

    def test_probabilities_ordered(self):
        w = optimal_bucket_width(2.0)
        p1, p2 = collision_probabilities(w, 2.0)
        assert 0 < p2 < p1 < 1

    def test_m_grows_with_n(self):
        m_small, _, _ = derive_parameters(1_000, 1.5, delta=1 / math.e, beta=100 / 1_000)
        m_large, _, _ = derive_parameters(100_000, 1.5, delta=1 / math.e, beta=100 / 100_000)
        assert m_large > m_small

    def test_alpha_between_p2_p1(self):
        n, c = 10_000, 1.5
        m, alpha, w = derive_parameters(n, c, delta=1 / math.e, beta=100 / n)
        p1, p2 = collision_probabilities(w, c)
        assert p2 < alpha < p1

    def test_invalid(self):
        with pytest.raises(ValueError):
            derive_parameters(0, 1.5, 0.5, 0.1)
        with pytest.raises(ValueError):
            derive_parameters(10, 1.5, 0.0, 0.1)


class TestQALSHIndex:
    @pytest.fixture(scope="class")
    def data(self, small_clustered):
        return small_clustered[:400]

    @pytest.fixture(scope="class")
    def index(self, data):
        return QALSH(c=1.5, seed=0).fit(data)

    def test_returns_k_sorted(self, index, data):
        result = index.query(data[0] + 0.01, k=10)
        assert len(result) == 10
        assert np.all(np.diff(result.distances) >= -1e-12)

    def test_high_recall(self, index, data):
        exact = ExactKNN().fit(data)
        rng = np.random.default_rng(1)
        hits = total = 0
        for _ in range(10):
            q = data[rng.integers(0, index.n)] + 0.01
            got = set(index.query(q, 10).ids.tolist())
            truth = set(exact.query(q, 10).ids.tolist())
            hits += len(got & truth)
            total += 10
        assert hits / total > 0.8

    def test_collision_threshold_positive(self, index):
        assert index.collision_threshold >= 1
        assert index.collision_threshold <= index.m

    def test_stats(self, index, data):
        result = index.query(data[2], k=3)
        assert result.stats["m"] == index.m
        assert result.stats["candidates"] >= 3

    def test_invalid_params(self, data):
        with pytest.raises(ValueError):
            QALSH(c=1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [{"delta": 0.0}, {"delta": 1.0}, {"delta": 1.5}, {"false_positive_base": 0}],
    )
    def test_rejects_bad_delta_and_beta_at_construction(self, kwargs):
        with pytest.raises(ValueError):
            QALSH(**kwargs)
