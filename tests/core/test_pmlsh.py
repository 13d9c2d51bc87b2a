"""Tests for the PM-LSH index: Algorithm 1, Algorithm 2, and the public API."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.exact import ExactKNN
from repro.core.params import PMLSHParams
from repro.core.pmlsh import PMLSH
from repro.evaluation.metrics import overall_ratio, recall


@pytest.fixture(scope="module")
def index(small_clustered):
    return PMLSH(params=PMLSHParams(node_capacity=32), seed=0).fit(small_clustered)


@pytest.fixture(scope="module")
def exact(small_clustered):
    return ExactKNN().fit(small_clustered)


class TestLifecycle:
    def test_query_before_fit_raises(self, small_clustered):
        fresh = PMLSH(seed=0)
        with pytest.raises(RuntimeError):
            fresh.query(small_clustered[0], 5)

    def test_fit_returns_self(self, small_clustered):
        built = PMLSH(seed=0)
        assert built.fit(small_clustered[:100]) is built
        assert built.is_built

    def test_invalid_query_shape(self, index):
        with pytest.raises(ValueError):
            index.query(np.zeros(3), 5)

    def test_invalid_k(self, index, small_clustered):
        with pytest.raises(ValueError):
            index.query(small_clustered[0], 0)
        with pytest.raises(ValueError):
            index.query(small_clustered[0], small_clustered.shape[0] + 1)

    def test_solved_parameters_exposed(self, index):
        assert index.solved.t > 0
        assert 0 < index.solved.beta < 1


class TestCkAnnQuery:
    def test_returns_k_sorted_results(self, index, small_clustered):
        result = index.query(small_clustered[5] + 0.01, k=10)
        assert len(result) == 10
        assert np.all(np.diff(result.distances) >= -1e-12)
        assert len(set(result.ids.tolist())) == 10

    def test_high_recall_on_clustered_data(self, index, exact, small_clustered):
        rng = np.random.default_rng(7)
        recalls, ratios = [], []
        for _ in range(20):
            q = small_clustered[rng.integers(0, small_clustered.shape[0])] + rng.normal(
                size=small_clustered.shape[1]
            ) * 0.01
            got = index.query(q, k=10)
            truth = exact.query(q, k=10)
            recalls.append(recall(got.ids, truth.ids))
            ratios.append(overall_ratio(got.distances, truth.distances))
        assert np.mean(recalls) > 0.9
        assert np.mean(ratios) < 1.05

    def test_stats_populated(self, index, small_clustered):
        result = index.query(small_clustered[0], k=5)
        assert result.stats["candidates"] > 0
        assert result.stats["rounds"] >= 1

    def test_k_equals_one(self, index, exact, small_clustered):
        q = small_clustered[3] + 0.005
        got = index.query(q, k=1)
        truth = exact.query(q, k=1)
        # c-ANN guarantee: distance within c² of exact (holds with constant
        # probability; on easy clustered data it should essentially always).
        assert got.distances[0] <= index.params.c**2 * max(truth.distances[0], 1e-12) + 1e-9

    def test_candidates_bounded_by_budget(self, index, small_clustered):
        result = index.query(small_clustered[0], k=5)
        budget = int(np.ceil(index.solved.beta * index.n)) + 5
        assert result.stats["candidates"] <= budget + 1


class TestBallCoverQuery:
    def test_returns_point_within_cr_or_none(self, index, small_clustered):
        q = small_clustered[10] + 0.01
        nn_dist = float(
            np.sort(np.linalg.norm(small_clustered - q, axis=1))[0]
        )
        hit = index.ball_cover_query(q, r=nn_dist * 1.5)
        assert hit is not None
        pid, dist = hit
        assert dist <= index.params.c * nn_dist * 1.5 + 1e-9

    def test_empty_ball_returns_none_or_far_point(self, index, small_clustered):
        q = small_clustered.max(axis=0) + 100.0
        result = index.ball_cover_query(q, r=0.001)
        # B(q, c·r) holds nothing, so per Definition 3 nothing is returned.
        assert result is None

    def test_invalid_radius(self, index, small_clustered):
        with pytest.raises(ValueError):
            index.ball_cover_query(small_clustered[0], r=0.0)


class TestEstimatedDistance:
    def test_close_to_true_distance(self, index, small_clustered):
        o1, o2 = small_clustered[0], small_clustered[1]
        true = float(np.linalg.norm(o1 - o2))
        est = index.estimated_distance(o1, o2)
        # m = 15 projections: the estimate is within ~2.5 std (~65%) of r.
        assert est == pytest.approx(true, rel=0.8)

    def test_zero_for_identical(self, index, small_clustered):
        assert index.estimated_distance(small_clustered[0], small_clustered[0]) == 0.0


class TestConfigurations:
    def test_zero_pivots(self, small_clustered):
        params = PMLSHParams(num_pivots=0, node_capacity=32)
        index = PMLSH(params=params, seed=1).fit(small_clustered[:300])
        assert len(index.query(small_clustered[0], k=5)) == 5

    def test_seed_reproducibility(self, small_clustered):
        a = PMLSH(seed=5).fit(small_clustered[:200]).query(small_clustered[0], 5)
        b = PMLSH(seed=5).fit(small_clustered[:200]).query(small_clustered[0], 5)
        np.testing.assert_array_equal(a.ids, b.ids)

    def test_different_c_changes_budget(self):
        tight = PMLSH(params=PMLSHParams(c=1.2), seed=0)
        loose = PMLSH(params=PMLSHParams(c=2.0), seed=0)
        assert tight.solved.beta > loose.solved.beta
