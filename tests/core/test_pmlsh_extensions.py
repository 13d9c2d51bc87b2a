"""Tests for PM-LSH extensions: batch queries, beta override, BC exclude."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.params import PMLSHParams
from repro.core.pmlsh import PMLSH


@pytest.fixture(scope="module")
def index(small_clustered):
    return PMLSH(params=PMLSHParams(node_capacity=32), seed=0).fit(small_clustered)


class TestBatchSearch:
    def test_matches_single_queries(self, index, small_clustered):
        queries = small_clustered[:4] + 0.01
        batch = index.search(queries, k=5)
        assert len(batch) == 4
        for row_index, row in enumerate(queries):
            single = index.query(row, k=5)
            np.testing.assert_array_equal(batch[row_index].ids, single.ids)

    def test_single_row_accepted(self, index, small_clustered):
        batch = index.search(small_clustered[0], k=3)
        assert len(batch) == 1
        assert len(batch[0]) == 3

    def test_dimension_mismatch(self, index):
        with pytest.raises(ValueError):
            index.search(np.zeros((2, 3)), k=2)


class TestBetaOverride:
    def test_override_replaces_solved_beta(self):
        params = PMLSHParams(beta_override=0.3)
        index = PMLSH(params=params, seed=1)
        assert index.solved.beta == 0.3

    def test_override_changes_candidate_budget(self, small_clustered):
        data = small_clustered[:500]
        small = PMLSH(params=PMLSHParams(beta_override=0.05), seed=2).fit(data)
        large = PMLSH(params=PMLSHParams(beta_override=0.5), seed=2).fit(data)
        q = data[0] + 0.01
        assert (
            small.query(q, 10).stats["candidates"]
            < large.query(q, 10).stats["candidates"]
        )

    def test_invalid_override(self):
        with pytest.raises(ValueError):
            PMLSHParams(beta_override=0.0)
        with pytest.raises(ValueError):
            PMLSHParams(beta_override=1.0)

    def test_none_keeps_solved(self):
        """No override: β is Eq. 10's at the m the size rule picked."""
        from repro.core.estimation import solve_parameters
        from repro.core.params import hash_count_for

        data = np.random.default_rng(0).normal(size=(60_000, 4))
        index = PMLSH(seed=0).fit(data)
        m = hash_count_for(data.shape[0], PMLSHParams())
        assert index.params.m == m == 18
        expected = solve_parameters(m=m, c=1.5).beta
        assert index.solved.beta == pytest.approx(expected)


class TestBallCoverExclude:
    def test_excluding_self_finds_neighbour(self, index, small_clustered):
        # Probe with an indexed point: without exclude, the point itself is
        # the closest in-ball hit; with exclude, its true neighbour is.
        probe_id = 17
        q = small_clustered[probe_id]
        dists = np.linalg.norm(small_clustered - q, axis=1)
        dists[probe_id] = np.inf
        nn_dist = float(dists.min())
        plain = index.ball_cover_query(q, r=max(nn_dist * 1.5, 1e-6))
        assert plain is not None and plain[0] == probe_id
        excluded = index.ball_cover_query(
            q, r=max(nn_dist * 1.5, 1e-6), exclude={probe_id}
        )
        assert excluded is not None
        assert excluded[0] != probe_id
        assert excluded[1] <= index.params.c * nn_dist * 1.5 + 1e-9


class TestClosestPairsTinyFit:
    def test_closest_pairs_on_tiny_dataset(self):
        """Regression: the projected-join neighbour count used to exceed
        n - 1 on tiny fits (max/min clamp inverted), crashing chunked_knn."""
        rng = np.random.default_rng(0)
        data = rng.normal(size=(4, 6))
        index = PMLSH(params=PMLSHParams(num_pivots=2), seed=0).fit(data)
        result = index.closest_pairs(1)
        assert len(result) == 1
        i, j, dist = result[0]
        assert dist == pytest.approx(float(np.linalg.norm(data[i] - data[j])))
