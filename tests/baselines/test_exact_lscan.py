"""Tests for the exact oracle and the LScan baseline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.exact import ExactKNN
from repro.baselines.lscan import LinearScan


class TestExactKNN:
    def test_matches_numpy(self, small_clustered):
        index = ExactKNN().fit(small_clustered)
        q = small_clustered[3] + 0.02
        result = index.query(q, k=8)
        dists = np.linalg.norm(small_clustered - q, axis=1)
        expected = np.argsort(dists, kind="stable")[:8]
        np.testing.assert_allclose(result.distances, np.sort(dists)[:8], rtol=1e-9)
        assert set(result.ids.tolist()) == set(int(i) for i in expected)

    def test_batch_matches_single(self, small_clustered):
        index = ExactKNN().fit(small_clustered)
        queries = small_clustered[:4] + 0.01
        batch = index.search(queries, k=5)
        for row, q in enumerate(queries):
            single = index.query(q, k=5)
            np.testing.assert_array_equal(batch.ids[row], single.ids)

    def test_batch_dimension_check(self, small_clustered):
        index = ExactKNN().fit(small_clustered)
        with pytest.raises(ValueError):
            index.search(np.zeros((2, 3)), k=1)

    @pytest.mark.parametrize("offset", [0.0, 1e6, 1e8])
    def test_equals_difference_brute_force_far_from_the_origin(self, offset):
        """The norm expansion alone loses every digit far out (recall 0.03
        at +1e8); the scan's band re-scores by differences, so ids and
        distances equal a per-row ‖p − q‖ brute force byte for byte."""
        rng = np.random.default_rng(3)
        data = rng.normal(size=(2000, 32)) + offset
        queries = data[:16] + rng.normal(size=(16, 32)) * 0.1
        got = ExactKNN().fit(data).search(queries, k=10)
        for row, q in enumerate(queries):
            diff = data - q
            dists = np.sqrt(np.einsum("ij,ij->i", diff, diff))
            order = np.lexsort((np.arange(data.shape[0]), dists))[:10]
            assert got.ids[row].tobytes() == order.tobytes()
            assert got.distances[row].tobytes() == dists[order].tobytes()


class TestLinearScan:
    def test_scans_requested_portion(self, small_clustered):
        index = LinearScan(portion=0.5, seed=0).fit(small_clustered)
        result = index.query(small_clustered[0], k=5)
        assert result.stats["candidates"] == pytest.approx(
            0.5 * small_clustered.shape[0], abs=1.0
        )

    def test_full_portion_is_exact(self, small_clustered):
        index = LinearScan(portion=1.0, seed=0).fit(small_clustered)
        exact = ExactKNN().fit(small_clustered)
        q = small_clustered[9] + 0.01
        np.testing.assert_array_equal(
            index.query(q, 10).ids, exact.query(q, 10).ids
        )

    def test_recall_limited_by_portion(self, small_clustered):
        """Expected recall ≈ portion for random subsets — LScan's ceiling
        in Table 4 (recall ≈ 0.7 at portion 0.7)."""
        index = LinearScan(portion=0.7, seed=1).fit(small_clustered)
        exact = ExactKNN().fit(small_clustered)
        rng = np.random.default_rng(2)
        recalls = []
        for _ in range(30):
            q = small_clustered[rng.integers(0, small_clustered.shape[0])] + 0.01
            got = set(index.query(q, 10).ids.tolist())
            truth = set(exact.query(q, 10).ids.tolist())
            recalls.append(len(got & truth) / 10)
        assert 0.55 <= float(np.mean(recalls)) <= 0.85

    def test_results_only_from_subset(self, small_clustered):
        index = LinearScan(portion=0.3, seed=3).fit(small_clustered)
        subset = set(index._subset.tolist())
        result = index.query(small_clustered[0], k=20)
        assert set(result.ids.tolist()) <= subset

    def test_invalid_portion(self):
        with pytest.raises(ValueError):
            LinearScan(portion=0.0)
        with pytest.raises(ValueError):
            LinearScan(portion=1.5)
