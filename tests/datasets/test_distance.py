"""Tests for distance kernels, F(x), and per-dimension marginals."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.datasets.distance import (
    DistanceDistribution,
    MarginalDistribution,
    chunked_knn,
    pairwise_distances,
    point_to_points_distances,
    sample_distance_distribution,
)


class TestPointToPoints:
    def test_matches_norm(self, tiny_uniform):
        query = tiny_uniform[0]
        got = point_to_points_distances(query, tiny_uniform)
        expected = np.linalg.norm(tiny_uniform - query, axis=1)
        np.testing.assert_allclose(got, expected, rtol=1e-10)

    def test_self_distance_zero(self, tiny_uniform):
        dists = point_to_points_distances(tiny_uniform[3], tiny_uniform)
        assert dists[3] == pytest.approx(0.0, abs=1e-12)

    def test_rejects_2d_query(self, tiny_uniform):
        with pytest.raises(ValueError):
            point_to_points_distances(tiny_uniform[:2], tiny_uniform)

    def test_rejects_dimension_mismatch(self, tiny_uniform):
        with pytest.raises(ValueError):
            point_to_points_distances(np.zeros(3), tiny_uniform)


class TestPairwise:
    def test_symmetric_with_zero_diagonal(self, tiny_uniform):
        matrix = pairwise_distances(tiny_uniform[:50])
        np.testing.assert_allclose(matrix, matrix.T, atol=1e-10)
        np.testing.assert_allclose(np.diag(matrix), 0.0, atol=1e-7)

    def test_cross_matches_norms(self, tiny_uniform):
        a, b = tiny_uniform[:10], tiny_uniform[10:25]
        matrix = pairwise_distances(a, b)
        for i in range(10):
            np.testing.assert_allclose(
                matrix[i], np.linalg.norm(b - a[i], axis=1), rtol=1e-8
            )

    def test_rejects_mismatched_dims(self):
        with pytest.raises(ValueError):
            pairwise_distances(np.zeros((3, 4)), np.zeros((3, 5)))

    @given(
        arrays(np.float64, (7, 3), elements=st.floats(-100, 100)),
    )
    @settings(max_examples=25)
    def test_triangle_inequality(self, points):
        matrix = pairwise_distances(points)
        for i in range(7):
            for j in range(7):
                for k in range(7):
                    assert matrix[i, j] <= matrix[i, k] + matrix[k, j] + 1e-6


class TestChunkedKnn:
    def test_matches_argsort(self, tiny_uniform):
        queries = tiny_uniform[:5] + 0.01
        ids, dists = chunked_knn(queries, tiny_uniform, k=7)
        for row, query in enumerate(queries):
            full = np.linalg.norm(tiny_uniform - query, axis=1)
            expected = np.argsort(full, kind="stable")[:7]
            np.testing.assert_allclose(dists[row], full[expected], rtol=1e-8)
            assert set(ids[row]) == set(expected)

    def test_rows_sorted(self, tiny_uniform):
        _, dists = chunked_knn(tiny_uniform[:4], tiny_uniform, k=10)
        assert np.all(np.diff(dists, axis=1) >= -1e-12)

    def test_k_equals_n(self, tiny_uniform):
        ids, _ = chunked_knn(tiny_uniform[:2], tiny_uniform, k=tiny_uniform.shape[0])
        assert sorted(ids[0]) == list(range(tiny_uniform.shape[0]))

    def test_k_out_of_range(self, tiny_uniform):
        with pytest.raises(ValueError):
            chunked_knn(tiny_uniform[:1], tiny_uniform, k=0)
        with pytest.raises(ValueError):
            chunked_knn(tiny_uniform[:1], tiny_uniform, k=tiny_uniform.shape[0] + 1)


class TestDistanceDistribution:
    def test_cdf_monotone(self):
        dist = DistanceDistribution(np.array([1.0, 2.0, 2.0, 3.0, 10.0]))
        xs = np.linspace(0, 11, 50)
        values = dist.cdf(xs)
        assert np.all(np.diff(values) >= 0)

    def test_cdf_extremes(self):
        dist = DistanceDistribution(np.array([1.0, 2.0, 3.0]))
        assert dist.cdf(0.5) == 0.0
        assert dist.cdf(3.0) == 1.0

    def test_quantile_inverts_cdf(self):
        samples = np.sort(np.random.default_rng(0).uniform(0, 10, size=1000))
        dist = DistanceDistribution(samples)
        for p in [0.1, 0.5, 0.9]:
            x = dist.quantile(p)
            assert dist.cdf(x) >= p - 1e-9

    def test_quantile_bounds(self):
        dist = DistanceDistribution(np.array([2.0, 4.0, 6.0]))
        assert dist.quantile(0.0) == 2.0
        assert dist.quantile(1.0) == 6.0
        with pytest.raises(ValueError):
            dist.quantile(1.5)

    def test_unsorted_input_is_sorted(self):
        dist = DistanceDistribution(np.array([3.0, 1.0, 2.0]))
        assert list(dist.samples) == [1.0, 2.0, 3.0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            DistanceDistribution(np.array([]))

    def test_summary_stats(self):
        dist = DistanceDistribution(np.array([1.0, 3.0]))
        assert dist.max_distance == 3.0
        assert dist.mean_distance == 2.0


class TestSampleDistanceDistribution:
    def test_no_self_pairs(self, tiny_uniform):
        dist = sample_distance_distribution(tiny_uniform, num_pairs=2000, seed=0)
        assert dist.samples.min() > 0.0

    def test_mean_close_to_exact(self, tiny_uniform):
        sampled = sample_distance_distribution(tiny_uniform, num_pairs=20000, seed=0)
        exact = pairwise_distances(tiny_uniform)
        exact_mean = exact[np.triu_indices_from(exact, k=1)].mean()
        assert sampled.mean_distance == pytest.approx(exact_mean, rel=0.05)

    def test_requires_two_points(self):
        with pytest.raises(ValueError):
            sample_distance_distribution(np.zeros((1, 4)))

    @pytest.mark.parametrize("d", [32, 64, 96, 128])
    def test_blocked_gather_equals_one_shot(self, d):
        """The pair list is walked in blocks to cap fit()'s peak memory;
        the sample (hence r_min and every snapshot) must not move a bit."""
        from repro.utils.rng import as_generator

        points = np.random.default_rng(d).normal(size=(500, d))
        num_pairs = 10_000  # three blocks, the last one ragged
        got = sample_distance_distribution(points, num_pairs=num_pairs, seed=7)
        rng = as_generator(7)
        left = rng.integers(0, 500, size=num_pairs)
        right = rng.integers(0, 500, size=num_pairs)
        collisions = left == right
        while np.any(collisions):
            right[collisions] = rng.integers(0, 500, size=int(collisions.sum()))
            collisions = left == right
        diff = points[left] - points[right]
        want = np.sort(np.sqrt(np.einsum("ij,ij->i", diff, diff)))
        assert np.array_equal(got.samples, want)


class TestMarginalDistribution:
    def test_cdf_per_dimension(self):
        points = np.array([[0.0, 10.0], [1.0, 20.0], [2.0, 30.0]])
        marginals = MarginalDistribution.from_points(points)
        assert marginals.dims == 2
        assert marginals.cdf(0, 1.0) == pytest.approx(2 / 3)
        assert marginals.cdf(1, 15.0) == pytest.approx(1 / 3)

    def test_interval_mass(self):
        points = np.linspace(0, 9, 10)[:, None]
        marginals = MarginalDistribution.from_points(points)
        assert marginals.interval_mass(0, 2.0, 5.0) == pytest.approx(0.3)
        assert marginals.interval_mass(0, 5.0, 2.0) == 0.0

    def test_full_range_mass_is_one(self, tiny_uniform):
        marginals = MarginalDistribution.from_points(tiny_uniform)
        for dim in range(marginals.dims):
            assert marginals.interval_mass(dim, -1e9, 1e9) == pytest.approx(1.0)
