"""Statistical verification of the paper's theoretical guarantees."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.exact import ExactKNN
from repro.core.params import PMLSHParams
from repro.core.pmlsh import PMLSH
from repro.datasets.synthetic import gaussian_mixture


class TestTheorem1:
    """Algorithm 2 returns a c²-ANN with probability ≥ 1/2 − 1/e ≈ 0.132.

    We measure the empirical success frequency over many queries and
    require it to clear the bound with margin; in practice it is near 1."""

    @pytest.fixture(scope="class")
    def setup(self):
        data = gaussian_mixture(1000, 24, num_clusters=8, cluster_std=0.8, seed=0)
        index = PMLSH(params=PMLSHParams(node_capacity=32), seed=1).fit(data)
        exact = ExactKNN().fit(data)
        return data, index, exact

    def test_c_squared_ann_frequency(self, setup):
        data, index, exact = setup
        c = index.params.c
        rng = np.random.default_rng(2)
        successes = trials = 0
        for _ in range(40):
            q = data[rng.integers(0, data.shape[0])] + rng.normal(size=24) * 0.05
            got = index.query(q, k=1)
            truth = exact.query(q, k=1)
            r_star = max(float(truth.distances[0]), 1e-12)
            successes += float(got.distances[0]) <= c * c * r_star + 1e-9
            trials += 1
        assert successes / trials >= 0.5 - 1 / np.e

    def test_ck_ann_per_rank_guarantee(self, setup):
        """(c, k)-ANN: every returned o_i within c²·||q, o*_i|| for most
        queries (Definition 2 with the Theorem 1 ratio)."""
        data, index, exact = setup
        c2 = index.params.c ** 2
        rng = np.random.default_rng(3)
        per_query_ok = []
        for _ in range(20):
            q = data[rng.integers(0, data.shape[0])] + rng.normal(size=24) * 0.05
            got = index.query(q, k=5)
            truth = exact.query(q, k=5)
            ok = all(
                got.distances[i] <= c2 * max(truth.distances[i], 1e-12) + 1e-9
                for i in range(5)
            )
            per_query_ok.append(ok)
        assert np.mean(per_query_ok) >= 0.5 - 1 / np.e


class TestTheorem1AcrossHashDraws:
    """Theorem 1's probability is over the hash draw, so it is tested over
    30 index seeds at the m the size rule picks (15 at 25k points, 19 at
    100k; each shard of the sharded engine resolves its own n / 4), through the
    three ways a query reaches the probe: one row per call, a 32-row
    block, and the 4-shard engine.  A query succeeds when every one of
    its k answers is within c² of the true neighbour at that rank; the
    success rate must clear 1/2 − 1/e by a one-sided binomial test at
    α = 0.01 (in practice it is near 1)."""

    SEEDS = 30
    QUERIES = 16
    K = 10

    @pytest.mark.parametrize("n", [25_000, 100_000])
    def test_c_squared_success_rate_per_entry_point(self, n):
        from scipy.stats import binom

        from repro import create_index
        from repro.core.params import hash_count_for

        data = gaussian_mixture(n + self.QUERIES, 16, num_clusters=20, cluster_std=0.8, seed=9)
        data, queries = data[:n], data[n:]
        truth = ExactKNN().fit(data).search(queries, self.K).distances
        successes = {"one-row": 0, "block": 0, "sharded": 0}
        for seed in range(self.SEEDS):
            index = PMLSH(seed=seed).fit(data)
            assert index.params.m == hash_count_for(n, PMLSHParams())
            engine = create_index("sharded", backend="pm-lsh", num_shards=4, seed=seed).fit(data)
            answers = {
                "one-row": np.vstack([index.search(q[None, :], self.K).distances for q in queries]),
                "block": index.search(queries, self.K).distances,
                "sharded": engine.search(queries, self.K).distances,
            }
            for entry, got in answers.items():
                within = got <= index.params.c ** 2 * truth + 1e-9
                successes[entry] += int(within.all(axis=1).sum())
        trials = self.SEEDS * self.QUERIES
        floor = 0.5 - 1 / np.e
        for entry, hits in successes.items():
            # P(≥ hits successes | rate = floor) < 0.01: the rate is above it.
            assert binom.sf(hits - 1, trials, floor) < 0.01, (entry, hits, trials)


class TestLemma4Empirical:
    """E1: points inside B(q, r) project within t·r with prob ≥ 1 − α1."""

    def test_e1_on_real_queries(self):
        data = gaussian_mixture(600, 16, num_clusters=6, seed=4)
        hits = trials = 0
        rng = np.random.default_rng(5)
        for trial in range(60):
            index = PMLSH(seed=int(rng.integers(0, 2**31))).fit(data)
            q = data[trial % data.shape[0]] + 0.01
            dists = np.linalg.norm(data - q, axis=1)
            near_id = int(np.argmin(dists))
            r = max(float(dists[near_id]), 1e-9)
            q_proj = index.projection.project(q)
            o_proj = index.projected[near_id]
            projected = float(np.linalg.norm(q_proj - o_proj))
            hits += projected <= index.solved.t * r
            trials += 1
        assert hits / trials >= 1 - 1 / np.e - 0.1


class TestSpaceAndTime:
    """Theorem 2's shape: query cost grows sublinearly with n (O(log n + βn)
    with small β), and the index stores O(n) items."""

    def test_tree_stores_each_point_once(self):
        data = gaussian_mixture(700, 16, num_clusters=5, seed=6)
        index = PMLSH(params=PMLSHParams(node_capacity=32), seed=0).fit(data)
        leaf_ids = [
            pid
            for _, node in index.tree.iter_nodes()
            if node.is_leaf
            for pid in node.ids
        ]
        assert sorted(leaf_ids) == list(range(data.shape[0]))

    def test_candidates_scale_with_beta_n(self):
        small = gaussian_mixture(400, 16, num_clusters=5, seed=7)
        large = gaussian_mixture(1200, 16, num_clusters=5, seed=7)
        k = 5
        small_index = PMLSH(params=PMLSHParams(node_capacity=32), seed=0).fit(small)
        large_index = PMLSH(params=PMLSHParams(node_capacity=32), seed=0).fit(large)
        small_cand = small_index.query(small[0], k).stats["candidates"]
        large_cand = large_index.query(large[0], k).stats["candidates"]
        beta = small_index.solved.beta
        assert small_cand <= beta * 400 + k + 1
        assert large_cand <= beta * 1200 + k + 1


class TestRangeQueryGuarantee:
    """The (r, c)-ball promise on a fixed-seed synthetic dataset: at the
    paper's defaults (c = 1.5) the native range path recovers ≥ 0.9 of
    the exact ball while scanning strictly fewer candidates than the
    brute-force reference, and never reports beyond c·r."""

    @pytest.fixture(scope="class")
    def setup(self):
        data = gaussian_mixture(1200, 32, num_clusters=10, cluster_std=0.8, seed=4)
        index = PMLSH(params=PMLSHParams(node_capacity=32), seed=5).fit(data)
        exact = ExactKNN().fit(data)
        return data, index, exact

    def test_recall_and_sublinear_candidates(self, setup):
        from repro.evaluation.metrics import range_recall

        data, index, exact = setup
        rng = np.random.default_rng(6)
        queries = data[rng.integers(0, data.shape[0], size=20)] + 0.01
        radius = float(
            np.quantile(index.distance_distribution.samples, 0.02)
        )
        truth = exact.range_search(queries, radius)
        result = index.range_search(queries, radius)
        recalls = [
            range_recall(result[i].ids, truth[i].ids) for i in range(len(truth))
        ]
        assert float(np.mean(recalls)) >= 0.9
        # strictly fewer candidates than the n-point scan brute force pays
        assert result.stats["candidates"] < data.shape[0]
        # the (r, c) contract: nothing beyond c*r is ever reported
        c = index.params.c
        assert np.all(result.distances <= c * radius + 1e-9)

    def test_per_query_budget_respected(self, setup):
        data, index, exact = setup
        radius = float(np.quantile(index.distance_distribution.samples, 0.02))
        result = index.range_search(data[:5] + 0.01, radius, budget=40)
        assert result.stats["candidates"] <= 40


class TestClosestPairGuarantee:
    """The projected self-join verifies a vanishing fraction of the n²/2
    pairs yet lands within a small factor of the exact closest pairs."""

    def test_quality_vs_verified_pairs(self):
        data = gaussian_mixture(1000, 32, num_clusters=10, cluster_std=0.8, seed=7)
        index = PMLSH(params=PMLSHParams(node_capacity=32), seed=8).fit(data)
        exact = ExactKNN().fit(data)
        m = 10
        truth = exact.closest_pairs(m)
        result = index.closest_pairs(m)
        ratios = result.distances / truth.distances
        assert np.all(ratios >= 1.0 - 1e-12)
        assert float(np.mean(ratios)) <= 1.25
        total_pairs = data.shape[0] * (data.shape[0] - 1) / 2
        assert result.stats["verified"] < 0.01 * total_pairs
