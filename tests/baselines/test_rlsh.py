"""Tests for R-LSH (the R-tree ablation of PM-LSH)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import rlsh
from repro.baselines.exact import ExactKNN
from repro.baselines.rlsh import RLSH
from repro.core.params import PMLSHParams
from repro.core.pmlsh import PMLSH
from tests.oracles import recursive_probe


@pytest.fixture(scope="module")
def index(small_clustered):
    return RLSH(params=PMLSHParams(node_capacity=32), seed=0).fit(small_clustered)


class TestRLSH:
    def test_returns_k_sorted(self, index, small_clustered):
        result = index.query(small_clustered[0] + 0.01, k=10)
        assert len(result) == 10
        assert np.all(np.diff(result.distances) >= -1e-12)

    def test_high_recall(self, index, small_clustered):
        exact = ExactKNN().fit(small_clustered)
        rng = np.random.default_rng(1)
        hits = total = 0
        for _ in range(15):
            q = small_clustered[rng.integers(0, index.n)] + 0.01
            got = set(index.query(q, 10).ids.tolist())
            truth = set(exact.query(q, 10).ids.tolist())
            hits += len(got & truth)
            total += 10
        assert hits / total > 0.85

    def test_same_projection_as_pmlsh_with_same_seed(self, small_clustered):
        """R-LSH is PM-LSH with only the tree swapped: identical seed must
        produce identical projections."""
        pm = PMLSH(seed=11).fit(small_clustered[:200])
        rl = RLSH(seed=11).fit(small_clustered[:200])
        np.testing.assert_allclose(pm.projected, rl.projected)

    def test_pm_tree_does_fewer_distance_computations(self, small_clustered):
        """The Table 2 claim, measured on live queries: at identical
        parameters and collection semantics, the PM-tree needs fewer
        distance computations than the R-tree — counted on the pointer
        PM-tree oracle over the index's points, pivots and flags, whose
        per-query probe walks each round's capped ball best-first as the
        R-tree does, with the Eq. 5 filters picking the leaf members that
        get a distance (the product's leaf pass charges every member it
        scores)."""
        params = PMLSHParams(node_capacity=32)
        pm = PMLSH(params=params, seed=5).fit(small_clustered)
        rl = RLSH(params=params, seed=5).fit(small_clustered)
        walked = recursive_probe.full_tree(pm)
        rl.tree.reset_counters()
        rng = np.random.default_rng(6)
        queries = np.stack(
            [small_clustered[rng.integers(0, small_clustered.shape[0])] + 0.01 for _ in range(10)]
        )
        recursive_probe.knn(pm, queries, 10, tree=walked)
        for q in queries:
            rl.query(q, 10)
        assert 0 < walked.distance_computations < rl.tree.distance_computations

    def test_stats(self, index, small_clustered):
        result = index.query(small_clustered[3], k=5)
        assert result.stats["rounds"] >= 1
        assert result.stats["candidates"] > 0

    def test_budget_and_initial_radius_are_sized_on_the_live_rows(
        self, small_clustered, monkeypatch
    ):
        """As in PM-LSH, ⌈β·n⌉ + k and the r_min solve count the rows that
        can still be candidates: nlive, not every row the index holds."""
        index = RLSH(params=PMLSHParams(node_capacity=32), seed=0).fit(small_clustered)
        index.delete(np.arange(0, index.n, 2))
        sizes, limits = [], []
        solve, fetch = rlsh.select_initial_radius, index.tree.knn_within
        monkeypatch.setattr(
            rlsh, "select_initial_radius", lambda f, n, **kw: sizes.append(n) or solve(f, n=n, **kw)
        )
        monkeypatch.setattr(
            index.tree, "knn_within", lambda q, k, **kw: limits.append(k) or fetch(q, k, **kw)
        )
        index.query(small_clustered[1] + 0.01, k=10)
        assert sizes == [index.nlive] == [small_clustered.shape[0] // 2]
        assert set(limits) == {int(np.ceil(index.solved.beta * index.nlive)) + 10}
