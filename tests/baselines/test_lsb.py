"""Tests for the LSB-Forest."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.exact import ExactKNN
from repro.baselines.lsb import LSBForest
from tests.oracles import baseline_loops


@pytest.fixture(scope="module")
def data(small_clustered):
    return small_clustered[:500]


@pytest.fixture(scope="module")
def index(data):
    return LSBForest(num_trees=4, m=8, seed=0).fit(data)


class TestLSBForest:
    def test_returns_k_sorted(self, index, data):
        result = index.query(data[0] + 0.01, k=10)
        assert len(result) == 10
        assert np.all(np.diff(result.distances) >= -1e-12)

    def test_trees_built(self, index):
        """The sorted (z-value, id) arrays load into valid B+-trees: the
        structure the reference cursor walk runs over."""
        trees = baseline_loops.lsb_trees(index)
        assert len(trees) == 4
        for tree in trees:
            assert len(tree) == index.n
            tree.check_invariants()

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
        assert hits / total > 0.5

    def test_budget_respected(self, index, data):
        result = index.query(data[1], k=5)
        budget = max(5, int(np.ceil(index.budget_fraction * index.n)))
        # Union across trees can exceed a single tree's share but not the
        # total cursor steps (num_trees * per-tree share).
        assert result.stats["candidates"] <= budget + index.num_trees * 5

    def test_more_trees_no_worse_at_fixed_per_tree_budget(self, data):
        """With the per-tree cursor budget held constant, extra trees can
        only add candidate diversity (the LSB-*forest* argument)."""
        exact = ExactKNN().fit(data)

        def mean_recall(num_trees):
            forest = LSBForest(num_trees=num_trees, m=8, budget_fraction=min(1.0, 0.08 * num_trees), seed=3, ).fit(data)
            rng = np.random.default_rng(4)
            hits = 0
            for _ in range(10):
                q = data[rng.integers(0, forest.n)] + 0.01
                got = set(forest.query(q, 10).ids.tolist())
                truth = set(exact.query(q, 10).ids.tolist())
                hits += len(got & truth)
            return hits / 100

        assert mean_recall(4) >= mean_recall(1) - 0.05

    def test_deterministic(self, data):
        a = LSBForest(seed=8).fit(data).query(data[0], 5)
        b = LSBForest(seed=8).fit(data).query(data[0], 5)
        np.testing.assert_array_equal(a.ids, b.ids)

    def test_invalid_params(self, data):
        with pytest.raises(ValueError):
            LSBForest(num_trees=0)
        with pytest.raises(ValueError):
            LSBForest(w=-1.0)
        with pytest.raises(ValueError):
            LSBForest(budget_fraction=0.0)

    def test_explicit_width(self, data):
        forest = LSBForest(w=25.0, seed=0).fit(data)
        assert forest.w == 25.0
