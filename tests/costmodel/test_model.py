"""Tests for the §4.2 cost models (Table 2 machinery)."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.special import gammaln

from repro.core.hashing import GaussianProjection
from repro.costmodel.model import (
    compare_trees,
    isochoric_cube_side,
    pm_tree_computation_cost,
    r_tree_computation_cost,
    selectivity_radius,
)
from repro.datasets.distance import (
    MarginalDistribution,
    sample_distance_distribution,
)
from repro.datasets.synthetic import gaussian_mixture
from repro.pmtree.tree import PMTree
from repro.rtree.tree import RTree
from tests.oracles.pointer_tree import PointerPMTree, computation_cost


@pytest.fixture(scope="module")
def setup(projected_points):
    distribution = sample_distance_distribution(projected_points, num_pairs=20000, seed=0)
    marginals = MarginalDistribution.from_points(projected_points)
    pm = PMTree.build(projected_points, num_pivots=5, capacity=16, seed=1)
    rt = RTree.build(projected_points, capacity=16)
    return projected_points, distribution, marginals, pm, rt


class TestIsochoricCube:
    def test_matches_closed_form_low_dim(self):
        # m = 2: ball area pi*r^2 -> square side sqrt(pi)*r.
        assert isochoric_cube_side(2, 1.0) == pytest.approx(np.sqrt(np.pi))

    def test_matches_log_gamma_form(self):
        for m in [1, 5, 15, 50]:
            expected = np.exp(
                ((m / 2) * np.log(np.pi) - gammaln(m / 2 + 1)) / m
            )
            assert isochoric_cube_side(m, 1.0) == pytest.approx(expected)

    def test_scales_linearly_with_radius(self):
        assert isochoric_cube_side(15, 2.0) == pytest.approx(
            2.0 * isochoric_cube_side(15, 1.0)
        )

    def test_invalid(self):
        with pytest.raises(ValueError):
            isochoric_cube_side(0, 1.0)
        with pytest.raises(ValueError):
            isochoric_cube_side(3, -1.0)


class TestSelectivityRadius:
    def test_hits_target_fraction(self, setup):
        _, distribution, _, _, _ = setup
        radius = selectivity_radius(distribution, fraction=0.08)
        assert distribution.cdf(radius) == pytest.approx(0.08, abs=0.01)

    def test_invalid_fraction(self, setup):
        _, distribution, _, _, _ = setup
        with pytest.raises(ValueError):
            selectivity_radius(distribution, fraction=0.0)


class TestCostModels:
    def test_costs_positive_and_bounded(self, setup):
        points, distribution, marginals, pm, rt = setup
        radius = selectivity_radius(distribution, 0.08)
        pm_cost = pm_tree_computation_cost(pm, distribution, radius)
        rt_cost = r_tree_computation_cost(rt, marginals, radius)
        total_entries_pm = int((pm.span_end - pm.span_start).sum())
        assert 0 < pm_cost <= total_entries_pm
        assert 0 < rt_cost

    def test_cost_monotone_in_radius(self, setup):
        _, distribution, marginals, pm, rt = setup
        radii = [selectivity_radius(distribution, f) for f in (0.02, 0.08, 0.3)]
        pm_costs = [pm_tree_computation_cost(pm, distribution, r) for r in radii]
        rt_costs = [r_tree_computation_cost(rt, marginals, r) for r in radii]
        assert pm_costs == sorted(pm_costs)
        assert rt_costs == sorted(rt_costs)

    def test_pm_tree_cheaper_at_paper_selectivity(self, setup):
        """Table 2's claim on our emulation: the PM-tree's estimated CC is
        below the R-tree's at ~8% selectivity."""
        _, distribution, marginals, pm, rt = setup
        radius = selectivity_radius(distribution, 0.08)
        comparison = compare_trees("test", pm, rt, distribution, marginals, radius)
        assert comparison.pm_tree_cost < comparison.r_tree_cost
        assert 0.0 < comparison.reduction < 1.0

    def test_model_tracks_measured_cost(self, setup):
        """The PM-tree model should predict the measured distance
        computations within a small factor (it is a model, not an oracle):
        measured on the per-pair walk of the pointer tree one seed builds
        — Eq. 5 filters on every entry and leaf member, what Eq. 7 counts."""
        points, distribution, _, pm, _ = setup
        radius = selectivity_radius(distribution, 0.08)
        predicted = pm_tree_computation_cost(pm, distribution, radius)
        rng = np.random.default_rng(3)
        queries = points[rng.integers(0, len(points), size=20)]
        measured = _per_pair_dist_comps(
            PointerPMTree.build(points, num_pivots=5, capacity=16, seed=1), queries, radius
        )
        assert predicted == pytest.approx(measured, rel=1.0)

    @pytest.mark.parametrize("num_pivots, capacity", [(5, 16), (0, 8), (3, 200)])
    def test_vectorised_model_equals_the_per_entry_loop(self, setup, num_pivots, capacity):
        """Eqs. 6–7 over the packed arrays against the same sum, entry by
        entry, over the pointer tree one seed builds: to 1e-12 relative,
        at several radii, on the tree and on its flat snapshot."""
        points, distribution, _, _, _ = setup
        kwargs = dict(num_pivots=num_pivots, capacity=capacity, seed=2)
        tree = PMTree.build(points, **kwargs)
        oracle = PointerPMTree.build(points, **kwargs)
        for fraction in (0.0, 0.01, 0.08, 0.5):
            radius = selectivity_radius(distribution, fraction) if fraction else 0.0
            want = computation_cost(oracle, distribution, radius)
            for built in (tree, tree.flatten()):
                got = pm_tree_computation_cost(built, distribution, radius)
                assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_negative_radius_rejected(self, setup):
        _, distribution, marginals, pm, rt = setup
        with pytest.raises(ValueError):
            pm_tree_computation_cost(pm, distribution, -1.0)
        with pytest.raises(ValueError):
            r_tree_computation_cost(rt, marginals, -1.0)

    def test_reduction_zero_when_rtree_free(self):
        from repro.costmodel.model import CostComparison

        comparison = CostComparison(dataset="x", pm_tree_cost=1.0, r_tree_cost=0.0)
        assert comparison.reduction == 0.0


def _per_pair_dist_comps(tree: PointerPMTree, queries: np.ndarray, radius: float) -> float:
    """Mean distance computations of the pointer tree's range walk."""
    tree.reset_counters()
    for query in queries:
        tree.range_query(query, radius)
    return tree.distance_computations / len(queries)


@pytest.mark.parametrize("capacity", [16, 128])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_model_tracks_the_per_pair_counter_in_the_knn_regime(capacity, seed):
    """Eq. 7 against the per-pair walk's distance computations (the
    pointer tree one seed builds: Eq. 5 filters on every leaf member), on
    clustered projected data at the ball Algorithm 2 opens with — the one
    holding ~10 % of the points: within 2×.  (For much smaller balls in
    128-member leaves the model counts every member of a reached leaf
    while the member filters skip most of them, and it over-predicts
    3–7×.)"""
    raw = gaussian_mixture(4032, 64, num_clusters=32, cluster_std=0.3, center_box=2.0, seed=seed)
    projected = GaussianProjection(64, 15, seed=seed).project(raw)
    points, queries = np.ascontiguousarray(projected[:4000]), projected[4000:]
    distribution = sample_distance_distribution(points, num_pairs=20000, seed=0)
    tree = PMTree.build(points, num_pivots=5, capacity=capacity, seed=1)
    diff = points[None, :, :] - queries[:16, None, :]
    radius = float(np.median(np.quantile(np.sqrt(np.einsum("qnm,qnm->qn", diff, diff)), 0.1, axis=1)))
    walked = PointerPMTree.build(points, num_pivots=5, capacity=capacity, seed=1)
    observed = _per_pair_dist_comps(walked, queries, radius)
    predicted = pm_tree_computation_cost(tree, distribution, radius)
    assert 0.5 <= predicted / observed <= 2.0
