"""Computation-cost estimation for range queries on both trees.

Implements §4.2 of the paper:

* ``Pr[e accessed]`` for a PM-tree routing entry combines the sphere test
  ``F(e.r + r_q)`` with one ring factor per pivot,
  ``F(HR[i].max + r_q) − F(HR[i].min − r_q)`` (Eq. 6); the expected number
  of distance computations is ``Σ N(e_i)·Pr[e_i]`` over all nodes (Eq. 7).
* For the R-tree, the ball is replaced by an isochoric hyper-cube of side
  ``l = (2·π^{m/2} / (m·Γ(m/2)))^{1/m} · r_q`` and each node's access
  probability is the product of per-axis marginal masses
  ``G_i(u_i + l) − G_i(l_i − l)`` (Eq. 9).

The models take the *actual built trees* plus empirical distributions, so
the same code doubles as the Table 2 generator and as a predictive tool.
The PM-tree model reads the packed arrays a :class:`~repro.pmtree.tree.PMTree`
build emits (or a :class:`~repro.pmtree.flat.FlatPMTree` over them).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from repro.datasets.distance import DistanceDistribution, MarginalDistribution
from repro.pmtree.flat import FlatPMTree
from repro.pmtree.tree import PMTree
from repro.rtree.tree import RTree


def isochoric_cube_side(m: int, radius: float) -> float:
    """Side length of the hyper-cube with the volume of an m-ball of
    *radius* (the substitution used in Eq. 9).

    V_ball = π^{m/2} / Γ(m/2 + 1) · r^m, so
    l = (π^{m/2} / Γ(m/2 + 1))^{1/m} · r, computed in log space for
    stability at large m.
    """
    if m <= 0:
        raise ValueError(f"dimension m must be positive, got {m}")
    if radius < 0:
        raise ValueError(f"radius must be non-negative, got {radius}")
    log_volume_coeff = (m / 2.0) * np.log(np.pi) - gammaln(m / 2.0 + 1.0)
    return float(np.exp(log_volume_coeff / m) * radius)


def selectivity_radius(distribution: DistanceDistribution, fraction: float = 0.08) -> float:
    """The radius returning about *fraction* of all points (the paper uses
    ~8 %, "since these points usually suffice for a c-ANN result")."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    return distribution.quantile(fraction)


def pm_tree_computation_cost(
    tree: PMTree | FlatPMTree,
    distribution: DistanceDistribution,
    radius: float,
) -> float:
    """Expected distance computations of ``range(q, radius)`` (Eqs. 6–7).

    Each routing entry e contributes ``N(e)·Pr[e]``, where N(e) is the
    size of the node e points to (its entries, or a leaf's members) and
    ``Pr[e]`` is the sphere factor times one ring factor per pivot.  The
    root is always examined, so it contributes its own size.  Evaluated
    over the tree's packed arrays: ``entry_radius``, ``entry_hr_min`` /
    ``entry_hr_max`` and the children's spans.
    """
    if radius < 0:
        raise ValueError(f"radius must be non-negative, got {radius}")
    sizes = tree.span_end - tree.span_start
    probability = distribution.cdf(tree.entry_radius + radius)
    for pivot in range(tree.pivots.shape[0]):
        lo, hi = tree.entry_hr_min[:, pivot], tree.entry_hr_max[:, pivot]
        mass = distribution.cdf(hi + radius) - distribution.cdf(np.maximum(0.0, lo - radius))
        probability = probability * np.clip(mass, 0.0, 1.0)
    return float(sizes[0]) + float(np.sum(sizes[tree.entry_child] * probability))


def r_tree_computation_cost(
    tree: RTree,
    marginals: MarginalDistribution,
    radius: float,
) -> float:
    """Expected distance computations of ``range(q, radius)`` (Eq. 9)."""
    if radius < 0:
        raise ValueError(f"radius must be non-negative, got {radius}")
    if tree._root is None or tree._root.mbr is None:
        return 0.0
    m = marginals.dims
    half_side = isochoric_cube_side(m, radius)
    total = float(tree._root.entry_count())  # root always accessed
    for depth, node in tree.iter_nodes():
        if depth == 0:
            continue
        probability = 1.0
        for axis in range(m):
            lo = float(node.mbr.lo[axis]) - half_side
            hi = float(node.mbr.hi[axis]) + half_side
            probability *= marginals.interval_mass(axis, lo, hi)
            if probability == 0.0:
                break
        total += node.entry_count() * probability
    return total


@dataclass(frozen=True)
class CostComparison:
    """One Table 2 cell pair plus the derived reduction percentage."""

    dataset: str
    pm_tree_cost: float
    r_tree_cost: float

    @property
    def reduction(self) -> float:
        """Fractional reduction of the PM-tree over the R-tree (positive =
        PM-tree cheaper), as Table 2's bottom row."""
        if self.r_tree_cost <= 0.0:
            return 0.0
        return 1.0 - self.pm_tree_cost / self.r_tree_cost


def compare_trees(
    dataset: str,
    pm_tree: PMTree | FlatPMTree,
    r_tree: RTree,
    distribution: DistanceDistribution,
    marginals: MarginalDistribution,
    radius: float,
) -> CostComparison:
    """Evaluate both cost models at the same radius (one Table 2 column)."""
    return CostComparison(
        dataset=dataset,
        pm_tree_cost=pm_tree_computation_cost(pm_tree, distribution, radius),
        r_tree_cost=r_tree_computation_cost(r_tree, marginals, radius),
    )
