"""R-LSH: PM-LSH's radius-enlarging algorithm on an R-tree (§6.1 ablation).

Identical to :class:`~repro.core.pmlsh.PMLSH` in every respect — same
projections, same Eq. 10 parameters, same r_min selection, same candidate
budget — except the projected points are indexed by an R-tree instead of a
PM-tree.  The paper introduces this variant purely to isolate the PM-tree's
contribution; Table 4 and Figs. 7–11 show PM-LSH beating it on every metric,
consistent with the Table 2 cost-model gap.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Set, Tuple

import numpy as np

from repro.baselines.base import ANNIndex, QueryResult
from repro.core.estimation import solve_parameters
from repro.core.hashing import GaussianProjection
from repro.core.params import PMLSHParams
from repro.core.radius import select_initial_radius
from repro.datasets.distance import point_to_points_distances, sample_distance_distribution
from repro.registry import register_index
from repro.rtree.tree import RTree
from repro.utils.rng import RandomState, as_generator


@register_index("r-lsh")
class RLSH(ANNIndex):
    """PM-LSH with the PM-tree swapped for an R-tree."""

    name = "R-LSH"

    def __init__(
        self,
        *,
        params: PMLSHParams | None = None,
        seed: RandomState = None,
    ) -> None:
        super().__init__()
        params = params or PMLSHParams()
        if params.m is None:
            # Table 4's comparison baseline keeps the paper's m = 15 rather
            # than PM-LSH's size rule.
            params = replace(params, m=15)
        self.params = params
        self._rng = as_generator(seed)
        self.solved = solve_parameters(
            m=self.params.m,
            c=self.params.c,
            alpha1=self.params.alpha1,
            beta_multiplier=self.params.beta_multiplier,
        )
        if self.params.beta_override is not None:
            self.solved = replace(self.solved, beta=self.params.beta_override)
        self.projection: GaussianProjection | None = None
        self.projected: np.ndarray | None = None
        self.tree: RTree | None = None
        self.distance_distribution = None

    def _fit(self) -> None:
        params = self.params
        self.projection = GaussianProjection(self.d, params.m, seed=self._rng)
        self.projected = self.projection.project(self.data)
        self.tree = RTree.build(self.projected, capacity=params.node_capacity)
        self.distance_distribution = sample_distance_distribution(
            self.data,
            num_pairs=min(params.radius_sample_pairs, max(1000, 10 * self.n)),
            seed=self._rng,
        )

    def _query_one(self, q: np.ndarray, k: int) -> QueryResult:
        params = self.params
        query_proj = self.projection.project(q)
        budget = int(np.ceil(self.solved.beta * self.n)) + k
        r = select_initial_radius(
            self.distance_distribution,
            n=self.n,
            beta=self.solved.beta,
            k=k,
            shrink=params.radius_shrink,
        )
        seen: Set[int] = set()
        collected: List[Tuple[int, float]] = []
        rounds = 0
        for _ in range(params.max_iterations):
            rounds += 1
            if sum(1 for _, dist in collected if dist <= params.c * r) >= k:
                break
            matches = self.tree.range_query(query_proj, self.solved.t * r, limit=budget)
            fresh = [pid for pid, _ in matches if pid not in seen]
            if fresh:
                ids = np.asarray(fresh, dtype=np.int64)
                true_dists = point_to_points_distances(q, self.data[ids])
                for pid, dist in zip(ids, true_dists):
                    seen.add(int(pid))
                    collected.append((int(pid), float(dist)))
            if len(seen) >= budget:
                break
            r *= params.c
        collected.sort(key=lambda pair: pair[1])
        top = collected[:k]
        return QueryResult(
            ids=np.asarray([pid for pid, _ in top], dtype=np.int64),
            distances=np.asarray([dist for _, dist in top], dtype=np.float64),
            stats={"candidates": float(len(seen)), "rounds": float(rounds)},
        )
