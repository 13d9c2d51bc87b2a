"""SRS: the metric-indexing baseline (Sun et al., PVLDB'14; §3.1).

SRS projects the dataset into R^m with m Gaussian projections and indexes
the projected points in an R-tree.  A (c, k)-ANN query walks the R-tree's
*incremental* nearest-neighbour sequence (``incSearch``): each step yields
the next-closest projected point, whose true distance is verified in the
original space.  The walk stops when either

* a fraction ``max_fraction`` (the paper's T) of the dataset has been
  verified, or
* the early-termination test passes: by Lemma 1, an unseen point at
  original distance ≤ (current best)/c would show a projected distance
  beyond the incremental frontier with probability
  ``Pr[χ²(m) ≥ (c·r'_next / best)²]``; once that is confident enough
  (≥ p'_τ) the current best is declared a c-approximate answer.

The weakness PM-LSH targets (§1): each incSearch step costs O(log n) heap
work, and the *next* projected NN is not necessarily the next-best true
candidate.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np
from scipy import stats

from repro.baselines.base import ANNIndex, QueryResult
from repro.core.hashing import GaussianProjection
from repro.registry import register_index
from repro.rtree.tree import RTree
from repro.utils.heap import BoundedMaxHeap
from repro.utils.rng import RandomState, as_generator


@register_index("srs")
class SRS(ANNIndex):
    """SRS with an R-tree over the m-dimensional projected space.

    Parameters
    ----------
    m:
        Projection count (the paper's experiments use m = 15 for SRS).
    c:
        Approximation ratio used by the early-termination test.
    early_stop_threshold:
        The paper's p'_τ (default 0.8107 at c = 1.5).
    max_fraction:
        The paper's T: maximum fraction of points verified (default 0.4010
        at c = 1.5).
    """

    name = "SRS"

    def __init__(
        self,
        *,
        m: int = 15,
        c: float = 1.5,
        early_stop_threshold: float = 0.8107,
        max_fraction: float = 0.4010,
        rtree_capacity: int = 32,
        seed: RandomState = None,
    ) -> None:
        super().__init__()
        if c <= 1.0:
            raise ValueError(f"approximation ratio c must exceed 1, got {c}")
        if not 0.0 < early_stop_threshold < 1.0:
            raise ValueError(
                f"early_stop_threshold must be in (0, 1), got {early_stop_threshold}"
            )
        if not 0.0 < max_fraction <= 1.0:
            raise ValueError(f"max_fraction must be in (0, 1], got {max_fraction}")
        self.m = m
        self.c = float(c)
        self.early_stop_threshold = float(early_stop_threshold)
        self.max_fraction = float(max_fraction)
        self.rtree_capacity = rtree_capacity
        self._rng = as_generator(seed)
        self.projection: GaussianProjection | None = None
        self.projected: np.ndarray | None = None
        self.tree: RTree | None = None

    def _fit(self) -> None:
        self.projection = GaussianProjection(self.d, self.m, seed=self._rng)
        self.projected = self.projection.project(self.data)
        self.tree = RTree.build(self.projected, capacity=self.rtree_capacity)

    def _query_one(self, q: np.ndarray, k: int) -> QueryResult:
        query_proj = self.projection.project(q)
        budget = max(k, int(np.ceil(self.max_fraction * self.n)))
        best = BoundedMaxHeap(k)
        verified = 0
        for point_id, projected_dist in self.tree.nearest_iter(query_proj):
            true_dist = float(np.linalg.norm(self.data[point_id] - q))
            best.push(true_dist, point_id)
            verified += 1
            if verified >= budget:
                break
            if len(best) == k and self._early_stop(projected_dist, best.bound):
                break
        pairs: List[Tuple[int, float]] = [
            (point_id, dist) for dist, point_id in best.items_sorted()
        ]
        return QueryResult(
            ids=np.asarray([pid for pid, _ in pairs], dtype=np.int64),
            distances=np.asarray([dist for _, dist in pairs], dtype=np.float64),
            stats={"candidates": float(verified)},
        )

    def _early_stop(self, next_projected_distance: float, best_true_distance: float) -> bool:
        """SRS's stopping test on the incremental frontier.

        Any unseen point o has projected distance r' ≥ r'_next.  If o were a
        c-improvement over the current best (‖q,o‖ < best/c), Lemma 1 puts
        probability ``Pr[χ²(m) ≥ (c·r'_next/best)²]`` on its projection
        reaching the frontier; when that drops below 1 − p'_τ, no
        improvement is likely to remain.
        """
        if best_true_distance <= 0.0:
            return True
        statistic = (self.c * next_projected_distance / best_true_distance) ** 2
        prob_remaining = float(stats.chi2.sf(statistic, df=self.m))
        return prob_remaining <= 1.0 - self.early_stop_threshold
