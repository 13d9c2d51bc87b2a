"""LScan: linear scan over a random portion of the dataset (§6.1).

The paper's sanity baseline: select a fixed fraction (default 70 %) of the
points uniformly at random at build time and answer every query by scanning
that subset.  Fast to build, dimension-proof, but pays a full scan per query
and misses any neighbour outside the retained portion — which is exactly the
recall ceiling (~0.7) Table 4 shows for it.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import ANNIndex, QueryResult
from repro.datasets.distance import point_to_points_distances
from repro.registry import register_index
from repro.utils.rng import RandomState, as_generator


@register_index("lscan", "linear-scan")
class LinearScan(ANNIndex):
    """Scan a random ``portion`` of the points for every query."""

    name = "LScan"

    #: The scan subset is intersected with the live set before scanning.
    _knn_filters_tombstones = True

    def __init__(
        self,
        *,
        portion: float = 0.7,
        seed: RandomState = None,
    ) -> None:
        super().__init__()
        if not 0.0 < portion <= 1.0:
            raise ValueError(f"portion must be in (0, 1], got {portion}")
        self.portion = float(portion)
        self._rng = as_generator(seed)
        self._subset: np.ndarray | None = None

    def _fit(self) -> None:
        size = max(1, int(round(self.portion * self.n)))
        self._subset = np.sort(self._rng.choice(self.n, size=size, replace=False))

    def _query_one(self, q: np.ndarray, k: int) -> QueryResult:
        subset = self._subset
        if self._tombstones:
            subset = subset[~self._tombstones.contains(subset)]
            if subset.size == 0:
                return QueryResult(
                    ids=np.empty(0, dtype=np.int64),
                    distances=np.empty(0, dtype=np.float64),
                    stats={"candidates": 0.0},
                )
        dists = point_to_points_distances(q, self.data[subset])
        k_eff = min(k, subset.size)
        part = np.argpartition(dists, k_eff - 1)[:k_eff]
        order = np.argsort(dists[part], kind="stable")
        chosen = part[order]
        return QueryResult(
            ids=subset[chosen],
            distances=dists[chosen],
            stats={"candidates": float(subset.size)},
        )
