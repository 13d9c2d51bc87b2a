"""LScan: linear scan over a random portion of the dataset (§6.1).

The paper's sanity baseline: select a fixed fraction (default 70 %) of the
points uniformly at random at build time and answer every query by scanning
that subset.  Fast to build, dimension-proof, but pays a full scan per query
and misses any neighbour outside the retained portion — which is exactly the
recall ceiling (~0.7) Table 4 shows for it.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import ANNIndex, BatchResult, aggregate_stats
from repro.datasets.distance import chunked_knn
from repro.queries import Knn
from repro.registry import register_index
from repro.utils.rng import RandomState, as_generator


@register_index("lscan", "linear-scan")
class LinearScan(ANNIndex):
    """Scan a random ``portion`` of the points for every query."""

    name = "LScan"

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
        self._points: np.ndarray | None = None

    def _fit(self) -> None:
        size = max(1, int(round(self.portion * self.n)))
        self._subset = np.sort(self._rng.choice(self.n, size=size, replace=False))
        self._points = self.data[self._subset]

    def _run_knn(self, queries: np.ndarray, spec: Knn) -> BatchResult:
        """The exact kNN scan over the stored subset, its tombstoned rows
        masked; the subset is sorted, so the canonical ``(distance, id)``
        order of the scan's row numbers is that of the global ids.  Fewer
        live subset rows than k pad with ``-1`` / inf."""
        alive = ~self._tombstones.contains(self._subset)
        scanned = int(np.count_nonzero(alive))
        k = min(spec.k, scanned)
        ids = np.full((queries.shape[0], spec.k), -1, dtype=np.int64)
        dists = np.full((queries.shape[0], spec.k), np.inf, dtype=np.float64)
        if k:
            rows, near = chunked_knn(queries, self._points, k, alive=alive)
            ids[:, :k], dists[:, :k] = self._subset[rows], near
        per_query = tuple({"candidates": float(scanned)} for _ in range(queries.shape[0]))
        return BatchResult(
            ids=ids,
            distances=dists,
            stats=aggregate_stats(per_query),
            per_query_stats=per_query,
        )
