"""Brute-force exact kNN — the ground-truth oracle for recall and ratio."""

from __future__ import annotations

import numpy as np

from repro.baselines.base import ANNIndex, BatchResult, aggregate_stats
from repro.datasets.distance import chunked_knn
from repro.queries import Knn
from repro.registry import register_index


@register_index("exact", "brute-force")
class ExactKNN(ANNIndex):
    """Exact k nearest neighbours by blocked brute force.

    Not a competitor in the paper's tables; the harness uses it to compute
    the exact kNN sets that recall (Eq. 12) and overall ratio (Eq. 11)
    are defined against.  Its inherited range / closest-pair fallbacks are
    likewise exact, so it doubles as the ground-truth reference for every
    query type.
    """

    name = "Exact"

    #: Scans live rows only, so tombstones never reach the result window.
    _knn_filters_tombstones = True

    def _fit(self) -> None:
        pass  # brute force needs no structures beyond the data itself

    def _run_knn(self, queries: np.ndarray, spec: Knn) -> BatchResult:
        """Vectorised multi-query path (blocked brute force over the batch).

        With tombstones, the scan runs over the gathered live submatrix and
        dense neighbour ids map back through the (monotonic, sorted) live-id
        array — distances and tie order are byte-identical to an index that
        was fitted on the live rows alone.
        """
        if self._tombstones:
            live = self.live_ids()
            ids, dists = chunked_knn(queries, self.data[live], spec.k)
            ids = live[ids]
            candidates = float(live.size)
        else:
            ids, dists = chunked_knn(queries, self.data, spec.k)
            candidates = float(self.n)
        per_query = tuple({"candidates": candidates} for _ in range(ids.shape[0]))
        return BatchResult(
            ids=ids,
            distances=dists,
            stats=aggregate_stats(per_query),
            per_query_stats=per_query,
        )

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------

    def state_arrays(self):
        """Brute force *is* its dataset; there are no parameters."""
        return {"data": self.data}, {}

    @classmethod
    def from_state_arrays(cls, arrays, params) -> "ExactKNN":
        index = cls()
        index._set_data(arrays["data"])  # stays a view when already float64
        return index
