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

    Not a competitor in the paper's tables: its kNN, range and
    closest-pair answers all come from the one exact scan of
    :mod:`repro.datasets.distance`, which also computes the ground truth
    that recall (Eq. 12) and overall ratio (Eq. 11) are defined against.
    """

    name = "Exact"

    def _fit(self) -> None:
        pass  # brute force needs no structures beyond the data itself

    def _run_knn(self, queries: np.ndarray, spec: Knn) -> BatchResult:
        """The blocked exact scan over the batch, tombstoned rows masked in
        place: ids are global, and distances and tie order are
        byte-identical to an index fitted on the live rows alone."""
        ids, dists = chunked_knn(queries, self.data, spec.k, alive=self._alive_rows())
        per_query = tuple({"candidates": float(self.nlive)} for _ in range(ids.shape[0]))
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
