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
    # persistence
    # ------------------------------------------------------------------

    def save(self, path: str) -> None:
        """Persist to ``.npz``: the dataset, the registry name (so
        :func:`repro.load_index` can dispatch back to this class), and the
        lifecycle state (epoch, tombstones, fit-time cardinality)."""
        self._require_built()
        from repro.persistence import lifecycle_arrays

        np.savez_compressed(
            path,
            data=self.data,
            registry_name=np.asarray(self.registry_name),
            **lifecycle_arrays(self),
        )

    @classmethod
    def load(cls, path: str) -> "ExactKNN":
        """Restore an index persisted with :meth:`save`, deletes included."""
        from repro.persistence import apply_lifecycle_state, read_lifecycle_state

        with np.load(path) as archive:
            data = archive["data"]
            state = read_lifecycle_state(archive)
        index = cls().fit(data)
        apply_lifecycle_state(index, state)
        return index

    # ------------------------------------------------------------------
    # shared-memory snapshots
    # ------------------------------------------------------------------

    def to_shm(self):
        """Export ``(arrays, state)`` for shared-memory serving replicas —
        brute force needs only the dataset and the lifecycle state."""
        self._require_built()
        arrays = {"data": self.data, "tombstone_ids": self._tombstones.ids()}
        state = {"epoch": self.epoch, "fitted_n": self.fitted_n}
        return arrays, state

    @classmethod
    def from_shm(cls, arrays, state) -> "ExactKNN":
        """Rebuild a replica over (read-only) :meth:`to_shm` views; the
        dataset stays a zero-copy view into the shared segment."""
        from repro.persistence import apply_lifecycle_state

        index = cls()
        index._set_data(arrays["data"])
        index._built = True
        index._fitted_n = index.ntotal
        apply_lifecycle_state(
            index,
            {
                "epoch": int(state["epoch"]),
                "fitted_n": int(state["fitted_n"]),
                "tombstone_ids": np.asarray(arrays["tombstone_ids"], dtype=np.int64),
            },
        )
        return index
