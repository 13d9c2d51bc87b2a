"""Exact ground truth — kNN, range and closest-pair — computed once per
workload and reused."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.base import require_finite
from repro.datasets.distance import chunked_closest_pairs, chunked_knn, chunked_range
from repro.queries import ClosestPairResult, Range, RangeResult


@dataclass(frozen=True)
class GroundTruth:
    """Exact kNN ids and distances for a batch of queries.

    ``ids`` and ``distances`` have shape ``(num_queries, k_max)``; rows are
    ascending by distance.  Slicing ``[:, :k]`` serves any k ≤ k_max, so one
    computation covers a whole parameter sweep.
    """

    ids: np.ndarray
    distances: np.ndarray

    def __post_init__(self) -> None:
        ids = np.asarray(self.ids, dtype=np.int64)
        distances = np.asarray(self.distances, dtype=np.float64)
        if ids.shape != distances.shape or ids.ndim != 2:
            raise ValueError(
                f"ids/distances must be matching 2-D arrays, got {ids.shape} / {distances.shape}"
            )
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "distances", distances)

    @property
    def num_queries(self) -> int:
        return self.ids.shape[0]

    @property
    def k_max(self) -> int:
        return self.ids.shape[1]

    def for_query(self, index: int, k: int) -> tuple[np.ndarray, np.ndarray]:
        if not 1 <= k <= self.k_max:
            raise ValueError(f"k must be in [1, {self.k_max}], got {k}")
        return self.ids[index, :k], self.distances[index, :k]


def compute_ground_truth(data: np.ndarray, queries: np.ndarray, k_max: int) -> GroundTruth:
    """Exact k_max-NN of every query by the blocked exact scan."""
    require_finite(np.asarray(data, dtype=np.float64), "data")
    require_finite(np.asarray(queries, dtype=np.float64), "queries")
    ids, distances = chunked_knn(queries, data, k_max)
    return GroundTruth(ids=ids, distances=distances)


def compute_range_ground_truth(
    data: np.ndarray, queries: np.ndarray, radius: float
) -> RangeResult:
    """The exact ball population B(q, radius) of every query (ragged CSR),
    each query's matches sorted by ``(distance, id)``."""
    require_finite(np.asarray(data, dtype=np.float64), "data")
    require_finite(np.asarray(queries, dtype=np.float64), "queries")
    return chunked_range(queries, data, Range(r=radius).r)


def compute_closest_pairs_ground_truth(data: np.ndarray, m: int) -> ClosestPairResult:
    """The exact m closest pairs of *data* (all of them when it holds
    fewer), by the blocked self-join."""
    data = np.asarray(data, dtype=np.float64)
    require_finite(data, "data")
    return chunked_closest_pairs(data, min(int(m), len(data) * (len(data) - 1) // 2))
