"""Multi-Probe LSH (the probing-sequence baseline, §3.1).

Instead of building many hash tables, Multi-Probe keeps a few and, per
table, probes a *sequence* of nearby buckets ordered by how likely they are
to hold the query's neighbours.  The ordering is query-directed: perturbing
hash axis i by δ ∈ {−1, +1} costs the squared distance from the query's
projection to that bucket boundary, and perturbation *sets* are enumerated
in increasing total cost with the classic heap of shift/expand operations
(Lv et al., VLDB'07).

The known weakness PM-LSH targets (§1): bucket-granular probing estimates
distances coarsely, so many probed points are far in the original space.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.baselines.base import ANNIndex, QueryResult
from repro.core.hashing import LSHFunction
from repro.datasets.distance import point_to_points_distances
from repro.registry import register_index
from repro.utils.heap import MinHeap
from repro.utils.rng import RandomState, as_generator, spawn_generators


@register_index("multi-probe", "mplsh")
class MultiProbeLSH(ANNIndex):
    """Multi-Probe LSH over L tables of m bucketed hashes each.

    Parameters
    ----------
    num_tables / m / w:
        Table count, hashes per table, bucket width.
    num_probes:
        Buckets probed per table per query (the probing-sequence length,
        including the home bucket).
    w:
        Bucket width.  ``None`` (default) calibrates it at build time to
        ``width_scale × std`` of the projections, so bucket occupancy is
        data-scale invariant (a fixed absolute width degenerates to empty
        or all-containing buckets depending on coordinate magnitudes).
    max_candidates_fraction:
        Global candidate cap per query, as a fraction of n.
    """

    name = "Multi-Probe"

    def __init__(
        self,
        *,
        num_tables: int = 4,
        m: int = 10,
        w: float | None = None,
        width_scale: float = 2.0,
        num_probes: int = 24,
        max_candidates_fraction: float = 0.12,
        seed: RandomState = None,
    ) -> None:
        super().__init__()
        if num_tables <= 0 or num_probes <= 0:
            raise ValueError("num_tables and num_probes must be positive")
        if w is not None and w <= 0:
            raise ValueError(f"bucket width w must be positive, got {w}")
        if width_scale <= 0:
            raise ValueError(f"width_scale must be positive, got {width_scale}")
        if not 0.0 < max_candidates_fraction <= 1.0:
            raise ValueError(
                f"max_candidates_fraction must be in (0, 1], got {max_candidates_fraction}"
            )
        self.num_tables = num_tables
        self.m = m
        self.w = None if w is None else float(w)
        self._w_explicit = w is not None
        self.width_scale = float(width_scale)
        self.num_probes = num_probes
        self.max_candidates_fraction = max_candidates_fraction
        self._rng = as_generator(seed)
        self._functions: List[LSHFunction] = []
        self._tables: List[Dict[tuple, List[int]]] = []
        self._overfetch_cache: Tuple[int, int] | None = None

    def _calibrated_width(self) -> float:
        """Projection-scale-aware bucket width: ``width_scale`` times the
        median per-direction std of sampled Gaussian projections."""
        sample_size = min(self.n, 1024)
        sample = self.data[
            self._rng.choice(self.n, size=sample_size, replace=False)
        ]
        directions = self._rng.normal(size=(8, self.d))
        spreads = (sample @ directions.T).std(axis=0)
        return max(self.width_scale * float(np.median(spreads)), 1e-12)

    def _fit(self) -> None:
        # Recalibrate on every fit unless the caller pinned w: a re-fit may
        # bind a dataset at a different scale than the one w was tuned to.
        if not self._w_explicit:
            self.w = self._calibrated_width()
        self._functions = [
            LSHFunction(self.d, self.m, w=self.w, seed=child)
            for child in spawn_generators(self._rng, self.num_tables)
        ]
        self._tables = []
        for function in self._functions:
            buckets = function.bucketize(self.data)
            table: Dict[tuple, List[int]] = {}
            for point_id, row in enumerate(buckets):
                table.setdefault(tuple(int(b) for b in row), []).append(point_id)
            self._tables.append(table)

    # ------------------------------------------------------------------
    # query-directed probing sequence
    # ------------------------------------------------------------------

    @staticmethod
    def perturbation_sequence(
        to_lower: np.ndarray, to_upper: np.ndarray, count: int
    ) -> List[List[Tuple[int, int]]]:
        """First *count* perturbation sets in increasing score order.

        Each perturbation set is a list of ``(axis, δ)`` pairs with
        δ ∈ {−1, +1}; its score is the sum of squared boundary distances
        x_axis(δ)².  Enumeration uses the shift/expand min-heap over the
        2m sorted elementary perturbations, which generates sets in exactly
        ascending score without materialising the 3^m-sized space.
        """
        m = to_lower.shape[0]
        # Elementary perturbations sorted by score: z_j = (axis, delta).
        elementary: List[Tuple[float, int, int]] = []
        for axis in range(m):
            elementary.append((float(to_lower[axis] ** 2), axis, -1))
            elementary.append((float(to_upper[axis] ** 2), axis, +1))
        elementary.sort(key=lambda item: item[0])
        scores = np.asarray([item[0] for item in elementary])

        def valid(index_set: Tuple[int, ...]) -> bool:
            axes = [elementary[j][1] for j in index_set]
            return len(axes) == len(set(axes))

        def total(index_set: Tuple[int, ...]) -> float:
            return float(scores[list(index_set)].sum())

        sequence: List[List[Tuple[int, int]]] = [[]]  # home bucket first
        if count <= 1 or not elementary:
            return sequence[:count]
        heap = MinHeap()
        first = (0,)
        heap.push(total(first), first)
        emitted = set()
        while heap and len(sequence) < count:
            _, index_set = heap.pop()
            if index_set in emitted:
                continue
            emitted.add(index_set)
            if valid(index_set):
                sequence.append(
                    [(elementary[j][1], elementary[j][2]) for j in index_set]
                )
            last = index_set[-1]
            if last + 1 < len(elementary):
                # shift: replace the max element with its successor
                shifted = index_set[:-1] + (last + 1,)
                heap.push(total(shifted), shifted)
                # expand: append the successor
                expanded = index_set + (last + 1,)
                heap.push(total(expanded), expanded)
        return sequence

    def _probe_keys(self, function: LSHFunction, q: np.ndarray) -> List[tuple]:
        home = np.atleast_1d(function.bucketize(q))
        to_lower, to_upper = function.residuals(q)
        sets = self.perturbation_sequence(to_lower, to_upper, self.num_probes)
        keys = []
        for perturbation in sets:
            bucket = home.copy()
            for axis, delta in perturbation:
                bucket[axis] += delta
            keys.append(tuple(int(b) for b in bucket))
        return keys

    def _query_one(self, q: np.ndarray, k: int) -> QueryResult:
        max_candidates = max(k, int(self.max_candidates_fraction * self.n))
        seen: set = set()
        candidates: List[int] = []
        for function, table in zip(self._functions, self._tables):
            if len(candidates) >= max_candidates:
                break
            for key in self._probe_keys(function, q):
                for point_id in table.get(key, []):
                    if point_id not in seen:
                        seen.add(point_id)
                        candidates.append(point_id)
                if len(candidates) >= max_candidates:
                    break
        if not candidates:
            candidates = self._fallback_candidates(k)
        ids = np.asarray(candidates, dtype=np.int64)
        dists = point_to_points_distances(q, self.data[ids])
        order = np.lexsort((ids, dists))[:k]
        return QueryResult(
            ids=ids[order],
            distances=dists[order],
            stats={"candidates": float(ids.size)},
        )

    def _tombstone_overfetch(self, k: int) -> int:
        """Dead ids reachable by one query: per table, the ``num_probes``
        worst dead-bucket counts (one probed bucket each), summed over
        tables.  Cached per write-epoch, like E2LSH's bound."""
        if self._overfetch_cache is not None and self._overfetch_cache[0] == self.epoch:
            return self._overfetch_cache[1]
        dead = self._tombstones.ids()
        bound = 0
        for function in self._functions:
            buckets = np.atleast_2d(function.bucketize(self.data[dead]))
            _, counts = np.unique(buckets, axis=0, return_counts=True)
            if counts.size:
                worst = np.sort(counts)[::-1][: self.num_probes]
                bound += int(worst.sum())
        self._overfetch_cache = (self.epoch, bound)
        return bound
