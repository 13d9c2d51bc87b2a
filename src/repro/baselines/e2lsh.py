"""Basic LSH (E2LSH-style) with compound hash tables (§2.2).

L hash tables, each keyed by a compound hash G(o) = (h_1(o), …, h_m(o)) of
bucketed p-stable hashes.  The (r, c)-BC query probes the query's bucket in
every table, examines up to 3L points, and reports a point within c·r if one
exists.  A c-ANN query runs the ball-cover ladder r = 1, c, c², … — the
classic reduction of §2.2 ("From (r, c)-BC to c-ANN").

Kept primarily as the reference implementation of the scheme the rest of
the paper improves on; it also powers tests of the (r, c)-BC semantics.

kNN pools every query's bucket candidates and runs one gathered
verification + top-k kernel over the pool
(:meth:`~repro.baselines.base.ANNIndex._verify_pooled`).
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, List, Tuple

import numpy as np

from repro.baselines.base import ANNIndex, BatchResult
from repro.core.hashing import LSHFunction
from repro.datasets.distance import point_to_points_distances
from repro.queries import Knn
from repro.registry import register_index
from repro.utils.rng import RandomState, as_generator, spawn_generators


@register_index("e2lsh", "basic-lsh")
class E2LSH(ANNIndex):
    """The basic LSH scheme: L tables × m concatenated bucketed hashes."""

    name = "E2LSH"

    def __init__(
        self,
        *,
        num_tables: int = 8,
        m: int = 8,
        w: float = 4.0,
        probe_cap_per_table: int = 3,
        seed: RandomState = None,
    ) -> None:
        super().__init__()
        if num_tables <= 0:
            raise ValueError(f"num_tables must be positive, got {num_tables}")
        if probe_cap_per_table <= 0:
            raise ValueError(f"probe_cap_per_table must be positive, got {probe_cap_per_table}")
        self.num_tables = num_tables
        self.m = m
        self.w = float(w)
        #: E2LSH examines at most 3L points for a BC query; this is the 3.
        self.probe_cap_per_table = probe_cap_per_table
        self._rng = as_generator(seed)
        self._functions: List[LSHFunction] = []
        self._tables: List[Dict[tuple, List[int]]] = []
        self._overfetch_cache: Tuple[int, int] | None = None

    def _fit(self) -> None:
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
    # (r, c)-BC query
    # ------------------------------------------------------------------

    def ball_cover_query(self, q: np.ndarray, r: float, c: float) -> Tuple[int, float] | None:
        """Probe G(q) in every table; return a point within c·r, or None.

        Examines at most ``probe_cap_per_table × L`` points, as in §2.2.
        """
        self._require_built()
        q = self._validate_query(q, k=1)
        if r <= 0 or c <= 1.0:
            raise ValueError(f"need r > 0 and c > 1, got r={r}, c={c}")
        best: Tuple[int, float] | None = None
        for function, table in zip(self._functions, self._tables):
            bucket = table.get(function.compound_key(q), [])
            probe = bucket[: self.probe_cap_per_table]
            if not probe:
                continue
            ids = np.asarray(probe, dtype=np.int64)
            dists = point_to_points_distances(q, self.data[ids])
            hit = int(np.argmin(dists))
            if dists[hit] <= c * r and (best is None or dists[hit] < best[1]):
                best = (int(ids[hit]), float(dists[hit]))
        return best

    # ------------------------------------------------------------------
    # kNN
    # ------------------------------------------------------------------

    def _run_knn(self, queries: np.ndarray, spec: Knn) -> BatchResult:
        """(c, k)-ANN over every point sharing a bucket with the query in
        any table, verified by true distance.  For k > 1 the pure
        ball-cover ladder is wasteful, so this practical variant verifies
        the whole union.  Hashing stays per-row: the compound key floors
        one GEMV's floats, so a row's buckets must not depend on its
        batch."""
        return self._verify_pooled(queries, spec.k, self._bucket_candidates)

    def _bucket_candidates(self, q: np.ndarray) -> np.ndarray:
        buckets = [
            table.get(function.compound_key(q), ())
            for function, table in zip(self._functions, self._tables)
        ]
        return np.unique(np.fromiter(chain.from_iterable(buckets), dtype=np.int64))

    def _tombstone_overfetch(self, k: int) -> int:
        """Dead ids reachable by any single query: at most the worst
        bucket's dead count, summed over tables (one probed bucket per
        table; the random fallback is live-only).  Cached per write-epoch
        — the bucketize GEMM over the dead rows runs once per delete
        batch, not once per query."""
        if self._overfetch_cache is not None and self._overfetch_cache[0] == self.epoch:
            return self._overfetch_cache[1]
        dead = self._tombstones.ids()
        bound = 0
        for function in self._functions:
            buckets = np.atleast_2d(function.bucketize(self.data[dead]))
            _, counts = np.unique(buckets, axis=0, return_counts=True)
            bound += int(counts.max()) if counts.size else 0
        self._overfetch_cache = (self.epoch, bound)
        return bound
