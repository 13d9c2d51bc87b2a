"""Basic LSH (E2LSH-style) with compound hash tables (§2.2).

L hash tables, each keyed by a compound hash G(o) = (h_1(o), …, h_m(o)) of
bucketed p-stable hashes.  The (r, c)-BC query probes the query's bucket in
every table, examines up to 3L points, and reports a point within c·r if one
exists.  A c-ANN query runs the ball-cover ladder r = 1, c, c², … — the
classic reduction of §2.2 ("From (r, c)-BC to c-ANN").

Kept primarily as the reference implementation of the scheme the rest of
the paper improves on; it also powers tests of the (r, c)-BC semantics.

The kNN batch path pools every query's bucket candidates and runs a
single gathered verification + top-k kernel over the pool — candidate
sets, distances and results are byte-identical to the per-query loop.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro import kernels
from repro.baselines.base import ANNIndex, BatchResult, QueryResult, aggregate_stats
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
    # c-ANN via the ball-cover ladder
    # ------------------------------------------------------------------

    def _query_one(self, q: np.ndarray, k: int) -> QueryResult:
        """(c, k)-ANN by collecting bucket candidates across all tables.

        For k > 1 the pure ladder is wasteful, so the practical variant used
        here gathers every point sharing a bucket with q in any table,
        verifies true distances, and falls back to the ladder radius only to
        bound the probe count.
        """
        candidate_ids: List[int] = []
        seen = set()
        for function, table in zip(self._functions, self._tables):
            for point_id in table.get(function.compound_key(q), []):
                if point_id not in seen:
                    seen.add(point_id)
                    candidate_ids.append(point_id)
        if not candidate_ids:
            candidate_ids = self._fallback_candidates(k)
        ids = np.asarray(candidate_ids, dtype=np.int64)
        dists = point_to_points_distances(q, self.data[ids])
        order = np.lexsort((ids, dists))[:k]
        return QueryResult(
            ids=ids[order],
            distances=dists[order],
            stats={"candidates": float(ids.size)},
        )

    # ------------------------------------------------------------------
    # batched kNN
    # ------------------------------------------------------------------

    def _run_knn(self, queries: np.ndarray, spec: Knn) -> BatchResult:
        """Bucketed-hash-table batch path.

        Hashing stays per-query (a GEMV reduces in a different order than
        a batched GEMM, and the compound key floors those floats — bucket
        boundaries must see the exact bits the loop path sees); the batch
        win is everything after the table probes: every (query, candidate)
        pair is verified by one gathered kernel call and one ``group_topk``
        kernel applies the canonical ``(distance, id)`` cut — results,
        distances and stats are byte-identical to the per-query
        :meth:`_query_one` loop.
        """
        kernel = kernels.active()
        k = spec.k
        num_queries = queries.shape[0]
        counts = np.empty(num_queries, dtype=np.int64)
        id_blocks: List[np.ndarray] = []
        for qi in range(num_queries):
            seen: set = set()
            candidate_ids: List[int] = []
            for function, table in zip(self._functions, self._tables):
                for point_id in table.get(function.compound_key(queries[qi]), []):
                    if point_id not in seen:
                        seen.add(point_id)
                        candidate_ids.append(point_id)
            if not candidate_ids:
                # rng draws happen in query order — the same order the
                # per-query loop consumes the shared generator in.
                candidate_ids = self._fallback_candidates(k)
            counts[qi] = len(candidate_ids)
            id_blocks.append(np.asarray(candidate_ids, dtype=np.int64))
        ids = np.concatenate(id_blocks) if id_blocks else np.empty(0, dtype=np.int64)
        rep_q = np.repeat(np.arange(num_queries, dtype=np.int64), counts)
        dists = kernel.verify_distances(self.data, ids, queries, rep_q)
        lims, top_ids, top_dists = kernel.group_topk(
            rep_q, ids, dists, num_queries, k
        )
        out_ids = np.full((num_queries, k), -1, dtype=np.int64)
        out_dists = np.full((num_queries, k), np.inf, dtype=np.float64)
        per_query = []
        for qi in range(num_queries):
            lo, hi = int(lims[qi]), int(lims[qi + 1])
            out_ids[qi, : hi - lo] = top_ids[lo:hi]
            out_dists[qi, : hi - lo] = top_dists[lo:hi]
            per_query.append({"candidates": float(counts[qi])})
        return BatchResult(
            ids=out_ids,
            distances=out_dists,
            stats=aggregate_stats(tuple(per_query)),
            per_query_stats=tuple(per_query),
        )

    def _fallback_candidates(self, k: int) -> List[int]:
        """Degenerate miss (no colliding bucket at all): a random probe so
        the contract (k results when nlive ≥ k) holds.  Drawn from the
        *live* ids under tombstones, so the overfetch bound stays
        bucket-structural; without tombstones the draw is bit-identical
        to sampling ``range(n)``."""
        rng = as_generator(self._rng)
        if self._tombstones:
            live = self.live_ids()
            return list(rng.choice(live, size=min(live.size, 4 * k), replace=False))
        return list(rng.choice(self.n, size=min(self.n, 4 * k), replace=False))

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
