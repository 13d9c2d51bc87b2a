"""C2LSH: LSH with dynamic collision counting (Gan et al., SIGMOD'12).

One of the radius-enlarging methods of §3.1.  Like QALSH it counts, per
point, in how many of m hash functions the point collides with the query,
and promotes a point to candidate once the count reaches a threshold l.
The differences from QALSH that this implementation preserves:

* **bucket-aligned windows** — C2LSH uses the classic offset hash
  ``h(o) = ⌊(a·o + b)/w⌋``; the round-R bucket is the *grid cell*
  ``⌊h(o)/R⌋`` ("virtual rehashing"), not an interval centred on the
  query.  The query can sit near a cell boundary, which is exactly the
  estimation-granularity weakness ("bucket-to-bucket") the paper's
  taxonomy attributes to it (§3.2).
* **count-from-scratch rounds** — grid cells for R and c·R are not nested
  (c is not an integer), so each round recounts collisions inside the new
  cells rather than expanding cursors.

Parameters follow the published recipe: false-positive fraction
β = 100/n, error probability δ = 1/e, collision threshold percentage α
between p2 and p1 chosen to close both Chernoff tails, and
m = ⌈(√(ln(1/δ)) + √(ln(2/β)))² / (2(p1 − p2)²)⌉ hash functions.
"""

from __future__ import annotations

import math
from typing import List, Tuple

import numpy as np

from repro import kernels
from repro.baselines.base import ANNIndex, BatchResult, QueryResult
from repro.core.hashing import collision_probability
from repro.datasets.distance import point_to_points_distances
from repro.queries import Knn
from repro.registry import register_index
from repro.utils.rng import RandomState, as_generator


def derive_parameters(
    n: int, c: float, w: float, delta: float, beta: float
) -> Tuple[int, float]:
    """(m, alpha) for C2LSH's collision-counting guarantee.

    p1/p2 come from Eq. 2's closed form at distances 1 and c for bucket
    width w; the two-sided Hoeffding argument mirrors QALSH's.
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    if c <= 1.0:
        raise ValueError(f"approximation ratio c must exceed 1, got {c}")
    p1 = collision_probability(1.0, w)
    p2 = collision_probability(c, w)
    ln_inv_delta = math.log(1.0 / delta)
    ln_two_beta = math.log(2.0 / beta)
    eta = math.sqrt(ln_two_beta / ln_inv_delta)
    alpha = (eta * p1 + p2) / (1.0 + eta)
    m = math.ceil(
        (math.sqrt(ln_two_beta) + math.sqrt(ln_inv_delta)) ** 2
        / (2.0 * (p1 - p2) ** 2)
    )
    return int(m), float(alpha)


@register_index("c2lsh")
class C2LSH(ANNIndex):
    """Collision-counting LSH over bucket-aligned virtual rehashing."""

    name = "C2LSH"

    def __init__(
        self,
        *,
        c: float = 1.5,
        w: float = 1.0,
        delta: float = 1.0 / math.e,
        false_positive_base: float = 100.0,
        seed: RandomState = None,
    ) -> None:
        super().__init__()
        if c <= 1.0:
            raise ValueError(f"approximation ratio c must exceed 1, got {c}")
        if w <= 0:
            raise ValueError(f"bucket width w must be positive, got {w}")
        self.c = float(c)
        self.w = float(w)
        self.delta = float(delta)
        self.false_positive_base = float(false_positive_base)
        self._rng = as_generator(seed)
        # β, m, α and the collision threshold depend on n; derived in _fit()
        # (and re-derived whenever add()'s re-fit grows the dataset).
        self.beta: float | None = None
        self.m: int | None = None
        self.alpha: float | None = None
        self.collision_threshold: int | None = None
        # Raw shifted projections a_i·o + b_i, sorted per hash function.
        self._sorted_raw: np.ndarray | None = None  # (m, n)
        self._sorted_ids: np.ndarray | None = None  # (m, n)
        self._query_directions: np.ndarray | None = None  # (m, d)
        self._offsets: np.ndarray | None = None  # (m,)
        self._unit_width: float = 1.0

    def _fit(self) -> None:
        self.beta = min(0.5, self.false_positive_base / self.n)
        self.m, self.alpha = derive_parameters(self.n, self.c, self.w, self.delta, self.beta)
        self.collision_threshold = max(1, math.ceil(self.alpha * self.m))
        self._query_directions = self._rng.normal(size=(self.m, self.d))
        raw = self.data @ self._query_directions.T  # (n, m), before offsets
        # The paper's radius-1 is meaningless on unnormalised data: scale
        # the base bucket width to the projection spread, as for QALSH.
        center = float(np.median(raw))
        spread = float(np.median(np.abs(raw - center))) or 1.0
        self._unit_width = self.w * spread / 16.0
        self._offsets = self._rng.uniform(0.0, self._unit_width, size=self.m)
        shifted = raw + self._offsets
        order = np.argsort(shifted, axis=0, kind="stable")
        self._sorted_ids = order.T.copy()
        self._sorted_raw = np.take_along_axis(shifted, order, axis=0).T.copy()

    def _query_one(self, q: np.ndarray, k: int) -> QueryResult:
        query_shifted = (self._query_directions @ q) + self._offsets  # (m,)
        verified: List[Tuple[int, float]] = []
        verified_mask = np.zeros(self.n, dtype=bool)
        budget = int(math.ceil(self.beta * self.n)) + k
        scale = 1.0  # radius multiplier R = 1, c, c², ... in spread units
        rounds = 0
        for _ in range(64):
            rounds += 1
            cell_width = self._unit_width * scale
            counts = self._count_collisions(query_shifted, cell_width)
            fresh = np.flatnonzero(
                (counts >= self.collision_threshold) & ~verified_mask
            )
            if fresh.size:
                verified_mask[fresh] = True
                dists = point_to_points_distances(q, self.data[fresh])
                verified.extend(
                    (int(pid), float(dist)) for pid, dist in zip(fresh, dists)
                )
            radius_now = self._unit_width * scale / self.w  # grid cell ~ w·R
            within = sum(1 for _, dist in verified if dist <= self.c * radius_now)
            if within >= k or len(verified) >= budget:
                break
            scale *= self.c
        verified.sort(key=lambda pair: (pair[1], pair[0]))
        top = verified[:k]
        return QueryResult(
            ids=np.asarray([pid for pid, _ in top], dtype=np.int64),
            distances=np.asarray([dist for _, dist in top], dtype=np.float64),
            stats={
                "candidates": float(len(verified)),
                "m": float(self.m),
                "rounds": float(rounds),
            },
        )

    # ------------------------------------------------------------------
    # batched kNN
    # ------------------------------------------------------------------

    #: Cap on (block queries × n) collision-matrix entries per sweep.
    _BATCH_BLOCK_ENTRIES = 8_000_000

    def _run_knn(self, queries: np.ndarray, spec: Knn) -> BatchResult:
        """Round-synchronous batch path over the sorted projections.

        C2LSH's rounds count collisions from scratch (grid cells for R
        and c·R are not nested), so the batch path recounts per round
        with vectorised cell-boundary ``searchsorted``s for every active
        query, verifies all fresh threshold-crossers with one gathered
        kernel call, and applies per-query termination exactly as the
        loop does.  Query projections stay per-query GEMVs — the floored
        cell ids must see the loop's exact bits.  Byte-identical to the
        per-query :meth:`_query_one` loop.
        """
        results: List[QueryResult] = []
        block = max(1, self._BATCH_BLOCK_ENTRIES // max(1, self.n))
        for start in range(0, queries.shape[0], block):
            results.extend(self._knn_block(queries[start : start + block], spec.k))
        return BatchResult.from_queries(results, k=spec.k)

    def _knn_block(self, queries: np.ndarray, k: int) -> List[QueryResult]:
        kernel = kernels.active()
        num_queries = queries.shape[0]
        query_shifted = np.stack(
            [(self._query_directions @ q) + self._offsets for q in queries]
        )
        budget = int(math.ceil(self.beta * self.n)) + k
        verified_mask = np.zeros((num_queries, self.n), dtype=bool)
        pool_ids: List[List[np.ndarray]] = [[] for _ in range(num_queries)]
        pool_dists: List[List[np.ndarray]] = [[] for _ in range(num_queries)]
        verified_count = np.zeros(num_queries, dtype=np.int64)
        rounds = np.zeros(num_queries, dtype=np.int64)
        active = np.ones(num_queries, dtype=bool)
        scale = 1.0
        for _ in range(64):
            idx = np.flatnonzero(active)
            if idx.size == 0:
                break
            rounds[idx] += 1
            cell_width = self._unit_width * scale
            counts = np.zeros((idx.size, self.n), dtype=np.int32)
            for i in range(self.m):
                keys = self._sorted_raw[i]
                ids_i = self._sorted_ids[i]
                cell = np.floor(query_shifted[idx, i] / cell_width)
                lo = cell * cell_width
                start = np.searchsorted(keys, lo, side="left")
                stop = np.searchsorted(keys, lo + cell_width, side="left")
                # Cell slices hold distinct ids per hash: fancy-index add
                # is exact and far cheaper than np.add.at.
                for pos in range(idx.size):
                    if stop[pos] > start[pos]:
                        counts[pos, ids_i[start[pos] : stop[pos]]] += 1
            fresh_q: List[np.ndarray] = []
            fresh_ids: List[np.ndarray] = []
            for pos, a in enumerate(idx):
                fresh = np.flatnonzero(
                    (counts[pos] >= self.collision_threshold) & ~verified_mask[a]
                )
                if fresh.size:
                    verified_mask[a, fresh] = True
                    fresh_q.append(np.full(fresh.size, a, dtype=np.int64))
                    fresh_ids.append(fresh)
            if fresh_ids:
                rep_q = np.concatenate(fresh_q)
                ids = np.concatenate(fresh_ids)
                dists = kernel.verify_distances(self.data, ids, queries, rep_q)
                offset = 0
                for chunk_q, chunk_ids in zip(fresh_q, fresh_ids):
                    a = int(chunk_q[0])
                    pool_ids[a].append(chunk_ids)
                    pool_dists[a].append(dists[offset : offset + chunk_ids.size])
                    offset += chunk_ids.size
                    verified_count[a] += chunk_ids.size
            radius_now = self._unit_width * scale / self.w
            threshold = self.c * radius_now
            for a in idx:
                within = sum(
                    int((chunk <= threshold).sum()) for chunk in pool_dists[a]
                )
                if within >= k or verified_count[a] >= budget:
                    active[a] = False
            scale *= self.c
        results: List[QueryResult] = []
        for a in range(num_queries):
            if pool_ids[a]:
                all_ids = np.concatenate(pool_ids[a])
                all_dists = np.concatenate(pool_dists[a])
                order = np.lexsort((all_ids, all_dists))[:k]
                top_ids, top_dists = all_ids[order], all_dists[order]
            else:
                top_ids = np.empty(0, dtype=np.int64)
                top_dists = np.empty(0, dtype=np.float64)
            results.append(
                QueryResult(
                    ids=top_ids,
                    distances=top_dists,
                    stats={
                        "candidates": float(verified_count[a]),
                        "m": float(self.m),
                        "rounds": float(rounds[a]),
                    },
                )
            )
        return results

    def _count_collisions(self, query_shifted: np.ndarray, cell_width: float) -> np.ndarray:
        """Collision counts for the bucket-aligned cells of width *cell_width*.

        A point collides on hash i iff it falls into the same grid cell as
        the query: ``⌊x/cell⌋ == ⌊q/cell⌋`` — an interval scan on the
        sorted projections.
        """
        counts = np.zeros(self.n, dtype=np.int32)
        for i in range(self.m):
            cell = math.floor(query_shifted[i] / cell_width)
            lo = cell * cell_width
            hi = lo + cell_width
            keys = self._sorted_raw[i]
            start = int(np.searchsorted(keys, lo, side="left"))
            stop = int(np.searchsorted(keys, hi, side="left"))
            if stop > start:
                counts[self._sorted_ids[i][start:stop]] += 1
        return counts
