"""QALSH: query-aware LSH over B+-trees (the radius-enlarging baseline, §3.1).

Huang et al. (PVLDB'15).  Key ideas reproduced here:

* **query-aware hash** — ``h_i(o) = a_i·o`` with no random offset; the
  bucket of the radius-r round is the interval of width ``w·r`` *centred at
  the query's own projection* ("point-to-bucket" estimation granularity in
  the paper's taxonomy);
* **one B+-tree per hash function** — projections are indexed once, and the
  virtual-rehashing rounds (r = 1, c, c², …) only widen the window each
  cursor scans, never rebuild anything;
* **collision counting** — a point becomes a candidate once it collides
  with the query in at least ``l = ⌈α·m⌉`` of the m trees; candidates are
  verified in the original space.  The query stops when k candidates within
  c·r are known or βn + k points have been verified.

Parameter derivation follows the published recipe: with error probability
δ = 1/e and false-positive fraction β = 100/n, the bucket width
``w = √(8c²ln c/(c²−1))`` minimises m, p1 = 2Φ(w/2)−1, p2 = 2Φ(w/(2c))−1,
and m / α are set so both Chernoff tails close simultaneously.

Two interchangeable index backends are provided:

* ``backend='bptree'`` — the faithful structure: one
  :class:`~repro.bptree.tree.BPlusTree` per hash function, walked with
  bidirectional cursors exactly as the on-disk original would be;
* ``backend='array'`` (default) — sorted numpy arrays with incremental
  window bounds; algorithmically identical (the windows, collision counts
  and candidate sets match the B+-tree backend entry for entry) but
  vectorised.  Tests assert result equality between the two.
"""

from __future__ import annotations

import math
from typing import List, Tuple

import numpy as np
from scipy import stats

from repro import kernels
from repro.baselines.base import ANNIndex, BatchResult, QueryResult
from repro.bptree.tree import BPlusTree
from repro.core.hashing import GaussianProjection
from repro.datasets.distance import point_to_points_distances
from repro.queries import Knn
from repro.registry import register_index
from repro.utils.rng import RandomState, as_generator


def optimal_bucket_width(c: float) -> float:
    """w* = sqrt(8·c²·ln(c) / (c² − 1)): the width minimising m."""
    if c <= 1.0:
        raise ValueError(f"approximation ratio c must exceed 1, got {c}")
    return math.sqrt(8.0 * c * c * math.log(c) / (c * c - 1.0))


def collision_probabilities(w: float, c: float) -> Tuple[float, float]:
    """(p1, p2) for the query-aware bucket of width w at distances 1 and c."""
    p1 = 2.0 * stats.norm.cdf(w / 2.0) - 1.0
    p2 = 2.0 * stats.norm.cdf(w / (2.0 * c)) - 1.0
    return float(p1), float(p2)


def derive_parameters(n: int, c: float, delta: float, beta: float) -> Tuple[int, float, float]:
    """Solve for (m, alpha, w) per the QALSH recipe.

    m is the number of hash functions (and B+-trees) and alpha the collision
    threshold percentage, chosen so that

    * a true positive (distance ≤ 1 pre-scaling) collides in ≥ α·m trees
      with probability ≥ 1 − δ, and
    * each false positive (distance > c) collides in ≥ α·m trees with
      probability ≤ β,

    via the two-sided Hoeffding bounds: with η = √(ln(2/β) / ln(1/δ)),
    α = (η·p1 + p2) / (1 + η) and
    m = ⌈ (√(ln(2/β)) + √(ln(1/δ)))² / (2 (p1 − p2)²) ⌉.
    """
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    if not 0.0 < delta < 1.0 or not 0.0 < beta < 1.0:
        raise ValueError(f"delta and beta must be in (0, 1), got {delta}, {beta}")
    w = optimal_bucket_width(c)
    p1, p2 = collision_probabilities(w, c)
    ln_inv_delta = math.log(1.0 / delta)
    ln_two_beta = math.log(2.0 / beta)
    eta = math.sqrt(ln_two_beta / ln_inv_delta)
    alpha = (eta * p1 + p2) / (1.0 + eta)
    m = math.ceil(
        (math.sqrt(ln_two_beta) + math.sqrt(ln_inv_delta)) ** 2
        / (2.0 * (p1 - p2) ** 2)
    )
    return int(m), float(alpha), float(w)


@register_index("qalsh")
class QALSH(ANNIndex):
    """Query-aware LSH with virtual rehashing and collision counting."""

    name = "QALSH"

    def __init__(
        self,
        *,
        c: float = 1.5,
        delta: float = 1.0 / math.e,
        false_positive_base: float = 100.0,
        backend: str = "array",
        bptree_order: int = 64,
        seed: RandomState = None,
    ) -> None:
        super().__init__()
        if c <= 1.0:
            raise ValueError(f"approximation ratio c must exceed 1, got {c}")
        if backend not in ("array", "bptree"):
            raise ValueError(f"unknown backend {backend!r}; use 'array' or 'bptree'")
        self.c = float(c)
        self.delta = float(delta)
        self.false_positive_base = float(false_positive_base)
        self.backend = backend
        self.bptree_order = bptree_order
        self._rng = as_generator(seed)
        # β, m, α and the collision threshold depend on n, so they are
        # derived in _fit() (and re-derived whenever the dataset grows
        # through add()'s re-fit).
        self.beta: float | None = None
        self.m: int | None = None
        self.alpha: float | None = None
        self.w: float | None = None
        self.collision_threshold: int | None = None
        self.projection: GaussianProjection | None = None
        self.projections: np.ndarray | None = None
        self._trees: List[BPlusTree] = []
        self._sorted_keys: np.ndarray | None = None  # (m, n)
        self._sorted_ids: np.ndarray | None = None  # (m, n)
        self._projection_spread: float = 1.0

    def _fit(self) -> None:
        # β = 100/n in the paper; clamp for tiny test datasets.
        self.beta = min(0.5, self.false_positive_base / self.n)
        self.m, self.alpha, self.w = derive_parameters(self.n, self.c, self.delta, self.beta)
        self.collision_threshold = max(1, math.ceil(self.alpha * self.m))
        self.projection = GaussianProjection(self.d, self.m, seed=self._rng)
        self.projections = self.projection.project(self.data)  # (n, m)
        # Dataset-level projection scale, used to seed the virtual-rehashing
        # radius ladder (the projections are unnormalised, so the paper's
        # r = 1 starting radius has no absolute meaning here).
        center = float(np.median(self.projections))
        self._projection_spread = float(
            np.median(np.abs(self.projections - center))
        ) or 1.0
        if self.backend == "bptree":
            self._trees = [
                BPlusTree.from_items(
                    zip(self.projections[:, i].tolist(), range(self.n)),
                    order=self.bptree_order,
                )
                for i in range(self.m)
            ]
        else:
            order = np.argsort(self.projections, axis=0, kind="stable")  # (n, m)
            self._sorted_ids = order.T.copy()  # (m, n)
            self._sorted_keys = np.take_along_axis(self.projections, order, axis=0).T.copy()

    # ------------------------------------------------------------------
    # query: virtual rehashing + collision counting
    # ------------------------------------------------------------------

    def _query_one(self, q: np.ndarray, k: int) -> QueryResult:
        query_proj = self.projection.project(q)  # (m,)
        collisions = np.zeros(self.n, dtype=np.int32)
        verified: List[Tuple[int, float]] = []
        verified_mask = np.zeros(self.n, dtype=bool)
        budget = int(math.ceil(self.beta * self.n)) + k

        # The projections are unnormalised, so radius-1 is meaningless in
        # absolute terms; seed the ladder from the dataset's projection
        # spread so round 1 covers a thin but non-empty window.
        radius = max(self._projection_spread / 16.0, 1e-12)

        if self.backend == "array":
            lo_idx = np.empty(self.m, dtype=np.int64)
            hi_idx = np.empty(self.m, dtype=np.int64)
            for i in range(self.m):
                # Degenerate initial window: nothing consumed yet.
                start = int(np.searchsorted(self._sorted_keys[i], query_proj[i]))
                lo_idx[i] = start
                hi_idx[i] = start
            state = (lo_idx, hi_idx)
        else:
            state = [
                tree.cursor(float(query_proj[i])) for i, tree in enumerate(self._trees)
            ]

        max_rounds = 64
        rounds = 0
        for _ in range(max_rounds):
            rounds += 1
            half_window = self.w * radius / 2.0
            if self.backend == "array":
                self._advance_windows(state, query_proj, half_window, collisions)
            else:
                self._advance_cursors(state, query_proj, half_window, collisions)
            self._verify_candidates(q, collisions, verified, verified_mask)
            within = sum(1 for _, dist in verified if dist <= self.c * radius)
            if within >= k or len(verified) >= budget:
                break
            radius *= self.c

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
    # batched kNN (array backend only)
    # ------------------------------------------------------------------

    #: Cap on (block queries × n) collision-matrix entries per sweep.
    _BATCH_BLOCK_ENTRIES = 8_000_000

    def _run_knn(self, queries: np.ndarray, spec: Knn) -> BatchResult:
        """Round-synchronous batch path over the sorted-array backend.

        Runs the virtual-rehashing ladder for a whole query block at
        once: per round, every still-active query widens its m windows
        (vectorised ``searchsorted`` bounds, incremental collision
        deltas), all fresh threshold-crossers of the round are verified
        by **one** gathered distance kernel, and per-query termination
        mirrors the loop exactly.  Projections stay per-query GEMVs —
        window boundaries compare those exact bits.  Results, distances
        and stats are byte-identical to the per-query :meth:`_query_one`
        loop, which the B+-tree storage backend still takes (its cursors
        have no batched form).
        """
        if self.backend != "array":
            return super()._run_knn(queries, spec)
        results: List[QueryResult] = []
        block = max(1, self._BATCH_BLOCK_ENTRIES // max(1, self.n))
        for start in range(0, queries.shape[0], block):
            results.extend(self._knn_block(queries[start : start + block], spec.k))
        return BatchResult.from_queries(results, k=spec.k)

    def _knn_block(self, queries: np.ndarray, k: int) -> List[QueryResult]:
        kernel = kernels.active()
        num_queries = queries.shape[0]
        # Per-query GEMVs: bit-identical to the loop's projection.
        query_proj = np.stack([self.projection.project(q) for q in queries])
        budget = int(math.ceil(self.beta * self.n)) + k
        collisions = np.zeros((num_queries, self.n), dtype=np.int32)
        verified_mask = np.zeros((num_queries, self.n), dtype=bool)
        pool_ids: List[List[np.ndarray]] = [[] for _ in range(num_queries)]
        pool_dists: List[List[np.ndarray]] = [[] for _ in range(num_queries)]
        verified_count = np.zeros(num_queries, dtype=np.int64)
        rounds = np.zeros(num_queries, dtype=np.int64)
        active = np.ones(num_queries, dtype=bool)
        lo_idx = np.empty((num_queries, self.m), dtype=np.int64)
        hi_idx = np.empty((num_queries, self.m), dtype=np.int64)
        for i in range(self.m):
            pos = np.searchsorted(self._sorted_keys[i], query_proj[:, i])
            lo_idx[:, i] = pos
            hi_idx[:, i] = pos
        radius = max(self._projection_spread / 16.0, 1e-12)
        for _ in range(64):
            idx = np.flatnonzero(active)
            if idx.size == 0:
                break
            rounds[idx] += 1
            half_window = self.w * radius / 2.0
            for i in range(self.m):
                keys = self._sorted_keys[i]
                ids_i = self._sorted_ids[i]
                lo_t = np.searchsorted(keys, query_proj[idx, i] - half_window, side="left")
                hi_t = np.searchsorted(keys, query_proj[idx, i] + half_window, side="right")
                # A window slice of one hash's sorted order holds distinct
                # ids, so a fancy-index add is exact (and far cheaper than
                # np.add.at, which must assume duplicates).
                for pos, a in enumerate(idx):
                    if lo_t[pos] < lo_idx[a, i]:
                        collisions[a, ids_i[lo_t[pos] : lo_idx[a, i]]] += 1
                        lo_idx[a, i] = lo_t[pos]
                    if hi_t[pos] > hi_idx[a, i]:
                        collisions[a, ids_i[hi_idx[a, i] : hi_t[pos]]] += 1
                        hi_idx[a, i] = hi_t[pos]
            # One gathered verification kernel for the whole round.
            fresh_q: List[np.ndarray] = []
            fresh_ids: List[np.ndarray] = []
            for a in idx:
                fresh = np.flatnonzero(
                    (collisions[a] >= self.collision_threshold) & ~verified_mask[a]
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
            threshold = self.c * radius
            for a in idx:
                within = sum(
                    int((chunk <= threshold).sum()) for chunk in pool_dists[a]
                )
                if within >= k or verified_count[a] >= budget:
                    active[a] = False
            radius *= self.c
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

    # ------------------------------------------------------------------
    # backend: incremental window expansion over sorted arrays
    # ------------------------------------------------------------------

    def _advance_windows(
        self,
        state: Tuple[np.ndarray, np.ndarray],
        query_proj: np.ndarray,
        half_window: float,
        collisions: np.ndarray,
    ) -> None:
        """Widen each hash function's window to ±half_window and count the
        newly covered entries — the vectorised twin of the cursor walk."""
        lo_idx, hi_idx = state
        for i in range(self.m):
            keys = self._sorted_keys[i]
            ids = self._sorted_ids[i]
            lo_target = int(np.searchsorted(keys, query_proj[i] - half_window, side="left"))
            hi_target = int(np.searchsorted(keys, query_proj[i] + half_window, side="right"))
            if lo_target < lo_idx[i]:
                collisions[ids[lo_target : lo_idx[i]]] += 1
                lo_idx[i] = lo_target
            if hi_target > hi_idx[i]:
                collisions[ids[hi_idx[i] : hi_target]] += 1
                hi_idx[i] = hi_target

    # ------------------------------------------------------------------
    # backend: B+-tree cursors
    # ------------------------------------------------------------------

    def _advance_cursors(
        self,
        cursors,
        query_proj: np.ndarray,
        half_window: float,
        collisions: np.ndarray,
    ) -> None:
        """Consume every cursor entry inside ±half_window of the query
        projection and bump collision counts."""
        for i, cursor in enumerate(cursors):
            center = float(query_proj[i])
            lo, hi = center - half_window, center + half_window
            while True:
                entry = cursor.peek_right()
                if entry is None or entry[0] > hi:
                    break
                cursor.move_right()
                collisions[entry[1]] += 1
            while True:
                entry = cursor.peek_left()
                if entry is None or entry[0] < lo:
                    break
                cursor.move_left()
                collisions[entry[1]] += 1

    def _verify_candidates(
        self,
        q: np.ndarray,
        collisions: np.ndarray,
        verified: List[Tuple[int, float]],
        verified_mask: np.ndarray,
    ) -> None:
        """Verify (in the original space) every new point whose collision
        count reached the threshold."""
        fresh = np.flatnonzero((collisions >= self.collision_threshold) & ~verified_mask)
        if fresh.size == 0:
            return
        verified_mask[fresh] = True
        dists = point_to_points_distances(q, self.data[fresh])
        verified.extend((int(pid), float(dist)) for pid, dist in zip(fresh, dists))
