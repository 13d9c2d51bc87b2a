"""QALSH: query-aware LSH (the radius-enlarging baseline, §3.1).

Huang et al. (PVLDB'15).  Key ideas reproduced here:

* **query-aware hash** — ``h_i(o) = a_i·o`` with no random offset; the
  bucket of the radius-r round is the interval of width ``w·r`` *centred at
  the query's own projection* ("point-to-bucket" estimation granularity in
  the paper's taxonomy);
* **one sorted index per hash function** — projections are indexed once,
  and the virtual-rehashing rounds (r = 1, c, c², …) only widen the window
  scanned around the query, never rebuild anything.  The published
  structure is a B+-tree per hash walked by bidirectional cursors; here
  each is a sorted projection array whose windows widen by
  ``searchsorted`` — the same windows, entry for entry, as the B+-tree
  walk in ``tests/oracles/baseline_loops.py``, the test reference;
* **collision counting** — a point becomes a candidate once it collides
  with the query in at least ``l = ⌈α·m⌉`` of the m hash functions;
  candidates are verified in the original space.  The query stops when k
  candidates within c·r are known or βn + k points have been verified.

Parameter derivation follows the published recipe: with error probability
δ = 1/e and false-positive fraction β = 100/n, the bucket width
``w = √(8c²ln c/(c²−1))`` minimises m, p1 = 2Φ(w/2)−1, p2 = 2Φ(w/(2c))−1,
and m / α are set so both Chernoff tails close simultaneously.

The round loop — fresh-candidate verification, termination and the final
``(distance, id)`` cut — is :class:`~repro.baselines.base.CollisionCountingLSH`'s,
shared with C2LSH; this module says only how a round counts collisions.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np
from scipy import stats

from repro.baselines.base import CollisionCountingLSH
from repro.core.hashing import GaussianProjection
from repro.registry import register_index
from repro.utils.rng import RandomState


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

    m is the number of hash functions and alpha the collision threshold
    percentage, chosen so that

    * a true positive (distance ≤ 1 pre-scaling) collides in ≥ α·m hash
      functions with probability ≥ 1 − δ, and
    * each false positive (distance > c) collides in ≥ α·m hash functions
      with probability ≤ β,

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
class QALSH(CollisionCountingLSH):
    """Query-aware LSH with virtual rehashing and collision counting."""

    name = "QALSH"

    def __init__(
        self,
        *,
        c: float = 1.5,
        delta: float = 1.0 / math.e,
        false_positive_base: float = 100.0,
        seed: RandomState = None,
    ) -> None:
        super().__init__(
            c=c, delta=delta, false_positive_base=false_positive_base, seed=seed
        )
        self.w: float | None = None
        self.projection: GaussianProjection | None = None
        self.projections: np.ndarray | None = None
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
        order = np.argsort(self.projections, axis=0, kind="stable")  # (n, m)
        self._sorted_ids = order.T.copy()  # (m, n)
        self._sorted_keys = np.take_along_axis(self.projections, order, axis=0).T.copy()

    # ------------------------------------------------------------------
    # one round: widen every window, count the newly covered entries
    # ------------------------------------------------------------------

    def _ladder(self):
        # A sixteenth of the projection spread: round 1 covers a thin but
        # non-empty window.
        radius = max(self._projection_spread / 16.0, 1e-12)
        while True:
            yield radius, self.c * radius
            radius *= self.c

    def _round_counter(self, queries: np.ndarray):
        # Per-row GEMVs: the window bounds a row sees must not depend on
        # which batch it arrived in.
        query_proj = np.stack([self.projection.project(q) for q in queries])
        collisions = np.zeros((queries.shape[0], self.n), dtype=np.int32)
        # Window [lo_idx, hi_idx) per (query, hash): empty at the query's
        # insertion point until round 1 widens it.
        lo_idx = np.empty((queries.shape[0], self.m), dtype=np.int64)
        for i in range(self.m):
            lo_idx[:, i] = np.searchsorted(self._sorted_keys[i], query_proj[:, i])
        hi_idx = lo_idx.copy()

        def count(idx: np.ndarray, radius: float) -> np.ndarray:
            """Widen each window to ±w·radius/2 around the query's
            projection (inclusive) and count the newly covered entries;
            counts accumulate over rounds, as windows only grow."""
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
            return collisions[idx]

        return count
