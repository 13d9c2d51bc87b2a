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

The round loop — fresh-candidate verification, termination and the final
``(distance, id)`` cut — is :class:`~repro.baselines.base.CollisionCountingLSH`'s,
shared with QALSH; this module says only how a round counts collisions.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro.baselines.base import CollisionCountingLSH
from repro.core.hashing import collision_probability
from repro.registry import register_index
from repro.utils.rng import RandomState


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
    if not 0.0 < delta < 1.0 or not 0.0 < beta < 1.0:
        raise ValueError(f"delta and beta must be in (0, 1), got {delta}, {beta}")
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
class C2LSH(CollisionCountingLSH):
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
        super().__init__(
            c=c, delta=delta, false_positive_base=false_positive_base, seed=seed
        )
        if w <= 0:
            raise ValueError(f"bucket width w must be positive, got {w}")
        self.w = float(w)
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

    def _ladder(self):
        # R = 1, c, c², … in spread units; a grid cell is ~ w·R wide.
        scale = 1.0
        while True:
            yield scale, self.c * (self._unit_width * scale / self.w)
            scale *= self.c

    def _round_counter(self, queries: np.ndarray):
        # Per-row GEMVs: the floored cell ids a row sees must not depend
        # on which batch it arrived in.
        shifted = np.stack([(self._query_directions @ q) + self._offsets for q in queries])

        def count(idx: np.ndarray, scale: float) -> np.ndarray:
            """A point collides on hash i iff it shares the query's grid
            cell, ``⌊x/cell⌋ == ⌊q/cell⌋``: an interval of the sorted
            projections, recounted from scratch every round."""
            cell_width = self._unit_width * scale
            counts = np.zeros((idx.size, self.n), dtype=np.int32)
            for i in range(self.m):
                keys = self._sorted_raw[i]
                ids_i = self._sorted_ids[i]
                lo = np.floor(shifted[idx, i] / cell_width) * cell_width
                start = np.searchsorted(keys, lo, side="left")
                stop = np.searchsorted(keys, lo + cell_width, side="left")
                # Cell slices hold distinct ids per hash: fancy-index add
                # is exact and far cheaper than np.add.at.
                for pos in np.flatnonzero(stop > start):
                    counts[pos, ids_i[start[pos] : stop[pos]]] += 1
            return counts

        return count
