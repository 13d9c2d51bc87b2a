"""Result-quality metrics (§6.1, Eqs. 11–12, plus the VLDBJ workloads).

* **overall ratio** — mean of ``‖q, o_i‖ / ‖q, o*_i‖`` over ranks i, where
  o_i is the algorithm's i-th result and o*_i the exact i-th NN; 1.0 is
  perfect, larger is worse.
* **recall** — |R ∩ R*| / |R*|.
* **range recall** — the same set recall for (r, c)-ball range queries,
  measured against the exact ball B(q, r); an empty exact ball scores 1.
"""

from __future__ import annotations

import numpy as np


def overall_ratio(
    result_distances: np.ndarray, exact_distances: np.ndarray, k: int | None = None
) -> float:
    """Eq. 11: rank-wise distance ratio, averaged over the k ranks.

    Both arrays must be ascending.  When the algorithm returned fewer than k
    points, the missing ranks are scored with the worst observed ratio of
    this query (a conservative convention; an empty result raises).
    """
    result_distances = np.asarray(result_distances, dtype=np.float64)
    exact_distances = np.asarray(exact_distances, dtype=np.float64)
    if k is None:
        k = exact_distances.size
    if k <= 0 or exact_distances.size < k:
        raise ValueError(f"need at least k={k} exact distances, got {exact_distances.size}")
    if result_distances.size == 0:
        raise ValueError("algorithm returned no results; ratio undefined")
    ranks = min(k, result_distances.size)
    exact = exact_distances[:ranks]
    # Exact distance can be zero when the query coincides with a data point;
    # in that case any non-zero result distance yields an infinite ratio,
    # which we clamp by treating equal-zero pairs as ratio 1.
    ratios = np.empty(ranks, dtype=np.float64)
    for i in range(ranks):
        if exact[i] <= 0.0:
            ratios[i] = 1.0 if result_distances[i] <= 0.0 else np.inf
        else:
            ratios[i] = result_distances[i] / exact[i]
    if ranks < k:
        worst = ratios.max() if np.isfinite(ratios.max()) else np.inf
        ratios = np.concatenate([ratios, np.full(k - ranks, worst)])
    return float(ratios.mean())


def recall(result_ids: np.ndarray, exact_ids: np.ndarray, k: int | None = None) -> float:
    """Eq. 12: fraction of the exact kNN set that the algorithm returned."""
    result_ids = np.asarray(result_ids, dtype=np.int64)
    exact_ids = np.asarray(exact_ids, dtype=np.int64)
    if k is None:
        k = exact_ids.size
    if k <= 0 or exact_ids.size < k:
        raise ValueError(f"need at least k={k} exact ids, got {exact_ids.size}")
    exact_set = set(int(i) for i in exact_ids[:k])
    hits = sum(1 for i in result_ids[:k] if int(i) in exact_set)
    return hits / k


def range_recall(result_ids: np.ndarray, exact_ids: np.ndarray) -> float:
    """Set recall for one range query: |R ∩ R*| / |R*|.

    ``exact_ids`` is the exact ball population B(q, r).  An empty exact
    ball is answered perfectly by an empty result, so it scores 1.0
    regardless of what the algorithm returned (extra points inside
    B(q, c·r) are permitted by the (r, c) contract and never penalised
    here — measure them separately via precision if needed).
    """
    exact_set = set(int(i) for i in np.asarray(exact_ids, dtype=np.int64))
    if not exact_set:
        return 1.0
    hits = sum(1 for i in np.asarray(result_ids, dtype=np.int64) if int(i) in exact_set)
    return hits / len(exact_set)


def range_precision(
    result_distances: np.ndarray, r: float
) -> float:
    """Fraction of returned range matches that lie inside the exact ball.

    Under the (r, c) contract an algorithm may admit points up to c·r;
    this measures how much of that slack it actually used.  An empty
    result scores 1.0 (nothing wrong was returned).
    """
    result_distances = np.asarray(result_distances, dtype=np.float64)
    if result_distances.size == 0:
        return 1.0
    return float(np.mean(result_distances <= r))

