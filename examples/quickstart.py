"""Quickstart: construct an index by name, fit it, and run batch queries.

Every algorithm in the library follows the same lifecycle:

    index = repro.create_index("pm-lsh", seed=42)   # registry factory
    index.fit(data)                                 # build over (n, d)
    batch = index.search(queries, k)                # (Q, d) -> BatchResult
    index.add(new_points)                           # dynamic growth

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

import repro
from repro.evaluation.metrics import overall_ratio, recall


def main() -> None:
    rng = np.random.default_rng(0)

    # 1. A dataset: 5,000 points in 128 dimensions with cluster structure
    #    (descriptor-like data; pure noise would make any ANN method sweat).
    centers = rng.uniform(-10, 10, size=(20, 128))
    data = centers[rng.integers(0, 20, size=5000)] + rng.normal(size=(5000, 128))

    # 2. Construct by registry name and fit.  Defaults follow the paper's
    #    §6.1 (s = 5 pivots, c = 1.5, alpha1 = 1/e); the number of
    #    projections m is picked from n at fit (15 here, at 5,000 points).
    print(f"registered algorithms: {', '.join(repro.available_indexes())}")
    index = repro.create_index("pm-lsh", seed=42).fit(data)
    print(f"indexed {index.n} points in {index.d} dimensions")
    print(
        f"solved parameters: t={index.solved.t:.3f} "
        f"alpha2={index.solved.alpha2:.4f} beta={index.solved.beta:.4f}"
    )

    # 3. Batch query: the approximate 10 NN of 25 perturbed points at once.
    #    search() projects the whole matrix in one GEMM and returns padded
    #    (Q, k) id/distance matrices plus aggregated per-query stats.
    queries = data[rng.integers(0, 5000, size=25)] + rng.normal(size=(25, 128)) * 0.1
    batch = index.search(queries, k=10)
    print(f"\nbatch search: ids {batch.ids.shape}, distances {batch.distances.shape}")
    print(
        f"aggregated stats: {batch.stats['candidates']:.0f} candidates and "
        f"{batch.stats['rounds']:.1f} range-query round(s) per query on average"
    )

    # 4. Single-query form, compared against the exact answer.
    query = queries[0]
    result = index.query(query, k=10)
    exact = repro.create_index("exact").fit(data).query(query, k=10)
    print("\n(c, k)-ANN result (k=10):")
    for pid, dist in zip(result.ids, result.distances):
        print(f"  point {pid:>5}  distance {dist:8.4f}")
    print(f"recall:        {recall(result.ids, exact.ids):.3f}")
    print(f"overall ratio: {overall_ratio(result.distances, exact.distances):.4f}")

    # 5. Dynamic growth: add() makes new points immediately queryable.
    new_points = centers[rng.integers(0, 20, size=50)] + rng.normal(size=(50, 128))
    new_ids = index.add(new_points)
    hit = index.query(new_points[0], k=1)
    print(f"\nadded {len(new_ids)} points; nearest to the first new point: "
          f"id {int(hit.ids[0])} (expected {int(new_ids[0])})")

    # 6. The (r, c)-ball-cover primitive (Algorithm 1) is also exposed.
    radius = float(exact.distances[0]) * 1.2
    hit = index.ball_cover_query(query, r=radius)
    print(f"\n(r, c)-BC query at r={radius:.3f}: "
          + (f"point {hit[0]} at {hit[1]:.4f}" if hit else "empty"))

    # 7. Range queries: everything within r of each query, as a ragged
    #    CSR RangeResult.  The native PM-LSH path holds the (r, c)-ball
    #    contract on a budgeted candidate set instead of a full scan.
    ragged = index.range_search(queries[:5], r=radius * 4)
    print(f"\nrange search at r={radius * 4:.2f}: "
          f"per-query match counts {ragged.counts.tolist()} "
          f"({ragged.stats['candidates']:.0f} candidates/query vs n={index.n})")

    # 8. Per-query runtime knobs ride on the spec layer: cap this call's
    #    candidate budget without touching the index configuration.
    knobbed = index.run(queries[:5], repro.Knn(k=10, budget=200))
    print(f"budget-capped search: {knobbed.stats['candidates']:.0f} "
          f"candidates/query (default {batch.stats['candidates']:.0f})")

    # 9. Closest-pair search: the m tightest pairs of the indexed set via
    #    PM-LSH's projected-space self-join.
    pairs = index.closest_pairs(3)
    print("closest pairs:", [(i, j, round(d, 4)) for i, j, d in pairs])


if __name__ == "__main__":
    main()
