"""Range-query bench — the VLDBJ extension's (r, c)-ball workload (arXiv:2107.05537).

For a fixed clustered workload the bench sweeps ball radii chosen as
quantiles of the pairwise-distance distribution, comparing PM-LSH's
native (r, c)-ball path against the exact brute-force reference on
recall, candidates scanned and QPS.  (Closest pairs are the exact
self-join on every backend, so there is no PM-LSH path to time here.)

Writes the paper-style table to ``results/range_cp.txt``.  Scale with
``REPRO_BENCH_N`` / ``REPRO_BENCH_QUERIES`` (see conftest).
"""

from __future__ import annotations

import time

import numpy as np

from conftest import bench_n, bench_queries, bench_seed  # noqa: I001 (script-mode sys.path bootstrap)

from repro import create_index
from repro.datasets.distance import sample_distance_distribution
from repro.datasets.synthetic import gaussian_mixture
from repro.evaluation.ground_truth import compute_range_ground_truth
from repro.evaluation.harness import run_range_query_set
from repro.evaluation.tables import format_table


DIM = 64
#: Ball radii as quantiles of F(x): selective, moderate, dense.
RADIUS_QUANTILES = [0.01, 0.05, 0.15]


def _timed_range(index, queries, radius) -> float:
    start = time.perf_counter()
    index.range_search(queries, radius)
    return time.perf_counter() - start


def test_bench_range_cp(write_result, benchmark):
    n = max(bench_n(), 200)
    num_queries = max(bench_queries(), 8)
    data = gaussian_mixture(n, DIM, num_clusters=20, cluster_std=0.8, seed=bench_seed(11))
    rng = np.random.default_rng(bench_seed(1))
    queries = (
        data[rng.integers(0, n, size=num_queries)]
        + rng.normal(size=(num_queries, DIM)) * 0.05
    )
    distribution = sample_distance_distribution(data, num_pairs=20_000, seed=bench_seed(2))

    exact = create_index("exact").fit(data)
    pm = create_index("pm-lsh", seed=bench_seed(7)).fit(data)

    rows = []
    for quantile in RADIUS_QUANTILES:
        radius = distribution.quantile(quantile)
        truth = compute_range_ground_truth(data, queries, radius)
        for label, index in (("Exact", exact), ("PM-LSH", pm)):
            outcome = run_range_query_set(index, queries, radius, truth)
            seconds = _timed_range(index, queries, radius)
            rows.append(
                [
                    label,
                    radius,
                    quantile,
                    float(truth.counts.mean()),
                    outcome.recall,
                    outcome.precision,
                    outcome.extra.get("mean_candidates", float(n)),
                    num_queries / seconds,
                ]
            )

    range_table = format_table(
        "(r, c)-ball range queries: recall / candidates / QPS vs exact",
        ["Index", "Radius", "F-quant", "Ball size", "Recall", "Precision", "Cand/query", "QPS"],
        rows,
        note=f"n={n}, Q={num_queries}, d={DIM}, c=1.5 (PM-LSH native path)",
    )
    write_result("range_cp", range_table)

    benchmark.pedantic(
        lambda: pm.range_search(queries, distribution.quantile(0.05)),
        rounds=3,
        iterations=1,
    )

    pm_rows = [row for row in rows if row[0] == "PM-LSH"]
    # The native path must hold the (r, c) recall promise while scanning
    # fewer candidates than the brute-force reference on *selective* balls
    # (a ball holding ~15% of a tiny smoke dataset legitimately needs a
    # near-linear candidate budget, so only the selective radii gate).
    assert all(row[4] >= 0.9 for row in pm_rows), "PM-LSH range recall fell below 0.9"
    assert all(
        row[6] < n for row in pm_rows if row[2] <= 0.05
    ), "PM-LSH scanned every point on a selective ball"


if __name__ == "__main__":
    import sys

    from _cli import bench_main

    sys.exit(bench_main(__file__, __doc__))
