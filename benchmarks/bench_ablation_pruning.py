"""Ablation (§4.1, the Eq. 5 pruning battery) — where the PM-tree's advantage comes from.

Not a paper table, but the design-choice study DESIGN.md calls out:

* hyper-rings on/off and parent-distance filter on/off (the two pruning
  tests that distinguish the PM-tree from a plain M-tree): results must be
  identical, distance computations must drop when each filter is enabled;
* pivot selection policies (maxsep vs random): ring tightness.
"""

from __future__ import annotations

import time

import numpy as np

from conftest import bench_seed  # noqa: I001 (script-mode sys.path bootstrap)

from repro.core.hashing import GaussianProjection
from repro.evaluation.tables import format_table
from repro.pmtree import PMTree


def _query_workload(projected, radius, trials=15, seed=bench_seed(4)):
    rng = np.random.default_rng(seed)
    return [projected[rng.integers(0, projected.shape[0])] + 0.01 for _ in range(trials)]


def test_ablation_pruning_filters(cache, write_result, benchmark):
    workload = cache.workload("Cifar")
    projection = GaussianProjection(workload.d, 15, seed=bench_seed(3))
    projected = projection.project(workload.data)
    radius = float(
        np.quantile(
            np.linalg.norm(projected - projected[0], axis=1), 0.1
        )
    )
    queries = _query_workload(projected, radius)
    rows = []
    costs = {}

    def run_ablation():
        rows.clear()
        baseline_results = None
        for rings in (True, False):
            for parent in (True, False):
                tree = PMTree.build(
                    projected, num_pivots=5, capacity=64,
                    use_rings=rings, use_parent_filter=parent, seed=bench_seed(5),
                )
                tree.reset_counters()
                answers = []
                start = time.perf_counter()
                for query in queries:
                    answers.append(sorted(pid for pid, _ in tree.range_query(query, radius)))
                elapsed_ms = (time.perf_counter() - start) * 1e3 / len(queries)
                if baseline_results is None:
                    baseline_results = answers
                assert answers == baseline_results, "pruning changed results"
                label = f"rings={'on' if rings else 'off'},parent={'on' if parent else 'off'}"
                costs[(rings, parent)] = tree.distance_computations / len(queries)
                rows.append(
                    [label, tree.distance_computations / len(queries), elapsed_ms]
                )

    benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    table = format_table(
        "Ablation: PM-tree pruning filters (Cifar, 10% selectivity)",
        ["Configuration", "Distance comps / query", "Time (ms) / query"],
        rows,
        note="Rings and the parent filter must not change results, only cost.",
    )
    write_result("ablation_pruning", table)

    # Rings must reduce distance computations (the PM-tree's raison d'etre).
    assert costs[(True, True)] <= costs[(False, True)]
    assert costs[(True, False)] <= costs[(False, False)]


def test_ablation_pivot_selection(cache, write_result, benchmark):
    workload = cache.workload("Trevi")
    projection = GaussianProjection(workload.d, 15, seed=bench_seed(3))
    projected = projection.project(workload.data)
    radius = float(
        np.quantile(np.linalg.norm(projected - projected[0], axis=1), 0.1)
    )
    queries = _query_workload(projected, radius)
    rows = []
    costs = {}

    def run_pivot_comparison():
        rows.clear()
        for method in ("maxsep", "random", "variance"):
            tree = PMTree.build(
                projected, num_pivots=5, capacity=64, pivot_method=method, seed=bench_seed(7)
            )
            tree.reset_counters()
            for query in queries:
                tree.range_query(query, radius)
            costs[method] = tree.distance_computations / len(queries)
            rows.append([method, costs[method]])

    benchmark.pedantic(run_pivot_comparison, rounds=1, iterations=1)
    table = format_table(
        "Ablation: pivot selection policy (Trevi)",
        ["Pivot policy", "Distance comps / query"],
        rows,
        note="Well-separated pivots give tighter rings, hence better pruning.",
    )
    write_result("ablation_pivots", table)


if __name__ == "__main__":
    import sys

    from _cli import bench_main

    sys.exit(bench_main(__file__, __doc__))
