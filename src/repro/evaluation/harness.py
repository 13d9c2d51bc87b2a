"""Run an ANN index over a query workload and aggregate §6's three metrics:
average query time (ms), overall ratio, and recall — plus the VLDBJ
extension's range queries (recall against the exact ball, precision over
the admitted c·r slack).

Indexes can be supplied as instances or constructed by registry name
through :func:`evaluate_algorithm`, and kNN workloads can be driven either
through the per-query ``query()`` loop (the paper's protocol — every
query timed individually) or through the batched ``search()`` entry
point (``batch=True`` — one timed call, amortised per-query latency).
Range evaluation (:func:`run_range_query_set`) always uses the batched
entry point.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping

import numpy as np

from repro.baselines.base import ANNIndex
from repro.evaluation.ground_truth import (
    GroundTruth,
    compute_ground_truth,
)
from repro.evaluation.metrics import (
    overall_ratio,
    range_precision,
    range_recall,
    recall,
)
from repro.queries import RangeResult
from repro.registry import create_index


@dataclass(frozen=True)
class AlgorithmResult:
    """Aggregated outcome of one (algorithm, workload, k) evaluation."""

    algorithm: str
    dataset: str
    k: int
    query_time_ms: float
    overall_ratio: float
    recall: float
    per_query_time_ms: np.ndarray = field(repr=False, default=None)
    extra: Dict[str, float] = field(default_factory=dict)

    def as_row(self) -> str:
        ntotal = self.extra.get("ntotal")
        suffix = f" n={int(ntotal)}" if ntotal is not None else ""
        return (
            f"{self.algorithm:<12} {self.dataset:<8} k={self.k:<4} "
            f"time={self.query_time_ms:8.2f}ms ratio={self.overall_ratio:.4f} "
            f"recall={self.recall:.4f}{suffix}"
        )


def run_query_set(
    index: ANNIndex,
    queries: np.ndarray,
    k: int,
    ground_truth: GroundTruth,
    batch: bool = False,
) -> AlgorithmResult:
    """Query *index* with every row of *queries*.

    With ``batch=False`` (the paper's protocol) each ``query()`` call is
    timed individually; with ``batch=True`` one ``search()`` call answers
    the whole matrix and its wall time is divided evenly across queries.
    Ratio and recall are averaged over queries exactly as in §6.1 either
    way; per-query times are kept so the benchmark layer can report
    distributions.
    """
    if not index.is_built:
        raise RuntimeError(f"{index.name}: fit the index before evaluation")
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    num_queries = queries.shape[0]
    if ground_truth.num_queries != num_queries:
        raise ValueError(
            f"ground truth covers {ground_truth.num_queries} queries, got {num_queries}"
        )
    if ground_truth.k_max < k:
        raise ValueError(f"ground truth has k_max={ground_truth.k_max} < k={k}")
    times = np.empty(num_queries, dtype=np.float64)
    ratios = np.empty(num_queries, dtype=np.float64)
    recalls = np.empty(num_queries, dtype=np.float64)
    candidate_counts: List[float] = []

    if batch:
        start = time.perf_counter()
        result = index.search(queries, k)
        times[:] = (time.perf_counter() - start) * 1e3 / num_queries
        for i in range(num_queries):
            exact_ids, exact_dists = ground_truth.for_query(i, k)
            valid = result.ids[i] >= 0
            ratios[i] = overall_ratio(result.distances[i][valid], exact_dists, k=k)
            recalls[i] = recall(result.ids[i][valid], exact_ids, k=k)
            stats = (
                result.per_query_stats[i] if i < len(result.per_query_stats) else {}
            )
            if "candidates" in stats:
                candidate_counts.append(stats["candidates"])
    else:
        for i, query in enumerate(queries):
            start = time.perf_counter()
            result = index.query(query, k)
            times[i] = (time.perf_counter() - start) * 1e3
            exact_ids, exact_dists = ground_truth.for_query(i, k)
            ratios[i] = overall_ratio(result.distances, exact_dists, k=k)
            recalls[i] = recall(result.ids, exact_ids, k=k)
            if "candidates" in result.stats:
                candidate_counts.append(result.stats["candidates"])

    finite = np.isfinite(ratios)
    mean_ratio = float(ratios[finite].mean()) if np.any(finite) else float("inf")
    extra: Dict[str, float] = {"ntotal": float(index.ntotal)}
    if candidate_counts:
        extra["mean_candidates"] = float(np.mean(candidate_counts))
    return AlgorithmResult(
        algorithm=index.name,
        dataset="",
        k=k,
        query_time_ms=float(times.mean()),
        overall_ratio=mean_ratio,
        recall=float(recalls.mean()),
        per_query_time_ms=times,
        extra=extra,
    )


def evaluate_index(
    index: ANNIndex,
    data: np.ndarray,
    queries: np.ndarray,
    k: int,
    dataset_name: str = "",
    ground_truth: GroundTruth | None = None,
    batch: bool = False,
) -> AlgorithmResult:
    """Convenience wrapper: compute ground truth if absent, then run."""
    if ground_truth is None:
        ground_truth = compute_ground_truth(data, queries, k_max=k)
    result = run_query_set(index, queries, k, ground_truth, batch=batch)
    return AlgorithmResult(
        algorithm=result.algorithm,
        dataset=dataset_name,
        k=result.k,
        query_time_ms=result.query_time_ms,
        overall_ratio=result.overall_ratio,
        recall=result.recall,
        per_query_time_ms=result.per_query_time_ms,
        extra=result.extra,
    )


@dataclass(frozen=True)
class RangeAlgorithmResult:
    """Aggregated outcome of one (algorithm, workload, radius) range run."""

    algorithm: str
    dataset: str
    radius: float
    query_time_ms: float
    recall: float
    precision: float
    mean_returned: float
    extra: Dict[str, float] = field(default_factory=dict)

    def as_row(self) -> str:
        return (
            f"{self.algorithm:<12} {self.dataset:<8} r={self.radius:<8.3g} "
            f"time={self.query_time_ms:8.2f}ms recall={self.recall:.4f} "
            f"precision={self.precision:.4f} returned={self.mean_returned:.1f}"
        )


def run_range_query_set(
    index: ANNIndex,
    queries: np.ndarray,
    radius: float,
    ground_truth: RangeResult,
    dataset_name: str = "",
    c: float | None = None,
    budget: int | None = None,
) -> RangeAlgorithmResult:
    """Range-query every row of *queries* at *radius* and score the answers.

    One timed ``range_search`` call answers the batch; per-query recall is
    measured against the exact ball (``ground_truth`` from
    :func:`~repro.evaluation.ground_truth.compute_range_ground_truth`),
    precision against the radius itself (how much of the c·r slack the
    algorithm used).
    """
    if not index.is_built:
        raise RuntimeError(f"{index.name}: fit the index before evaluation")
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    num_queries = queries.shape[0]
    if ground_truth.num_queries != num_queries:
        raise ValueError(
            f"ground truth covers {ground_truth.num_queries} queries, got {num_queries}"
        )
    start = time.perf_counter()
    result = index.range_search(queries, radius, c=c, budget=budget)
    elapsed_ms = (time.perf_counter() - start) * 1e3
    recalls = np.empty(num_queries, dtype=np.float64)
    precisions = np.empty(num_queries, dtype=np.float64)
    for i in range(num_queries):
        recalls[i] = range_recall(result[i].ids, ground_truth[i].ids)
        precisions[i] = range_precision(result[i].distances, radius)
    extra: Dict[str, float] = {"ntotal": float(index.ntotal)}
    if "candidates" in result.stats:
        extra["mean_candidates"] = float(result.stats["candidates"])
    return RangeAlgorithmResult(
        algorithm=index.name,
        dataset=dataset_name,
        radius=float(radius),
        query_time_ms=elapsed_ms / num_queries,
        recall=float(recalls.mean()),
        precision=float(precisions.mean()),
        mean_returned=float(result.counts.mean()),
        extra=extra,
    )


def evaluate_algorithm(
    name: str,
    data: np.ndarray,
    queries: np.ndarray,
    k: int,
    dataset_name: str = "",
    ground_truth: GroundTruth | None = None,
    batch: bool = False,
    index_params: Mapping[str, Any] | None = None,
) -> AlgorithmResult:
    """Factory-driven evaluation: construct *name* via the registry, fit it
    on *data*, and run the workload.

    ``index_params`` is passed to :func:`repro.create_index` verbatim, so
    any registered algorithm — including ones registered by downstream
    code — is one string away from a paper-style evaluation row.
    """
    index = create_index(name, **dict(index_params or {}))
    index.fit(data)
    return evaluate_index(
        index,
        data,
        queries,
        k,
        dataset_name=dataset_name,
        ground_truth=ground_truth,
        batch=batch,
    )
