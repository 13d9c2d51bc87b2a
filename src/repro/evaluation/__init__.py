"""Evaluation harness: the metrics, runners and formatters behind §6.

* :mod:`repro.evaluation.metrics` — overall ratio (Eq. 11), recall
  (Eq. 12) and range recall/precision.
* :mod:`repro.evaluation.ground_truth` — cached exact kNN per workload,
  plus exact range and closest-pair references.
* :mod:`repro.evaluation.harness` — run any :class:`ANNIndex` over a query
  set (kNN or range), timing each call and aggregating quality metrics.
* :mod:`repro.evaluation.tables` — plain-text table/series formatting used
  by the benchmark scripts to print paper-style outputs.
"""

from repro.evaluation.ground_truth import (
    GroundTruth,
    compute_closest_pairs_ground_truth,
    compute_ground_truth,
    compute_range_ground_truth,
)
from repro.evaluation.harness import (
    AlgorithmResult,
    RangeAlgorithmResult,
    evaluate_algorithm,
    evaluate_index,
    run_query_set,
    run_range_query_set,
)
from repro.evaluation.metrics import (
    overall_ratio,
    range_precision,
    range_recall,
    recall,
)
from repro.evaluation.tables import format_series, format_table

__all__ = [
    "AlgorithmResult",
    "GroundTruth",
    "RangeAlgorithmResult",
    "compute_closest_pairs_ground_truth",
    "compute_ground_truth",
    "compute_range_ground_truth",
    "evaluate_algorithm",
    "evaluate_index",
    "format_series",
    "format_table",
    "overall_ratio",
    "range_precision",
    "range_recall",
    "recall",
    "run_query_set",
    "run_range_query_set",
]
