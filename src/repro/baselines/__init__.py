"""Baseline algorithms PM-LSH is evaluated against (§3, §6.1).

Every algorithm — including PM-LSH itself — implements the
:class:`~repro.baselines.base.ANNIndex` interface so the evaluation harness
treats them uniformly:

* :class:`~repro.baselines.srs.SRS` — metric-indexing baseline (R-tree +
  incremental NN in the projected space, χ² early termination).
* :class:`~repro.baselines.qalsh.QALSH` — radius-enlarging baseline with
  query-aware hashes over sorted projections and virtual rehashing.
* :class:`~repro.baselines.multiprobe.MultiProbeLSH` — probing-sequence
  baseline with query-directed perturbation sets.
* :class:`~repro.baselines.rlsh.RLSH` — PM-LSH's algorithm with the R-tree
  substituted for the PM-tree (the §6.1 ablation).
* :class:`~repro.baselines.lscan.LinearScan` — random-portion linear scan.
* :class:`~repro.baselines.e2lsh.E2LSH` — the basic LSH scheme of §2.2.
* :class:`~repro.baselines.exact.ExactKNN` — brute-force ground truth.
* :class:`~repro.baselines.c2lsh.C2LSH` — dynamic collision counting, the
  other radius-enlarging method §3.1 describes.
* :class:`~repro.baselines.lsb.LSBForest` — Z-order LSB-trees, the third
  radius-enlarging method §3.1 describes.

Each baseline has one kNN path.  C2LSH, E2LSH, LSB-Forest and QALSH
answer a whole query matrix in one vectorised ``_run_knn`` (C2LSH and
QALSH share their round loop through
:class:`~repro.baselines.base.CollisionCountingLSH`); the others answer
row by row through ``_query_one``.  ``tests/oracles/baseline_loops.py``
keeps per-query references for the four batch paths.
"""

from repro.baselines.base import ANNIndex, BatchResult, QueryResult
from repro.baselines.c2lsh import C2LSH
from repro.baselines.e2lsh import E2LSH
from repro.baselines.exact import ExactKNN
from repro.baselines.lsb import LSBForest
from repro.baselines.lscan import LinearScan
from repro.baselines.multiprobe import MultiProbeLSH
from repro.baselines.qalsh import QALSH
from repro.baselines.rlsh import RLSH
from repro.baselines.srs import SRS

__all__ = [
    "ANNIndex",
    "BatchResult",
    "C2LSH",
    "E2LSH",
    "ExactKNN",
    "LSBForest",
    "LinearScan",
    "MultiProbeLSH",
    "QALSH",
    "QueryResult",
    "RLSH",
    "SRS",
]
