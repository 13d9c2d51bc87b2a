"""PM-LSH: a fast and accurate LSH framework for high-dimensional
approximate nearest-neighbour search.

A from-scratch Python reproduction of Zheng et al., PVLDB 13(5), 2020
(DOI 10.14778/3377369.3377374), extended with the VLDBJ journal
version's workloads.  The package provides:

* :class:`~repro.core.pmlsh.PMLSH` — the paper's index (Algorithms 1–2);
* every baseline it is evaluated against (:mod:`repro.baselines`);
* a central registry (:mod:`repro.registry`) so any algorithm can be
  constructed by name through :func:`create_index`, and a unified
  persistence entry (:func:`load_index`, :class:`SnapshotError`);
* a polymorphic query model (:mod:`repro.queries`): ``run(queries, spec)``
  answers kNN (:class:`Knn`) and ragged (r, c)-ball range queries
  (:class:`Range`) with per-query runtime knobs, and
  ``closest_pairs(m)`` answers closest-pair search — on every backend;
* a sharded parallel query engine (:mod:`repro.engine`) that partitions
  any registered backend across shards and serves kNN / range /
  closest-pair through a thread pool or, with ``pool_backend="process"``,
  shared-memory worker processes —
  ``create_index("sharded", backend="pm-lsh", ...)``;
* an async serving front-end (:mod:`repro.serving`):
  :class:`AsyncSearchServer` coalesces concurrent requests into batches
  with a deadline-based micro-batcher, interleaves writes epoch-style,
  answers byte-identical repeat queries from a cache, enforces
  per-request deadlines and a bound on admitted-but-unanswered requests
  (:class:`DeadlineExceeded`, :class:`QueueFull`), and runs on an
  injectable clock (:class:`VirtualClock` for deterministic tests);
* a unified observability layer (:mod:`repro.obs`): a process-wide
  metrics registry with Prometheus/JSON export
  (:class:`MetricsRegistry`), head-sampled per-query trace spans
  (:class:`Tracer`) covering serving → engine → tree, and a bounded
  slow-query log (:class:`SlowQueryLog`);
* an index lifecycle subsystem (:mod:`repro.lifecycle`): tombstone
  deletes (``index.delete(ids)``) filtered at verification time so
  results match an index that never held the dead points, background
  compaction (:class:`CompactionPolicy`, ``index.compact()``,
  :func:`compact_index`) and epoch-stamped replica snapshots
  (:class:`Replica`, :func:`snapshot_epoch`);
* the substrates: PM-tree (:mod:`repro.pmtree`) and R-tree
  (:mod:`repro.rtree`);
* synthetic dataset emulations and hardness statistics
  (:mod:`repro.datasets`);
* the §4.2 cost models (:mod:`repro.costmodel`) and the §6 evaluation
  harness (:mod:`repro.evaluation`).

Quickstart
----------
Every index follows the same fit/add/search lifecycle and is reachable
through the factory:

>>> import numpy as np
>>> import repro
>>> data = np.random.default_rng(0).normal(size=(2000, 128))
>>> index = repro.create_index("pm-lsh", seed=42).fit(data)
>>> batch = index.search(data[:5] + 0.01, k=10)   # (Q, d) -> BatchResult
>>> batch.ids.shape
(5, 10)
>>> ragged = index.range_search(data[:5] + 0.01, r=5.0)  # -> RangeResult
>>> len(ragged)
5
>>> pairs = index.closest_pairs(3)                # -> ClosestPairResult
>>> len(pairs)
3
>>> single = index.query(data[7] + 0.01, k=10)    # one vector
>>> len(single)
10
>>> index.add(np.random.default_rng(1).normal(size=(10, 128)))  # grow
array([2000, 2001, 2002, 2003, 2004, 2005, 2006, 2007, 2008, 2009])
>>> sorted(repro.available_indexes())[:3]
['c2lsh', 'e2lsh', 'exact']

``run(queries, spec)`` is the general entry point behind the sugar:
``Knn(k, budget=..., c=...)`` and ``Range(r, c=..., budget=...)`` carry
per-query runtime knobs.  The pre-2.0 legacy style —
``SomeIndex(data).build()``, ``query_batch()``, ``extend()`` — has been
removed; see ``CHANGES.md``.
"""

from repro.baselines import (
    ANNIndex,
    BatchResult,
    C2LSH,
    E2LSH,
    ExactKNN,
    LSBForest,
    LinearScan,
    MultiProbeLSH,
    QALSH,
    QueryResult,
    RLSH,
    SRS,
)
from repro.core import (
    GaussianProjection,
    LSHFunction,
    PMLSH,
    PMLSHParams,
    solve_parameters,
)
from repro.datasets import load_dataset
from repro.engine import ShardedIndex
from repro.lifecycle import (
    CompactionPolicy,
    CompactionResult,
    Replica,
    TombstoneSet,
    compact_index,
)
from repro.obs import (
    MetricsRegistry,
    SlowQueryLog,
    Trace,
    Tracer,
    current_trace,
    default_registry,
    use_trace,
)
from repro.persistence import SnapshotError, load_index, snapshot_epoch
from repro.pmtree import PMTree
from repro.queries import (
    ClosestPairResult,
    Knn,
    QuerySpec,
    Range,
    RangeResult,
)
from repro.registry import (
    available_indexes,
    create_index,
    get_index_class,
    register_index,
)
from repro.rtree import RTree
from repro.serving import (
    AsyncSearchServer,
    DeadlineExceeded,
    QueueFull,
    ServingRejected,
    VirtualClock,
)

__version__ = "2.0.0"

__all__ = [
    "ANNIndex",
    "AsyncSearchServer",
    "DeadlineExceeded",
    "BatchResult",
    "C2LSH",
    "ClosestPairResult",
    "CompactionPolicy",
    "CompactionResult",
    "E2LSH",
    "ExactKNN",
    "GaussianProjection",
    "Knn",
    "LSBForest",
    "LSHFunction",
    "LinearScan",
    "MetricsRegistry",
    "MultiProbeLSH",
    "PMLSH",
    "PMLSHParams",
    "PMTree",
    "QALSH",
    "QueryResult",
    "QuerySpec",
    "QueueFull",
    "RLSH",
    "RTree",
    "Range",
    "RangeResult",
    "Replica",
    "SRS",
    "ServingRejected",
    "ShardedIndex",
    "SlowQueryLog",
    "SnapshotError",
    "TombstoneSet",
    "Trace",
    "Tracer",
    "VirtualClock",
    "__version__",
    "available_indexes",
    "compact_index",
    "create_index",
    "current_trace",
    "default_registry",
    "get_index_class",
    "load_dataset",
    "load_index",
    "register_index",
    "snapshot_epoch",
    "solve_parameters",
    "use_trace",
]
