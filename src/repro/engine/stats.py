"""Serving statistics for the sharded engine.

The engine keeps two levels of diagnostics:

* :class:`ShardStats` — one per shard: backend repr, ``ntotal``, and the
  wall time / candidate work of the shard's part of the last batch;
* :class:`EngineStats` — the aggregate: lifetime query and batch counters,
  throughput (QPS) over the serving window, and the shard table.

``EngineStats.as_table()`` renders the per-shard view in the same
monospace style the benchmark layer uses, so examples and benches can
print engine state with one call.

:class:`LatencyWindow` — the shared latency digest behind the
per-request percentiles — now lives in :mod:`repro.obs.metrics` as the
histogram backend of the metrics registry; it is re-exported here so
existing imports keep working.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.evaluation.tables import format_table
from repro.obs.metrics import LatencyWindow

__all__ = ["EngineStats", "LatencyWindow", "ShardStats"]


@dataclass(frozen=True)
class ShardStats:
    """Snapshot of one shard's contribution to the engine."""

    shard: int
    backend: str
    ntotal: int
    repr: str
    search_ms: float = 0.0  # wall time of this shard in the last batch
    mean_candidates: float = float("nan")  # last batch, per query
    #: PM-tree nodes visited per query in the last batch (flat-traversal
    #: backends report it; NaN for backends without a tree).
    mean_tree_nodes: float = float("nan")
    #: Live points (``ntotal`` minus tombstones); defaults to ``ntotal``
    #: for callers constructing stats without lifecycle information.
    nlive: int = -1

    def __post_init__(self) -> None:
        if self.nlive < 0:
            object.__setattr__(self, "nlive", self.ntotal)

    def as_row(self) -> List[object]:
        return [
            self.shard,
            self.backend,
            self.ntotal,
            self.nlive,
            self.search_ms,
            self.mean_candidates,
            self.mean_tree_nodes,
            self.repr,
        ]

    def as_dict(self) -> Dict[str, object]:
        """Flat form matching ``EngineStats.as_dict``/``ServingStats.as_dict``
        (numbers stay numbers; ``backend``/``repr`` stay strings)."""
        return {
            "shard": self.shard,
            "backend": self.backend,
            "ntotal": self.ntotal,
            "nlive": self.nlive,
            "search_ms": self.search_ms,
            "mean_candidates": self.mean_candidates,
            "mean_tree_nodes": self.mean_tree_nodes,
            "repr": self.repr,
        }


@dataclass(frozen=True)
class EngineStats:
    """Aggregate serving statistics of a :class:`ShardedIndex`."""

    num_shards: int
    num_workers: int
    ntotal: int
    batches_served: int
    queries_served: int
    points_added: int
    search_time_ms: float  # cumulative wall time across served batches
    last_batch_ms: float
    last_batch_queries: int
    #: Queries served through the ragged range path (subset of
    #: ``queries_served``) and closest-pair calls answered.
    range_queries_served: int = 0
    closest_pair_calls: int = 0
    #: Fan-out flavour: ``"thread"`` (in-process pool) or ``"process"``
    #: (shared-memory worker pool, :mod:`repro.parallel`).
    pool_backend: str = "thread"
    shards: Tuple[ShardStats, ...] = field(default_factory=tuple)
    #: Lifecycle counters: live points, outstanding tombstones, points
    #: logically deleted over the engine's lifetime, compactions run.
    nlive: int = -1
    tombstones: int = 0
    points_deleted: int = 0
    compactions: int = 0

    def __post_init__(self) -> None:
        if self.nlive < 0:
            object.__setattr__(self, "nlive", self.ntotal)

    @property
    def qps(self) -> float:
        """Lifetime throughput: queries served per second of search wall time."""
        if self.search_time_ms <= 0.0:
            return 0.0
        return self.queries_served / (self.search_time_ms / 1e3)

    @property
    def last_batch_qps(self) -> float:
        if self.last_batch_ms <= 0.0:
            return 0.0
        return self.last_batch_queries / (self.last_batch_ms / 1e3)

    def as_dict(self) -> Dict[str, float]:
        """Flat numeric form, convenient for result tables and logging."""
        return {
            "num_shards": float(self.num_shards),
            "num_workers": float(self.num_workers),
            "ntotal": float(self.ntotal),
            "batches_served": float(self.batches_served),
            "queries_served": float(self.queries_served),
            "points_added": float(self.points_added),
            "search_time_ms": float(self.search_time_ms),
            "qps": float(self.qps),
            "last_batch_ms": float(self.last_batch_ms),
            "last_batch_queries": float(self.last_batch_queries),
            "last_batch_qps": float(self.last_batch_qps),
            "range_queries_served": float(self.range_queries_served),
            "closest_pair_calls": float(self.closest_pair_calls),
            "nlive": float(self.nlive),
            "tombstones": float(self.tombstones),
            "points_deleted": float(self.points_deleted),
            "compactions": float(self.compactions),
        }

    def as_table(self) -> str:
        """Monospace per-shard table plus an aggregate footer line."""
        rows = [shard.as_row() for shard in self.shards]
        note = (
            f"workers={self.num_workers} ({self.pool_backend}) "
            f"ntotal={self.ntotal} nlive={self.nlive} "
            f"tombstones={self.tombstones} batches={self.batches_served} "
            f"queries={self.queries_served} (range={self.range_queries_served}) "
            f"cp_calls={self.closest_pair_calls} added={self.points_added} "
            f"deleted={self.points_deleted} compactions={self.compactions} "
            f"lifetime QPS={self.qps:.1f}"
        )
        return format_table(
            f"Engine stats ({self.num_shards} shards)",
            ["Shard", "Backend", "ntotal", "nlive", "Last ms", "Cand/query", "Tree nodes/query", "Index"],
            rows,
            note=note,
        )
