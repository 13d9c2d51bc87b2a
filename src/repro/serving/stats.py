"""Serving statistics of the async micro-batching front-end.

:class:`ServingStats` is the immutable snapshot
:meth:`~repro.serving.server.AsyncSearchServer.stats` returns: request /
batch / flush counters, the current queue depth, batch occupancy, cache
effectiveness and the latency percentiles read out of the server's
:class:`~repro.engine.stats.LatencyWindow`.  ``as_table()`` renders it in
the same monospace style as ``EngineStats.as_table()``, so the serving
demo and the benchmarks print both layers side by side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.evaluation.tables import format_table


@dataclass(frozen=True)
class ServingStats:
    """Snapshot of an :class:`~repro.serving.server.AsyncSearchServer`.

    Counters are lifetime (since construction); ``queue_depth`` and
    ``inflight_batches`` are instantaneous; latency percentiles cover the
    retained window of recent requests (queue → answer, milliseconds).
    ``size_flushes`` / ``deadline_flushes`` / ``drain_flushes`` break the
    batches down by what triggered them: the batch-size threshold, the
    deadline timer, or an explicit ``flush()`` (writes and shutdown drain
    through it).
    """

    requests_submitted: int
    requests_served: int
    batches_served: int
    queue_depth: int
    inflight_batches: int
    size_flushes: int
    deadline_flushes: int
    drain_flushes: int
    cache_hits: int
    cache_misses: int
    points_added: int
    epoch: int
    mean_occupancy: float
    latency_p50_ms: float
    latency_p99_ms: float
    latency_mean_ms: float
    #: Lifecycle counters: points logically deleted through the server,
    #: background compactions completed, and index hot-swaps (compaction
    #: swap-ins plus replica refreshes) since construction.
    points_deleted: int = 0
    compactions: int = 0
    index_swaps: int = 0
    #: Admission control: requests shed with ``DeadlineExceeded`` (their
    #: deadline passed before the batch ran) and requests refused with
    #: ``QueueFull`` (the bounded queue was at ``max_queue_depth``).
    requests_shed: int = 0
    requests_rejected: int = 0

    @property
    def cache_hit_rate(self) -> float:
        """Hits over cache lookups; NaN when the cache never ran."""
        lookups = self.cache_hits + self.cache_misses
        if lookups == 0:
            return float("nan")
        return self.cache_hits / lookups

    def as_dict(self) -> Dict[str, float]:
        """Flat numeric form, convenient for result tables and logging."""
        return {
            "requests_submitted": float(self.requests_submitted),
            "requests_served": float(self.requests_served),
            "batches_served": float(self.batches_served),
            "queue_depth": float(self.queue_depth),
            "inflight_batches": float(self.inflight_batches),
            "size_flushes": float(self.size_flushes),
            "deadline_flushes": float(self.deadline_flushes),
            "drain_flushes": float(self.drain_flushes),
            "cache_hits": float(self.cache_hits),
            "cache_misses": float(self.cache_misses),
            "cache_hit_rate": float(self.cache_hit_rate),
            "points_added": float(self.points_added),
            "epoch": float(self.epoch),
            "mean_occupancy": float(self.mean_occupancy),
            "latency_p50_ms": float(self.latency_p50_ms),
            "latency_p99_ms": float(self.latency_p99_ms),
            "latency_mean_ms": float(self.latency_mean_ms),
            "points_deleted": float(self.points_deleted),
            "compactions": float(self.compactions),
            "index_swaps": float(self.index_swaps),
            "requests_shed": float(self.requests_shed),
            "requests_rejected": float(self.requests_rejected),
        }

    def as_table(self) -> str:
        """One-row monospace summary plus a flush/cache footer line."""
        note = (
            f"flushes: size={self.size_flushes} deadline={self.deadline_flushes} "
            f"drain={self.drain_flushes} | cache: hits={self.cache_hits} "
            f"misses={self.cache_misses} | added={self.points_added} "
            f"deleted={self.points_deleted} compactions={self.compactions} "
            f"swaps={self.index_swaps} epoch={self.epoch} "
            f"queue={self.queue_depth} inflight={self.inflight_batches} | "
            f"admission: shed={self.requests_shed} "
            f"rejected={self.requests_rejected}"
        )
        return format_table(
            "Serving stats (async micro-batcher)",
            ["Requests", "Batches", "Occupancy", "p50 (ms)", "p99 (ms)", "Hit rate"],
            [
                [
                    self.requests_served,
                    self.batches_served,
                    self.mean_occupancy,
                    self.latency_p50_ms,
                    self.latency_p99_ms,
                    self.cache_hit_rate,
                ]
            ],
            note=note,
        )
