"""What one shard does for one round — the single ``kind → job`` table.

The sharded engine's correctness story — byte-identical results no
matter how the work is executed — rests on every shard running exactly
the same code whichever carrier brings it there.  This module *is* that
code: a round is a ``(kind, payload)`` pair, :func:`run_job` looks the
kind up in :data:`JOBS` and calls it with the payload's entries as
keyword arguments.  The in-process carrier calls it on the engine's own
shards, the process workers call it on their re-attached replicas, and
the deterministic ``(distance, id)`` merge in the parent does the rest.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Any, Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.baselines.base import ANNIndex, BatchResult
from repro.queries import ClosestPairResult, Knn, Range, RangeResult


def shard_knn(
    shard: ANNIndex, shard_id: int, *, queries: np.ndarray, spec: Knn
) -> BatchResult:
    """One shard's contribution to a kNN batch.

    The spec travels verbatim apart from k, clamped to the shard's LIVE
    count; a fully-tombstoned shard contributes an empty ``(Q, 0)`` block
    that the merge ignores.
    """
    k_s = min(spec.k, shard.nlive)
    if k_s < 1:
        return BatchResult(
            ids=np.full((queries.shape[0], 0), -1, dtype=np.int64),
            distances=np.full((queries.shape[0], 0), np.inf),
        )
    return shard.run(queries, replace(spec, k=k_s))


def shard_range(
    shard: ANNIndex, shard_id: int, *, queries: np.ndarray, spec: Range
) -> RangeResult:
    """One shard's ragged range answer (the spec forwards verbatim)."""
    return shard.run(queries, spec)


def shard_closest_pairs(
    shard: ANNIndex, shard_id: int, *, m: int, budget: int | None
) -> ClosestPairResult:
    """One shard's intra-shard closest pairs, capped at its pair count."""
    if shard.nlive < 2:  # fewer than two live points: no pairs
        return ClosestPairResult(
            pairs=np.empty((0, 2), dtype=np.int64),
            distances=np.empty(0, dtype=np.float64),
        )
    shard_max = shard.nlive * (shard.nlive - 1) // 2
    return shard.closest_pairs(min(m, shard_max), budget=budget)


def shard_sweep(
    shard: ANNIndex,
    shard_id: int,
    *,
    targets: Mapping[int, Sequence[np.ndarray]],
    radius: float,
    budget: int | None,
) -> List[RangeResult]:
    """The cross-shard boundary sweep against one TARGET shard.

    ``targets[shard_id]`` is the list of point blocks to sweep against
    this shard — each earlier shard's live rows; the shard answers a
    range query at the sweep radius for every block, in block order.  A
    shard the table does not name is not a target and answers ``[]``.
    """
    return [
        shard.range_search(points, radius, budget=budget)
        for points in targets.get(shard_id, ())
    ]


#: Every kind of round the engine fans out.  A payload's keys are the
#: job's keyword arguments.
JOBS = {
    "knn": shard_knn,
    "range": shard_range,
    "cp": shard_closest_pairs,
    "sweep": shard_sweep,
}


def run_job(
    kind: str, shard_id: int, shard: ANNIndex, payload: Dict[str, Any]
) -> Tuple[Any, float]:
    """Run one shard's part of a ``(kind, payload)`` round.

    Returns ``(result, elapsed_ms)`` — the shard's wall time on the
    clock of whoever ran it, which is what the engine's per-shard
    timings report under every carrier.
    """
    job = JOBS.get(kind)
    if job is None:
        raise ValueError(f"unknown job kind {kind!r}")
    start = time.perf_counter()
    result = job(shard, shard_id, **payload)
    return result, (time.perf_counter() - start) * 1e3
