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
from typing import Any, Dict, Tuple

import numpy as np

from repro.baselines.base import ANNIndex, BatchResult
from repro.queries import Knn, Range, RangeResult


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


#: Every kind of round the engine fans out.  A payload's keys are the
#: job's keyword arguments.
JOBS = {
    "knn": shard_knn,
    "range": shard_range,
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
