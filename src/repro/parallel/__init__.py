"""What a shard round is, and the two carriers that can run one.

:mod:`repro.engine` describes every fan-out as a ``(kind, payload)``
round and hands it to a carrier; this package is everything behind that
seam:

* :mod:`repro.parallel.jobs` — the one ``kind → job`` table (k clamping,
  empty-shard blocks, pair-count caps, sweep targets): what a shard does
  for a round, whoever carries it there;
* :mod:`repro.parallel.pool` — the carriers.  :class:`LocalPool` runs
  the jobs on the engine's own shard objects (inline or on threads);
  :class:`WorkerPool` runs them in N worker processes over pipes, keeps
  their shared-memory replicas in step with the shards, respawns a dead
  worker, and reports pool health into :mod:`repro.obs`;
* :mod:`repro.parallel.worker` — the worker-process main loop: attach
  read-only to shard snapshots, answer rounds, re-attach on epoch bumps;
* :mod:`repro.parallel.shm` — publish a dict of NumPy arrays into one
  named ``multiprocessing.shared_memory`` segment and re-attach them
  zero-copy from another process.

``ShardedIndex(..., pool_backend="process")`` selects the process
carrier; which one is faster is measured by ``bench_e2e``'s ``parallel.vs_thread_ratio``.
See :doc:`docs/parallelism` for the contract and the protocol.
"""

from repro.parallel.pool import LocalPool, WorkerPool
from repro.parallel.shm import (
    SEGMENT_PREFIX,
    AttachedSegment,
    PublishedSegment,
    SegmentHandle,
    attach_segment,
    leaked_segments,
    publish_arrays,
)

__all__ = [
    "SEGMENT_PREFIX",
    "AttachedSegment",
    "LocalPool",
    "PublishedSegment",
    "SegmentHandle",
    "WorkerPool",
    "attach_segment",
    "leaked_segments",
    "publish_arrays",
]
