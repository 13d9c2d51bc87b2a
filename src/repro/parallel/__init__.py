"""Process-parallel query execution on shared-memory snapshots.

The GIL caps what the thread-pool fan-out in :mod:`repro.engine` can buy:
shard searches overlap only while NumPy holds the GIL dropped, and
`results/engine_scaling.txt` measured the net effect as a *slowdown*.
This package provides the process-level alternative:

* :mod:`repro.parallel.shm` — publish a dict of NumPy arrays into one
  named ``multiprocessing.shared_memory`` segment and re-attach them
  zero-copy from another process;
* :mod:`repro.parallel.jobs` — the per-shard job semantics (k clamping,
  empty-shard blocks, pair-count caps) shared by the thread and process
  fan-outs, so both backends execute literally the same code per shard;
* :mod:`repro.parallel.worker` — the worker-process main loop: attach
  read-only to shard snapshots, answer query jobs, re-attach on epoch
  bumps;
* :mod:`repro.parallel.pool` — the parent-side :class:`WorkerPool`
  driving N workers over pipes, publishing shard snapshots, and
  reporting pool health into :mod:`repro.obs`.

The sharded engine exposes all of this as
``ShardedIndex(..., pool_backend="process")`` (or the ``"process-sharded"``
registry alias); see :doc:`docs/parallelism` for the protocol.
"""

from repro.parallel.pool import WorkerPool
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
    "PublishedSegment",
    "SegmentHandle",
    "WorkerPool",
    "attach_segment",
    "leaked_segments",
    "publish_arrays",
]
