"""The worker-process main loop of the process-pool shard backend.

A worker owns a fixed subset of shards (shard s belongs to worker
``s % num_workers``) and holds, per shard, an index replica restored by
:func:`repro.persistence.restore_state` over read-only shared-memory
views — no dataset copy, no rebuild.  The parent drives it over one
duplex pipe with small tuple messages:

``("attach", shard_id, handle, state)``
    (Re)attach the shard: map the named segment, restore the replica
    from its views and the stamped *state*, drop any previous replica
    for that shard id and unmap its old segment.  This is both the
    bootstrap and the epoch re-attach path — the parent sends it again
    whenever the shard's epoch bumps.  Reply ``("ok", shard_id)``.
``("run", kind, payload)``
    Run one round over every owned shard in ascending shard order; reply
    ``("ok", {shard_id: (result, elapsed_ms), ...})``.  What a kind does
    is :func:`repro.parallel.jobs.run_job`'s business, not the worker's.
``("ping",)``
    Liveness probe; reply ``("ok", worker_id)``.
``("stop",)``
    Unmap everything and exit; reply ``("bye",)``.

Any exception while serving a message is caught and shipped back as
``("error", formatted_traceback)`` — the worker stays alive, the parent
raises.  Query payloads carry only ``(queries, spec)``; results return
as the ordinary (compact, array-backed) result dataclasses.
"""

from __future__ import annotations

import traceback
from typing import Any, Dict, Tuple

from repro.parallel.jobs import run_job
from repro.parallel.shm import AttachedSegment, SegmentHandle, attach_segment
from repro.persistence import restore_state


def _restore(handle: SegmentHandle, state: Dict[str, Any]):
    """Attach the segment and rebuild the shard replica from its views."""
    attachment = attach_segment(handle)
    try:
        return attachment, restore_state(attachment.arrays, state)
    except BaseException:
        attachment.close()  # a failed restore must not pin the segment
        raise


def _run_jobs(
    shards: Dict[int, Any], kind: str, payload: Dict[str, Any]
) -> Dict[int, Tuple[Any, float]]:
    return {
        shard_id: run_job(kind, shard_id, shards[shard_id], payload)
        for shard_id in sorted(shards)
    }


def worker_main(worker_id: int, conn) -> None:
    """Serve messages on *conn* until ``stop`` (or the pipe dies).

    Runs as the target of a ``multiprocessing.Process`` — importable at
    module level so the pool works under the ``spawn`` start method too.
    """
    shards: Dict[int, Any] = {}
    segments: Dict[int, AttachedSegment] = {}
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break  # parent went away; exit quietly
            op = message[0]
            if op == "stop":
                conn.send(("bye",))
                break
            try:
                if op == "attach":
                    _, shard_id, handle, state = message
                    attachment, index = _restore(handle, state)
                    shards[shard_id] = index
                    stale = segments.pop(shard_id, None)
                    segments[shard_id] = attachment
                    if stale is not None:
                        stale.close()
                    conn.send(("ok", shard_id))
                elif op == "run":
                    _, kind, payload = message
                    conn.send(("ok", _run_jobs(shards, kind, payload)))
                elif op == "ping":
                    conn.send(("ok", worker_id))
                else:
                    conn.send(("error", f"unknown op {op!r}"))
            except Exception:
                conn.send(("error", traceback.format_exc()))
    finally:
        shards.clear()
        for attachment in segments.values():
            attachment.close()
        try:
            conn.close()
        except Exception:
            pass
