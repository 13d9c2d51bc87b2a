"""Parent-side process pool serving shard queries over shared memory.

:class:`WorkerPool` owns N worker processes (one duplex pipe each) and
the published shard segments.  Shard s is owned by worker ``s % N`` —
a fixed mapping, so re-publication after an epoch bump reaches exactly
the worker already serving that shard.  One query batch is one broadcast
round: every worker receives the job, answers for its shards, and the
parent reassembles the replies into shard order for the deterministic
merge.

Health telemetry publishes into the owner's metrics registry (the same
one the engine and serving layer use):

* ``pool_workers`` — workers currently alive;
* ``pool_publishes`` / ``pool_reattaches`` — shard snapshot
  publications, total and the subset replacing a live segment after an
  epoch bump;
* ``pool_ipc_roundtrips`` — worker message round-trips;
* ``pool_bytes_published`` — cumulative snapshot bytes copied into
  shared memory;
* ``pool_worker_busy_ms`` / ``pool_worker_utilization`` (per-worker
  labels) — shard wall time inside the last round, absolute and as a
  fraction of the round.

Start-method note: the default context is ``fork`` where available
(cheap, instant bootstrap) and ``spawn`` elsewhere; pass
``mp_context="spawn"`` / ``"forkserver"`` to choose explicitly.  Fork
duplicates the calling process — create the pool (first query) from the
thread that owns the index, before handing it to an async server, or
use ``spawn``.
"""

from __future__ import annotations

import multiprocessing
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.parallel.shm import PublishedSegment, publish_arrays
from repro.parallel.worker import worker_main
from repro.persistence import export_state


def default_start_method() -> str:
    """``"fork"`` where the platform offers it, else ``"spawn"``."""
    return "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


class WorkerPool:
    """N worker processes attached read-only to published shard snapshots.

    Parameters
    ----------
    num_workers:
        Worker process count (>= 1).  Shard s belongs to worker
        ``s % num_workers``.
    mp_context:
        Start method name (``"fork"``, ``"spawn"``, ``"forkserver"``);
        defaults to :func:`default_start_method`.
    registry:
        Metrics registry for pool health; the process default when None.
    labels:
        Label set scoping the pool's instruments (e.g. the owning
        engine's scope labels).
    """

    def __init__(
        self,
        num_workers: int,
        *,
        mp_context: str | None = None,
        registry=None,
        labels: Dict[str, str] | None = None,
    ) -> None:
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        self.num_workers = int(num_workers)
        self._ctx = multiprocessing.get_context(mp_context or default_start_method())
        self.start_method = self._ctx.get_start_method()
        if registry is None:
            from repro.obs.metrics import default_registry

            registry = default_registry()
        self._registry = registry
        self._labels = dict(labels or {})
        self._workers: List[Tuple[Any, Any]] = []  # (process, parent_conn)
        self._segments: Dict[int, PublishedSegment] = {}
        self._closed = False
        self._bind_metrics()

    # -- metrics -------------------------------------------------------

    def _bind_metrics(self) -> None:
        registry, labels = self._registry, self._labels
        self._c_publishes = registry.counter(
            "pool_publishes", "Shard snapshots published to shared memory", labels
        )
        self._c_reattaches = registry.counter(
            "pool_reattaches",
            "Publications replacing a live segment after an epoch bump",
            labels,
        )
        self._c_roundtrips = registry.counter(
            "pool_ipc_roundtrips", "Worker message round-trips", labels
        )
        self._c_bytes = registry.counter(
            "pool_bytes_published", "Snapshot bytes copied into shared memory", labels
        )
        self._g_workers = registry.gauge(
            "pool_workers", "Worker processes currently alive", labels
        )

    def rebind_metrics(self, registry, labels: Dict[str, str] | None = None) -> None:
        """Point the pool's instruments at a (new) registry, carrying
        counter values over — the engine calls this on a registry swap."""
        old = (
            self._c_publishes,
            self._c_reattaches,
            self._c_roundtrips,
            self._c_bytes,
        )
        self._registry = registry
        if labels is not None:
            self._labels = dict(labels)
        self._bind_metrics()
        for stale, fresh in zip(
            old,
            (self._c_publishes, self._c_reattaches, self._c_roundtrips, self._c_bytes),
        ):
            if fresh is not stale:
                fresh.value = stale.value
        self._g_workers.set(len(self._workers) if not self._closed else 0)

    # -- lifecycle -----------------------------------------------------

    @property
    def running(self) -> bool:
        return bool(self._workers) and not self._closed

    def start(self) -> "WorkerPool":
        """Spawn the workers (idempotent while running)."""
        if self._closed:
            raise RuntimeError("WorkerPool is closed")
        if self._workers:
            return self
        for worker_id in range(self.num_workers):
            parent_conn, child_conn = self._ctx.Pipe(duplex=True)
            process = self._ctx.Process(
                target=worker_main,
                args=(worker_id, child_conn),
                name=f"repro-pool-{worker_id}",
                daemon=True,
            )
            process.start()
            child_conn.close()  # the parent keeps only its own end
            self._workers.append((process, parent_conn))
        self._g_workers.set(self.num_workers)
        return self

    def owner(self, shard_id: int) -> int:
        """The worker that serves *shard_id*."""
        return int(shard_id) % self.num_workers

    def publish(self, shard_id: int, index) -> None:
        """Publish *index*'s snapshot for *shard_id* and re-attach its owner.

        The snapshot is :func:`repro.persistence.export_state` — what a
        file would hold, plus the arrays a file re-derives; the old
        segment (if any) is unlinked only after the owner acknowledged
        the new one, so the worker never observes a torn shard.
        """
        arrays, state = export_state(index)  # before start(): unsupported spawns nothing
        self.start()
        segment = publish_arrays(arrays)
        try:
            self._request(
                self.owner(shard_id), ("attach", int(shard_id), segment.handle, state)
            )
        except Exception:
            segment.close()
            raise
        stale = self._segments.pop(shard_id, None)
        self._segments[shard_id] = segment
        self._c_publishes.inc()
        self._c_bytes.inc(segment.nbytes)
        if stale is not None:
            stale.close()
            self._c_reattaches.inc()

    def run(self, kind: str, payload: Dict[str, Any]) -> Dict[int, Tuple[Any, float]]:
        """Broadcast one job round; returns ``{shard_id: (result, ms)}``.

        The broadcast goes out to every worker before any reply is read,
        so workers genuinely overlap; replies are folded back into shard
        order by the caller via the returned mapping.
        """
        if not self.running:
            raise RuntimeError("WorkerPool is not running")
        round_start = time.perf_counter()
        message = ("run", kind, payload)
        for _, conn in self._workers:
            conn.send(message)
        outcome: Dict[int, Tuple[Any, float]] = {}
        busy_ms = [0.0] * self.num_workers
        failure: Optional[str] = None
        for worker_id, (_, conn) in enumerate(self._workers):
            reply = self._receive(worker_id, conn)
            if reply[0] == "error":
                failure = failure or f"worker {worker_id} failed:\n{reply[1]}"
                continue
            for shard_id, elapsed_ms, result in reply[1]:
                outcome[shard_id] = (result, float(elapsed_ms))
                busy_ms[worker_id] += float(elapsed_ms)
        self._c_roundtrips.inc(self.num_workers)
        if failure is not None:
            raise RuntimeError(failure)
        round_ms = (time.perf_counter() - round_start) * 1e3
        for worker_id, worker_busy in enumerate(busy_ms):
            labels = {**self._labels, "worker": str(worker_id)}
            self._registry.gauge(
                "pool_worker_busy_ms", "Shard wall time inside the last round", labels
            ).set(worker_busy)
            self._registry.gauge(
                "pool_worker_utilization",
                "Busy fraction of the last round",
                labels,
            ).set(min(1.0, worker_busy / round_ms) if round_ms > 0 else 0.0)
        return outcome

    def ping(self) -> List[int]:
        """Round-trip every worker; returns their ids (raises if one died)."""
        if not self.running:
            raise RuntimeError("WorkerPool is not running")
        for _, conn in self._workers:
            conn.send(("ping",))
        ids = []
        for worker_id, (_, conn) in enumerate(self._workers):
            ids.append(int(self._receive(worker_id, conn)[1]))
        self._c_roundtrips.inc(self.num_workers)
        return ids

    def _request(self, worker_id: int, message: Tuple) -> Any:
        process, conn = self._workers[worker_id]
        conn.send(message)
        self._c_roundtrips.inc()
        reply = self._receive(worker_id, conn)
        if reply[0] == "error":
            raise RuntimeError(f"worker {worker_id} failed:\n{reply[1]}")
        return reply[1]

    def _receive(self, worker_id: int, conn) -> Tuple:
        try:
            return conn.recv()
        except (EOFError, OSError) as error:
            raise RuntimeError(
                f"pool worker {worker_id} died mid-request "
                f"(exit code {self._workers[worker_id][0].exitcode})"
            ) from error

    def close(self, timeout: float = 5.0) -> None:
        """Stop the workers and unlink every segment (idempotent).

        Waits up to *timeout* seconds per worker for a clean exit, then
        escalates to ``terminate()``.  Safe to call twice; after close
        the pool cannot be restarted (build a fresh one).
        """
        if self._closed:
            return
        self._closed = True
        for process, conn in self._workers:
            try:
                conn.send(("stop",))
            except (OSError, BrokenPipeError, ValueError):
                pass
        for process, conn in self._workers:
            try:
                if conn.poll(timeout):
                    conn.recv()  # the ("bye",) ack
            except (EOFError, OSError):
                pass
            process.join(timeout)
            if process.is_alive():
                process.terminate()
                process.join(timeout)
            try:
                conn.close()
            except Exception:
                pass
        self._workers = []
        for segment in self._segments.values():
            segment.close()
        self._segments = {}
        self._g_workers.set(0)

    def terminate(self) -> None:
        """Kill workers and unlink segments without waiting — the
        ``__del__`` escape hatch; never raises."""
        self._closed = True
        for process, conn in self._workers:
            try:
                process.terminate()
            except Exception:
                pass
            try:
                conn.close()
            except Exception:
                pass
        self._workers = []
        for segment in self._segments.values():
            segment.close()
        self._segments = {}
        try:
            self._g_workers.set(0)
        except Exception:
            pass

    def __del__(self) -> None:
        try:
            self.terminate()
        except Exception:
            pass

    def __repr__(self) -> str:
        state = "closed" if self._closed else ("running" if self._workers else "idle")
        return (
            f"WorkerPool(workers={self.num_workers}, start={self.start_method!r}, "
            f"segments={len(self._segments)}, {state})"
        )
