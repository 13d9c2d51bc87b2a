"""The two carriers of a shard round: in-process and worker processes.

A carrier takes one ``(kind, payload)`` round to every shard and brings
back ``{shard_id: (result, elapsed_ms)}`` —
``run(kind, payload, shards)`` is the whole contract, and what a kind
*does* lives in :mod:`repro.parallel.jobs`.  :class:`LocalPool` runs the
jobs on the caller's own shard objects (inline, or on a thread pool);
:class:`WorkerPool` runs them in worker processes on shared-memory
replicas, which it keeps in step with the shards it is handed.

:class:`WorkerPool` owns N worker processes (one duplex pipe each) and
the published shard segments.  Shard s is owned by worker ``s % N`` —
a fixed mapping, so re-publication after an epoch bump reaches exactly
the worker already serving that shard.  One query batch is one broadcast
round: every worker receives the job, answers for its shards, and the
parent reassembles the replies.  A worker whose pipe fails is respawned,
re-attached to the segments of the shards it owns (the parent still
holds them) and asked once more; a second failure raises.

Health telemetry publishes into the owner's metrics registry (the same
one the engine and serving layer use):

* ``pool_workers`` — workers currently alive;
* ``pool_publishes`` / ``pool_reattaches`` — shard snapshot
  publications, total and the subset replacing a live segment after an
  epoch bump;
* ``pool_ipc_roundtrips`` — worker message round-trips;
* ``pool_worker_restarts`` — dead workers respawned mid-request;
* ``pool_bytes_published`` — cumulative snapshot bytes copied into
  shared memory;
* ``pool_worker_busy_ms`` / ``pool_worker_utilization`` (per-worker
  labels) — shard wall time inside the last round, absolute and as a
  fraction of the round.

Start-method note: the pool starts workers with
:func:`default_start_method` — ``fork`` where the platform offers it
(cheap, instant bootstrap), ``spawn`` elsewhere.  Fork duplicates the
calling process — create the pool (first query, or
``ShardedIndex.start_pool()``) from the thread that owns the index,
before handing it to an async server.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.obs.tracing import current_trace, use_trace
from repro.parallel.jobs import run_job
from repro.parallel.shm import PublishedSegment, publish_arrays
from repro.parallel.worker import worker_main
from repro.persistence import export_state


def default_start_method() -> str:
    """``"fork"`` where the platform offers it, else ``"spawn"``."""
    return "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


class _Published(NamedTuple):
    """What the pool holds per shard: the segment the parent owns, the
    stamped state a (re)attaching worker restores with, and the shard
    object + epoch the snapshot was taken from (the staleness key)."""

    segment: PublishedSegment
    state: Dict[str, Any]
    index: Any
    epoch: int


def _spread_thread(slots: Iterator[int]) -> None:
    """Start the calling pool thread on a CPU of its own.

    A new thread starts on its creator's CPU, and where the scheduler
    does not balance load (a cpuset with ``sched_load_balance`` off)
    every shard thread stays there, time-sharing one core until the
    kernel happens to move one.  Pinning the thread for an instant to CPU
    ``slot mod allowed`` moves it; the full mask comes back at once, so
    the scheduler stays free to move it afterwards.
    """
    if not hasattr(os, "sched_setaffinity"):
        return
    try:
        allowed = os.sched_getaffinity(0)
        cpus = sorted(allowed)
        os.sched_setaffinity(0, {cpus[next(slots) % len(cpus)]})
        os.sched_setaffinity(0, allowed)
    except OSError:
        pass


class LocalPool:
    """The in-process carrier: jobs run on the caller's own shard objects,
    inline when there is one worker, on a ``repro-shard`` thread pool
    otherwise, whose i-th thread starts on the i-th allowed CPU.

    The calling thread's active trace (if any) is carried into the pool
    threads, each shard's work wrapped in a ``shard_search`` span
    anchored under the caller's open span — so a sampled request's tree
    shows every shard's probe nested in place.
    """

    def __init__(self, num_workers: int) -> None:
        self.num_workers = int(num_workers)
        self._executor: Optional[ThreadPoolExecutor] = None

    def run(
        self, kind: str, payload: Dict[str, Any], shards: Sequence
    ) -> Dict[int, Tuple[Any, float]]:
        """One round over *shards*; returns ``{shard_id: (result, ms)}``."""
        trace = current_trace()

        def one(item: Tuple[int, Any]) -> Tuple[Any, float]:
            if trace is None:
                return run_job(kind, *item, payload)
            with use_trace(trace), trace.span("shard_search", shard=item[0]):
                return run_job(kind, *item, payload)

        if self.num_workers == 1:
            spread = map
        else:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.num_workers,
                    thread_name_prefix="repro-shard",
                    initializer=_spread_thread,
                    initargs=(itertools.count(),),
                )
            spread = self._executor.map
        if trace is None:
            return dict(enumerate(spread(one, enumerate(shards))))
        with trace.anchored(trace.current_span()):
            return dict(enumerate(spread(one, enumerate(shards))))

    def close(self, wait: bool = True) -> None:
        """Shut the thread pool down (idempotent; the next round restarts it)."""
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=wait)

    def terminate(self) -> None:
        """:meth:`close` without waiting — the ``__del__`` escape hatch."""
        self.close(wait=False)


class WorkerPool:
    """N worker processes attached read-only to published shard snapshots.

    Parameters
    ----------
    num_workers:
        Worker process count (>= 1).  Shard s belongs to worker
        ``s % num_workers``.
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
        registry=None,
        labels: Dict[str, str] | None = None,
    ) -> None:
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        self.num_workers = int(num_workers)
        self._ctx = multiprocessing.get_context(default_start_method())
        self.start_method = self._ctx.get_start_method()
        if registry is None:
            from repro.obs.metrics import default_registry

            registry = default_registry()
        self._registry = registry
        self._labels = dict(labels or {})
        self._workers: List[Tuple[Any, Any]] = []  # (process, parent_conn)
        self._published: Dict[int, _Published] = {}
        self._closed = False
        self._bind_metrics()

    # -- metrics -------------------------------------------------------

    #: (attr, metric name, help) of the pool's lifetime counters.
    _COUNTERS = (
        ("_c_publishes", "pool_publishes", "Shard snapshots published to shared memory"),
        (
            "_c_reattaches",
            "pool_reattaches",
            "Publications replacing a live segment after an epoch bump",
        ),
        ("_c_roundtrips", "pool_ipc_roundtrips", "Worker message round-trips"),
        ("_c_restarts", "pool_worker_restarts", "Dead workers respawned mid-request"),
        ("_c_bytes", "pool_bytes_published", "Snapshot bytes copied into shared memory"),
    )

    def _bind_metrics(self) -> None:
        """(Re)bind the instruments, carrying counter values over."""
        registry, labels = self._registry, self._labels
        for attr, metric, help_text in self._COUNTERS:
            fresh = registry.counter(metric, help_text, labels)
            stale = getattr(self, attr, None)
            if stale is not None and stale is not fresh:
                fresh.value = stale.value
            setattr(self, attr, fresh)
        self._g_workers = registry.gauge(
            "pool_workers", "Worker processes currently alive", labels
        )

    def rebind_metrics(self, registry, labels: Dict[str, str] | None = None) -> None:
        """Point the pool's instruments at a (new) registry, carrying
        counter values over — the engine calls this on a registry swap."""
        self._registry = registry
        if labels is not None:
            self._labels = dict(labels)
        self._bind_metrics()
        self._g_workers.set(len(self._workers) if not self._closed else 0)

    # -- lifecycle -----------------------------------------------------

    @property
    def running(self) -> bool:
        return bool(self._workers) and not self._closed

    def _spawn(self, worker_id: int) -> Tuple[Any, Any]:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=worker_main,
            args=(worker_id, child_conn),
            name=f"repro-pool-{worker_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()  # the parent keeps only its own end
        return process, parent_conn

    def start(self) -> "WorkerPool":
        """Spawn the workers (idempotent while running)."""
        if self._closed:
            raise RuntimeError("WorkerPool is closed")
        if self._workers:
            return self
        for worker_id in range(self.num_workers):
            self._workers.append(self._spawn(worker_id))
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
            owner = self.owner(shard_id)
            message = ("attach", int(shard_id), segment.handle, state)
            self._check(owner, self._exchange([owner], message)[0])
        except Exception:
            segment.close()
            raise
        stale = self._published.get(shard_id)
        self._published[shard_id] = _Published(segment, state, index, index.epoch)
        self._c_publishes.inc()
        self._c_bytes.inc(segment.nbytes)
        if stale is not None:
            stale.segment.close()
            self._c_reattaches.inc()

    def sync(self, shards: Sequence) -> "WorkerPool":
        """The epoch re-attach protocol: make the replicas match *shards*.

        (Re)publishes position s whenever ``shards[s]`` is not the object
        last published there at its current epoch — after
        ``add``/``delete``/``compact`` bumped the epoch, or after a refit
        replaced the shard (a fresh shard's epoch number may well equal
        the old one's, hence the identity half of the key).
        """
        for shard_id, shard in enumerate(shards):
            current = self._published.get(shard_id)
            if (
                current is None
                or current.index is not shard
                or current.epoch != shard.epoch
            ):
                self.publish(shard_id, shard)
        return self

    def run(
        self, kind: str, payload: Dict[str, Any], shards: Optional[Sequence] = None
    ) -> Dict[int, Tuple[Any, float]]:
        """Broadcast one round; returns ``{shard_id: (result, ms)}``.

        *shards*, when given, are :meth:`sync`-ed first; without them the
        round runs on whatever was published.  The per-shard wall times
        come from the workers' own clocks; under a sampled trace the
        round is one ``process_fan_out`` span (worker-side spans cannot
        join a parent-process trace).
        """
        if shards is not None:
            self.sync(shards)
        if not self.running:
            raise RuntimeError("WorkerPool is not running")
        trace = current_trace()
        if trace is None:
            return self._round(kind, payload)
        with trace.span(
            "process_fan_out", workers=self.num_workers, shards=len(self._published)
        ):
            return self._round(kind, payload)

    def _round(self, kind: str, payload: Dict[str, Any]) -> Dict[int, Tuple[Any, float]]:
        round_start = time.perf_counter()
        replies = self._exchange(range(self.num_workers), ("run", kind, payload))
        round_ms = (time.perf_counter() - round_start) * 1e3
        outcome: Dict[int, Tuple[Any, float]] = {}
        for worker_id, reply in enumerate(replies):
            answered = self._check(worker_id, reply)
            outcome.update(answered)
            busy_ms = sum(elapsed for _, elapsed in answered.values())
            labels = {**self._labels, "worker": str(worker_id)}
            self._registry.gauge(
                "pool_worker_busy_ms", "Shard wall time inside the last round", labels
            ).set(busy_ms)
            self._registry.gauge(
                "pool_worker_utilization", "Busy fraction of the last round", labels
            ).set(min(1.0, busy_ms / round_ms) if round_ms > 0 else 0.0)
        return outcome

    def ping(self) -> List[int]:
        """Round-trip every worker; returns their ids (raises if one died)."""
        if not self.running:
            raise RuntimeError("WorkerPool is not running")
        replies = self._exchange(range(self.num_workers), ("ping",))
        return [int(reply[1]) for reply in replies]

    # -- messaging -----------------------------------------------------

    @staticmethod
    def _check(worker_id: int, reply: Tuple) -> Any:
        if reply[0] == "error":
            raise RuntimeError(f"worker {worker_id} failed:\n{reply[1]}")
        return reply[1]

    def _exchange(self, worker_ids: Iterable[int], message: Tuple) -> List[Tuple]:
        """Send *message* to each worker, then read one reply from each.

        Every send goes out before any reply is read, so workers
        genuinely overlap.  A worker whose pipe fails on either leg is
        revived and asked once more; a second failure of the same worker
        raises.  Whatever escapes from here (that, an interrupt) leaves
        replies unread on other pipes, so the workers are killed and the
        published table dropped with them: the next :meth:`sync` starts
        over instead of reading a stale answer.
        """
        worker_ids = list(worker_ids)
        revived = set()
        try:
            for worker_id in worker_ids:
                try:
                    self._workers[worker_id][1].send(message)
                except OSError:
                    self._revive(worker_id, message)
                    revived.add(worker_id)
            replies = []
            for worker_id in worker_ids:
                try:
                    replies.append(self._workers[worker_id][1].recv())
                except (EOFError, OSError):
                    if worker_id in revived:
                        raise
                    self._revive(worker_id, message)
                    replies.append(self._workers[worker_id][1].recv())
        except (EOFError, OSError) as error:
            exit_code = self._workers[worker_id][0].exitcode
            self._kill()
            raise RuntimeError(
                f"pool worker {worker_id} died mid-request (exit code {exit_code})"
            ) from error
        except BaseException:
            self._kill()
            raise
        self._c_roundtrips.inc(len(worker_ids))
        return replies

    def _revive(self, worker_id: int, message: Tuple) -> None:
        """Replace a dead worker and put *message* to the new one.

        The parent still owns every segment, so nothing is re-exported:
        the fresh worker gets an ``attach`` per shard it owns, built from
        the handle and state kept at publish time, then the message.
        """
        process, conn = self._workers[worker_id]
        conn.close()
        process.terminate()  # no-op on a dead one; a live one behind a dead pipe is no use
        process.join()
        process, conn = self._workers[worker_id] = self._spawn(worker_id)
        self._c_restarts.inc()
        for shard_id, published in self._published.items():
            if self.owner(shard_id) == worker_id:
                conn.send(("attach", shard_id, published.segment.handle, published.state))
                self._check(worker_id, conn.recv())
        conn.send(message)

    def _kill(self) -> None:
        """Kill workers and unlink segments without waiting; never raises.
        The pool is left idle, not closed."""
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
        for published in self._published.values():
            published.segment.close()
        self._published = {}
        try:
            self._g_workers.set(0)
        except Exception:
            pass

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
        self._kill()  # the workers are down: closes the pipes, unlinks the segments

    def terminate(self) -> None:
        """Kill workers and unlink segments without waiting — the
        ``__del__`` escape hatch; never raises."""
        self._closed = True
        self._kill()

    def __del__(self) -> None:
        try:
            self.terminate()
        except Exception:
            pass

    def __repr__(self) -> str:
        state = "closed" if self._closed else ("running" if self._workers else "idle")
        return (
            f"WorkerPool(workers={self.num_workers}, start={self.start_method!r}, "
            f"segments={len(self._published)}, {state})"
        )
