"""The asyncio serving front-end: deadline-based micro-batching.

PM-LSH's batch paths (one projection GEMM, one flat-tree frontier sweep
per radius round) only pay off when queries arrive *as batches* — but a
real service receives many small independent requests.
:class:`AsyncSearchServer` closes that gap: concurrent ``submit()``
coroutines are coalesced per compatible
:class:`~repro.queries.QuerySpec` (same
:attr:`~repro.queries.QuerySpec.merge_key`) into one ``index.run()``
call, dispatched when either the batch-size threshold or a deadline
fires, and the batch answer is scattered back to per-request futures.
The batch = loop invariant of the unified API makes the coalescing
invisible: every request receives exactly the bytes a direct
``run()`` would have produced, ``(distance, id)`` ties included.

Life of a request
-----------------
1. **queue** — ``submit(q, spec)`` appends the query to the pending
   queue of its spec's merge key; the first entry arms a deadline timer
   (``max_delay_ms``).
2. **coalesce** — the queue dispatches when it reaches ``max_batch``
   (size flush), when its deadline fires (a lone straggler never waits
   longer than the window), or when ``flush()`` drains it (writes and
   shutdown do).
3. **run** — the stacked ``(B, d)`` matrix goes through
   ``loop.run_in_executor`` to a single worker thread, so the event loop
   keeps accepting arrivals while NumPy works and the index only ever
   sees one caller thread (the ``ANNIndex`` concurrency contract).
4. **scatter** — row i of the batch answer resolves request i's future;
   per-request latency lands in the ``request_latency_ms`` histogram
   of the metrics registry and serving fields
   (``serving_batch_size``, ``serving_wait_ms``) are woven into the
   result stats.

Writes interleave epoch-style: ``add(points)`` and ``delete(ids)`` first
drain every pending queue (requests already submitted are answered
against pre-write data), bump the server's one write epoch — clearing
the :class:`~repro.serving.cache.QueryCache` — and then run the index
mutation through the same single-worker executor, strictly *after*
the drained batches.  An in-flight batch is therefore never torpedoed by
an ingest, and a cached answer computed before a write is never served
after it.

Background compaction rides the same machinery from the other side:
``compact()`` builds the compacted index as a **fresh object** on a
separate rebuild thread (:func:`repro.lifecycle.compact_index` only reads the
source), so the serving executor keeps answering queries against the old
index the whole time; when the rebuild finishes, :meth:`swap_index`
drains pending batches, bumps the epoch, invalidates the cache and
atomically re-points ``self.index`` — no served request ever blocks on
the rebuild.  :class:`~repro.lifecycle.Replica` uses the same
``swap_index`` door to hot-swap in indexes loaded from newer snapshots.
"""

from __future__ import annotations

import asyncio
import math
from concurrent.futures import Executor, ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.baselines.base import ANNIndex, QueryResult, require_finite
from repro.obs.metrics import MetricsRegistry, MetricsSnapshot, default_registry
from repro.obs.slowlog import SlowQueryLog
from repro.obs.tracing import Trace, Tracer, use_trace
from repro.queries import QuerySpec, as_query_spec
from repro.serving.admission import DeadlineExceeded, QueueFull, expired
from repro.serving.cache import QueryCache
from repro.serving.clock import Clock, LoopClock


class _PendingRequest:
    """One queued query: its vector, its future, when it arrived, its
    absolute deadline (None = no deadline) and its trace (None unless
    head-sampled at submit time)."""

    __slots__ = ("query", "future", "enqueued_at", "deadline", "trace")

    def __init__(
        self,
        query: np.ndarray,
        future: "asyncio.Future[QueryResult]",
        enqueued_at: float,
        deadline: Optional[float] = None,
        trace: Optional[Trace] = None,
    ) -> None:
        self.query = query
        self.future = future
        self.enqueued_at = enqueued_at
        self.deadline = deadline
        self.trace = trace


#: Retained samples of the per-request latency window.
_LATENCY_WINDOW = 4096


class _PendingBatch:
    """The open queue of one merge key: requests plus the armed deadline
    timer."""

    __slots__ = ("spec", "requests", "timer")

    def __init__(self, spec: QuerySpec) -> None:
        self.spec = spec
        self.requests: List[_PendingRequest] = []
        self.timer = None  # asyncio.TimerHandle or a virtual-clock timer


class AsyncSearchServer:
    """Asyncio micro-batching server in front of any :class:`ANNIndex`.

    Works over a single index or the sharded engine alike — anything the
    registry produces.  All methods must be called from the event loop
    thread; the index itself is only ever touched from the server's
    single executor worker.

    Parameters
    ----------
    index:
        The fitted backend to serve (single index or ``ShardedIndex``).
    max_batch:
        Size threshold: a queue dispatches as soon as it holds this many
        requests.  ``1`` disables coalescing (every request is its own
        ``run()`` call) — the baseline the serving benchmark compares
        against.
    max_delay_ms:
        Deadline: the oldest queued request never waits longer than this
        before its batch dispatches, full or not.  ``0`` dispatches on
        the next event-loop pass — same-tick bursts (one ``gather``)
        still coalesce, but nothing waits beyond the current iteration.
    cache:
        ``None`` (no caching) or the capacity of a
        :class:`~repro.serving.cache.QueryCache`, which answers
        byte-identical repeats of a query under the same spec.
    executor:
        Override for the bridge executor.  Must run jobs **in submission
        order on one worker** (the default single-thread pool does):
        write-after-read ordering and the index's one-caller contract
        both ride on it.
    metrics:
        The :class:`~repro.obs.metrics.MetricsRegistry` the server
        publishes into (defaults to the process-global registry).  The
        server takes an ``instance`` label scope so two servers sharing
        a registry keep distinct series, and forwards the registry to
        the served index.
    tracer:
        A :class:`~repro.obs.tracing.Tracer` for per-request span trees
        (``None``, the default, disables tracing entirely — the hot
        path stays allocation-free).
    slow_log:
        A :class:`~repro.obs.slowlog.SlowQueryLog` fed every request's
        queue-to-answer latency (with the span tree when sampled).  Its
        rolling-p99 trigger reads the server's own latency window.
    clock:
        The :class:`~repro.serving.clock.Clock` every time decision reads
        (deadline timers, per-request deadlines, latency
        measurement).  ``None`` (default) binds a
        :class:`~repro.serving.clock.LoopClock` over the running event
        loop; tests inject a
        :class:`~repro.serving.clock.VirtualClock` and advance time
        explicitly — zero wall-clock sleeps, fully deterministic.
    max_queue_depth:
        Admission control: the most requests admitted but not yet
        answered (queued plus in dispatched batches); an arrival beyond
        it is refused with :class:`~repro.serving.admission.QueueFull`.
        ``None`` (default) leaves the backlog unbounded.  See
        :mod:`repro.serving.admission`.

    Examples
    --------
    >>> import asyncio
    >>> import numpy as np
    >>> import repro
    >>> from repro.serving import AsyncSearchServer
    >>> data = np.random.default_rng(0).normal(size=(500, 16))
    >>> async def demo():
    ...     async with AsyncSearchServer(
    ...         repro.create_index("exact").fit(data), max_batch=8
    ...     ) as server:
    ...         results = await server.submit_many(data[:4] + 0.01, repro.Knn(k=3))
    ...         return [len(r) for r in results]
    >>> asyncio.run(demo())
    [3, 3, 3, 3]
    """

    def __init__(
        self,
        index: ANNIndex,
        *,
        max_batch: int = 32,
        max_delay_ms: float = 2.0,
        cache: Optional[int] = None,
        executor: Optional[Executor] = None,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        slow_log: Optional[SlowQueryLog] = None,
        clock: Optional[Clock] = None,
        max_queue_depth: Optional[int] = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_delay_ms < 0.0:
            raise ValueError(f"max_delay_ms must be >= 0, got {max_delay_ms}")
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ValueError(
                f"max_queue_depth must be >= 1 or None, got {max_queue_depth}"
            )
        self.index = index
        self.max_batch = int(max_batch)
        self.max_delay_ms = float(max_delay_ms)
        self.metrics_registry = metrics if metrics is not None else default_registry()
        self.tracer = tracer
        self.max_queue_depth = max_queue_depth
        self.cache = QueryCache(cache) if cache is not None else None
        self._executor: Executor = executor or ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serving"
        )
        self._owns_executor = executor is None
        self._queues: Dict[tuple, _PendingBatch] = {}
        #: Scatter tasks not yet finished (``close()`` awaits them).
        self._inflight: set = set()
        #: Dispatched batches, and the requests in them, whose ``run()``
        #: has not returned yet.
        self._inflight_batches = 0
        self._inflight_requests = 0
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._clock: Optional[Clock] = clock
        self._closed = False
        self._epoch = 0
        self._compacting = False
        self._rebuild_executor: Optional[ThreadPoolExecutor] = None
        #: serving-annotated ``stats`` dict of the most recent batch result.
        self.last_batch_stats: Dict[str, float] = {}
        # Every serving number lives in the registry: the counters below
        # are the instruments themselves (held directly so the hot path
        # pays one attribute walk, no registry lookups), and ``stats()``
        # is the registry's snapshot of this scope.
        scope = self.metrics_registry.scope("serving")
        self._labels = scope
        counter = lambda name, help: self.metrics_registry.counter(name, help, scope)  # noqa: E731
        self._requests_submitted = counter(
            "requests_submitted", "Requests accepted by submit()"
        )
        self._requests_served = counter(
            "requests_served", "Requests answered (cache hits included)"
        )
        self._batches_served = counter("batches_served", "Coalesced batches executed")
        self._requests_batched = counter(
            "requests_batched", "Requests answered through a batch"
        )
        self._size_flushes = counter("size_flushes", "Dispatches on max_batch")
        self._deadline_flushes = counter("deadline_flushes", "Dispatches on deadline")
        self._drain_flushes = counter("drain_flushes", "Dispatches on flush()/writes")
        self._points_added = counter("points_added", "Points ingested via add()")
        self._points_deleted = counter("points_deleted", "Points tombstoned via delete()")
        self._compactions = counter("compactions", "Background compactions completed")
        self._index_swaps = counter("index_swaps", "swap_index() installs")
        self._requests_shed = counter(
            "requests_shed", "Requests shed with DeadlineExceeded (expired deadlines)"
        )
        self._requests_rejected = counter(
            "requests_rejected", "Requests refused with QueueFull (bounded queue)"
        )
        self._latency_hist = self.metrics_registry.histogram(
            "request_latency_ms",
            "Queue-to-answer latency per served request",
            scope,
            window_capacity=_LATENCY_WINDOW,
        )
        self._latency = self._latency_hist.window
        self.slow_log = slow_log
        if slow_log is not None:
            slow_log.bind_window(self._latency)
        if self.cache is not None:
            self.cache.bind_metrics(self.metrics_registry, scope)
            self._cache_stale_puts = counter(
                "cache_stale_puts", "Answers dropped for being computed pre-write"
            )
        # The served index publishes into the same registry (covers the
        # sharded engine, PM-LSH's probe counters, the lifecycle counters).
        if hasattr(index, "metrics"):
            index.metrics = self.metrics_registry

    # ------------------------------------------------------------------
    # the read path
    # ------------------------------------------------------------------

    async def submit(
        self,
        query: np.ndarray,
        spec: QuerySpec | int,
        *,
        deadline_ms: Optional[float] = None,
    ) -> QueryResult:
        """Answer one query vector under *spec*, coalesced with its peers.

        Awaits until the request's batch has run; the returned
        :class:`QueryResult` is byte-identical to the matching row of a
        direct ``index.run()`` over the same queries.  A cache hit (when
        caching is enabled) short-circuits the batcher entirely.

        *deadline_ms* is this request's latency budget: a non-positive
        budget is **shed** at submit, before the cache or a queue sees
        it, and a request whose deadline has passed when its batch
        dispatches is shed then — the await raises
        :class:`~repro.serving.admission.DeadlineExceeded` and the query
        never reaches the index.  A request whose deadline is still in
        the future is never shed on deadline grounds.  A NaN budget
        raises ``ValueError``.

        When ``max_queue_depth`` requests are already admitted and not
        yet answered, this one is refused with
        :class:`~repro.serving.admission.QueueFull`.
        """
        spec = as_query_spec(spec)
        self._require_open()
        self._bind_loop()
        loop = self._loop
        vector = np.asarray(query, dtype=np.float64)
        if vector.ndim != 1:
            raise ValueError(
                f"submit takes one (d,) query vector, got shape {vector.shape}"
            )
        # Rejected here, not in index.run(): a NaN row must fail its own
        # request, never the batch it would have been coalesced into.
        require_finite(vector, "query")
        if deadline_ms is not None:
            deadline_ms = float(deadline_ms)
            if math.isnan(deadline_ms):
                raise ValueError("deadline_ms must be a number or None, got NaN")
        self._requests_submitted.inc()
        enqueued_at = self._now()
        deadline = enqueued_at + deadline_ms / 1e3 if deadline_ms is not None else None
        trace = self.tracer.start("request") if self.tracer is not None else None
        if trace is not None:
            trace.meta["spec"] = repr(spec)
        # A budget with no time left is shed before the cache or a queue
        # sees it.
        if deadline_ms is not None and deadline_ms <= 0.0:
            self._shed(trace, enqueued_at, "submit")
            raise DeadlineExceeded(abs(deadline_ms), deadline_ms)  # late by -budget
        if self.cache is not None:
            cached = self.cache.get(vector, spec)
            if cached is not None:
                self._requests_served.inc()
                latency_ms = (self._now() - enqueued_at) * 1e3
                self._latency_hist.observe(latency_ms)
                if trace is not None:
                    trace.add_span("cache_hit", enqueued_at, self._now())
                    self.tracer.finish(trace)
                if self.slow_log is not None:
                    self.slow_log.observe(
                        latency_ms, spec=repr(spec), trace=trace, cache_hit=1
                    )
                return QueryResult(
                    ids=cached.ids,
                    distances=cached.distances,
                    stats={**cached.stats, "served_from_cache": 1.0},
                )
        # Admission: a full backlog refuses the newcomer.
        if self.max_queue_depth is not None and self.queue_depth >= self.max_queue_depth:
            self._requests_rejected.inc()
            if trace is not None:
                trace.add_span("rejected", enqueued_at, enqueued_at)
                self.tracer.finish(trace)
            raise QueueFull(self.queue_depth, self.max_queue_depth)
        future: "asyncio.Future[QueryResult]" = loop.create_future()
        key = spec.merge_key
        batch = self._queues.get(key)
        if batch is None:
            batch = _PendingBatch(spec)
            self._queues[key] = batch
            if self.max_batch > 1:
                # A zero window still goes through call_later(0): the
                # callback runs on the next loop pass, so a burst of
                # submits issued in the same tick (one gather) coalesces
                # while nothing ever waits beyond the current iteration.
                batch.timer = self._clock.call_later(
                    self.max_delay_ms / 1e3, self._deadline_callback(key)
                )
        batch.requests.append(
            _PendingRequest(vector, future, enqueued_at, deadline, trace)
        )
        if len(batch.requests) >= self.max_batch:
            self._dispatch(key, "size")
        return await future

    async def submit_many(
        self,
        queries: np.ndarray,
        spec: QuerySpec | int,
        *,
        deadline_ms: Optional[float] = None,
    ) -> List[QueryResult]:
        """Submit every row of *queries* concurrently; results in row order."""
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        return list(
            await asyncio.gather(
                *(
                    self.submit(row, spec, deadline_ms=deadline_ms)
                    for row in queries
                )
            )
        )

    def _shed(self, trace: Optional[Trace], now: float, stage: str) -> None:
        """Account one shed decision (counter, trace close)."""
        self._requests_shed.inc()
        if trace is not None:
            trace.add_span("shed", now, now, stage=stage)
            self.tracer.finish(trace)

    # ------------------------------------------------------------------
    # the write path
    # ------------------------------------------------------------------

    async def add(self, points: np.ndarray) -> np.ndarray:
        """Grow the served index; returns the assigned ids.

        Epoch-style interleaving: every pending queue drains first (their
        executor jobs are enqueued ahead of the write, so requests
        submitted before the ``add`` are answered against pre-write
        data), the write epoch bumps, and only then does the mutation run
        on the executor — never in the middle of a dispatched batch.
        """
        self._require_open()
        self._require_not_compacting("add")
        loop = self._bind_loop()
        points = np.asarray(points, dtype=np.float64)
        self._next_epoch()
        ids = await loop.run_in_executor(self._executor, self.index.add, points)
        self._points_added.inc(int(ids.size))
        return ids

    async def delete(self, ids: np.ndarray) -> np.ndarray:
        """Tombstone points in the served index; returns the deleted ids.

        Same epoch-style interleaving as :meth:`add`: pending queues
        drain first, the cache invalidates, and the tombstone marking
        runs on the executor strictly after the drained batches — so no
        already-submitted request ever sees a half-applied delete, and
        every request submitted afterwards never sees the dead ids.
        """
        self._require_open()
        self._require_not_compacting("delete")
        loop = self._bind_loop()
        self._next_epoch()
        deleted = await loop.run_in_executor(self._executor, self.index.delete, ids)
        self._points_deleted.inc(int(deleted.size))
        return deleted

    def swap_index(self, new_index: ANNIndex) -> None:
        """Atomically re-point the server at *new_index*.

        Drains pending queues (their executor jobs run against the old
        index, which stays valid — it is a separate object), bumps the
        epoch, invalidates the cache, and assigns.  Used by background
        compaction and by :class:`~repro.lifecycle.Replica` refreshes.
        """
        self._require_open()
        self._next_epoch()
        self.index = new_index
        if hasattr(new_index, "metrics"):
            new_index.metrics = self.metrics_registry
        self._index_swaps.inc()

    def _next_epoch(self) -> None:
        """Drain pending queues, bump the write epoch, clear the cache.

        The epoch is the server's only write epoch: a batch dispatched
        before the bump still answers its callers (against pre-write
        data), but :meth:`_scatter` keeps its answers out of the cache.
        """
        self.flush()
        self._epoch += 1
        if self.cache is not None:
            self.cache.invalidate()

    async def compact(self, policy=None):
        """Rebuild the served index without deleted points, in the background.

        When *policy* (a :class:`~repro.lifecycle.CompactionPolicy`) is
        given and does not vote to compact, returns ``None`` without
        touching anything.  Otherwise the rebuild runs
        :func:`~repro.lifecycle.compact_index` — which only *reads* the
        source index — on a dedicated rebuild thread, so the serving
        executor keeps answering queries against the old index for the
        whole build; the finished replacement is installed via
        :meth:`swap_index` and the :class:`~repro.lifecycle.CompactionResult`
        is returned.  ``add``/``delete`` raise while a compaction is in
        flight (the rebuild snapshots the source once); reads are never
        blocked.
        """
        from repro.lifecycle.compaction import compact_index

        self._require_open()
        self._require_not_compacting("compact")
        loop = self._bind_loop()
        if policy is not None and not policy.should_compact(self.index):
            return None
        if self._rebuild_executor is None:
            self._rebuild_executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-rebuild"
            )
        self._compacting = True
        try:
            fresh, result = await loop.run_in_executor(
                self._rebuild_executor, compact_index, self.index
            )
        finally:
            self._compacting = False
        self.swap_index(fresh)
        self._compactions.inc()
        return result

    # ------------------------------------------------------------------
    # batching machinery
    # ------------------------------------------------------------------

    def flush(self) -> int:
        """Dispatch every pending queue now; returns the number dispatched.

        Queues drain in the order they opened, and the single-worker
        executor runs their batches in that order.
        """
        keys = list(self._queues)
        for key in keys:
            self._dispatch(key, "drain")
        return len(keys)

    def _deadline_callback(self, key: tuple):
        """The zero-arg timer callback for one queue's deadline flush."""
        return lambda: self._dispatch(key, "deadline")

    def _dispatch(self, key: tuple, reason: str) -> None:
        """Move one queue into execution: shed expired requests, stack
        the rest, submit to the executor, and hand the scatter to a
        task.  The executor submission happens *here*, synchronously, so
        dispatch order is execution order."""
        batch = self._queues.pop(key, None)
        if batch is None:
            return
        if batch.timer is not None:
            batch.timer.cancel()
        if not batch.requests:
            return
        now = self._now()
        # Deadline shedding: an expired request is answered with the
        # typed error and never reaches the index; the live remainder
        # (whose deadlines are all still satisfiable) forms the batch.
        live: List[_PendingRequest] = []
        for request in batch.requests:
            if expired(request.deadline, now):
                self._shed(request.trace, now, "dispatch")
                if not request.future.cancelled():
                    request.future.set_exception(
                        DeadlineExceeded((now - request.deadline) * 1e3)
                    )
            else:
                live.append(request)
        batch.requests = live
        if not live:
            return  # everything expired: nothing to run, no flush counted
        if reason == "size":
            self._size_flushes.inc()
        elif reason == "deadline":
            self._deadline_flushes.inc()
        else:
            self._drain_flushes.inc()
        loop = self._loop
        self._inflight_batches += 1
        self._inflight_requests += len(live)
        queries = np.stack([request.query for request in batch.requests])
        dispatched_at = now
        # One shared batch trace carries the engine-side spans when any
        # member of the batch was sampled; its subtree is grafted into
        # every sampled request at scatter.  Unsampled batches submit the
        # index call directly — zero tracing work on that path.
        batch_trace: Optional[Trace] = None
        if any(request.trace is not None for request in batch.requests):
            batch_trace = Trace(
                -1, "batch", merge_key=repr(key), reason=reason, size=len(batch.requests)
            )
            batch_trace.add_span(
                "batch_assembly",
                min(request.enqueued_at for request in batch.requests),
                dispatched_at,
                reason=reason,
                batch_size=len(batch.requests),
            )
            index, spec = self.index, batch.spec

            def run_traced(queries=queries, trace=batch_trace):
                with use_trace(trace), trace.span("index_run"):
                    return index.run(queries, spec)

            run_future = loop.run_in_executor(self._executor, run_traced)
        else:
            run_future = loop.run_in_executor(
                self._executor, self.index.run, queries, batch.spec
            )
        task = loop.create_task(
            self._scatter(batch, run_future, self._epoch, dispatched_at, batch_trace)
        )
        self._inflight.add(task)
        task.add_done_callback(self._inflight.discard)

    async def _scatter(
        self,
        batch: _PendingBatch,
        run_future: "asyncio.Future",
        epoch: int,
        dispatched_at: float,
        batch_trace: Optional[Trace] = None,
    ) -> None:
        """Await the batch answer and resolve every request's future."""
        requests = batch.requests
        try:
            result = await run_future
        except Exception as exc:  # propagate to every waiter, keep serving
            for request in requests:
                if not request.future.cancelled():
                    request.future.set_exception(exc)
            return
        finally:
            self._inflight_batches -= 1
            self._inflight_requests -= len(requests)
        now = self._now()
        waits_ms = [(dispatched_at - request.enqueued_at) * 1e3 for request in requests]
        result.stats["serving_batch_size"] = float(len(requests))
        result.stats["serving_wait_ms"] = float(np.mean(waits_ms))
        result.stats["serving_wait_ms_max"] = float(np.max(waits_ms))
        result.stats["serving_epoch"] = float(epoch)
        self.last_batch_stats = dict(result.stats)
        self._batches_served.inc()
        self._requests_batched.inc(len(requests))
        spec_repr = repr(batch.spec) if self.slow_log is not None else ""
        # A write landed while this batch was in flight: its answers are
        # still right for its callers, but not for anyone after the write.
        cache = self.cache
        if cache is not None and epoch != self._epoch:
            self._cache_stale_puts.inc(len(requests))
            cache = None
        for i, request in enumerate(requests):
            answer = result[i]
            answer.stats["serving_batch_size"] = float(len(requests))
            answer.stats["serving_wait_ms"] = waits_ms[i]
            if cache is not None:
                cache.put(request.query, batch.spec, answer)
            self._requests_served.inc()
            latency_ms = (now - request.enqueued_at) * 1e3
            self._latency_hist.observe(latency_ms)
            trace = request.trace
            if trace is not None:
                trace.add_span("queue_wait", request.enqueued_at, dispatched_at)
                if batch_trace is not None:
                    # The engine subtree (batch assembly + index_run with
                    # shard/tree/verify spans) is shared, not copied.
                    for span in batch_trace.root.children:
                        trace.attach(span)
                trace.add_span("scatter", now, self._now(), row=i)
                self.tracer.finish(trace)
            if self.slow_log is not None:
                self.slow_log.observe(
                    latency_ms,
                    spec=spec_repr,
                    trace=trace,
                    batch_size=len(requests),
                )
            if not request.future.cancelled():
                request.future.set_result(answer)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def close(self) -> None:
        """Drain and stop: flush pending queues, await every in-flight
        batch (no submitted request is ever dropped), then shut the
        executor down.  Idempotent; ``submit``/``add`` raise afterwards."""
        if not self._closed:
            self._closed = True
            self.flush()
        while self._inflight:
            await asyncio.gather(*list(self._inflight), return_exceptions=True)
        if self._owns_executor:
            self._executor.shutdown(wait=True)
        if self._rebuild_executor is not None:
            self._rebuild_executor.shutdown(wait=True)
            self._rebuild_executor = None

    async def __aenter__(self) -> "AsyncSearchServer":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    def _require_open(self) -> None:
        if self._closed:
            raise RuntimeError("AsyncSearchServer is closed")

    def _require_not_compacting(self, op: str) -> None:
        if self._compacting:
            raise RuntimeError(
                f"AsyncSearchServer: cannot {op} while a compaction is in "
                f"flight — the rebuild snapshots the index once; retry after "
                f"compact() returns"
            )

    def _bind_loop(self) -> asyncio.AbstractEventLoop:
        loop = asyncio.get_running_loop()
        if self._loop is None:
            self._loop = loop
            if self._clock is None:
                self._clock = LoopClock(loop)
            if self.slow_log is not None:
                self.slow_log.bind_clock(self._clock)
        elif self._loop is not loop:
            raise RuntimeError(
                "AsyncSearchServer is bound to a different event loop; "
                "create one server per loop"
            )
        return loop

    def _now(self) -> float:
        """The serving clock (loop time in production, virtual in tests)."""
        return self._clock.now()

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        """Requests admitted and not yet answered: queued, or in a
        dispatched batch that has not scattered — what
        ``max_queue_depth`` bounds."""
        queued = sum(len(batch.requests) for batch in self._queues.values())
        return queued + self._inflight_requests

    def _refresh_gauges(self) -> None:
        """Publish the point-in-time serving values into the registry.

        Counters and the latency histogram are written inline on the hot
        path; everything derived or sampled (queue depth, epoch, cache
        hit state, occupancy, window percentiles) is refreshed here,
        before :meth:`stats` and :meth:`metrics` read the registry.
        """
        gauge = lambda name, help: self.metrics_registry.gauge(name, help, self._labels)  # noqa: E731
        gauge("queue_depth", "Requests admitted, not yet answered").set(self.queue_depth)
        gauge("inflight_batches", "Dispatched batches not yet answered").set(
            self._inflight_batches
        )
        gauge("serving_epoch", "Write epoch of the served index").set(self._epoch)
        gauge("cache_hits", "Cache hits (lifetime)").set(
            self.cache.hits if self.cache is not None else 0
        )
        gauge("cache_misses", "Cache misses (lifetime)").set(
            self.cache.misses if self.cache is not None else 0
        )
        batches = self._batches_served.value
        gauge("mean_occupancy", "Mean requests per served batch").set(
            self._requests_batched.value / batches if batches else float("nan")
        )
        window = self._latency.snapshot()
        gauge("latency_p50_ms", "p50 queue-to-answer latency (window)").set(window.p50)
        gauge("latency_p99_ms", "p99 queue-to-answer latency (window)").set(window.p99)
        gauge("latency_mean_ms", "Mean queue-to-answer latency (window)").set(
            window.mean
        )
        refresh = getattr(self.index, "refresh_metrics", None)
        if refresh is not None:
            refresh()

    def stats(self) -> MetricsSnapshot:
        """This server's counter and gauge series, read off the registry.

        Keys are the metric names of docs/observability.md (request,
        batch, flush, cache, write and admission counters; queue depth,
        in-flight batches, ``serving_epoch``, occupancy and latency
        gauges); each also reads as an attribute.
        """
        self._refresh_gauges()
        return self.metrics_registry.snapshot(self._labels)

    async def metrics(self, format: str = "prometheus") -> str | Dict:
        """The registry snapshot as an awaitable endpoint.

        ``format="prometheus"`` returns the text exposition (what a
        scrape handler would serve); ``format="json"`` returns the
        snapshot dict.  Gauges (including the served index's) are
        refreshed first, so the export reflects this instant.
        """
        self._require_open()
        self._bind_loop()
        self._refresh_gauges()
        if format == "prometheus":
            return self.metrics_registry.to_prometheus()
        if format == "json":
            return self.metrics_registry.to_json()
        raise ValueError(f"unknown metrics format {format!r}")

    def __repr__(self) -> str:
        cache = "off" if self.cache is None else f"cap={self.cache.capacity}"
        return (
            f"{type(self).__name__}(index={self.index!r}, max_batch={self.max_batch}, "
            f"max_delay_ms={self.max_delay_ms}, cache={cache})"
        )


async def open_loop_arrivals(
    server: AsyncSearchServer,
    queries: Sequence[np.ndarray],
    spec: QuerySpec | int,
    rate_per_s: float,
    seed: int = 0,
) -> List[QueryResult]:
    """Drive *server* with open-loop Poisson arrivals at *rate_per_s*.

    Open loop means arrival times are drawn up front (exponential
    inter-arrivals) and do **not** wait for earlier answers — the
    realistic serving shape, where a slow server builds a queue instead
    of slowing its clients down.  Returns the per-request results in
    arrival order; used by the serving example and benchmark.
    """
    if not rate_per_s > 0.0:
        raise ValueError(f"rate_per_s must be positive, got {rate_per_s}")
    rng = np.random.default_rng(seed)
    targets = np.cumsum(rng.exponential(1.0 / rate_per_s, size=len(queries)))
    loop = asyncio.get_running_loop()
    start = loop.time()
    tasks = []
    for i, query in enumerate(queries):
        delay = start + float(targets[i]) - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(loop.create_task(server.submit(query, spec)))
    return list(await asyncio.gather(*tasks))
