"""Virtual-time harness for the serving test suite.

Every time-driven serving test runs on a
:class:`~repro.serving.clock.VirtualClock` injected into the server:
time only moves when the test says so, deadline flushes and shed
decisions happen at exact instants, and the whole suite finishes with
**zero wall-clock sleeps** — ``await asyncio.sleep(0)`` (a pure yield to
the event loop, no timer armed) is the only ``sleep`` spelled anywhere.

The helpers:

* :func:`settle` — yield the event loop a few turns so queued callbacks
  (scatter tasks, executor completions) run, without advancing any
  clock;
* :func:`advance` — move a :class:`VirtualClock` forward (firing due
  deadline timers synchronously) and then settle, so the batches those
  timers dispatched get scattered;
* :func:`run_trace` — drive a server with a scripted arrival trace
  ``(at_s, query, deadline_ms)`` in virtual time and collect
  one outcome per request (a ``QueryResult`` or the typed refusal);
* :class:`RecordingIndex` — an index wrapper that records every batch
  ``run()`` receives, the witness for "a shed request never reaches the
  index";
* :class:`ImmediateExecutor` — runs executor jobs synchronously on the
  caller (submission order trivially preserved), which keeps a whole
  server single-threaded and therefore bit-for-bit deterministic under
  the virtual clock;
* :class:`GatedExecutor` — holds every job until the test releases it,
  standing in for an index that is busy.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
from concurrent.futures import Executor
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.serving import VirtualClock

__all__ = [
    "GatedExecutor",
    "ImmediateExecutor",
    "RecordingIndex",
    "VirtualClock",
    "advance",
    "run_trace",
    "settle",
]


async def settle(turns: int = 10) -> None:
    """Yield the event loop *turns* times; never arms a timer."""
    for _ in range(turns):
        await asyncio.sleep(0)


async def advance(clock: VirtualClock, dt: float, *, turns: int = 10) -> int:
    """Advance virtual time by *dt* seconds, then settle the loop.

    Timer callbacks (deadline dispatches) fire synchronously inside the
    ``advance``; the settle afterwards lets the scatter tasks they
    created resolve their futures.  Returns the number of timers fired.
    """
    fired = clock.advance(dt)
    await settle(turns)
    return fired


class ImmediateExecutor(Executor):
    """An executor that runs each job synchronously at submit time.

    Satisfies the server's executor contract (jobs run in submission
    order, one at a time) while keeping everything on the event-loop
    thread — no worker thread, no scheduling jitter, so a server driven
    by a :class:`VirtualClock` is fully deterministic.
    """

    def submit(self, fn, *args, **kwargs):
        future: "concurrent.futures.Future" = concurrent.futures.Future()
        try:
            future.set_result(fn(*args, **kwargs))
        except BaseException as exc:  # propagate to the awaiting scatter
            future.set_exception(exc)
        return future


class GatedExecutor(Executor):
    """An executor that holds each job until :meth:`release`.

    Jobs run in submission order, on the releasing (event-loop) thread:
    between submit and release the served index looks busy, so
    dispatched batches stay in flight for as long as the test wants.
    """

    def __init__(self) -> None:
        self._held: list = []

    def submit(self, fn, *args, **kwargs):
        future: "concurrent.futures.Future" = concurrent.futures.Future()
        self._held.append((future, fn, args, kwargs))
        return future

    def release(self) -> int:
        """Run every held job now; returns how many ran."""
        held, self._held = self._held, []
        for future, fn, args, kwargs in held:
            try:
                future.set_result(fn(*args, **kwargs))
            except BaseException as exc:  # propagate to the awaiting scatter
                future.set_exception(exc)
        return len(held)


class CostedIndex:
    """Delegating index wrapper that charges *virtual* service time.

    Each ``run()`` call advances the supplied :class:`VirtualClock` by
    ``base_s + per_row_s * rows`` — the classic batch cost model (a
    fixed dispatch overhead amortized over the rows).  Combined with
    :class:`ImmediateExecutor` (so ``run()`` executes synchronously
    inside the dispatch), this turns the whole server into a
    deterministic discrete-event simulation: queueing and deadline
    expiry unfold in virtual time, identically on every host.  Advancing the clock inside a dispatch can fire other
    lanes' deadline timers — that is the simulation working, not a bug:
    a long-running batch really does push later lanes past their
    deadlines.
    """

    def __init__(self, index, clock: VirtualClock, *, base_s: float, per_row_s: float) -> None:
        self._index = index
        self._clock = clock
        self.base_s = float(base_s)
        self.per_row_s = float(per_row_s)
        self.busy_s = 0.0  # total virtual service time charged

    def run(self, queries, spec):
        rows = int(np.atleast_2d(queries).shape[0])
        result = self._index.run(queries, spec)
        cost = self.base_s + self.per_row_s * rows
        self.busy_s += cost
        self._clock.advance(cost)
        return result

    def __getattr__(self, name):
        return getattr(self._index, name)


class RecordingIndex:
    """Delegating index wrapper that records every ``run()`` batch.

    ``batches`` holds a copy of each query matrix the index actually
    received, in execution order — the evidence that shed requests never
    reached it and that queues dispatched in the order they opened.
    """

    def __init__(self, index) -> None:
        self._index = index
        self.batches: List[np.ndarray] = []

    def run(self, queries, spec):
        self.batches.append(np.array(queries, copy=True))
        return self._index.run(queries, spec)

    @property
    def rows_seen(self) -> int:
        return sum(batch.shape[0] for batch in self.batches)

    def __getattr__(self, name):
        return getattr(self._index, name)


async def run_trace(
    server,
    clock: VirtualClock,
    arrivals: Sequence[Tuple[float, np.ndarray, Optional[float]]],
    spec,
    *,
    drain_s: float = 120.0,
) -> List[object]:
    """Drive *server* with a scripted virtual-time arrival trace.

    Each arrival is ``(at_s, query, deadline_ms)``; the clock
    is advanced to each arrival instant (firing any deadline dispatches
    due on the way), the request is submitted, and after the last
    arrival time advances by *drain_s* so every armed timer fires.
    Returns one outcome per arrival, in order: the ``QueryResult`` or
    the exception (``DeadlineExceeded`` / ``QueueFull``) it raised.
    """
    tasks = []
    for at_s, query, deadline_ms in arrivals:
        if at_s > clock.now():
            clock.advance_to(float(at_s))
        await settle(4)
        tasks.append(
            asyncio.ensure_future(
                server.submit(query, spec, deadline_ms=deadline_ms)
            )
        )
        await settle(4)
    await advance(clock, drain_s)
    return list(await asyncio.gather(*tasks, return_exceptions=True))
