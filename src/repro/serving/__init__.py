"""Async serving subsystem: static micro-batching over any index.

The front-end that turns many small independent requests — the realistic
serving traffic shape — into exactly the large batches PM-LSH's
vectorised hot paths were built for, and keeps itself safe under
production traffic:

* :mod:`repro.serving.server` — :class:`AsyncSearchServer`, the asyncio
  micro-batcher (queue → coalesce → ``run()`` → scatter) with an
  epoch-interleaved write path, per-request deadlines and a
  single-worker executor bridge, plus
  :func:`open_loop_arrivals`, the Poisson traffic driver the example and
  benchmark share;
* :mod:`repro.serving.admission` — admission control: typed
  :class:`DeadlineExceeded` / :class:`QueueFull` refusals and the one
  ``expired(deadline, now)`` test;
* :mod:`repro.serving.cache` — :class:`QueryCache`, the LRU of answers
  keyed on the spec and the query's bytes, cleared on every write;
* :mod:`repro.serving.clock` — the injectable :class:`Clock` seam
  (:class:`LoopClock` in production, :class:`VirtualClock` for
  deterministic time-driven tests).

``AsyncSearchServer.stats()`` is the metrics registry's snapshot of the
server's series (:class:`repro.obs.MetricsSnapshot`).

See ``docs/serving.md`` for the handbook (including the "Overload"
chapter).
"""

from repro.serving.admission import DeadlineExceeded, QueueFull, ServingRejected
from repro.serving.cache import QueryCache
from repro.serving.clock import Clock, LoopClock, VirtualClock
from repro.serving.server import AsyncSearchServer, open_loop_arrivals

__all__ = [
    "AsyncSearchServer",
    "Clock",
    "DeadlineExceeded",
    "LoopClock",
    "QueryCache",
    "QueueFull",
    "ServingRejected",
    "VirtualClock",
    "open_loop_arrivals",
]
