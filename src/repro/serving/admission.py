"""Admission control for the serving front-end: deadlines, backpressure.

Under overload a server that accepts everything answers *nothing* on
time — the queue grows without bound and every request pays the full
queueing delay.  The admission layer makes overload explicit and cheap:

* **Per-request deadlines.**  ``submit(q, spec, deadline_ms=...)``
  stamps the request with an absolute deadline on the server's clock.
  A non-positive budget is shed at submit, before the cache or a queue
  sees it; a NaN budget is a ``ValueError``.  A request whose deadline
  has passed when its batch dispatches is **shed** with a typed
  :class:`DeadlineExceeded` instead of being batched — it never reaches
  the index, so expired work costs the service nothing but the
  exception.  A request whose deadline is still in the future is
  *never* shed on deadline grounds (pinned by a hypothesis property
  test): shedding is strictly "the answer could not possibly matter
  anymore".
* **Bounded backlog.**  ``max_queue_depth`` caps the requests admitted
  but not yet answered: the queued ones plus those in dispatched batches
  that have not scattered yet.  An arrival that would overflow it is
  refused with :class:`QueueFull`; everything already admitted keeps its
  place.

Every shed and rejection is counted in the server's metrics
(``requests_shed``, ``requests_rejected``); each
:class:`DeadlineExceeded` carries how late its request was.
"""

from __future__ import annotations

from typing import Optional


class ServingRejected(RuntimeError):
    """Base of the typed refusals the serving front-end can answer with."""


class DeadlineExceeded(ServingRejected):
    """The request's deadline passed before its batch could run.

    Raised (as the awaited future's exception) instead of an answer for
    a request submitted with a non-positive budget, or whose absolute
    deadline is behind the serving clock at dispatch time.  Carries how
    late the request was.
    """

    def __init__(self, late_ms: float, deadline_ms: Optional[float] = None) -> None:
        self.late_ms = float(late_ms)
        self.deadline_ms = deadline_ms
        detail = f"deadline passed {self.late_ms:.3f} ms ago"
        if deadline_ms is not None:
            detail += f" (budget was {deadline_ms:g} ms)"
        super().__init__(detail)


class QueueFull(ServingRejected):
    """The bounded backlog refused the request (backpressure).

    Raised at ``submit()`` time when the requests admitted but not yet
    answered already number ``max_queue_depth``.  The caller should back
    off or retry — nothing about the request was enqueued.
    """

    def __init__(self, depth: int, max_depth: int) -> None:
        self.depth = int(depth)
        self.max_depth = int(max_depth)
        super().__init__(
            f"pending queue full ({depth}/{max_depth}); request rejected"
        )


def expired(deadline: Optional[float], now: float) -> bool:
    """Whether an absolute *deadline* is behind *now* (``None`` never is)."""
    return deadline is not None and deadline < now
