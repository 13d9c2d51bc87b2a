"""Admission control for the serving front-end: deadlines, backpressure.

Under overload a server that accepts everything answers *nothing* on
time — the queue grows without bound and every request pays the full
queueing delay.  The admission layer makes overload explicit and cheap:

* **Per-request deadlines.**  ``submit(q, spec, deadline_ms=...)``
  stamps the request with an absolute deadline on the server's clock.
  A request whose deadline has already passed when its batch dispatches
  is **shed** with a typed :class:`DeadlineExceeded` instead of being
  batched — it never reaches the index, so expired work costs the
  service nothing but the exception.  A request whose deadline is still
  in the future is *never* shed on deadline grounds (pinned by a
  hypothesis property test): shedding is strictly
  "the answer could not possibly matter anymore".
* **Bounded queue.**  ``max_queue_depth`` caps the total number of
  queued (undispatched) requests.  When an arrival would overflow it,
  the :class:`AdmissionControl` policy decides:

  - ``"reject-newest"`` (default) — the arriving request is refused with
    :class:`QueueFull`; everything already queued keeps its place.
  - ``"drop-oldest-expired"`` — queued requests whose deadlines have
    *already passed* are shed first (lowest priority lanes scanned
    first, oldest first); the arrival is admitted if that freed a slot
    and refused with :class:`QueueFull` otherwise.  Requests with live
    deadlines are never touched.

* **Priority lanes.**  ``submit(..., priority=...)`` splits each spec
  merge key into per-priority lanes; under contention — an explicit
  ``flush()``, a write drain, shutdown — higher-priority lanes dispatch
  first, and the shed scan above eats from the lowest priority upward.

Every shed and rejection is counted in the server's metrics
(``requests_shed``, ``requests_rejected``) and recorded in
:attr:`AdmissionControl.shed_log` so tests can prove
no satisfiable request was ever dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional


class ServingRejected(RuntimeError):
    """Base of the typed refusals the serving front-end can answer with."""


class DeadlineExceeded(ServingRejected):
    """The request's deadline passed before its batch could run.

    Raised (as the awaited future's exception) instead of an answer for
    any request whose absolute deadline is behind the serving clock at
    submit or dispatch time.  Carries how late the request was.
    """

    def __init__(self, late_ms: float, deadline_ms: Optional[float] = None) -> None:
        self.late_ms = float(late_ms)
        self.deadline_ms = deadline_ms
        detail = f"deadline passed {self.late_ms:.3f} ms ago"
        if deadline_ms is not None:
            detail += f" (budget was {deadline_ms:g} ms)"
        super().__init__(detail)


class QueueFull(ServingRejected):
    """The bounded pending queue refused the request (backpressure).

    Raised at ``submit()`` time when the queue is at ``max_queue_depth``
    and the shed policy could not free a slot.  The caller should back
    off or retry — nothing about the request was enqueued.
    """

    def __init__(self, depth: int, max_depth: int) -> None:
        self.depth = int(depth)
        self.max_depth = int(max_depth)
        super().__init__(
            f"pending queue full ({depth}/{max_depth}); request rejected"
        )


@dataclass(frozen=True)
class ShedRecord:
    """One shed decision, with the evidence that it was legitimate.

    ``deadline`` and ``now`` are absolute clock seconds; a correct
    admission layer only ever sheds when ``deadline < now`` — the
    property-based tests assert exactly that over arbitrary traces.
    """

    deadline: float
    now: float
    stage: str  # "submit", "dispatch" or "overflow"
    priority: int = 0

    @property
    def late_ms(self) -> float:
        return (self.now - self.deadline) * 1e3


class AdmissionControl:
    """The policy object: queue bound, shed policy, and the shed log.

    Parameters
    ----------
    max_queue_depth:
        Maximum queued (undispatched) requests across every lane;
        ``None`` disables the bound (deadline shedding still applies).
    shed_policy:
        ``"reject-newest"`` or ``"drop-oldest-expired"`` — what to do
        when an arrival would overflow the bound (see module docstring).
    shed_log_capacity:
        Retained :class:`ShedRecord` entries (newest kept).
    """

    POLICIES = ("reject-newest", "drop-oldest-expired")

    def __init__(
        self,
        *,
        max_queue_depth: Optional[int] = None,
        shed_policy: str = "reject-newest",
        shed_log_capacity: int = 1024,
    ) -> None:
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ValueError(
                f"max_queue_depth must be >= 1 or None, got {max_queue_depth}"
            )
        if shed_policy not in self.POLICIES:
            raise ValueError(
                f"unknown shed_policy {shed_policy!r}; choose from {self.POLICIES}"
            )
        self.max_queue_depth = max_queue_depth
        self.shed_policy = shed_policy
        self._shed_log_capacity = int(shed_log_capacity)
        #: Every shed decision taken, newest last (bounded).
        self.shed_log: List[ShedRecord] = []

    @staticmethod
    def expired(deadline: Optional[float], now: float) -> bool:
        """Whether an absolute *deadline* is behind *now* (``None`` never is)."""
        return deadline is not None and deadline < now

    def record_shed(
        self, deadline: float, now: float, stage: str, priority: int = 0
    ) -> ShedRecord:
        """Log one shed decision (asserting its legitimacy in debug runs)."""
        record = ShedRecord(deadline=deadline, now=now, stage=stage, priority=priority)
        self.shed_log.append(record)
        if len(self.shed_log) > self._shed_log_capacity:
            del self.shed_log[: -self._shed_log_capacity]
        return record

    def overflowing(self, queue_depth: int) -> bool:
        """Whether admitting one more request would breach the bound."""
        return (
            self.max_queue_depth is not None and queue_depth >= self.max_queue_depth
        )

    def __repr__(self) -> str:
        return (
            f"AdmissionControl(max_queue_depth={self.max_queue_depth}, "
            f"shed_policy={self.shed_policy!r})"
        )
