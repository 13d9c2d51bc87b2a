"""Injectable time for the serving subsystem: real loop time or virtual.

Every time-dependent decision the serving layer makes — deadline timers,
per-request deadlines, latency measurement — goes through one
:class:`Clock` seam instead of calling ``loop.time()`` directly.
Production uses :class:`LoopClock` (a thin view over the running event
loop's monotonic clock, so behavior is unchanged); tests and
deterministic benchmarks inject a :class:`VirtualClock` and *advance
time explicitly*, which makes every deadline flush and shed decision
reproducible with **zero wall-clock sleeps** — the test suite's
virtual-time harness (``tests/serving/_clock.py``) and the CI smoke in
``benchmarks/bench_serving.py`` both ride on it.

The contract is deliberately tiny:

* ``now()`` — monotonic seconds (same unit as ``loop.time()``);
* ``call_later(delay, callback)`` — schedule ``callback()`` once, at
  ``now() + delay``; returns a handle with ``cancel()``.

:class:`VirtualClock` keeps a heap of scheduled wakeups and fires them
in ``(when, scheduling order)`` order as :meth:`VirtualClock.advance`
sweeps time forward — callbacks scheduled *during* an advance (a
dispatched batch re-arming a timer) are honored within the same sweep
when they fall inside it.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Protocol, runtime_checkable


@runtime_checkable
class Clock(Protocol):
    """What the serving layer needs from time: read it, schedule on it."""

    def now(self) -> float:
        """Monotonic seconds (the unit of ``loop.time()``)."""
        ...

    def call_later(self, delay: float, callback: Callable[[], None]):
        """Schedule ``callback()`` at ``now() + delay``; returns a handle
        with a ``cancel()`` method."""
        ...


class LoopClock:
    """The production clock: a view over the running event loop.

    ``now()`` is ``loop.time()`` and ``call_later`` is
    ``loop.call_later`` — injecting this (the server's default) changes
    nothing about how the server behaved before the clock seam existed.
    """

    __slots__ = ("_loop",)

    def __init__(self, loop) -> None:
        self._loop = loop

    def now(self) -> float:
        return self._loop.time()

    def call_later(self, delay: float, callback: Callable[[], None]):
        return self._loop.call_later(delay, callback)

    def __repr__(self) -> str:
        return f"LoopClock({self._loop!r})"


class _VirtualTimer:
    """One scheduled wakeup of a :class:`VirtualClock` (cancellable)."""

    __slots__ = ("when", "callback", "cancelled")

    def __init__(self, when: float, callback: Callable[[], None]) -> None:
        self.when = when
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class VirtualClock:
    """A controllable monotonic clock for deterministic time-driven tests.

    Time only moves when :meth:`advance` (or :meth:`advance_to`) is
    called; scheduled callbacks fire synchronously inside the advance,
    in ``(deadline, scheduling order)`` order, with ``now()`` reading
    exactly each callback's deadline while it runs — so a deadline flush
    observed under the virtual clock computes the same waits and sheds
    on every run, on any host.

    >>> clock = VirtualClock()
    >>> fired = []
    >>> timer = clock.call_later(0.002, lambda: fired.append(clock.now()))
    >>> clock.advance(0.001); fired
    []
    >>> clock.advance(0.001); fired
    [0.002]
    """

    __slots__ = ("_now", "_heap", "_seq")

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._heap: List = []  # (when, seq, timer)
        self._seq = 0

    def now(self) -> float:
        return self._now

    def call_later(self, delay: float, callback: Callable[[], None]) -> _VirtualTimer:
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        timer = _VirtualTimer(self._now + float(delay), callback)
        heapq.heappush(self._heap, (timer.when, self._seq, timer))
        self._seq += 1
        return timer

    @property
    def pending(self) -> int:
        """Scheduled, not-yet-fired, not-cancelled wakeups."""
        return sum(1 for _, _, timer in self._heap if not timer.cancelled)

    def next_deadline(self) -> Optional[float]:
        """The earliest live wakeup time, or ``None`` when nothing is armed."""
        live = [when for when, _, timer in self._heap if not timer.cancelled]
        return min(live) if live else None

    def advance(self, dt: float) -> int:
        """Move time forward by *dt* seconds; returns callbacks fired."""
        if dt < 0:
            raise ValueError(f"cannot advance time backwards (dt={dt})")
        return self.advance_to(self._now + float(dt))

    def advance_to(self, target: float) -> int:
        """Sweep time to *target*, firing every due wakeup along the way."""
        if target < self._now:
            raise ValueError(
                f"cannot advance to {target} (now is {self._now}): time is monotonic"
            )
        fired = 0
        while self._heap and self._heap[0][0] <= target:
            when, _, timer = heapq.heappop(self._heap)
            if timer.cancelled:
                continue
            self._now = when  # the callback reads its own deadline as "now"
            timer.callback()
            fired += 1
        self._now = target
        return fired

    def __repr__(self) -> str:
        return f"VirtualClock(now={self._now:.6f}, pending={self.pending})"
