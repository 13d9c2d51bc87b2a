"""The virtual-clock harness itself, and the server's behavior on it.

Pins the :class:`~repro.serving.clock.VirtualClock` contract (firing
order, cancellation, monotonicity, re-arming inside a sweep), the
:class:`~repro.serving.clock.LoopClock` equivalence with ``loop.time``,
and the headline property the harness buys: two identical virtual-time
runs of a server produce **identical** latency numbers, stats and
slow-query records — no wall-clock anywhere.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro import Knn, create_index
from repro.obs import SlowQueryLog
from repro.serving import AsyncSearchServer, Clock, LoopClock, VirtualClock

from tests.serving._clock import ImmediateExecutor, advance, settle


@pytest.fixture(scope="module")
def exact_index(small_clustered):
    return create_index("exact").fit(small_clustered[:200])


class TestVirtualClock:
    def test_fires_in_deadline_then_scheduling_order(self):
        clock = VirtualClock()
        fired = []
        clock.call_later(0.002, lambda: fired.append("b"))
        clock.call_later(0.001, lambda: fired.append("a"))
        clock.call_later(0.002, lambda: fired.append("c"))  # ties keep FIFO
        assert clock.advance(0.01) == 3
        assert fired == ["a", "b", "c"]

    def test_now_reads_each_deadline_during_callback(self):
        clock = VirtualClock(start=1.0)
        seen = []
        clock.call_later(0.5, lambda: seen.append(clock.now()))
        clock.advance(2.0)
        assert seen == [1.5]
        assert clock.now() == 3.0  # then lands on the sweep target

    def test_cancelled_timer_never_fires(self):
        clock = VirtualClock()
        fired = []
        timer = clock.call_later(0.001, lambda: fired.append(1))
        timer.cancel()
        assert clock.advance(1.0) == 0
        assert fired == []
        assert clock.pending == 0

    def test_callbacks_scheduled_during_sweep_fire_in_same_sweep(self):
        clock = VirtualClock()
        fired = []
        # The first wakeup re-arms a second one that still falls inside
        # the sweep window — a dispatched lane re-arming its timer.
        clock.call_later(0.001, lambda: clock.call_later(0.001, lambda: fired.append(clock.now())))
        assert clock.advance(0.01) == 2
        assert fired == [0.002]

    def test_pending_and_next_deadline(self):
        clock = VirtualClock()
        assert clock.next_deadline() is None
        first = clock.call_later(0.005, lambda: None)
        clock.call_later(0.010, lambda: None)
        assert clock.pending == 2
        assert clock.next_deadline() == 0.005
        first.cancel()
        assert clock.pending == 1
        assert clock.next_deadline() == 0.010

    def test_time_is_monotonic(self):
        clock = VirtualClock(start=5.0)
        with pytest.raises(ValueError, match="backwards"):
            clock.advance(-0.1)
        with pytest.raises(ValueError, match="monotonic"):
            clock.advance_to(4.0)
        with pytest.raises(ValueError, match="delay"):
            clock.call_later(-1.0, lambda: None)

    def test_satisfies_the_clock_protocol(self):
        assert isinstance(VirtualClock(), Clock)


class TestLoopClock:
    def test_mirrors_loop_time_and_schedules_on_it(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            clock = LoopClock(loop)
            assert isinstance(clock, Clock)
            assert abs(clock.now() - loop.time()) < 0.05
            fired = asyncio.Event()
            handle = clock.call_later(0.0, fired.set)
            await fired.wait()
            handle.cancel()  # handle exposes cancel() like a TimerHandle

        asyncio.run(scenario())


class TestDeterministicServing:
    """Two identical virtual-time runs agree on every number."""

    async def _run_once(self, index, queries):
        clock = VirtualClock()
        slow_log = SlowQueryLog(capacity=16, threshold_ms=1.0)
        server = AsyncSearchServer(
            index,
            max_batch=8,
            max_delay_ms=4.0,
            clock=clock,
            executor=ImmediateExecutor(),
            slow_log=slow_log,
        )
        pending = []
        # Three waves 2 (virtual) ms apart: 3 stragglers each, so every
        # wave rides a deadline flush at +4 ms.
        for wave in range(3):
            for row in queries[wave * 3 : wave * 3 + 3]:
                pending.append(asyncio.ensure_future(server.submit(row, Knn(k=2))))
            await settle()
            await advance(clock, 0.002)
        await advance(clock, 0.002)  # land exactly on the last deadline
        results = await asyncio.gather(*pending)
        stats = server.stats()
        records = [record.as_dict() for record in slow_log.records()]
        await server.close()
        waits = [result.stats["serving_wait_ms"] for result in results]
        # NaN-valued fields (the hit rate: no cache here) would break ==; map
        # them to None so two runs can be compared for exact equality.
        flat = {
            key: (None if value != value else value)
            for key, value in stats.as_dict().items()
        }
        return waits, flat, records

    def test_two_runs_are_byte_identical(self, exact_index, small_clustered):
        queries = small_clustered[:9]
        first = asyncio.run(self._run_once(exact_index, queries))
        second = asyncio.run(self._run_once(exact_index, queries))
        assert first == second

    def test_latencies_are_exact_virtual_durations(self, exact_index, small_clustered):
        waits, stats, records = asyncio.run(
            self._run_once(exact_index, small_clustered[:9])
        )
        # Waves 0 and 1 share one lane (the timer armed at t=0 fires at
        # t=4 ms): wave 0 waited the full 4 ms window, wave 1 half of
        # it.  Wave 2 opened a fresh lane at t=4 ms and waited 4 ms.
        assert waits == [4.0, 4.0, 4.0, 2.0, 2.0, 2.0, 4.0, 4.0, 4.0]
        assert stats["deadline_flushes"] == 2.0
        assert stats["mean_occupancy"] == 4.5  # batches of 6 and 3
        assert stats["latency_p50_ms"] == 4.0
        # Every request beat the 1 ms slow threshold -> all captured,
        # stamped with exact virtual capture times (the two flushes).
        assert len(records) == 9
        assert {record["at"] for record in records} == {0.004, 0.008}
