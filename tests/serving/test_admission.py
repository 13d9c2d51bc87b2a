"""Admission control: deadlines and the bounded backlog.

All on the virtual-clock harness — every shed decision happens at an
exact, scripted instant — with a :class:`RecordingIndex` witnessing the
central promise: **a shed request never reaches the index**, and every
admitted request's answer stays byte-identical to a direct ``run()``.

The hypothesis property at the bottom sweeps arbitrary arrival traces
and asserts the legitimacy invariant from ``repro/serving/admission.py``:
the server only ever sheds requests whose deadlines had already passed,
which every :class:`DeadlineExceeded` carries as its ``late_ms``.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Knn, create_index
from repro.serving import (
    AsyncSearchServer,
    DeadlineExceeded,
    QueueFull,
    ServingRejected,
)

from tests.serving._clock import (
    GatedExecutor,
    ImmediateExecutor,
    RecordingIndex,
    VirtualClock,
    advance,
    run_trace,
    settle,
)


@pytest.fixture(scope="module")
def base_index(small_clustered):
    return create_index("exact").fit(small_clustered[:200])


def make_server(index, clock, **kwargs):
    kwargs.setdefault("max_batch", 64)
    kwargs.setdefault("max_delay_ms", 5.0)
    kwargs.setdefault("executor", ImmediateExecutor())
    return AsyncSearchServer(index, clock=clock, **kwargs)


class TestDeadlines:
    def test_dead_on_arrival_is_shed_at_submit(self, base_index, small_clustered):
        async def scenario():
            clock = VirtualClock()
            recording = RecordingIndex(base_index)
            server = make_server(recording, clock)
            with pytest.raises(DeadlineExceeded) as excinfo:
                await server.submit(small_clustered[0], Knn(k=2), deadline_ms=-1.0)
            stats = server.stats()
            await server.close()
            return excinfo.value, stats, recording

        exc, stats, recording = asyncio.run(scenario())
        assert exc.late_ms == 1.0
        assert exc.deadline_ms == -1.0
        assert recording.batches == []  # never reached the index
        assert stats.requests_shed == 1
        assert stats.requests_served == 0

    @pytest.mark.parametrize("cached", [False, True])
    def test_zero_budget_is_shed_before_it_queues(
        self, base_index, small_clustered, cached
    ):
        """A 0 ms budget has no time left: it is refused at submit, never
        holds a queue slot, never waits for a dispatch, and is not
        answered from the cache either."""

        async def scenario():
            clock = VirtualClock()
            recording = RecordingIndex(base_index)
            server = make_server(recording, clock, max_delay_ms=5.0, cache=8)
            if cached:  # the same query, answered once already
                warm = asyncio.ensure_future(server.submit(small_clustered[0], Knn(k=2)))
                await settle()
                await advance(clock, 0.005)
                await warm
            pending = asyncio.ensure_future(
                server.submit(small_clustered[0], Knn(k=2), deadline_ms=0.0)
            )
            await settle()  # no virtual time passes: no dispatch can fire
            done, depth = pending.done(), server.queue_depth
            await advance(clock, 0.005)  # a queued request would dispatch now
            with pytest.raises(DeadlineExceeded) as excinfo:
                await pending
            stats = server.stats()
            await server.close()
            return done, depth, excinfo.value, stats, recording

        done, depth, exc, stats, recording = asyncio.run(scenario())
        assert done
        assert depth == 0
        assert (exc.late_ms, exc.deadline_ms) == (0.0, 0.0)
        assert len(recording.batches) == int(cached)  # only the warm-up ran
        assert stats.requests_shed == 1
        assert stats.requests_served == int(cached)

    def test_nan_budget_is_rejected(self, base_index, small_clustered):
        async def scenario():
            clock = VirtualClock()
            recording = RecordingIndex(base_index)
            server = make_server(recording, clock)
            pending = asyncio.ensure_future(
                server.submit(small_clustered[0], Knn(k=2), deadline_ms=float("nan"))
            )
            await settle()
            await advance(clock, 1.0)  # a queued request would be answered
            with pytest.raises(ValueError, match="deadline_ms"):
                await pending
            stats = server.stats()
            await server.close()
            return stats, recording

        stats, recording = asyncio.run(scenario())
        assert recording.batches == []
        assert stats.requests_submitted == 0
        assert (stats.requests_shed, stats.requests_served) == (0, 0)

    def test_infinite_budget_is_never_shed(self, base_index, small_clustered):
        """Only NaN is refused: an infinite budget is a deadline that
        never passes, answered like a deadline-free request."""

        async def scenario():
            clock = VirtualClock()
            server = make_server(base_index, clock, max_delay_ms=5.0)
            pending = asyncio.ensure_future(
                server.submit(small_clustered[0], Knn(k=2), deadline_ms=float("inf"))
            )
            await settle()
            await advance(clock, 3600.0)
            result = await pending
            stats = server.stats()
            await server.close()
            return result, stats

        result, stats = asyncio.run(scenario())
        direct = base_index.run(small_clustered[:1], Knn(k=2))[0]
        np.testing.assert_array_equal(result.ids, direct.ids)
        np.testing.assert_array_equal(result.distances, direct.distances)
        assert (stats.requests_shed, stats.requests_served) == (0, 1)

    def test_expiry_in_queue_sheds_at_dispatch(self, base_index, small_clustered):
        async def scenario():
            clock = VirtualClock()
            recording = RecordingIndex(base_index)
            server = make_server(recording, clock, max_delay_ms=5.0)
            pending = asyncio.ensure_future(
                server.submit(small_clustered[0], Knn(k=2), deadline_ms=1.0)
            )
            await settle()
            await advance(clock, 0.005)  # deadline flush at t=5ms; budget died at 1ms
            with pytest.raises(DeadlineExceeded) as excinfo:
                await pending
            stats = server.stats()
            await server.close()
            return excinfo.value, stats, recording

        exc, stats, recording = asyncio.run(scenario())
        assert exc.late_ms == 4.0  # exactly (5 - 1) ms on the virtual clock
        assert recording.batches == []
        # An all-expired dispatch runs nothing: no flush is counted.
        assert stats.deadline_flushes == 0
        assert stats.batches_served == 0
        assert stats.requests_shed == 1

    def test_mixed_batch_sheds_expired_and_answers_live(
        self, base_index, small_clustered
    ):
        """The live remainder of a partly-expired batch is answered
        byte-identically to a direct run over just those queries."""
        live_query = small_clustered[1]
        direct = base_index.run(live_query[None, :], Knn(k=3))

        async def scenario():
            clock = VirtualClock()
            recording = RecordingIndex(base_index)
            server = make_server(recording, clock, max_delay_ms=5.0)
            doomed = asyncio.ensure_future(
                server.submit(small_clustered[0], Knn(k=3), deadline_ms=1.0)
            )
            alive = asyncio.ensure_future(
                server.submit(live_query, Knn(k=3), deadline_ms=50.0)
            )
            await settle()
            await advance(clock, 0.005)
            outcome_doomed, outcome_alive = await asyncio.gather(
                doomed, alive, return_exceptions=True
            )
            stats = server.stats()
            await server.close()
            return outcome_doomed, outcome_alive, stats, recording

        outcome_doomed, outcome_alive, stats, recording = asyncio.run(scenario())
        assert isinstance(outcome_doomed, DeadlineExceeded)
        np.testing.assert_array_equal(outcome_alive.ids, direct[0].ids)
        np.testing.assert_array_equal(outcome_alive.distances, direct[0].distances)
        # The index saw exactly one batch holding only the live query.
        assert len(recording.batches) == 1
        assert recording.batches[0].shape[0] == 1
        assert stats.deadline_flushes == 1
        assert (stats.requests_shed, stats.requests_served) == (1, 1)

    def test_live_deadline_is_never_shed(self, base_index, small_clustered):
        async def scenario():
            clock = VirtualClock()
            server = make_server(base_index, clock, max_delay_ms=5.0)
            pending = asyncio.ensure_future(
                server.submit(small_clustered[0], Knn(k=2), deadline_ms=10.0)
            )
            await settle()
            await advance(clock, 0.005)  # dispatch at 5ms < 10ms budget
            result = await pending
            stats = server.stats()
            await server.close()
            return result, stats

        result, stats = asyncio.run(scenario())
        assert len(result) == 2
        assert stats.requests_shed == 0

    def test_typed_exceptions_share_a_base(self):
        assert issubclass(DeadlineExceeded, ServingRejected)
        assert issubclass(QueueFull, ServingRejected)
        assert "budget was 5 ms" in str(DeadlineExceeded(2.0, 5.0))
        assert "3/2" in str(QueueFull(3, 2))


class TestBoundedQueue:
    def test_reject_newest_refuses_the_arrival(self, base_index, small_clustered):
        async def scenario():
            clock = VirtualClock()
            server = make_server(
                base_index, clock, max_queue_depth=2, max_delay_ms=60_000.0
            )
            queued = [
                asyncio.ensure_future(server.submit(small_clustered[i], Knn(k=2)))
                for i in range(2)
            ]
            await settle()
            with pytest.raises(QueueFull) as excinfo:
                await server.submit(small_clustered[2], Knn(k=2))
            # Everything already queued keeps its place and is answered.
            server.flush()
            results = await asyncio.gather(*queued)
            stats = server.stats()
            await server.close()
            return excinfo.value, results, stats

        exc, results, stats = asyncio.run(scenario())
        assert (exc.depth, exc.max_depth) == (2, 2)
        assert all(len(result) == 2 for result in results)
        assert stats.requests_rejected == 1
        assert stats.requests_shed == 0

    def test_backlog_counts_dispatched_batches(self, base_index, small_clustered):
        """``max_queue_depth`` bounds requests admitted but not yet
        answered: while the index is busy, full batches that have left
        the queue still hold their slots, and the excess is refused."""
        gate = GatedExecutor()

        async def scenario():
            clock = VirtualClock()
            server = make_server(
                base_index,
                clock,
                max_batch=2,
                max_delay_ms=60_000.0,
                max_queue_depth=4,
                executor=gate,
            )
            pending = [
                asyncio.ensure_future(server.submit(small_clustered[i], Knn(k=2)))
                for i in range(10)
            ]
            await settle()  # every submit ran; the index has answered nothing
            unanswered = sum(not task.done() for task in pending)
            blocked = (server.queue_depth, server.stats().queue_depth, unanswered)
            gate.release()
            outcomes = await asyncio.gather(*pending, return_exceptions=True)
            stats = server.stats()
            await server.close()
            return blocked, outcomes, stats

        blocked, outcomes, stats = asyncio.run(scenario())
        # Two full batches of two are dispatched and held by the index.
        assert blocked == (4, 4, 4)
        answered = [o for o in outcomes if not isinstance(o, Exception)]
        refused = [o for o in outcomes if isinstance(o, QueueFull)]
        assert len(answered) == 4 and all(len(r) == 2 for r in answered)
        assert len(refused) == 6
        assert all((exc.depth, exc.max_depth) == (4, 4) for exc in refused)
        assert (stats.requests_rejected, stats.batches_served) == (6, 2)
        assert stats.queue_depth == 0

    def test_depth_counts_queued_plus_in_flight(self, base_index, small_clustered):
        """``queue_depth`` (property and stats gauge) is queued requests
        plus requests in dispatched batches that have not scattered."""
        gate = GatedExecutor()

        async def scenario():
            clock = VirtualClock()
            server = make_server(
                base_index, clock, max_batch=2, max_delay_ms=60_000.0, executor=gate
            )
            pending = [
                asyncio.ensure_future(server.submit(small_clustered[i], Knn(k=2)))
                for i in range(3)
            ]
            await settle()  # one full batch in flight, one request queued
            stats = server.stats()
            seen = [(server.queue_depth, stats.queue_depth, stats.inflight_batches)]
            server.flush()  # the straggler joins the index's backlog
            await settle()
            stats = server.stats()
            seen.append((server.queue_depth, stats.queue_depth, stats.inflight_batches))
            gate.release()
            await asyncio.gather(*pending)
            stats = server.stats()
            seen.append((server.queue_depth, stats.queue_depth, stats.inflight_batches))
            await server.close()
            return seen

        assert asyncio.run(scenario()) == [(3, 3, 1), (3, 3, 2), (0, 0, 0)]

    def test_failed_batch_releases_its_slots(self, base_index, small_clustered):
        """A batch whose ``run()`` raises still gives its slots back: the
        error reaches its callers and the next arrivals are admitted."""
        gate = GatedExecutor()

        class FailsOnce:
            def __init__(self, index):
                self._index, self.calls = index, 0

            def run(self, queries, spec):
                self.calls += 1
                if self.calls == 1:
                    raise RuntimeError("index unavailable")
                return self._index.run(queries, spec)

            def __getattr__(self, name):
                return getattr(self._index, name)

        async def scenario():
            clock = VirtualClock()
            server = make_server(
                FailsOnce(base_index),
                clock,
                max_batch=2,
                max_delay_ms=60_000.0,
                max_queue_depth=2,
                executor=gate,
            )
            first = [
                asyncio.ensure_future(server.submit(small_clustered[i], Knn(k=2)))
                for i in range(2)
            ]
            await settle()
            with pytest.raises(QueueFull):
                await server.submit(small_clustered[2], Knn(k=2))
            gate.release()
            failed = await asyncio.gather(*first, return_exceptions=True)
            depth_after_failure = server.queue_depth
            second = [
                asyncio.ensure_future(server.submit(small_clustered[i], Knn(k=2)))
                for i in range(2, 4)
            ]
            await settle()
            gate.release()
            answered = await asyncio.gather(*second)
            stats = server.stats()
            await server.close()
            return failed, depth_after_failure, answered, stats

        failed, depth, answered, stats = asyncio.run(scenario())
        assert all(isinstance(outcome, RuntimeError) for outcome in failed)
        assert depth == 0
        assert all(len(result) == 2 for result in answered)
        assert (stats.requests_rejected, stats.queue_depth) == (1, 0)

    def test_rejects_bad_admission_args(self, base_index):
        with pytest.raises(ValueError, match="max_queue_depth"):
            AsyncSearchServer(base_index, max_queue_depth=0)


class TestDrainOrder:
    def test_flush_drains_in_arrival_order(self, base_index, small_clustered):
        async def scenario():
            clock = VirtualClock()
            recording = RecordingIndex(base_index)
            server = make_server(recording, clock, max_delay_ms=60_000.0)
            specs = [Knn(k=3), Knn(k=2), Knn(k=3)]
            pending = [
                asyncio.ensure_future(server.submit(small_clustered[i], spec))
                for i, spec in enumerate(specs)
            ]
            await settle()
            server.flush()
            await asyncio.gather(*pending)
            await server.close()
            return recording

        recording = asyncio.run(scenario())
        # The k=3 queue opened first, so it runs first, holding rows 0 and 2.
        assert [batch.shape[0] for batch in recording.batches] == [2, 1]
        np.testing.assert_array_equal(recording.batches[0], small_clustered[[0, 2]])
        np.testing.assert_array_equal(recording.batches[1], small_clustered[[1]])


# --- the legitimacy property -------------------------------------------------

ARRIVALS = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=0.01),  # inter-arrival gap (s)
        st.one_of(st.none(), st.floats(min_value=0.0, max_value=20.0)),  # budget ms
    ),
    min_size=1,
    max_size=12,
)


class TestNeverShedsSatisfiable:
    @settings(max_examples=25, deadline=None)
    @given(trace=ARRIVALS)
    def test_only_expired_requests_are_ever_shed(self, trace):
        """Over arbitrary arrival traces and budgets: every shed carries
        the evidence that its deadline had passed, sheds and rejections
        account exactly for the non-answered requests, and a
        deadline-free request is always answered."""
        data = np.random.default_rng(0).normal(size=(40, 8))
        index = create_index("exact").fit(data)

        async def scenario():
            clock = VirtualClock()
            server = make_server(
                index,
                clock,
                max_batch=4,
                max_delay_ms=5.0,
                max_queue_depth=6,
            )
            at = 0.0
            arrivals = []
            for i, (gap, budget_ms) in enumerate(trace):
                at += gap
                arrivals.append((at, data[i % 40], budget_ms))
            outcomes = await run_trace(server, clock, arrivals, Knn(k=2))
            await server.close()
            return outcomes, server.stats()

        outcomes, stats = asyncio.run(scenario())
        shed = [o for o in outcomes if isinstance(o, DeadlineExceeded)]
        rejected = [o for o in outcomes if isinstance(o, QueueFull)]
        answered = [o for o in outcomes if not isinstance(o, Exception)]
        assert len(shed) + len(rejected) + len(answered) == len(trace)
        assert (len(shed), len(rejected)) == (stats.requests_shed, stats.requests_rejected)
        # Every shed was legitimate: its deadline was strictly behind the
        # clock at dispatch, or its budget left no time at submit.
        for (_, budget_ms), outcome in zip(trace, outcomes):
            if budget_ms is None:
                # No deadline-free request is ever shed on deadline grounds.
                assert not isinstance(outcome, DeadlineExceeded)
            elif isinstance(outcome, DeadlineExceeded):
                assert outcome.late_ms > 0.0 or budget_ms == 0.0
