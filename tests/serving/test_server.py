"""Tests for the asyncio micro-batching server.

Every test drives a real event loop through ``asyncio.run`` — no asyncio
test plugin needed — and pins the contracts ``docs/serving.md``
advertises: byte-identical scattering, the deadline flush, merge-key
isolation, epoch-interleaved writes, and drop-free shutdown.

Time-driven behavior (deadline flushes, stragglers) runs on the
virtual-clock harness (``tests/serving/_clock.py``): the server gets a
:class:`~repro.serving.clock.VirtualClock` and the test advances time
explicitly, so the whole file passes with zero wall-clock sleeps.
"""

from __future__ import annotations

import asyncio
import inspect

import numpy as np
import pytest

from repro import Knn, Range, create_index
from repro.obs import MetricsRegistry
from repro.serving import AsyncSearchServer, open_loop_arrivals

from tests.serving._clock import (
    ImmediateExecutor,
    RecordingIndex,
    VirtualClock,
    advance,
    settle,
)


@pytest.fixture(scope="module")
def pmlsh_index(small_clustered):
    return create_index("pm-lsh", seed=11).fit(small_clustered[:600])


@pytest.fixture(scope="module")
def exact_index(small_clustered):
    return create_index("exact").fit(small_clustered[:400])


class TestDeterminism:
    def test_async_knn_byte_identical_to_direct_run(self, pmlsh_index, small_clustered):
        queries = small_clustered[:37] + 0.01
        spec = Knn(k=8)
        direct = pmlsh_index.run(queries, spec)

        async def serve():
            clock = VirtualClock()
            async with AsyncSearchServer(
                pmlsh_index, max_batch=16, max_delay_ms=2.0, clock=clock
            ) as server:
                pending = asyncio.ensure_future(server.submit_many(queries, spec))
                await settle()
                await advance(clock, 0.002)  # flush the 37 % 16 stragglers
                return await pending

        results = asyncio.run(serve())
        assert len(results) == queries.shape[0]
        for i, result in enumerate(results):
            np.testing.assert_array_equal(result.ids, direct[i].ids)
            np.testing.assert_array_equal(result.distances, direct[i].distances)

    def test_async_range_byte_identical_to_direct_run(self, pmlsh_index, small_clustered):
        queries = small_clustered[:12] + 0.01
        spec = Range(r=6.0)
        direct = pmlsh_index.run(queries, spec)

        async def serve():
            async with AsyncSearchServer(pmlsh_index, max_batch=4) as server:
                return await server.submit_many(queries, spec)

        results = asyncio.run(serve())
        for i, result in enumerate(results):
            np.testing.assert_array_equal(result.ids, direct[i].ids)
            np.testing.assert_array_equal(result.distances, direct[i].distances)

    def test_sharded_engine_served_identically(self, small_clustered):
        engine = create_index(
            "sharded", backend="exact", num_shards=3, num_workers=1
        ).fit(small_clustered[:300])
        queries = small_clustered[:9] + 0.01
        direct = engine.run(queries, Knn(k=5))

        async def serve():
            async with AsyncSearchServer(engine, max_batch=3) as server:
                return await server.submit_many(queries, Knn(k=5))

        results = asyncio.run(serve())
        for i, result in enumerate(results):
            np.testing.assert_array_equal(result.ids, direct[i].ids)
        engine.close()

    def test_results_carry_serving_fields(self, exact_index, small_clustered):
        async def serve():
            async with AsyncSearchServer(exact_index, max_batch=4) as server:
                return await server.submit_many(small_clustered[:4], Knn(k=3))

        results = asyncio.run(serve())
        for result in results:
            assert result.stats["serving_batch_size"] == 4.0
            assert result.stats["serving_wait_ms"] >= 0.0


class TestBatchingPolicy:
    def test_size_threshold_flushes_full_batches(self, exact_index, small_clustered):
        async def serve():
            server = AsyncSearchServer(exact_index, max_batch=8, max_delay_ms=60_000.0)
            results = await server.submit_many(small_clustered[:16], Knn(k=2))
            stats = server.stats()
            await server.close()
            return results, stats

        results, stats = asyncio.run(serve())
        assert len(results) == 16
        # A minute-long deadline cannot have fired: both flushes were size.
        assert stats.size_flushes == 2
        assert stats.deadline_flushes == 0
        assert stats.mean_occupancy == 8.0

    def test_deadline_flushes_single_straggler(self, exact_index, small_clustered):
        """Virtual time: the lone request dispatches exactly when the
        2 ms window expires — no wall-clock wait, exact wait accounting."""

        async def serve():
            clock = VirtualClock()
            server = AsyncSearchServer(
                exact_index, max_batch=64, max_delay_ms=2.0, clock=clock
            )
            pending = asyncio.ensure_future(server.submit(small_clustered[0], Knn(k=3)))
            await settle()
            assert server.queue_depth == 1  # queued, timer armed, nothing fired
            fired = await advance(clock, 0.002)
            assert fired == 1
            result = await pending
            stats = server.stats()
            await server.close()
            return result, stats

        result, stats = asyncio.run(serve())
        # The lone request was answered without 63 peers ever arriving …
        assert len(result) == 3
        assert result.stats["serving_batch_size"] == 1.0
        # … because the deadline, not the size threshold, fired — after
        # exactly the configured window on the virtual clock.
        assert result.stats["serving_wait_ms"] == 2.0
        assert stats.deadline_flushes == 1
        assert stats.size_flushes == 0

    def test_incompatible_specs_never_coalesce(self, exact_index, small_clustered):
        queries = small_clustered[:6]

        async def serve():
            clock = VirtualClock()
            async with AsyncSearchServer(
                exact_index, max_batch=64, max_delay_ms=5.0, clock=clock
            ) as server:
                pending = asyncio.gather(
                    server.submit_many(queries, Knn(k=5)),
                    server.submit_many(queries, Knn(k=3)),
                    server.submit_many(queries, Range(r=4.0)),
                )
                await settle()
                await advance(clock, 0.005)  # all three lanes hit the deadline
                k5, k3, ranged = await pending
                return k5, k3, ranged, server.stats()

        k5, k3, ranged, stats = asyncio.run(serve())
        # Three merge keys -> three separate batches, never one of 18.
        assert stats.batches_served == 3
        assert stats.mean_occupancy == 6.0
        assert all(len(result) == 5 for result in k5)
        assert all(len(result) == 3 for result in k3)
        assert all(result.stats["serving_batch_size"] == 6.0 for result in ranged)

    def test_zero_window_dispatches_next_loop_pass(self, exact_index, small_clustered):
        """Regression: max_delay_ms=0 with max_batch>1 used to arm no
        timer at all, hanging a lone submit forever.  A zero window must
        dispatch on the next loop pass — and a same-tick burst still
        coalesces."""

        async def serve():
            async with AsyncSearchServer(
                exact_index, max_batch=64, max_delay_ms=0.0
            ) as server:
                results = await asyncio.wait_for(
                    server.submit_many(small_clustered[:6], Knn(k=2)), timeout=5.0
                )
                return results, server.stats()

        results, stats = asyncio.run(serve())
        assert all(len(result) == 2 for result in results)
        assert stats.mean_occupancy > 1.0  # the burst still shared a batch

    def test_max_batch_one_disables_coalescing(self, exact_index, small_clustered):
        async def serve():
            async with AsyncSearchServer(exact_index, max_batch=1) as server:
                await server.submit_many(small_clustered[:5], Knn(k=2))
                return server.stats()

        stats = asyncio.run(serve())
        assert stats.batches_served == 5
        assert stats.mean_occupancy == 1.0


class TestStaticBatching:
    """``max_batch`` and ``max_delay_ms`` are the whole policy: no load
    history moves either of them."""

    def test_every_burst_batches_the_same_way(self, exact_index, small_clustered):
        recorder = RecordingIndex(exact_index)

        async def serve():
            clock = VirtualClock()
            server = AsyncSearchServer(
                recorder,
                max_batch=8,
                max_delay_ms=2.0,
                clock=clock,
                executor=ImmediateExecutor(),
            )
            waits = []
            for burst in range(3):
                pending = [
                    asyncio.ensure_future(server.submit(q, Knn(k=2)))
                    for q in small_clustered[burst * 20 : burst * 20 + 20]
                ]
                await settle()
                await advance(clock, 0.002)  # the 4 stragglers' deadline
                results = await asyncio.gather(*pending)
                waits.append([r.stats["serving_wait_ms"] for r in results[16:]])
            stats = server.stats()
            await server.close()
            return waits, stats

        waits, stats = asyncio.run(serve())
        assert [batch.shape[0] for batch in recorder.batches] == [8, 8, 4] * 3
        assert waits == [[2.0] * 4] * 3
        assert (stats.size_flushes, stats.deadline_flushes) == (6, 3)

    def test_idle_gap_leaves_the_window_alone(self, exact_index, small_clustered):
        """A lone request after a long idle stretch still waits exactly
        ``max_delay_ms`` — the window is not narrowed by quiet traffic."""

        async def serve():
            clock = VirtualClock()
            server = AsyncSearchServer(
                exact_index,
                max_batch=8,
                max_delay_ms=3.0,
                clock=clock,
                executor=ImmediateExecutor(),
            )
            await server.submit_many(small_clustered[:8], Knn(k=2))
            await advance(clock, 10.0)
            pending = asyncio.ensure_future(server.submit(small_clustered[9], Knn(k=2)))
            await settle()
            assert await advance(clock, 0.0029) == 0  # not yet
            assert await advance(clock, 0.001) == 1
            result = await pending
            knobs = (server.max_batch, server.max_delay_ms)
            await server.close()
            return result, knobs

        result, knobs = asyncio.run(serve())
        assert result.stats["serving_batch_size"] == 1.0
        assert result.stats["serving_wait_ms"] == pytest.approx(3.0)
        assert knobs == (8, 3.0)

    def test_constructor_takes_the_nine_serving_knobs(self):
        params = list(inspect.signature(AsyncSearchServer).parameters)
        assert params == [
            "index",
            "max_batch",
            "max_delay_ms",
            "cache",
            "executor",
            "metrics",
            "tracer",
            "slow_log",
            "clock",
            "max_queue_depth",
        ]

    def test_submit_takes_one_keyword(self):
        for method in (AsyncSearchServer.submit, AsyncSearchServer.submit_many):
            params = inspect.signature(method).parameters
            keywords = [p for p in params.values() if p.kind is p.KEYWORD_ONLY]
            assert [p.name for p in keywords] == ["deadline_ms"]


    @pytest.mark.parametrize("knob", ["shed_policy", "latency_capacity"])
    def test_removed_admission_knobs_are_not_accepted(self, small_clustered, knob):
        index = create_index("exact").fit(small_clustered[:50])
        with pytest.raises(TypeError, match=knob):
            AsyncSearchServer(index, max_queue_depth=4, **{knob: None})

    def test_submit_refuses_a_priority(self, small_clustered):
        index = create_index("exact").fit(small_clustered[:50])

        async def serve():
            async with AsyncSearchServer(index, max_delay_ms=0.0) as server:
                with pytest.raises(TypeError, match="priority"):
                    await server.submit(small_clustered[0], Knn(k=2), priority=1)
                with pytest.raises(TypeError, match="priority"):
                    await server.submit_many(small_clustered[:2], Knn(k=2), priority=1)
                return server.stats()

        stats = asyncio.run(serve())
        assert (stats.requests_submitted, stats.batches_served) == (0, 0)


class TestWritePath:
    def test_add_grows_index_and_new_points_findable(self, small_clustered):
        index = create_index("pm-lsh", seed=3).fit(small_clustered[:300])
        fresh = small_clustered[300:310]

        async def serve():
            # A zero window dispatches the lone probe on the next loop
            # pass — no deadline timer, no wall-clock wait.
            async with AsyncSearchServer(index, max_batch=4, max_delay_ms=0.0) as server:
                ids = await server.add(fresh)
                probe = await server.submit(fresh[0], Knn(k=1))
                return ids, probe

        ids, probe = asyncio.run(serve())
        np.testing.assert_array_equal(ids, np.arange(300, 310))
        assert int(probe.ids[0]) == 300
        assert index.ntotal == 310

    def test_pending_requests_drain_before_the_write(self, small_clustered):
        """Requests submitted before add() are answered against pre-write
        data: the drain dispatches them ahead of the mutation on the
        (ordered, single-worker) executor."""
        index = create_index("exact").fit(small_clustered[:200])
        pre_n = index.ntotal

        async def serve():
            async with AsyncSearchServer(
                index, max_batch=64, max_delay_ms=60_000.0
            ) as server:
                pending = [
                    asyncio.ensure_future(server.submit(small_clustered[i], Knn(k=1)))
                    for i in range(4)
                ]
                await settle()  # let the submits enqueue (pure yields)
                assert server.queue_depth == 4
                await server.add(small_clustered[200:250])
                return await asyncio.gather(*pending), server.stats()

        results, stats = asyncio.run(serve())
        # Drained as one batch, answered over the pre-add candidate set.
        assert stats.drain_flushes >= 1
        for result in results:
            assert int(result.ids[0]) < pre_n
        assert stats.points_added == 50
        assert stats.serving_epoch == 1


class TestShutdown:
    def test_close_resolves_inflight_requests(self, exact_index, small_clustered):
        async def serve():
            server = AsyncSearchServer(exact_index, max_batch=64, max_delay_ms=60_000.0)
            pending = [
                asyncio.ensure_future(server.submit(small_clustered[i], Knn(k=2)))
                for i in range(7)
            ]
            await settle()
            await server.close()  # drains the queue, awaits the batch
            results = await asyncio.gather(*pending)
            return results, server.stats()

        results, stats = asyncio.run(serve())
        assert len(results) == 7
        assert all(len(result) == 2 for result in results)
        assert stats.requests_served == 7
        assert stats.queue_depth == 0
        assert stats.inflight_batches == 0

    def test_submit_after_close_raises(self, exact_index, small_clustered):
        async def serve():
            server = AsyncSearchServer(exact_index)
            await server.close()
            await server.close()  # idempotent
            with pytest.raises(RuntimeError, match="closed"):
                await server.submit(small_clustered[0], Knn(k=1))
            with pytest.raises(RuntimeError, match="closed"):
                await server.add(small_clustered[:2])

        asyncio.run(serve())

    def test_backend_error_propagates_to_every_waiter(self, exact_index):
        bad = np.zeros(7)  # wrong dimensionality -> index.run raises

        async def serve():
            async with AsyncSearchServer(exact_index, max_batch=2) as server:
                outcomes = await asyncio.gather(
                    server.submit(bad, Knn(k=1)),
                    server.submit(bad, Knn(k=1)),
                    return_exceptions=True,
                )
                return outcomes

        outcomes = asyncio.run(serve())
        assert all(isinstance(outcome, ValueError) for outcome in outcomes)


class TestValidationAndStats:
    def test_rejects_bad_constructor_args(self, exact_index):
        with pytest.raises(ValueError, match="max_batch"):
            AsyncSearchServer(exact_index, max_batch=0)
        with pytest.raises(ValueError, match="max_delay_ms"):
            AsyncSearchServer(exact_index, max_delay_ms=-1.0)

    def test_rejects_matrix_submit(self, exact_index, small_clustered):
        async def serve():
            async with AsyncSearchServer(exact_index) as server:
                with pytest.raises(ValueError, match="query vector"):
                    await server.submit(small_clustered[:3], Knn(k=1))

        asyncio.run(serve())

    def test_stats_snapshot_and_table(self, exact_index, small_clustered):
        async def serve():
            async with AsyncSearchServer(exact_index, max_batch=4) as server:
                await server.submit_many(small_clustered[:8], Knn(k=2))
                return server.stats()

        stats = asyncio.run(serve())
        assert stats.requests_submitted == 8
        assert stats.requests_served == 8
        assert stats.latency_p50_ms > 0.0
        assert stats.latency_p99_ms >= stats.latency_p50_ms
        as_dict = stats.as_dict()
        assert as_dict["mean_occupancy"] == 4.0
        table = stats.as_table("Serving stats")
        assert "Serving stats" in table and "mean_occupancy" in table

    def test_inflight_batches_is_zero_once_answered(self, small_clustered):
        """A batch stops counting as in flight when its answers go out,
        not when its scatter task's done-callback runs later."""
        engine = create_index("sharded", backend="exact", num_shards=2).fit(
            small_clustered[:200]
        )

        async def serve():
            async with AsyncSearchServer(engine, max_batch=4) as server:
                await server.submit(small_clustered[0], Knn(k=2))
                return server.queue_depth, server.stats()

        try:
            depth, stats = asyncio.run(serve())
        finally:
            engine.close()
        assert depth == 0
        assert (stats.queue_depth, stats.inflight_batches) == (0, 0)

    def test_stats_fields_are_counters_of_the_static_server(self, exact_index):
        async def serve():
            async with AsyncSearchServer(exact_index, max_batch=4, cache=8) as server:
                return server.stats()

        assert set(asyncio.run(serve()).as_dict()) == {
            "requests_submitted",
            "requests_served",
            "batches_served",
            "queue_depth",
            "inflight_batches",
            "size_flushes",
            "deadline_flushes",
            "drain_flushes",
            "cache_hits",
            "cache_misses",
            "cache_evictions",
            "cache_invalidations",
            "cache_stale_puts",
            "requests_batched",
            "points_added",
            "serving_epoch",
            "mean_occupancy",
            "latency_p50_ms",
            "latency_p99_ms",
            "latency_mean_ms",
            "points_deleted",
            "compactions",
            "index_swaps",
            "requests_shed",
            "requests_rejected",
        }

    def test_metrics_export_has_one_cache_and_no_controller(
        self, exact_index, small_clustered
    ):
        registry = MetricsRegistry()

        async def serve():
            async with AsyncSearchServer(
                exact_index, max_batch=2, cache=8, metrics=registry
            ) as server:
                await server.submit_many(small_clustered[:4], Knn(k=2))
                await server.submit_many(small_clustered[:4], Knn(k=2))
                return await server.metrics()

        text = asyncio.run(serve())
        assert "cache_hits" in text and "cache_evictions" in text
        assert "controller_" not in text
        assert "cache_exact" not in text

    def test_open_loop_driver_preserves_arrival_order(
        self, exact_index, small_clustered
    ):
        queries = list(small_clustered[:10])
        direct = exact_index.run(np.stack(queries), Knn(k=1))

        async def serve():
            # An (effectively) infinite rate makes every computed delay
            # non-positive: the driver never sleeps, order is still pinned.
            async with AsyncSearchServer(exact_index, max_batch=4) as server:
                return await open_loop_arrivals(
                    server, queries, Knn(k=1), rate_per_s=1e9, seed=0
                )

        results = asyncio.run(serve())
        for i, result in enumerate(results):
            np.testing.assert_array_equal(result.ids, direct[i].ids)
