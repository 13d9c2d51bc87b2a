"""Tests for the exact-repeat query-result cache."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro import Knn, Range, create_index
from repro.obs import LatencyWindow, MetricsRegistry
from repro.queries import QuerySpec
from repro.serving import AsyncSearchServer, QueryCache


class TestMergeKeys:
    def test_equal_specs_share_a_key(self):
        assert Knn(k=5).merge_key == Knn(k=5).merge_key
        assert Knn(k=5).can_merge_with(Knn(k=5))
        assert Range(r=2.0, c=1.5).merge_key == Range(r=2.0, c=1.5).merge_key

    def test_any_field_difference_splits_the_key(self):
        assert not Knn(k=5).can_merge_with(Knn(k=6))
        assert not Knn(k=5).can_merge_with(Knn(k=5, budget=100))
        assert not Knn(k=5).can_merge_with(Knn(k=5, c=2.0))
        assert not Range(r=2.0).can_merge_with(Range(r=2.5))
        assert not Knn(k=5).can_merge_with(Range(r=5.0))

    def test_keys_are_hashable(self):
        grouped = {spec.merge_key for spec in [Knn(5), Knn(5), Knn(6), Range(r=1.0)]}
        assert len(grouped) == 3

    def test_base_spec_key(self):
        assert QuerySpec().merge_key == ("QuerySpec",)


class TestQueryCache:
    def make_result(self, seed: int):
        from repro.baselines.base import QueryResult

        rng = np.random.default_rng(seed)
        return QueryResult(
            ids=rng.integers(0, 100, size=3), distances=np.sort(rng.random(3))
        )

    def test_put_get_round_trip_and_counters(self):
        cache = QueryCache(capacity=8)
        q = np.arange(4, dtype=np.float64)
        result = self.make_result(0)
        assert cache.get(q, Knn(k=3)) is None
        cache.put(q, Knn(k=3), result)
        hit = cache.get(q, Knn(k=3))
        assert hit.ids.tobytes() == result.ids.tobytes()
        assert hit.distances.tobytes() == result.distances.tobytes()
        assert (cache.hits, cache.misses) == (1, 1)

    def test_stores_read_only_copies(self):
        cache = QueryCache(capacity=8)
        q = np.arange(4, dtype=np.float64)
        result = self.make_result(0)
        cache.put(q, Knn(k=3), result)
        result.ids[0] = 99  # the caller's own arrays stay writable …
        hit = cache.get(q, Knn(k=3))
        assert int(hit.ids[0]) != 99  # … and the cached copy is untouched
        with pytest.raises(ValueError):
            hit.ids[0] = 99
        with pytest.raises(ValueError):
            hit.distances[0] = -1.0

    def test_spec_key_separates_entries(self):
        cache = QueryCache(capacity=8)
        q = np.arange(4, dtype=np.float64)
        cache.put(q, Knn(k=3), self.make_result(0))
        assert cache.get(q, Knn(k=4)) is None
        assert cache.get(q, Range(r=1.0)) is None

    def test_only_byte_identical_queries_share_a_key(self):
        q = np.zeros(4)
        near = q.copy()
        near[0] = 1e-300  # any other float64 value is another key
        assert QueryCache.key_for(q, Knn(k=3)) == QueryCache.key_for(q.copy(), Knn(k=3))
        assert QueryCache.key_for(q, Knn(k=3)) != QueryCache.key_for(near, Knn(k=3))
        far = np.full(4, 2e10)
        assert QueryCache.key_for(far, Knn(k=3)) != QueryCache.key_for(far + 1e-5, Knn(k=3))

    def test_lru_eviction_is_counted(self):
        registry = MetricsRegistry()
        cache = QueryCache(capacity=2)
        cache.bind_metrics(registry, {"instance": "t"})
        queries = [np.full(3, float(i)) for i in range(3)]
        for i, q in enumerate(queries):
            cache.put(q, Knn(k=1), self.make_result(i))
        assert cache.get(queries[0], Knn(k=1)) is None  # evicted
        assert cache.get(queries[2], Knn(k=1)) is not None
        assert registry.value("cache_evictions", {"instance": "t"}) == 1

    def test_invalidate_drops_everything(self):
        cache = QueryCache(capacity=8)
        q = np.arange(3, dtype=np.float64)
        cache.put(q, Knn(k=1), self.make_result(0))
        cache.invalidate()
        assert len(cache) == 0
        assert cache.get(q, Knn(k=1)) is None

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            QueryCache(capacity=0)

    def test_rejects_negative_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            QueryCache(capacity=-3)

    def test_get_refreshes_recency(self):
        """LRU by use, not by insertion: a read entry outlives a newer,
        unread one."""
        cache = QueryCache(capacity=2)
        a, b, c = (np.full(3, float(i)) for i in range(3))
        cache.put(a, Knn(k=1), self.make_result(0))
        cache.put(b, Knn(k=1), self.make_result(1))
        assert cache.get(a, Knn(k=1)) is not None  # a is now the newest
        cache.put(c, Knn(k=1), self.make_result(2))
        assert cache.get(b, Knn(k=1)) is None
        assert cache.get(a, Knn(k=1)) is not None
        assert cache.get(c, Knn(k=1)) is not None

    def test_put_overwrites_in_place_without_evicting(self):
        registry = MetricsRegistry()
        cache = QueryCache(capacity=2)
        cache.bind_metrics(registry, {"instance": "t"})
        q = np.arange(3, dtype=np.float64)
        cache.put(q, Knn(k=3), self.make_result(0))
        newer = self.make_result(1)
        cache.put(q, Knn(k=3), newer)
        assert len(cache) == 1
        assert registry.value("cache_evictions", {"instance": "t"}) == 0
        assert cache.get(q, Knn(k=3)).ids.tobytes() == newer.ids.tobytes()

    def test_capacity_one_keeps_only_the_latest(self):
        cache = QueryCache(capacity=1)
        first, second = np.zeros(3), np.ones(3)
        cache.put(first, Knn(k=1), self.make_result(0))
        cache.put(second, Knn(k=1), self.make_result(1))
        assert len(cache) == 1
        assert cache.get(first, Knn(k=1)) is None
        assert cache.get(second, Knn(k=1)) is not None

    def test_unbound_cache_still_evicts(self):
        """Metrics are optional: without a registry the LRU still bounds
        the entries."""
        cache = QueryCache(capacity=3)
        for i in range(10):
            cache.put(np.full(2, float(i)), Knn(k=1), self.make_result(i))
        assert len(cache) == 3
        assert cache.get(np.full(2, 9.0), Knn(k=1)) is not None
        assert cache.get(np.full(2, 0.0), Knn(k=1)) is None

    def test_put_never_counts_a_lookup(self):
        cache = QueryCache(capacity=4)
        cache.put(np.zeros(3), Knn(k=1), self.make_result(0))
        cache.put(np.ones(3), Knn(k=1), self.make_result(1))
        assert (cache.hits, cache.misses) == (0, 0)

    def test_invalidations_are_counted(self):
        registry = MetricsRegistry()
        cache = QueryCache(capacity=4)
        cache.bind_metrics(registry, {"instance": "t"})
        cache.invalidate()
        cache.invalidate()
        assert registry.value("cache_invalidations", {"instance": "t"}) == 2

    def test_lists_and_float32_key_as_their_float64_values(self):
        values = [0.5, -1.25, 3.0]
        key = QueryCache.key_for(np.array(values, dtype=np.float64), Knn(k=2))
        assert QueryCache.key_for(values, Knn(k=2)) == key
        # Exactly representable in float32, so the float64 cast is lossless.
        assert QueryCache.key_for(np.array(values, dtype=np.float32), Knn(k=2)) == key

    def test_cached_stats_are_a_copy(self):
        cache = QueryCache(capacity=4)
        q = np.zeros(3)
        result = self.make_result(0)
        result.stats["probe"] = 1.0
        cache.put(q, Knn(k=3), result)
        result.stats["probe"] = 2.0
        assert cache.get(q, Knn(k=3)).stats["probe"] == 1.0


class TestServerCacheIntegration:
    def test_repeat_query_hits_and_is_identical(self, small_clustered):
        index = create_index("pm-lsh", seed=7).fit(small_clustered[:400])
        q = small_clustered[5] + 0.01

        async def serve():
            async with AsyncSearchServer(index, max_batch=4, cache=32) as server:
                first = await server.submit(q, Knn(k=6))
                second = await server.submit(q, Knn(k=6))
                return first, second, server.stats()

        first, second, stats = asyncio.run(serve())
        assert "served_from_cache" not in first.stats
        assert second.stats["served_from_cache"] == 1.0
        np.testing.assert_array_equal(first.ids, second.ids)
        np.testing.assert_array_equal(first.distances, second.distances)
        assert (stats.cache_hits, stats.cache_misses) == (1, 1)
        # The hit never reached the batcher: one batch total.
        assert stats.batches_served == 1

    @pytest.mark.parametrize("offset", [0.0, 2e10])
    def test_every_answer_is_the_queries_own_direct_run(self, offset):
        """Hit or miss, each query gets exactly ``index.run(q)`` — even far
        from the origin, where a quantized key used to overflow and give
        every query the same cell."""
        data = np.random.default_rng(0).normal(size=(2000, 16)) + offset
        index = create_index("exact").fit(data)
        queries = data[[0, 1500]]
        spec = Knn(k=5)

        async def serve():
            async with AsyncSearchServer(index, max_batch=4, cache=64) as server:
                return [await server.submit(q, spec) for q in [*queries, *queries]]

        answers = asyncio.run(serve())
        assert [("served_from_cache" in a.stats) for a in answers] == [
            False, False, True, True
        ]
        for q, answer in zip([*queries, *queries], answers):
            direct = index.run(q[None, :], spec)[0]
            assert answer.ids.tobytes() == direct.ids.tobytes()
            assert answer.distances.tobytes() == direct.distances.tobytes()

    def test_near_duplicate_misses_and_gets_its_own_answer(self):
        """A query 3e-10 away from a cached one is another query."""
        data = np.random.default_rng(0).normal(size=(2000, 16))
        index = create_index("exact").fit(data)
        q = data[7].copy()
        q[0] = 0.25
        near = q.copy()
        near[0] += 3e-10
        spec = Knn(k=5)
        direct = index.run(near[None, :], spec)[0]
        # The two direct answers really differ, so a wrong hit would show.
        assert direct.distances.tobytes() != index.run(q[None, :], spec)[0].distances.tobytes()

        async def serve():
            async with AsyncSearchServer(index, max_batch=4, cache=64) as server:
                await server.submit(q, spec)
                answer = await server.submit(near, spec)
                return answer, server.stats()

        answer, stats = asyncio.run(serve())
        assert "served_from_cache" not in answer.stats
        assert (stats.cache_hits, stats.cache_misses) == (0, 2)
        assert answer.ids.tobytes() == direct.ids.tobytes()
        assert answer.distances.tobytes() == direct.distances.tobytes()

    def test_a_caller_cannot_poison_the_cache(self, small_clustered):
        index = create_index("exact").fit(small_clustered[:300])
        q = small_clustered[4] + 0.01
        spec = Knn(k=3)
        direct = index.run(q[None, :], spec)[0]

        async def serve():
            async with AsyncSearchServer(index, max_batch=2, cache=16) as server:
                first = await server.submit(q, spec)
                first.ids[0] = 99  # the first caller's arrays are its own
                first.distances[0] = -1.0
                second = await server.submit(q, spec)
                return first, second

        first, second = asyncio.run(serve())
        assert int(first.ids[0]) == 99
        assert second.stats["served_from_cache"] == 1.0
        assert second.ids.tobytes() == direct.ids.tobytes()
        assert second.distances.tobytes() == direct.distances.tobytes()
        with pytest.raises(ValueError):  # a hit is read-only
            second.ids[0] = 99

    def test_answer_dispatched_before_a_write_is_not_cached(self, small_clustered):
        """The server's one epoch decides: a batch in flight when a write
        lands still answers its caller, but never fills the cache."""
        registry = MetricsRegistry()
        index = create_index("exact").fit(small_clustered[:200])
        q = small_clustered[250]  # not indexed yet

        async def serve():
            async with AsyncSearchServer(
                index, max_batch=4, max_delay_ms=1e4, cache=16, metrics=registry
            ) as server:
                pending = asyncio.ensure_future(server.submit(q, Knn(k=1)))
                await asyncio.sleep(0)  # queued, not dispatched
                await server.add(q[None, :])  # drains it at the old epoch
                before = await pending
                after = await server.submit(q, Knn(k=1))
                return before, after, server.stats()

        before, after, stats = asyncio.run(serve())
        assert float(before.distances[0]) > 0.0
        assert "served_from_cache" not in after.stats
        assert int(after.ids[0]) == 200 and float(after.distances[0]) == 0.0
        assert (stats.cache_hits, stats.cache_misses) == (0, 2)
        assert registry.total("cache_stale_puts") == 1

    def test_add_invalidates_cached_answers(self, small_clustered):
        index = create_index("pm-lsh", seed=8).fit(small_clustered[:300])
        q = small_clustered[3] + 0.005

        async def serve():
            async with AsyncSearchServer(index, max_batch=4, cache=32) as server:
                await server.submit(q, Knn(k=4))  # miss, fills cache
                await server.add(small_clustered[300:320])
                refreshed = await server.submit(q, Knn(k=4))  # must recompute
                return refreshed, server.stats()

        refreshed, stats = asyncio.run(serve())
        assert "served_from_cache" not in refreshed.stats
        assert stats.cache_hits == 0
        assert stats.cache_misses == 2
        assert stats.serving_epoch == 1

    def test_cached_answers_see_post_add_data_never_pre_add(self, small_clustered):
        """After a write, a lookup of the same query must reflect the
        grown dataset (the planted duplicate wins), not the cached
        pre-write answer."""
        index = create_index("exact").fit(small_clustered[:200])
        q = small_clustered[250]  # not indexed yet

        async def serve():
            async with AsyncSearchServer(index, max_batch=2, cache=16) as server:
                before = await server.submit(q, Knn(k=1))
                await server.add(q[None, :])  # plant an exact duplicate
                after = await server.submit(q, Knn(k=1))
                return before, after

        before, after = asyncio.run(serve())
        assert float(before.distances[0]) > 0.0
        assert int(after.ids[0]) == 200 and float(after.distances[0]) == 0.0

    def test_delete_invalidates_cached_answers(self, small_clustered):
        index = create_index("exact").fit(small_clustered[:200])
        q = small_clustered[10]  # its own nearest neighbour is id 10

        async def serve():
            async with AsyncSearchServer(index, max_batch=2, cache=16) as server:
                before = await server.submit(q, Knn(k=1))
                await server.delete(np.array([10]))
                after = await server.submit(q, Knn(k=1))
                return before, after, server.stats()

        before, after, stats = asyncio.run(serve())
        assert int(before.ids[0]) == 10
        assert "served_from_cache" not in after.stats
        assert int(after.ids[0]) != 10
        assert (stats.cache_hits, stats.serving_epoch) == (0, 1)

    def test_swap_index_invalidates_cached_answers(self, small_clustered):
        old = create_index("exact").fit(small_clustered[:200])
        new = create_index("exact").fit(small_clustered[200:400])
        q = small_clustered[250]
        direct = new.run(q[None, :], Knn(k=3))[0]

        async def serve():
            async with AsyncSearchServer(old, max_batch=2, cache=16) as server:
                await server.submit(q, Knn(k=3))
                server.swap_index(new)
                return await server.submit(q, Knn(k=3)), server.stats()

        after, stats = asyncio.run(serve())
        assert "served_from_cache" not in after.stats
        assert after.ids.tobytes() == direct.ids.tobytes()
        assert after.distances.tobytes() == direct.distances.tobytes()
        assert (stats.cache_hits, stats.index_swaps) == (0, 1)

    def test_every_write_invalidates_once(self, small_clustered):
        registry = MetricsRegistry()
        index = create_index("exact").fit(small_clustered[:200])

        async def serve():
            async with AsyncSearchServer(
                index, max_batch=2, cache=16, metrics=registry
            ) as server:
                await server.add(small_clustered[200:210])
                await server.delete(np.array([0, 1]))
                server.swap_index(index)

        asyncio.run(serve())
        assert registry.total("cache_invalidations") == 3
        assert registry.total("cache_stale_puts") == 0

    def test_same_query_under_another_spec_misses(self, small_clustered):
        index = create_index("exact").fit(small_clustered[:200])
        q = small_clustered[3] + 0.01

        async def serve():
            async with AsyncSearchServer(index, max_batch=2, cache=16) as server:
                await server.submit(q, Knn(k=3))
                other = await server.submit(q, Knn(k=4))
                return other, server.stats()

        other, stats = asyncio.run(serve())
        assert "served_from_cache" not in other.stats
        assert len(other) == 4
        assert (stats.cache_hits, stats.cache_misses) == (0, 2)

    def test_range_hit_is_the_direct_run(self, small_clustered):
        index = create_index("exact").fit(small_clustered[:300])
        q = small_clustered[8] + 0.01
        spec = Range(r=5.0)
        direct = index.run(q[None, :], spec)[0]

        async def serve():
            async with AsyncSearchServer(index, max_batch=2, cache=16) as server:
                await server.submit(q, spec)
                return await server.submit(q, spec)

        hit = asyncio.run(serve())
        assert hit.stats["served_from_cache"] == 1.0
        assert hit.ids.tobytes() == direct.ids.tobytes()
        assert hit.distances.tobytes() == direct.distances.tobytes()

    def test_sharded_engine_hit_is_the_direct_run(self, small_clustered):
        engine = create_index(
            "sharded", backend="exact", num_shards=2, num_workers=1
        ).fit(small_clustered[:300])
        q = small_clustered[12] + 0.01
        direct = engine.run(q[None, :], Knn(k=5))[0]

        async def serve():
            async with AsyncSearchServer(engine, max_batch=2, cache=16) as server:
                first = await server.submit(q, Knn(k=5))
                return first, await server.submit(q, Knn(k=5))

        try:
            first, hit = asyncio.run(serve())
        finally:
            engine.close()
        assert "served_from_cache" not in first.stats
        assert hit.stats["served_from_cache"] == 1.0
        assert hit.ids.tobytes() == direct.ids.tobytes()
        assert hit.distances.tobytes() == direct.distances.tobytes()

    def test_hits_are_served_but_never_batched(self, small_clustered):
        registry = MetricsRegistry()
        index = create_index("exact").fit(small_clustered[:200])
        q = small_clustered[5] + 0.01

        async def serve():
            async with AsyncSearchServer(
                index, max_batch=1, cache=16, metrics=registry
            ) as server:
                for _ in range(4):
                    await server.submit(q, Knn(k=2))
                return server.stats()

        stats = asyncio.run(serve())
        assert stats.requests_submitted == stats.requests_served == 4
        assert stats.batches_served == 1
        assert registry.total("requests_batched") == 1
        assert (stats.cache_hits, stats.cache_misses) == (3, 1)

    def test_no_cache_unless_asked(self, small_clustered):
        index = create_index("exact").fit(small_clustered[:200])
        q = small_clustered[5] + 0.01

        async def serve():
            async with AsyncSearchServer(index, max_batch=1) as server:
                assert server.cache is None
                answers = [await server.submit(q, Knn(k=2)) for _ in range(2)]
                return answers, server.stats()

        answers, stats = asyncio.run(serve())
        assert all("served_from_cache" not in a.stats for a in answers)
        assert stats.batches_served == 2
        assert (stats.cache_hits, stats.cache_misses) == (0, 0)

    def test_cache_is_sized_by_the_int_given(self, small_clustered):
        index = create_index("exact").fit(small_clustered[:50])
        server = AsyncSearchServer(index, cache=7)
        assert isinstance(server.cache, QueryCache)
        assert server.cache.capacity == 7
        assert "cache=cap=7" in repr(server)
        with pytest.raises(ValueError, match="capacity"):
            AsyncSearchServer(index, cache=0)

    @pytest.mark.parametrize("knob", ["controller", "exact_cache", "cache_resolution"])
    def test_removed_knobs_are_not_accepted(self, small_clustered, knob):
        index = create_index("exact").fit(small_clustered[:50])
        with pytest.raises(TypeError, match=knob):
            AsyncSearchServer(index, cache=8, **{knob: None})


class TestLatencyWindow:
    def test_percentiles_over_recorded_samples(self):
        window = LatencyWindow(capacity=8)
        assert np.isnan(window.p50) and np.isnan(window.mean)
        for value in [1.0, 2.0, 3.0, 4.0]:
            window.record(value)
        assert window.p50 == 2.5
        assert window.count == 4
        assert window.mean == 2.5

    def test_ring_buffer_evicts_oldest(self):
        window = LatencyWindow(capacity=4)
        for value in range(100):
            window.record(float(value))
        assert window.count == 100
        assert window.percentile(0) == 96.0  # only the newest 4 retained

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            LatencyWindow(capacity=0)
