"""Acceptance tests for the observability layer wired through the stack.

Pins the PR's acceptance criteria end to end:

* at ``sample_rate=1.0`` a served request's span tree covers queue wait,
  batch assembly, per-shard search, tree traversal, verification, merge
  and scatter;
* ``server.stats()`` / ``engine.stats()`` are the registry's snapshot of
  their scope — exactly the scope's counter and gauge series, with the
  floats the JSON export reports;
* the ``metrics()`` endpoint emits grammar-valid Prometheus text with
  the core counters non-zero;
* the slow-query log and cache counters tick through real serving.
"""

from __future__ import annotations

import asyncio
import math

import numpy as np
import pytest

from repro import Knn, Range, create_index
from repro.obs.export import parse_prometheus
from repro.obs.metrics import MetricsRegistry
from repro.obs.slowlog import SlowQueryLog
from repro.obs.tracing import Tracer
from repro.serving import AsyncSearchServer

#: Span names the acceptance criteria require at sample_rate=1.0.
REQUIRED_SPANS = {
    "queue_wait",
    "batch_assembly",
    "shard_search",
    "tree_traversal",
    "verification",
    "merge",
    "scatter",
}


@pytest.fixture(scope="module")
def sharded_pmlsh(small_clustered):
    index = create_index(
        "sharded", backend="pm-lsh", num_shards=2, num_workers=2, seed=11
    ).fit(small_clustered[:600])
    yield index
    index.close()


def _serve(index, queries, **server_kwargs):
    async def run():
        async with AsyncSearchServer(
            index, max_batch=8, max_delay_ms=2.0, **server_kwargs
        ) as server:
            results = await server.submit_many(queries, Knn(k=5))
            stats = server.stats()
            prom = await server.metrics()
            payload = await server.metrics(format="json")
        return results, stats, prom, payload

    return asyncio.run(run())


class TestSpanCoverage:
    def test_full_sampling_covers_every_layer(self, sharded_pmlsh, small_clustered):
        tracer = Tracer(sample_rate=1.0, seed=0)
        queries = small_clustered[600:624]
        results, stats, _, _ = _serve(sharded_pmlsh, queries, tracer=tracer)
        assert len(results) == 24
        traces = tracer.drain()
        assert len(traces) == 24
        seen = set()
        for trace in traces:
            seen.update(trace.span_names())
        missing = REQUIRED_SPANS - seen
        assert not missing, f"span tree never covered: {sorted(missing)}"
        # at least one request was actually batched with others and the
        # engine subtree is shared by reference across its members
        batched = [t for t in traces if t.find("batch_assembly") is not None]
        assert batched
        for trace in batched:
            assembly = trace.find("batch_assembly")
            if assembly.meta.get("batch_size", 1) > 1:
                break
        else:
            pytest.skip("no multi-request batch formed (timing)")

    def test_sampling_off_zero_spans_same_answers(self, sharded_pmlsh, small_clustered):
        tracer = Tracer(sample_rate=0.0)
        queries = small_clustered[600:612]
        results, _, _, _ = _serve(sharded_pmlsh, queries, tracer=tracer)
        traced, _, _, _ = _serve(
            sharded_pmlsh, queries, tracer=Tracer(sample_rate=1.0, seed=0)
        )
        assert tracer.sampled == 0
        assert tracer.peek() == []
        for a, b in zip(results, traced):
            assert list(a.ids) == list(b.ids)


def _exported_series(payload, labels):
    """The counter and gauge series of a ``to_json()`` payload whose
    labels include *labels*, keyed the way the exposition writes them."""
    scope = set(labels.items())
    series = {}
    for entry in payload["counters"] + payload["gauges"]:
        own = set(entry["labels"].items())
        if scope <= own:
            extra = ",".join(f'{name}="{value}"' for name, value in sorted(own - scope))
            series[entry["name"] + (f"{{{extra}}}" if extra else "")] = entry["value"]
    return series


def _assert_is_the_export(stats, payload, labels):
    exported = _exported_series(payload, labels)
    assert set(stats) == set(exported)
    for key, value in exported.items():
        assert stats[key] == value or (math.isnan(value) and math.isnan(stats[key])), key


#: The serving names ``bench_e2e/worker.py`` reads off ``server.stats()``.
BENCH_SERVING_NAMES = (
    "requests_submitted",
    "requests_served",
    "batches_served",
    "size_flushes",
    "deadline_flushes",
    "drain_flushes",
    "cache_hits",
    "requests_shed",
    "requests_rejected",
)


class TestStatsRegistryIdentity:
    """stats() is the registry's snapshot of one scope: exactly its counter
    and gauge series, with the values the JSON export reports."""

    def test_serving_stats_are_the_scope_series(self, sharded_pmlsh, small_clustered):
        registry = MetricsRegistry()
        queries = small_clustered[600:616]
        _, stats, _, payload = _serve(sharded_pmlsh, queries, metrics=registry)
        labels = {"instance": "serving0"}
        _assert_is_the_export(stats, payload, labels)
        # Histograms stay out; the latency gauges are read off the window.
        assert "request_latency_ms" not in stats
        hist = next(h for h in payload["histograms"] if h["labels"] == labels)
        assert hist["count"] == stats.requests_served
        for json_key, name in [
            ("p50", "latency_p50_ms"),
            ("p99", "latency_p99_ms"),
            ("mean", "latency_mean_ms"),
        ]:
            assert hist["window"][json_key] == stats[name]

    def test_engine_stats_are_the_scope_series(self, small_clustered):
        registry = MetricsRegistry()
        engine = create_index("sharded", backend="exact", num_shards=2).fit(
            small_clustered[:300]
        )
        try:
            engine.metrics = registry
            engine.run(small_clustered[300:310], Knn(k=3))
            stats = engine.stats()
            _assert_is_the_export(stats, registry.to_json(), engine._obs_labels)
            assert stats.engine_queries_served == 10.0
            assert stats.engine_qps == stats.engine_queries_served / (
                stats.engine_search_time_ms / 1e3
            )
            for s in range(2):
                assert stats[f'engine_shard_ntotal{{shard="{s}"}}'] == 150.0
        finally:
            engine.close()

    @pytest.mark.parametrize("pool_backend", ["thread", "process"])
    def test_every_value_is_the_export_after_traffic_writes_and_compaction(
        self, small_clustered, pool_backend
    ):
        registry = MetricsRegistry()
        engine = create_index(
            "sharded", backend="pm-lsh", num_shards=2, seed=4, pool_backend=pool_backend
        ).fit(small_clustered[:300])
        engines = [engine]

        async def run():
            async with AsyncSearchServer(
                engine, max_batch=4, max_delay_ms=1.0, cache=32, metrics=registry
            ) as server:
                await server.submit_many(small_clustered[300:310], Knn(k=3))
                await server.submit_many(small_clustered[300:304], Range(r=0.5))
                await server.submit(small_clustered[300], Knn(k=3))  # a cache hit
                await server.add(small_clustered[310:330])
                await server.delete(np.arange(0, 40, 3))
                await server.compact()
                engines.append(server.index)
                await server.submit_many(small_clustered[330:340], Knn(k=3))
                return server.stats(), server.index.stats(), server._labels

        try:
            serving, engine_stats, serving_labels = asyncio.run(run())
            payload = registry.to_json()
            _assert_is_the_export(serving, payload, serving_labels)
            _assert_is_the_export(engine_stats, payload, engines[-1]._obs_labels)
            assert serving.compactions == serving.index_swaps == 1.0
            assert serving.points_deleted == 14.0
            assert serving.cache_hits >= 1.0
            assert engine_stats.engine_process_pool == float(pool_backend == "process")
            assert (engine_stats.engine_pool_workers_alive > 0) == (pool_backend == "process")
        finally:
            for each in engines:
                each.close()

    def test_bench_reads_its_serving_names_as_attributes(self, small_clustered):
        index = create_index("exact").fit(small_clustered[:200])

        async def run():
            async with AsyncSearchServer(index, max_batch=4, cache=8) as server:
                await server.submit_many(small_clustered[:6], Knn(k=2))
                return server.stats()

        stats = asyncio.run(run())
        for name in BENCH_SERVING_NAMES:
            assert getattr(stats, name) == stats[name], name
        assert stats.requests_submitted == stats.requests_served == 6.0
        assert stats.size_flushes + stats.deadline_flushes + stats.drain_flushes == (
            stats.batches_served
        )


class TestMetricsEndpoint:
    def test_prometheus_and_json_formats(self, sharded_pmlsh, small_clustered):
        registry = MetricsRegistry()
        queries = small_clustered[600:616]
        _, stats, prom, payload = _serve(sharded_pmlsh, queries, metrics=registry)
        samples = parse_prometheus(prom)  # grammar-valid
        totals = {}
        for sample in samples:
            totals[sample.name] = totals.get(sample.name, 0.0) + sample.value
        assert totals["requests_served"] > 0
        assert totals["tree_nodes_visited"] > 0
        assert totals["candidates_verified"] > 0
        assert payload["counters"]  # json format returns the snapshot dict

    def test_unknown_format_raises(self, sharded_pmlsh, small_clustered):
        async def run():
            async with AsyncSearchServer(sharded_pmlsh) as server:
                with pytest.raises(ValueError):
                    await server.metrics(format="xml")

        asyncio.run(run())


class TestSlowLogThroughServer:
    def test_every_request_slow_under_tiny_threshold(
        self, sharded_pmlsh, small_clustered
    ):
        slow_log = SlowQueryLog(capacity=64, threshold_ms=1e-6)
        tracer = Tracer(sample_rate=1.0, seed=0)
        queries = small_clustered[600:612]
        _serve(sharded_pmlsh, queries, slow_log=slow_log, tracer=tracer)
        assert len(slow_log) == 12
        record = slow_log.records()[-1]
        assert record.reason == "absolute"
        assert record.trace is not None  # evidence: the span tree rode along
        assert "Knn" in record.spec

    def test_cache_counters_tick(self, small_clustered):
        registry = MetricsRegistry()
        index = create_index("pm-lsh", seed=3).fit(small_clustered[:300])

        async def run():
            async with AsyncSearchServer(
                index, max_batch=4, cache=1024, metrics=registry
            ) as server:
                await server.submit(small_clustered[0], Knn(k=3))
                await server.submit(small_clustered[0], Knn(k=3))  # hit
                await server.add(small_clustered[300:305])  # invalidation
                return server.stats()

        stats = asyncio.run(run())
        assert stats.cache_hits >= 1
        assert registry.total("cache_invalidations") >= 1
