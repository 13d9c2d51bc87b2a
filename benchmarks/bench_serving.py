"""Async serving (beyond the paper: §6's index under open-loop traffic) — throughput/latency vs batch window and arrival rate.

The serving claim behind ``repro.serving``: many small independent
requests — the realistic traffic shape — coalesced by the deadline-based
micro-batcher into the large batches PM-LSH's flat-tree hot path was
built for, serve at strictly higher throughput than the same requests
dispatched one ``run()`` call each.

The bench stands one PM-LSH index behind ``AsyncSearchServer`` and plays
the same open-loop Poisson request stream (arrivals do not wait for
earlier answers) against a grid of batching configs — no batching
(``max_batch=1``, the window-of-1 baseline) vs micro-batching at several
size/deadline windows — at two offered loads calibrated against the
measured single-request service time (≈ capacity, and ≈ 4× capacity,
where queueing discipline decides throughput).  A second table replays a
hot/repeated request mix with the exact-repeat cache on and off.
A third table re-runs the 4x-overload cell against the sharded engine
with both fan-out pools — in-process threads vs the shared-memory worker
pool (``pool_backend="process"``) — asserting the two serve identical
results.

Writes ``results/serving.txt``.  Asserts that the micro-batcher
(a) coalesces at all — mean batch occupancy > 1, measured on an
**injected virtual clock** so the check cannot flake on a loaded
runner — and (b) out-serves the window-of-1 baseline under overload.  Scale with ``REPRO_BENCH_N`` /
``REPRO_BENCH_QUERIES`` (see conftest).
"""

from __future__ import annotations

import asyncio
import time

import numpy as np

from conftest import (  # noqa: I001 (script-mode sys.path bootstrap)
    bench_n,
    bench_queries,
    bench_seed,
    bench_trace_sample,
    write_metrics,
)

from repro import Knn, MetricsRegistry, Tracer, create_index
from repro.datasets.synthetic import gaussian_mixture
from repro.evaluation.tables import format_table
from repro.serving import AsyncSearchServer, VirtualClock, open_loop_arrivals


K = 10
DIM = 64
#: (label, max_batch, max_delay_ms); max_batch=1 is the no-batching baseline.
CONFIGS = [
    ("window=1 (no batching)", 1, 0.0),
    ("batch 8 / 2 ms", 8, 2.0),
    ("batch 32 / 2 ms", 32, 2.0),
    ("batch 32 / 8 ms", 32, 8.0),
]
#: offered load as a multiple of the measured single-request capacity.
LOAD_FACTORS = [1.0, 4.0]


def _single_request_seconds(index, queries) -> float:
    """Median wall time of one single-query ``run()`` — the capacity unit."""
    samples = []
    for i in range(min(15, queries.shape[0])):
        start = time.perf_counter()
        index.run(queries[i : i + 1], Knn(k=K))
        samples.append(time.perf_counter() - start)
    return float(np.median(samples))


async def _coalesced_occupancy(index, queries, *, max_batch=32, max_delay_ms=2.0):
    """Mean batch occupancy of one burst on a **virtual** clock.

    The table's occupancy column stays a real-time measurement, but the
    CI smoke assertion rides on this instead: the burst is submitted in
    one event-loop tick and the deadline timer fires on an injected
    :class:`VirtualClock`, so the batch forms identically whether the
    host is idle or thrashing — the old wall-clock cell flaked whenever
    a loaded runner let arrivals trickle into singleton batches.
    """
    clock = VirtualClock()
    async with AsyncSearchServer(
        index,
        max_batch=max_batch,
        max_delay_ms=max_delay_ms,
        metrics=MetricsRegistry(),
        clock=clock,
    ) as server:
        burst = queries[: max(2, max_batch // 2)]
        tasks = [
            asyncio.ensure_future(server.submit(query, Knn(k=K))) for query in burst
        ]
        for _ in range(10):  # let every submit coroutine reach its queue
            await asyncio.sleep(0)
        clock.advance(max_delay_ms / 1e3)  # the deadline flush, exactly once
        await asyncio.gather(*tasks)
        stats = server.stats()
    return stats.mean_occupancy


async def _play(
    index,
    queries,
    *,
    max_batch,
    max_delay_ms,
    rate_per_s,
    cache=None,
    metrics=None,
    tracer=None,
):
    """One open-loop run; returns (served QPS, ``server.stats()``, results)."""
    async with AsyncSearchServer(
        index,
        max_batch=max_batch,
        max_delay_ms=max_delay_ms,
        cache=cache,
        metrics=metrics,
        tracer=tracer,
    ) as server:
        loop = asyncio.get_running_loop()
        start = loop.time()
        results = await open_loop_arrivals(
            server, list(queries), Knn(k=K), rate_per_s, seed=bench_seed(3)
        )
        wall_s = loop.time() - start
        stats = server.stats()
    return len(results) / wall_s, stats, results


def test_bench_serving_microbatch(write_result, write_json, benchmark):
    n = max(bench_n(), 400)
    requests = min(max(10 * bench_queries(), 60), 300)
    data = gaussian_mixture(n, DIM, num_clusters=25, cluster_std=0.8, seed=bench_seed(5))
    index = create_index("pm-lsh", seed=bench_seed(7)).fit(data)
    rng = np.random.default_rng(bench_seed(0))
    queries = (
        data[rng.integers(0, n, size=requests)]
        + rng.normal(size=(requests, DIM)) * 0.05
    )
    index.search(queries[:8], K)  # warm the flat traversal buffers
    t_single = _single_request_seconds(index, queries)
    capacity = 1.0 / t_single

    # One registry + tracer across every cell: the servers and the index
    # publish into it, and --metrics-out / --trace-sample expose it.
    registry = MetricsRegistry()
    sample_rate = bench_trace_sample()
    tracer = Tracer(sample_rate=sample_rate, seed=bench_seed(11)) if sample_rate > 0 else None

    rows = []
    qps_by_cell = {}
    occupancy_by_cell = {}
    for factor in LOAD_FACTORS:
        rate = capacity * factor
        for label, max_batch, max_delay_ms in CONFIGS:
            qps, stats, _ = asyncio.run(
                _play(
                    index,
                    queries,
                    max_batch=max_batch,
                    max_delay_ms=max_delay_ms,
                    rate_per_s=rate,
                    metrics=registry,
                    tracer=tracer,
                )
            )
            qps_by_cell[(label, factor)] = qps
            occupancy_by_cell[(label, factor)] = stats.mean_occupancy
            rows.append(
                [
                    label,
                    factor,
                    rate,
                    qps,
                    stats.latency_p50_ms,
                    stats.latency_p99_ms,
                    stats.mean_occupancy,
                    stats.batches_served,
                ]
            )

    overload = LOAD_FACTORS[-1]
    baseline = qps_by_cell[(CONFIGS[0][0], overload)]
    best_label = max(
        (label for label, _, _ in CONFIGS[1:]),
        key=lambda label: qps_by_cell[(label, overload)],
    )
    best = qps_by_cell[(best_label, overload)]
    note = (
        f"pm-lsh, n={n}, d={DIM}, k={K}, {requests} open-loop requests per cell; "
        f"measured single-request capacity {capacity:.0f} req/s. "
        f"At {overload:.0f}x capacity, micro-batching ({best_label}) serves "
        f"{best:.0f} QPS vs {baseline:.0f} QPS with a batch window of 1 "
        f"({best / baseline:.2f}x)."
    )
    table = format_table(
        "Async serving: micro-batching vs batch window of 1",
        ["Config", "Load", "Offered (req/s)", "QPS", "p50 (ms)", "p99 (ms)", "Occupancy", "Batches"],
        rows,
        note=note,
    )

    # ---- cache table: a hot/repeated request mix, cache on vs off ----
    hot = queries[: max(8, requests // 10)]
    mix = hot[rng.integers(0, hot.shape[0], size=requests)]
    cache_rows = []
    cache_qps = {}
    for cached, capacity_arg in [("off", None), ("on", 1024)]:
        qps, stats, results = asyncio.run(
            _play(
                index,
                mix,
                max_batch=32,
                max_delay_ms=2.0,
                rate_per_s=capacity * overload,
                cache=capacity_arg,
                metrics=registry,
                tracer=tracer,
            )
        )
        cache_qps[cached] = qps
        lookups = stats.cache_hits + stats.cache_misses
        hit_rate = stats.cache_hits / lookups if lookups else float("nan")
        cache_rows.append(
            [cached, qps, stats.latency_p50_ms, stats.latency_p99_ms, hit_rate]
        )
    cache_note = (
        f"same server (batch 32 / 2 ms) on a {hot.shape[0]}-hot-item repeat mix; "
        f"cache speedup {cache_qps['on'] / cache_qps['off']:.2f}x."
    )
    cache_table = format_table(
        "Async serving: exact-repeat cache on a repeated-query mix",
        ["Cache", "QPS", "p50 (ms)", "p99 (ms)", "Hit rate"],
        cache_rows,
        note=cache_note,
    )
    # ---- engine table: 4x overload against the sharded engine, thread
    # vs process fan-out (PR 8's shared-memory worker pool) ----
    engine_rows = []
    engine_qps = {}
    engine_reference = None
    for pool in ("thread", "process"):
        engine = create_index(
            "sharded",
            backend="pm-lsh",
            pool_backend=pool,
            num_shards=2,
            num_workers=2,
            seed=bench_seed(7),
        ).fit(data)
        engine.search(queries[:8], K)  # warm shards (and the worker pool)
        qps, stats, results = asyncio.run(
            _play(
                engine,
                queries,
                max_batch=32,
                max_delay_ms=2.0,
                rate_per_s=capacity * overload,
                metrics=registry,
                tracer=tracer,
            )
        )
        served_ids = np.stack([r.ids for r in results])
        if engine_reference is None:
            engine_reference = served_ids
        else:
            # The worker pool must serve exactly what the thread pool serves.
            np.testing.assert_array_equal(served_ids, engine_reference)
        engine_qps[pool] = qps
        engine_rows.append(
            [pool, qps, stats.latency_p50_ms, stats.latency_p99_ms, stats.mean_occupancy]
        )
        engine.close()
    engine_note = (
        f"sharded engine (2 shards / 2 workers, batch 32 / 2 ms) at "
        f"{overload:.0f}x capacity; process/thread served identical results; "
        f"process/thread QPS ratio {engine_qps['process'] / engine_qps['thread']:.2f}."
    )
    engine_table = format_table(
        "Async serving: sharded engine under 4x overload, thread vs process pool",
        ["Engine pool", "QPS", "p50 (ms)", "p99 (ms)", "Occupancy"],
        engine_rows,
        note=engine_note,
    )
    write_result("serving", table + "\n" + cache_table + "\n" + engine_table)
    write_json(
        "serving",
        {
            "n": n,
            "dim": DIM,
            "k": K,
            "requests_per_cell": requests,
            "capacity_req_per_s": capacity,
            "trace_sample_rate": sample_rate,
            "cells": [
                {
                    "config": label,
                    "load_factor": factor,
                    "qps": qps_by_cell[(label, factor)],
                    "occupancy": occupancy_by_cell[(label, factor)],
                }
                for factor in LOAD_FACTORS
                for label, _, _ in CONFIGS
            ],
            "overload_best_config": best_label,
            "overload_speedup": best / baseline,
            "cache_speedup": cache_qps["on"] / cache_qps["off"],
            "engine_overload_qps": engine_qps,
            "requests_served": int(registry.total("requests_served")),
            "tree_nodes_visited": int(registry.total("tree_nodes_visited")),
            "candidates_verified": int(registry.total("candidates_verified")),
        },
    )
    write_metrics(registry)

    benchmark.pedantic(
        lambda: asyncio.run(
            _play(
                index,
                queries,
                max_batch=32,
                max_delay_ms=2.0,
                rate_per_s=capacity * overload,
            )
        ),
        rounds=1,
        iterations=1,
    )

    # The batcher must actually coalesce concurrent requests — checked on
    # a virtual-clock burst so the assertion is deterministic (the
    # real-time occupancy cells above are reporting, not acceptance).
    occupancy = asyncio.run(_coalesced_occupancy(index, queries))
    assert occupancy > 1.0, (
        f"micro-batcher never coalesced a same-tick burst (occupancy {occupancy:.2f})"
    )
    # … and out-serve the window-of-1 baseline (the acceptance criterion).
    assert best > baseline, (
        f"micro-batching ({best:.0f} QPS) should beat the batch-window-of-1 "
        f"baseline ({baseline:.0f} QPS) at {overload:.0f}x offered load"
    )
    # The hot-item cache must not slow the repeat mix down.
    assert cache_qps["on"] >= 0.9 * cache_qps["off"]


if __name__ == "__main__":
    import sys

    from _cli import bench_main

    sys.exit(bench_main(__file__, __doc__))
