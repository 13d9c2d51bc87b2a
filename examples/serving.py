"""Async serving demo: open-loop traffic through the micro-batcher.

The ROADMAP's target scenario — a production service answering many
small independent requests while new items keep arriving — served the
way ``docs/serving.md`` describes.  A 4-shard PM-LSH engine sits behind
an :class:`~repro.serving.AsyncSearchServer`: requests arrive open-loop
(Poisson arrivals that do not wait for earlier answers, like real
clients), the deadline-based micro-batcher coalesces them into the large
batches the flat PM-tree hot path was built for, and an exact-repeat
cache short-circuits repeated lookups.  Mid-stream,
ingest batches run through the epoch-interleaved write path — never in
the middle of an in-flight batch — and the demo verifies fresh points
are immediately findable.

At the end it prints both stats layers: the serving snapshot (batch
occupancy, p50/p99 latency, cache hit rate, flush breakdown) and the
engine's per-shard table.

Run with:  python examples/serving.py [seed_corpus_size] [requests]
"""

from __future__ import annotations

import asyncio
import sys

import numpy as np

from repro import Knn, create_index
from repro.datasets.synthetic import gaussian_mixture
from repro.serving import AsyncSearchServer, open_loop_arrivals


async def serve(seed_size: int, requests: int) -> None:
    rng = np.random.default_rng(42)
    dim, k, ingest_batches, ingest_size = 64, 10, 3, 120

    # One pool of clustered vectors: the head seeds the index, the tail
    # arrives over time as ingest traffic.
    total = seed_size + ingest_batches * ingest_size
    pool = gaussian_mixture(total, dim, num_clusters=30, cluster_std=0.8, seed=5)
    corpus, stream = pool[:seed_size], pool[seed_size:]

    engine = create_index(
        "sharded", backend="pm-lsh", num_shards=4, router="round-robin", seed=1
    ).fit(corpus)
    print(f"engine up: {engine!r}")

    # Query traffic: perturbed copies of indexed points, ~10% of them
    # exact repeats of earlier requests (hot items getting looked up
    # again) so the exact-repeat cache has something to do.  The
    # repeats live inside the final, ingest-free stretch of the stream —
    # every add() deliberately clears the cache, so only repeats with no
    # write between source and repeat can hit.
    base = corpus[rng.integers(0, seed_size, size=requests)]
    queries = base + rng.normal(size=(requests, dim)) * 0.05
    tail = 3 * requests // 4  # after the last ingest point
    sources = rng.integers(tail, (tail + requests) // 2, size=requests // 10)
    targets = rng.integers((tail + requests) // 2, requests, size=requests // 10)
    queries[targets] = queries[sources]

    async with AsyncSearchServer(
        engine, max_batch=32, max_delay_ms=2.0, cache=256
    ) as server:
        loop = asyncio.get_running_loop()
        start = loop.time()
        # Open-loop arrivals (the shared Poisson driver: every request
        # fires at its own scheduled time, whether or not earlier answers
        # are back yet), played as segments with an ingest batch landing
        # between consecutive segments.
        segments = np.array_split(queries, ingest_batches + 1)
        results = []
        ingested = 0
        for segment_index, segment in enumerate(segments):
            if segment_index > 0 and ingested < stream.shape[0]:
                fresh = stream[ingested : ingested + ingest_size]
                new_ids = await server.add(fresh)
                ingested += fresh.shape[0]
                probe = await server.submit(fresh[0], Knn(k=1))
                found = int(probe.ids[0]) == int(new_ids[0])
                print(
                    f"request {len(results)}: +{fresh.shape[0]} items ingested "
                    f"(fresh findable: {found}) | ntotal={engine.ntotal}"
                )
            results.extend(
                await open_loop_arrivals(
                    server,
                    list(segment),
                    Knn(k=k),
                    rate_per_s=2000.0,  # offered load, ~2000 req/s
                    seed=segment_index,
                )
            )
        wall_s = loop.time() - start

        stats = server.stats()
        print(
            f"\n{requests} requests in {wall_s * 1e3:.0f} ms "
            f"({requests / wall_s:.0f} QPS served), "
            f"batch occupancy {stats.mean_occupancy:.1f}, "
            f"p50 {stats.latency_p50_ms:.2f} ms / p99 {stats.latency_p99_ms:.2f} ms"
        )
        served_from_cache = sum(
            1 for result in results if result.stats.get("served_from_cache")
        )
        print(f"cache short-circuited {served_from_cache} requests")
        print()
        print(stats.as_table())
    print(engine.stats().as_table())
    engine.close()


def main(seed_size: int = 4000, requests: int = 400) -> None:
    asyncio.run(serve(seed_size, requests))


if __name__ == "__main__":
    main(
        seed_size=int(sys.argv[1]) if len(sys.argv) > 1 else 4000,
        requests=int(sys.argv[2]) if len(sys.argv) > 2 else 400,
    )
