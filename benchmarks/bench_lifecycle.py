"""Index lifecycle (beyond the paper: deletes + compaction as a service) — QPS/recall before, during and after compaction.

The lifecycle claim behind ``repro.lifecycle``: tombstone deletes keep
answers exactly right (a dead id never surfaces; results match an index
that never held the point) at a measurable-but-bounded query cost, and
background compaction reclaims that cost without ever pausing the
server.

The bench walks one PM-LSH index through the whole arc:

1. **before** — the freshly fitted index: batch kNN QPS and recall
   against exact ground truth;
2. **tombstoned** — 30 % of the points deleted: same measurements, now
   against ground truth over the *live* points only (dead ids must
   never appear);
3. **during compaction** — the index behind ``AsyncSearchServer`` while
   ``server.compact()`` rebuilds on its background thread: served QPS
   of the concurrent request stream (reads never block on the rebuild)
   and a zero-dead-ids check over every answer;
4. **after** — the compacted (dense, tombstone-free) index: QPS and
   recall once more.

Writes ``results/lifecycle.txt``, whose note gives the compaction's
wall seconds.  Asserts that no phase ever returns a dead id, that
requests are actually served while the rebuild is in flight, and that
the compacted index answers the queries exactly as the tombstoned one
did: ids mapped through ``result.id_map``, distances byte-identical.  Scale with
``REPRO_BENCH_N`` / ``REPRO_BENCH_QUERIES`` (see conftest).
"""

from __future__ import annotations

import asyncio
import time

import numpy as np

from conftest import bench_n, bench_queries, bench_seed  # noqa: I001 (script-mode sys.path bootstrap)

from repro import CompactionPolicy, Knn, create_index
from repro.datasets.synthetic import gaussian_mixture
from repro.evaluation.tables import format_table
from repro.serving import AsyncSearchServer


K = 10
DIM = 64
DELETE_FRACTION = 0.3


def _recall(result_ids: np.ndarray, truth_ids: np.ndarray) -> float:
    """Mean |result ∩ truth| / k over the query batch."""
    hits = sum(
        np.intersect1d(row, truth).size
        for row, truth in zip(result_ids, truth_ids)
    )
    return hits / float(truth_ids.size)


def _exact_truth(data: np.ndarray, ids: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Top-k true neighbour ids (global numbering) over ``data[ids]``."""
    reference = create_index("exact").fit(data[ids])
    return ids[reference.search(queries, k=K).ids]


def _measure(index, queries, repeats: int = 3):
    """(QPS, BatchResult) of repeated batch kNN over *queries*."""
    index.search(queries[:4], K)  # warm buffers outside the timed region
    start = time.perf_counter()
    for _ in range(repeats):
        batch = index.search(queries, K)
    wall = time.perf_counter() - start
    return repeats * queries.shape[0] / wall, batch


async def _serve_through_compaction(index, queries, dead: np.ndarray):
    """Drive traffic while ``server.compact()`` rebuilds in the background.

    Returns (served QPS while the rebuild was in flight, requests served,
    dead ids leaked, CompactionResult, compacted index, compaction wall
    seconds).
    """
    async with AsyncSearchServer(index, max_batch=16, max_delay_ms=1.0) as server:
        loop = asyncio.get_running_loop()

        async def timed_compaction():
            began = time.perf_counter()
            result = await server.compact(CompactionPolicy(max_tombstone_ratio=DELETE_FRACTION))
            return result, time.perf_counter() - began

        compaction = asyncio.create_task(timed_compaction())
        served = 0
        leaked = 0
        start = loop.time()
        # Keep submitting until the rebuild lands (at least one round, so
        # the smoke run always measures something).
        while not compaction.done() or served == 0:
            answers = await server.submit_many(queries, Knn(k=K))
            served += len(answers)
            for answer in answers:
                leaked += int(np.isin(answer.ids, dead).sum())
            if served >= 50 * queries.shape[0]:  # bound the bench runtime
                break
        wall = loop.time() - start
        result, compact_s = await compaction
        return served / wall, served, leaked, result, server.index, compact_s


def test_bench_lifecycle(write_result, benchmark):
    n = max(bench_n(), 400)
    num_queries = max(bench_queries(), 8)
    data = gaussian_mixture(n, DIM, num_clusters=20, cluster_std=0.8, seed=bench_seed(5))
    rng = np.random.default_rng(bench_seed(0))
    queries = (
        data[rng.integers(0, n, size=num_queries)]
        + rng.normal(size=(num_queries, DIM)) * 0.05
    )
    dead = np.sort(rng.choice(n, size=int(n * DELETE_FRACTION), replace=False))
    live = np.setdiff1d(np.arange(n), dead)
    truth_full = _exact_truth(data, np.arange(n), queries)
    truth_live = _exact_truth(data, live, queries)

    index = create_index("pm-lsh", seed=bench_seed(7)).fit(data)
    rows = []

    # 1. before any deletes
    qps, batch = _measure(index, queries)
    rows.append(["before", n, 0, qps, _recall(batch.ids, truth_full), batch.stats["candidates"]])

    # 2. tombstoned at 30 %
    index.delete(dead)
    qps, batch = _measure(index, queries)
    tombstoned = batch
    assert not np.isin(batch.ids, dead).any(), "tombstoned phase leaked dead ids"
    rows.append(
        ["tombstoned", index.nlive, dead.size, qps, _recall(batch.ids, truth_live), batch.stats["candidates"]]
    )

    # 3. during the background compaction
    served_qps, served, leaked, result, compacted, compact_s = asyncio.run(
        _serve_through_compaction(index, queries, dead)
    )
    assert leaked == 0, f"{leaked} dead ids served during compaction"
    assert served > 0, "no requests served while the rebuild was in flight"
    assert result is not None and result.removed == dead.size
    rows.append(["during compaction", index.nlive, dead.size, served_qps, float("nan"), float("nan")])

    # 4. after: the compacted index answers in dense numbering
    truth_dense = _exact_truth(data[live], np.arange(live.size), queries)
    qps, batch = _measure(compacted, queries)
    recall_after = _recall(batch.ids, truth_dense)
    # Compaction keeps the hash draw and drops dead rows: same answers.
    np.testing.assert_array_equal(batch.ids, result.id_map[tombstoned.ids])
    assert batch.distances.tobytes() == tombstoned.distances.tobytes(), (
        "compaction changed an answer's distances"
    )
    rows.append(["after", compacted.ntotal, 0, qps, recall_after, batch.stats["candidates"]])

    note = (
        f"pm-lsh, n={n}, d={DIM}, k={K}, {num_queries} queries; "
        f"{dead.size} points ({100 * DELETE_FRACTION:.0f}%) tombstoned, then "
        f"compacted behind AsyncSearchServer in {compact_s:.3f} s while "
        f"{served} requests were served with zero dead ids and no pause; the "
        f"compacted index answers every query as the tombstoned one did "
        f"(ids through the id map, distances byte-identical).  Recall is "
        f"measured against exact ground truth over the points alive in each "
        f"phase."
    )
    table = format_table(
        "Lifecycle: QPS / recall across a 30%-tombstone compaction",
        ["Phase", "nlive", "Tombstones", "QPS", f"Recall@{K}", "Cand/query"],
        rows,
        note=note,
    )
    write_result("lifecycle", table)

    benchmark.pedantic(lambda: index.search(queries, K), rounds=1, iterations=1)

    assert recall_after >= 0.6, f"post-compaction recall collapsed: {recall_after:.3f}"


if __name__ == "__main__":
    import sys

    from _cli import bench_main

    sys.exit(bench_main(__file__, __doc__))
