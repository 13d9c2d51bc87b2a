"""The measured process: one workload, built and queried in a fresh
interpreter that does nothing else.

``run.py`` starts this file once per workload with ``REPRO_*`` scrubbed
and the BLAS pools pinned to one thread.  It generates the inputs, times
cold builds (``setup_s``), runs the workload's script against the stack a
user gets from registry defaults, checks every answer, and prints one
JSON report on stdout.  With ``--trace 1`` it alternates plain passes of
the script with passes behind :class:`tracing.Boundary` proxies, replays
a fixed sample of calls stage by stage and reports the per-layer metrics
instead.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import resource
import sys
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

import tracing
import workloads
from workloads import BATCH_ROWS, K

import repro
from repro import kernels
from repro.engine.merge import merge_shard_results
from repro.pmtree.flat import FlatPMTree
from repro.queries import Knn
from repro.serving import AsyncSearchServer

#: Cold builds per run; the first is discarded, ``setup_s`` is the median
#: of the rest.
SETUP_BUILDS = 6
#: How far a reported distance may sit from the recomputed true distance.
DISTANCE_TOLERANCE = 1e-9
#: The served configuration of ``serve_mixed`` (no adaptive controller).
SERVER = dict(max_batch=BATCH_ROWS, max_delay_ms=2.0, cache=1024)
ENGINE = dict(backend="pm-lsh", num_shards=4, num_workers=2)
#: Queries answered-then-replayed stage by stage in a traced run (a fixed
#: sample: 64 one-row calls or two 32-row calls), and calls kept per proxy.
REPLAY_QUERIES = 64


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------


def usage() -> np.ndarray:
    """``[wall s, user CPU s, system CPU s, minor faults]`` of this
    process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return np.array(
        [
            time.perf_counter(),
            own.ru_utime + kids.ru_utime,
            own.ru_stime + kids.ru_stime,
            own.ru_minflt + kids.ru_minflt,
        ]
    )


class Meter:
    """Accumulates wall/CPU/fault deltas over the timed sections only, so
    answer checking between sections happens with the clock stopped."""

    def __init__(self) -> None:
        self.total = np.zeros(4)
        self.last = np.zeros(4)

    def __enter__(self) -> "Meter":
        self._start = usage()
        return self

    def __exit__(self, *exc) -> None:
        self.last = usage() - self._start
        self.total += self.last

    @property
    def started(self) -> float:
        """``perf_counter`` reading at the start of the last section."""
        return float(self._start[0])


def percentile(values: Sequence[float], p: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), p))


class Pass:
    """One fixed-size piece of a timed script: what it cost and the
    latency of each request in it."""

    def __init__(self, spent: np.ndarray, queries: int, latencies: Sequence[float] = ()) -> None:
        self.wall_s, self.user_s, self.sys_s, self.faults = (float(x) for x in spent)
        self.queries = queries
        self.latencies = list(latencies)


def per_query(passes: Sequence[Pass], cost: str) -> float:
    """One cost (``wall_s``, ``user_s``, ``sys_s``, ``faults``) summed over
    *passes*, per query answered in them."""
    return sum(getattr(each, cost) for each in passes) / sum(each.queries for each in passes)


def quiet_half(passes: Sequence[Any], cost: Callable[[Any], float]) -> List[Any]:
    """The cheaper half (rounded up) of equal-sized passes, in run order.

    On a shared host interference only ever *adds* time, and it arrives
    in bursts of seconds to minutes that lift p90 far more than p50
    (NOISE.md).  Passes do identical amounts of work, so the cheaper half
    is the half that saw the least of it; the timing metrics are taken
    over those passes only.  The all-pass numbers stay in the report as
    diagnostics."""
    order = np.argsort([cost(each) for each in passes], kind="stable")
    return [passes[i] for i in sorted(order[: (len(passes) + 1) // 2])]


def freeze_heap() -> None:
    """Warm-up is over: collect what it left and move every survivor out
    of the collector's sight, so no full collection lands in a timed call."""
    gc.collect()
    gc.freeze()


def measure_setup(build: Callable[[], Any], close: Callable[[Any], None], builds: int):
    """Run *build* ``builds`` times, each timed from constructor to first
    answered query; returns ``(median of all but the first, times, last built)``."""
    times: List[float] = []
    built = None
    for _ in range(builds):
        if built is not None:
            close(built)
            built = None
            gc.collect()
        start = time.perf_counter()
        built = build()
        times.append(time.perf_counter() - start)
    kept = times[1:] if len(times) > 1 else times
    return float(np.median(kept)), times, built


# ---------------------------------------------------------------------------
# checking
# ---------------------------------------------------------------------------


class Checker:
    """Counts operations attempted and failed.  A kNN row fails if it has
    the wrong shape, names an out-of-range or dead id, is not sorted by
    (distance, id), or reports a distance off the recomputed one."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: Counter = Counter()

    def fail(self, count: int, reason: str) -> None:
        self.failed += count
        self.reasons[reason] += count

    def operation(self, ok: bool, reason: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(1, reason)

    def raised(self, rows: int, exc: BaseException) -> None:
        self.attempted += rows
        self.fail(rows, type(exc).__name__)

    def knn(
        self,
        queries: np.ndarray,
        ids: np.ndarray,
        distances: np.ndarray,
        points: np.ndarray,
        alive: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Check one answer row per query row; returns the bad-row mask."""
        rows = queries.shape[0]
        self.attempted += rows
        if ids.shape != (rows, K) or distances.shape != (rows, K):
            self.fail(rows, "shape")
            return np.ones(rows, dtype=bool)
        in_range = (ids >= 0) & (ids < points.shape[0])
        safe = np.where(in_range, ids, 0)
        diff = points[safe] - queries[:, None, :]
        true = np.sqrt(np.einsum("qkd,qkd->qk", diff, diff))
        step_d = np.diff(distances, axis=1)
        checks = {
            "id_out_of_range": ~in_range.all(axis=1),
            "dead_id": (
                ~alive[safe].all(axis=1) if alive is not None else np.zeros(rows, bool)
            ),
            # ``not <=`` so a NaN distance fails too.
            "distance": ~(np.abs(true - distances) <= DISTANCE_TOLERANCE).all(axis=1),
            "order": ~(
                (step_d > 0) | ((step_d == 0) & (np.diff(ids, axis=1) > 0))
            ).all(axis=1),
        }
        bad = np.zeros(rows, dtype=bool)
        for reason, mask in checks.items():
            fresh = mask & ~bad
            if fresh.any():
                self.reasons[reason] += int(fresh.sum())
            bad |= mask
        self.failed += int(bad.sum())
        return bad


def quality(ids, distances, truth_ids, truth_distances) -> Tuple[float, float]:
    """``(recall@k, overall ratio)`` — the paper's §6.1 definitions: the
    share of the true k nearest that were returned, and the mean over
    queries and ranks of returned distance / true distance at that rank."""
    hits = (ids[:, :, None] == truth_ids[:, None, :]).any(axis=2).sum(axis=1)
    return float(hits.mean() / K), float(np.mean(distances / truth_distances))


# ---------------------------------------------------------------------------
# shared run state
# ---------------------------------------------------------------------------


class Run:
    """Everything one workload run needs, plus the report it fills in."""

    def __init__(self, args) -> None:
        self.spec = workloads.spec_for(args.workload, args.scale)
        self.seed = args.seed
        self.seconds = float(args.seconds)
        self.traced = bool(args.trace)
        self.scratch = args.scratch
        self.inputs = workloads.make_inputs(self.spec, self.seed)
        with np.load(args.truth) as truth:
            self.truth_ids, self.truth_distances = truth["ids"], truth["distances"]
        self.checker = Checker()
        self.spans = tracing.Spans()
        self.metrics: Dict[str, float] = {}
        self.diag: Dict[str, Any] = {}
        #: Answers per query-pool row (first answer wins) for recall/ratio;
        #: ``quality_rows`` limits them to the part of a time-boxed script
        #: that every run reaches, so quality repeats exactly per seed.
        pool = self.inputs["queries"].shape[0]
        self.answer_ids = np.full((pool, K), -1, dtype=np.int64)
        self.answer_distances = np.full((pool, K), np.inf)
        self.answered = np.zeros(pool, dtype=bool)
        self.quality_rows = np.ones(pool, dtype=bool)

    @property
    def builds(self) -> int:
        return 1 if self.traced else SETUP_BUILDS

    def record(self, rows: np.ndarray, ids: np.ndarray, distances: np.ndarray) -> None:
        fresh = ~self.answered[rows]
        self.answer_ids[rows[fresh]] = ids[fresh]
        self.answer_distances[rows[fresh]] = distances[fresh]
        self.answered[rows[fresh]] = True

    def quality(self) -> Tuple[float, float]:
        rows = np.flatnonzero(self.answered & self.quality_rows)
        return quality(
            self.answer_ids[rows], self.answer_distances[rows],
            self.truth_ids[rows], self.truth_distances[rows],
        )

    def end_to_end(
        self, setup_s: float, passes: Sequence["Pass"],
        latency_passes: Optional[Sequence[Sequence[float]]] = None,
    ) -> None:
        """Fill the eight end-to-end metrics (untraced runs).

        The four timing metrics describe the quieter half of the passes
        (see :func:`quiet_half`); *latency_passes* defaults to the
        passes' own request latencies."""
        recall, ratio = self.quality()
        if latency_passes is None:
            latency_passes = [each.latencies for each in passes]
        kept = quiet_half(passes, lambda each: each.wall_s)
        latencies_s = np.concatenate(quiet_half(latency_passes, np.mean))
        everything = np.concatenate(latency_passes)
        self.metrics.update(
            {
                "setup_s": setup_s,
                "qps": 1.0 / per_query(kept, "wall_s"),
                "lat_p50_ms": percentile(latencies_s, 50) * 1e3,
                "lat_p90_ms": percentile(latencies_s, 90) * 1e3,
                "cpu_user_ms_per_query": per_query(kept, "user_s") * 1e3,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "recall_at_k": recall,
                "overall_ratio": ratio,
            }
        )
        self.diag.update(
            {
                "passes": len(passes),
                "latency_passes": len(latency_passes),
                "lat_samples": int(latencies_s.size),
                "lat_samples_beyond_p90": int(latencies_s.size - np.ceil(0.9 * latencies_s.size)),
                # The same numbers over *all* passes, host interference included.
                "all_passes_qps": 1.0 / per_query(passes, "wall_s"),
                "all_passes_lat_p50_ms": percentile(everything, 50) * 1e3,
                "all_passes_lat_p90_ms": percentile(everything, 90) * 1e3,
                "all_passes_lat_p99_ms": percentile(everything, 99) * 1e3,
                "all_passes_cpu_user_ms_per_query": per_query(passes, "user_s") * 1e3,
                "all_passes_cpu_sys_ms_per_query": per_query(passes, "sys_s") * 1e3,
                "all_passes_minor_faults_per_query": per_query(passes, "faults"),
                "queries_answered": sum(each.queries for each in passes),
                "timed_s": float(sum(each.wall_s for each in passes)),
            }
        )

    def proc_metrics(self, passes: Sequence["Pass"]) -> None:
        self.metrics["proc.cpu_sys_ms_per_query"] = per_query(passes, "sys_s") * 1e3
        self.metrics["proc.minor_faults_per_query"] = per_query(passes, "faults")


# ---------------------------------------------------------------------------
# per-layer helpers (traced runs)
# ---------------------------------------------------------------------------


def overhead_share(plain: Sequence[Pass], proxied: Sequence[Pass]) -> float:
    """1 - proxied / plain throughput, each over its quieter half."""
    plain_s, proxied_s = (
        per_query(quiet_half(group, lambda each: each.wall_s), "wall_s")
        for group in (plain, proxied)
    )
    return 1.0 - plain_s / proxied_s


def kernel_call_totals() -> Counter:
    totals: Counter = Counter()
    for (_, kernel), count in kernels.kernel_calls().items():
        totals[kernel] += count
    return totals


def kernel_metrics(run: Run, before: Counter, rows: int) -> None:
    after = kernel_call_totals()
    for name in kernels.KERNEL_NAMES:
        run.metrics[f"kernels.calls_per_query.{name}"] = (after[name] - before[name]) / rows


def attribute_index(run: Run, index, blocks: Sequence[np.ndarray]) -> None:
    """Attribute one PM-LSH index's ``run()`` time to its stages, on a
    fixed sample of query blocks (so every count below repeats exactly).

    Each block is answered once through the public ``run()`` and then
    replayed stage by stage, back to back, so both see the same host
    conditions; the replay must reproduce the run's per-query candidate
    counts exactly or the attribution is void (a failed operation).
    ``core.*``/``pmtree.*`` counts come straight from ``BatchResult.stats``.
    """
    stages = tracing.StageTimes()
    run_s = 0.0
    matches = True
    counts = Counter()
    for block in blocks:
        start = time.perf_counter()
        result = index.run(block, Knn(k=K))
        run_s += time.perf_counter() - start
        seen = tracing.replay_knn(index, block, K, stages)
        recorded = [stats["candidates"] for stats in result.per_query_stats]
        matches = matches and np.array_equal(seen, np.asarray(recorded, dtype=np.int64))
        for key in ("candidates", "rounds", "tree_nodes", "tree_dist_comps"):
            counts[key] += result.stats[key] * block.shape[0]  # stats hold per-query means
    run.checker.operation(matches, "replay_differs_from_run")
    queries = stages.queries
    run_ms = stages.per_query(run_s)
    staged_ms = stages.per_query(stages.projection_s + stages.traversal_s + stages.verify_s)
    run.metrics.update(
        {
            "core.run_ms_per_query": run_ms,
            "core.projection_ms_per_query": stages.per_query(stages.projection_s),
            "core.self_ms_per_query": run_ms - staged_ms,
            "core.candidates_per_query": counts["candidates"] / queries,
            "core.rounds_per_query": counts["rounds"] / queries,
            "core.budget": float(index.candidate_budget(K)),
            "pmtree.traversal_ms_per_query": stages.per_query(stages.traversal_s),
            "pmtree.nodes_per_query": counts["tree_nodes"] / queries,
            "pmtree.dist_comps_per_query": counts["tree_dist_comps"] / queries,
            "pmtree.flatten_ms": flatten_ms(index),
            "kernels.verify_ms_per_query": stages.per_query(stages.verify_s),
            "kernels.verify_mb_per_query": counts["candidates"] / queries * index.d * 8 / 1e6,
            "trace.unattributed_share": (run_ms - staged_ms) / run_ms,
        }
    )
    run.diag["replayed_calls"] = len(blocks)
    run.diag["replayed_queries"] = queries
    run.diag["replay_matches_run"] = bool(matches)


def flatten_ms(index) -> float:
    """One ``FlatPMTree.from_tree`` of the index's pointer tree."""
    tree = index.tree
    start = time.perf_counter()
    FlatPMTree.from_tree(tree)
    return (time.perf_counter() - start) * 1e3


# ---------------------------------------------------------------------------
# single_highd and batch_lowd: one closed loop, one client
# ---------------------------------------------------------------------------


def closed_loop(
    run: Run, searches: Sequence[Callable[[np.ndarray], Any]],
    requests: Sequence[np.ndarray], calls_per_pass: int,
) -> List[Pass]:
    """Cycle through *requests* (one ``search()`` call each) in passes of
    *calls_per_pass* until ``--seconds`` have passed and each request ran
    once (recall needs them all); the next call leaves only when the
    previous one has answered.  Pass i goes through ``searches[i % n]``:
    a traced run alternates plain and proxied passes, so both see the
    same host conditions."""
    passes: List[Pass] = []
    pending: List[Tuple[int, Any]] = []
    position = 0
    began = time.perf_counter()
    while True:
        search = searches[len(passes) % len(searches)]
        latencies = []
        before = usage()
        for offset in range(calls_per_pass):
            which = (position + offset) % len(requests)
            start = time.perf_counter()
            try:
                answer = search(requests[which])
            except Exception as exc:  # a raised call is a failed operation
                answer = exc
            latencies.append(time.perf_counter() - start)
            pending.append((which, answer))
        passes.append(Pass(usage() - before, calls_per_pass * requests[0].shape[0], latencies))
        position += calls_per_pass
        if time.perf_counter() - began >= run.seconds and position >= len(requests):
            break
    data = run.inputs["data"]
    rows_per_call = requests[0].shape[0]
    for which, answer in pending:  # clock stopped: check everything
        rows = np.arange(which * rows_per_call, (which + 1) * rows_per_call)
        if isinstance(answer, Exception):
            run.checker.raised(rows.size, answer)
            continue
        run.checker.knn(requests[which], answer.ids, answer.distances, data)
        run.record(rows, answer.ids, answer.distances)
    return passes


def run_closed(run: Run, rows_per_call: int, calls_per_pass: int) -> None:
    data, queries = run.inputs["data"], run.inputs["queries"]
    requests = [
        queries[start : start + rows_per_call]
        for start in range(0, queries.shape[0], rows_per_call)
    ]

    def build():
        index = repro.create_index("pm-lsh", seed=run.seed).fit(data)
        index.search(queries[:1], K)  # the first answered query: one row everywhere
        return index

    setup_s, setup_times, index = measure_setup(build, lambda _: None, run.builds)
    run.diag["setup_samples_s"] = setup_times
    for request in requests[: max(1, len(requests) // 20)]:  # warm-up, discarded
        index.search(request, K)
    freeze_heap()
    proxy = tracing.Boundary(index, run.spans, "core.run", keep_calls=0)
    searches = [lambda rows: index.search(rows, K)]
    if run.traced:
        searches.append(lambda rows: proxy.search(rows, K))
    calls_before = kernel_call_totals()
    passes = closed_loop(run, searches, requests, calls_per_pass)
    if not run.traced:
        run.end_to_end(setup_s, passes)
        return
    run.proc_metrics(passes)
    kernel_metrics(run, calls_before, sum(each.queries for each in passes))
    run.metrics["trace.overhead_share"] = overhead_share(passes[0::2], passes[1::2])
    attribute_index(run, index, requests[: REPLAY_QUERIES // rows_per_call])


# ---------------------------------------------------------------------------
# serve_mixed: the async server over the sharded engine
# ---------------------------------------------------------------------------


class ServePass:
    """What one pass of the serve_mixed script (phase A + phase B) saw."""

    def __init__(self) -> None:
        #: Phase A: one pass per burst.  Phase B: latencies from due time.
        self.bursts: List[Pass] = []
        self.burst_window = (0.0, 0.0)
        self.open_loop = np.zeros(4)  # wall, user, sys, faults of phase B
        self.latency_from_due: List[float] = []
        self.late: List[float] = []
        self.answered = 0
        #: Phase B per request: (sent, done, queue wait ms, from cache).
        self.requests: List[Tuple[float, float, float, bool]] = []
        self.stats_after_bursts = None
        self.stats_at_end = None


async def serve_script(run: Run, served, seconds: float) -> ServePass:
    """Phase A: saturating bursts of never-repeated queries, closed (the
    next burst leaves when the last has answered).  Phase B: open-loop
    Poisson arrivals at a fixed rate, 30 % from a hot set, each timed
    from the moment it was *due*."""
    queries, data = run.inputs["queries"], run.inputs["data"]
    spec = Knn(k=K)
    out = ServePass()
    bursts = [
        np.arange(b * workloads.BURST_ROWS, (b + 1) * workloads.BURST_ROWS)
        for b in range(workloads.MAX_BURSTS)
    ]
    plan_rows, due = workloads.open_loop_plan(run.seed, seconds)
    run.quality_rows[:] = False
    run.quality_rows[np.concatenate(bursts[1 : 1 + workloads.MIN_BURSTS])] = True
    run.quality_rows[plan_rows] = True
    loop = asyncio.get_running_loop()

    def settle(rows: np.ndarray, answers: Sequence[Any]) -> None:
        good = [i for i, answer in enumerate(answers) if not isinstance(answer, Exception)]
        for i, answer in enumerate(answers):
            if isinstance(answer, Exception):
                run.checker.raised(1, answer)
        if not good:
            return
        ids = np.full((len(good), K), -1, dtype=np.int64)
        distances = np.full((len(good), K), np.inf)
        for slot, i in enumerate(good):
            size = min(K, len(answers[i]))
            ids[slot, :size] = answers[i].ids[:size]
            distances[slot, :size] = answers[i].distances[:size]
        picked = rows[good]
        run.checker.knn(queries[picked], ids, distances, data)
        run.record(picked, ids, distances)
        out.answered += len(good)

    async with AsyncSearchServer(served, **SERVER) as server:
        # Warm-up (discarded): burst 0 fills one batch shape end to end.
        await server.submit_many(queries[bursts[0]], spec)
        freeze_heap()
        phase_start = time.perf_counter()
        for rows in bursts[1:]:
            before = usage()
            try:
                answers = await server.submit_many(queries[rows], spec)
            except Exception as exc:
                answers = [exc] * rows.size
            out.bursts.append(Pass(usage() - before, rows.size))
            settle(rows, answers)  # clock stopped
            spent = sum(each.wall_s for each in out.bursts)
            enough = len(out.bursts) >= workloads.MIN_BURSTS
            if enough and spent >= workloads.PHASE_A_SHARE * seconds:
                break
        out.burst_window = (phase_start, time.perf_counter())
        out.stats_after_bursts = server.stats()

        count = plan_rows.size
        sent = np.zeros(count)
        done = np.zeros(count)
        answers: List[Any] = [None] * count

        async def one(i: int) -> None:
            try:
                answers[i] = await server.submit(queries[plan_rows[i]], spec)
            except Exception as exc:
                answers[i] = exc
            done[i] = time.perf_counter()

        tasks = []
        before = usage()
        origin = time.perf_counter()
        for i in range(count):
            delay = origin + due[i] - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            sent[i] = time.perf_counter()
            tasks.append(loop.create_task(one(i)))
        await asyncio.gather(*tasks)
        out.open_loop = usage() - before
        out.stats_at_end = server.stats()
        settle(plan_rows, answers)
        out.latency_from_due = list(done - (origin + due))
        out.late = list(sent - (origin + due))
        for i, answer in enumerate(answers):
            if not isinstance(answer, Exception):
                out.requests.append(
                    (
                        sent[i], done[i],
                        float(answer.stats.get("serving_wait_ms", 0.0)),
                        "served_from_cache" in answer.stats,
                    )
                )
    return out


def run_serve(run: Run) -> None:
    data, queries = run.inputs["data"], run.inputs["queries"]

    def make_engine(pool_backend: str = "thread"):
        return repro.create_index(
            "sharded", seed=run.seed, pool_backend=pool_backend, **ENGINE
        ).fit(data)

    async def cold_start():
        engine = make_engine()
        async with AsyncSearchServer(engine, **SERVER) as server:
            await server.submit(queries[0], Knn(k=K))
        return engine

    setup_s, setup_times, engine = measure_setup(
        lambda: asyncio.run(cold_start()), lambda built: built.close(), run.builds
    )
    run.diag["setup_samples_s"] = setup_times
    seconds = run.seconds / 2 if run.traced else run.seconds
    try:
        plain = asyncio.run(serve_script(run, engine, seconds))
        run.diag["open_loop_requests"] = len(plain.latency_from_due)
        run.diag["loadgen_late_ms_p99"] = percentile(plain.late, 99) * 1e3
        if not run.traced:
            # qps and CPU from the saturating bursts; latency passes are
            # consecutive groups of open-loop requests.
            groups = [
                plain.latency_from_due[i : i + workloads.OPEN_GROUP]
                for i in range(0, len(plain.latency_from_due), workloads.OPEN_GROUP)
            ]
            run.end_to_end(setup_s, plain.bursts, groups)
            return
        run.proc_metrics(plain.bursts + [Pass(plain.open_loop, len(plain.latency_from_due))])
        serve_layers(run, engine, plain.bursts, seconds)
        parallel_layers(run, engine, make_engine)
    finally:
        engine.close()


def serve_layers(run: Run, engine, plain_bursts: Sequence[Pass], seconds: float) -> None:
    """The traced pass: proxies at serving->engine and engine->shard."""
    spans = run.spans
    engine_proxy = tracing.Boundary(engine, spans, "engine.run", keep_calls=0)
    # The engine keeps its shards in a private list; swapping proxies in is
    # the one place the benchmark reaches past a public name.
    shards = list(engine.shards)
    shard_proxies = [
        tracing.Boundary(shard, spans, f"shard.run.{s}", parent_of=engine_proxy,
                         keep_calls=REPLAY_QUERIES)  # covers phase A: at most 24 batches
        for s, shard in enumerate(shards)
    ]
    engine._shards[:] = shard_proxies
    calls_before = kernel_call_totals()
    try:
        traced = asyncio.run(serve_script(run, engine_proxy, seconds))
    finally:
        engine._shards[:] = shards
    kernel_metrics(run, calls_before, traced.answered)
    run.metrics["trace.overhead_share"] = overhead_share(plain_bursts, traced.bursts)

    runs = spans.named("engine.run")
    serving_metrics(run, traced, runs)
    lo, hi = traced.burst_window
    burst_runs = {row: (end - start) * 1e3 for row, start, end, _ in runs if lo <= start < hi}
    engine_metrics(run, engine, shard_proxies, burst_runs)
    # core.* / pmtree.* / kernels.*: shard 0's first phase-A batches, so
    # per query *per shard*.
    burst_blocks = [
        queries for row, queries, _, _ in shard_proxies[0].calls
        if spans.rows[row][3] in burst_runs
    ]
    attribute_index(run, shards[0], burst_blocks[: REPLAY_QUERIES // BATCH_ROWS])


def serving_metrics(run: Run, traced: ServePass, runs: Sequence[Tuple]) -> None:
    """``serving.*``: phase B requests against the ``engine.run`` spans."""
    run_end = np.array([end for _, _, end, _ in runs])
    run_ms = np.array([(end - start) * 1e3 for _, start, end, _ in runs])
    waits, selfs = [], []
    for sent, done, wait_ms, cached in traced.requests:
        if cached:  # never reached the batcher; counted by cache_hit_share
            continue
        latency_ms = (done - sent) * 1e3
        waits.append(wait_ms)
        # The batch that answered a request is the last engine.run that
        # ended before the request did.
        served_by = int(np.searchsorted(run_end, done, side="right")) - 1
        selfs.append(latency_ms - wait_ms - (run_ms[served_by] if served_by >= 0 else 0.0))
    first, last = traced.stats_after_bursts, traced.stats_at_end
    requests = last.requests_served - first.requests_served
    hits = last.cache_hits - first.cache_hits
    batches = last.batches_served - first.batches_served
    flushes = {
        kind: getattr(last, kind) - getattr(first, kind)
        for kind in ("size_flushes", "deadline_flushes", "drain_flushes")
    }
    submitted = last.requests_submitted - first.requests_submitted
    shed = (last.requests_shed + last.requests_rejected) - (
        first.requests_shed + first.requests_rejected
    )
    run.metrics.update(
        {
            "serving.queue_wait_ms_p50": percentile(waits, 50),
            "serving.queue_wait_ms_p90": percentile(waits, 90),
            "serving.self_ms_per_req": float(np.mean(selfs)),
            "serving.batch_occupancy": (requests - hits) / max(1, batches),
            "serving.size_flush_share": flushes["size_flushes"] / max(1, sum(flushes.values())),
            "serving.cache_hit_share": hits / max(1, requests),
            "serving.shed_share": shed / max(1, submitted),
            "loadgen.late_ms_p99": percentile(traced.late, 99) * 1e3,
        }
    )
    run.diag["open_loop_engine_run_ms_per_batch"] = float(
        np.mean([ms for (_, start, _, _), ms in zip(runs, run_ms)
                 if start >= traced.burst_window[1]])
    )
    run.diag["open_loop_latency_from_send_ms_p50"] = percentile(
        [(done - sent) * 1e3 for sent, done, _, _ in traced.requests], 50
    )


def engine_metrics(run: Run, engine, shard_proxies: Sequence[tracing.Boundary],
                   burst_runs: Dict[int, float]) -> None:
    """``engine.*``: the full 32-row batches of phase A (*burst_runs*:
    span row -> ms of each such ``engine.run``)."""
    spans = run.spans
    shard_ms: Dict[int, List[float]] = {row: [] for row in burst_runs}
    for s in range(len(shard_proxies)):
        for _, start, end, parent in spans.named(f"shard.run.{s}"):
            if parent in shard_ms:
                shard_ms[parent].append((end - start) * 1e3)
    slowest = np.array([max(shard_ms[row]) for row in burst_runs])
    mean_shard = np.array([np.mean(shard_ms[row]) for row in burst_runs])
    whole = np.array(list(burst_runs.values()))
    # merge_shard_results replayed on the recorded shard answers; a freshly
    # fitted engine stripes row i onto shard i mod S.
    id_maps = [np.arange(s, engine.ntotal, len(shard_proxies)) for s in range(len(shard_proxies))]
    merge_s, merges = 0.0, 0
    by_batch: Dict[int, List[Any]] = {}
    for proxy in shard_proxies:
        for row, _, _, result in proxy.calls:
            by_batch.setdefault(spans.rows[row][3], []).append(result)
    for parent, results in by_batch.items():
        if parent in burst_runs and len(results) == len(shard_proxies):
            start = time.perf_counter()
            merge_shard_results(results, id_maps, K)
            merge_s += time.perf_counter() - start
            merges += 1
    run.metrics.update(
        {
            "engine.run_ms_per_batch": float(whole.mean()),
            "engine.fanout_self_ms_per_batch": float((whole - slowest).mean()),
            "engine.merge_ms_per_batch": merge_s / max(1, merges) * 1e3,
            "engine.shard_skew": float((slowest / mean_shard).mean()),
        }
    )


def parallel_layers(run: Run, engine, make_engine) -> None:
    """The same full batches through the thread pool and the process pool."""
    queries = run.inputs["queries"]
    blocks = [
        queries[start : start + BATCH_ROWS]
        for start in range(workloads.BURST_ROWS, 2 * workloads.BURST_ROWS + 2 * BATCH_ROWS, BATCH_ROWS)
    ]
    forked = make_engine("process")
    try:
        start = time.perf_counter()
        forked.start_pool()
        start_pool_s = time.perf_counter() - start
        forked.search(blocks[0], K)  # warm-up, discarded
        spent: Dict[str, List[float]] = {"thread": [], "process": []}
        same = True
        for block in blocks[1:]:  # both pools on each block, back to back
            answers = {}
            for name, target in (("thread", engine), ("process", forked)):
                start = time.perf_counter()
                answers[name] = target.search(block, K)
                spent[name].append((time.perf_counter() - start) * 1e3)
            same = (
                same
                and np.array_equal(answers["thread"].ids, answers["process"].ids)
                and np.array_equal(answers["thread"].distances, answers["process"].distances)
            )
        timings = {name: float(np.median(values)) for name, values in spent.items()}
        run.checker.operation(same, "process_differs_from_thread")
        run.metrics.update(
            {
                "parallel.round_ms_per_batch": timings["process"],
                "parallel.vs_thread_ratio": timings["process"] / timings["thread"],
                "parallel.start_pool_s": start_pool_s,
                "parallel.bytes_published": float(forked.metrics.total("pool_bytes_published")),
            }
        )
        run.diag["thread_round_ms_per_batch"] = timings["thread"]
    finally:
        forked.close()


# ---------------------------------------------------------------------------
# churn_rw: writes, tombstones, compaction, persistence
# ---------------------------------------------------------------------------


def run_churn(run: Run) -> None:
    spec, inputs = run.spec, run.inputs
    queries, extra = inputs["queries"], inputs["extra"]
    persist_rows = np.arange(queries.shape[0] - workloads.PERSIST_ROWS, queries.shape[0])

    def build():
        index = repro.create_index("pm-lsh", seed=run.seed).fit(inputs["data"])
        index.search(queries[persist_rows[:1]], K)
        return index

    setup_s, setup_times, index = measure_setup(build, lambda _: None, run.builds)
    run.diag["setup_samples_s"] = setup_times
    for row in persist_rows[:4]:  # warm-up, discarded: both batch shapes
        index.search(queries[row : row + 1], K)
    index.search(queries[persist_rows], K)
    freeze_heap()

    checker = run.checker
    run.quality_rows[workloads.MIN_ERAS * workloads.ERA_QUERIES :] = False
    live = workloads.LiveSet(inputs["data"])
    proxy = tracing.Boundary(index, run.spans, "core.run", keep_calls=0)
    target = index  # a traced run sends every other era through the proxy
    calls_before = kernel_call_totals()
    meter = Meter()
    eras: List[Pass] = []  # one pass per era: timed sections only
    era_start = meter.total.copy()
    latencies: List[float] = []  # one-row searches of the current era
    layer: Dict[str, List[float]] = {
        key: [] for key in ("add_fresh", "add_aged", "delete", "compact", "first_query",
                            "batch_tombstoned", "batch_compacted")
    }
    searches = adds_in_era = 0
    after_write = False
    batch_rows = persist_rows

    def timed(name: str, rows: int, action: Callable[[], Any]):
        """One operation with the clock running; None if it raised."""
        try:
            with meter:
                outcome = action()
        except Exception as exc:
            checker.raised(rows, exc)
            outcome = None
        if run.traced:
            run.spans.add(name, meter.started, meter.started + meter.last[0])
        return outcome

    def search(rows: np.ndarray) -> None:
        nonlocal searches
        answer = timed("search", rows.size, lambda: target.search(queries[rows], K))
        if answer is None:
            return
        checker.knn(queries[rows], answer.ids, answer.distances, live.points, live.alive)
        run.record(rows, answer.ids, answer.distances)
        searches += rows.size

    def write(name: str, action: Callable[[], Any], verify: Callable[[Any], bool]) -> float:
        outcome = timed(f"lifecycle.{name}", 1, action)
        if outcome is not None:
            checker.operation(verify(outcome), f"{name}_wrong")
        return meter.last[0]

    for step in workloads.churn_steps(spec, run.seed):
        kind = step[0]
        if kind == "add":
            block = extra[step[1] : step[2]]
            first = live.points.shape[0]
            expected = np.arange(first, first + block.shape[0])
            took = write("add", lambda: index.add(block), lambda ids: np.array_equal(ids, expected))
            layer["add_fresh" if adds_in_era == 0 else "add_aged"].append(took)
            adds_in_era += 1
        elif kind == "delete":
            took = write("delete", lambda: index.delete(step[1]),
                         lambda ids: np.array_equal(ids, step[1]))
            layer["delete"].append(took)
            after_write = True
        elif kind == "compact":
            kept = int(live.alive.sum())
            took = write("compact", index.compact, lambda _: index.ntotal == kept == index.nlive)
            layer["compact"].append(took)
        live.apply(step, extra)
        if kind == "search" and step[3] == 1:
            for row in range(step[1], step[2]):
                search(np.arange(row, row + 1))
                latencies.append(meter.last[0])
                if after_write:  # pays the lazy re-flatten
                    layer["first_query"].append(meter.last[0])
                    after_write = False
        elif kind == "search":
            batch_rows = np.arange(step[1], step[2])
            search(batch_rows)
            layer["batch_tombstoned"].append(meter.last[0])
        elif kind == "compact" and run.traced:
            # The era's 32-row block again on the compacted index, clock
            # stopped: timing and validity only (its truth was computed
            # for the tombstoned set).
            start = time.perf_counter()
            answer = index.search(queries[batch_rows], K)
            layer["batch_compacted"].append(time.perf_counter() - start)
            checker.knn(queries[batch_rows], answer.ids, answer.distances, live.points)
        elif kind == "era":
            eras.append(Pass(meter.total - era_start, searches, latencies))
            if run.traced and len(eras) == 1:
                # Clock stopped, and a state every run reaches: the index
                # right after the first era's compaction.
                kernel_metrics(run, calls_before, searches)
                attribute_index(
                    run, index, [queries[row : row + 1] for row in persist_rows]
                )
            era_start = meter.total.copy()
            latencies = []
            searches = adds_in_era = 0
            if meter.total[0] >= run.seconds and len(eras) >= workloads.MIN_ERAS:
                break
            target = proxy if run.traced and len(eras) % 2 else index

    # Persistence: save -> load_index -> byte-identical answers.
    path = os.path.join(run.scratch, f"churn-{os.getpid()}.npz")
    try:
        start = time.perf_counter()
        index.save(path)
        save_s = time.perf_counter() - start
        size = os.path.getsize(path)
        start = time.perf_counter()
        loaded = repro.load_index(path)
        load_s = time.perf_counter() - start
    finally:
        if os.path.exists(path):
            os.remove(path)
    for row in persist_rows:
        block = queries[row : row + 1]
        mine = index.search(block, K)
        theirs = loaded.search(block, K)
        checker.knn(block, mine.ids, mine.distances, live.points, live.alive)
        checker.operation(
            np.array_equal(mine.ids, theirs.ids)
            and np.array_equal(mine.distances, theirs.distances),
            "loaded_index_differs",
        )
    if not run.traced:
        run.end_to_end(setup_s, eras)
        return

    run.proc_metrics(eras)
    run.metrics["trace.overhead_share"] = overhead_share(eras[0::2], eras[1::2])
    per_kpts = 1e3 * 1e3 / workloads.CHURN_POINTS
    run.metrics.update(
        {
            "lifecycle.add_ms_per_kpts_fresh": float(np.mean(layer["add_fresh"])) * per_kpts,
            "lifecycle.add_ms_per_kpts_aged": float(np.mean(layer["add_aged"])) * per_kpts,
            "lifecycle.delete_ms_per_kpts": float(np.mean(layer["delete"])) * per_kpts,
            "lifecycle.compact_s": float(np.mean(layer["compact"])),
            "lifecycle.first_query_after_write_ms": float(np.mean(layer["first_query"])) * 1e3,
            "lifecycle.batch_ms_tombstoned_vs_compacted": float(
                np.mean(layer["batch_tombstoned"]) / np.mean(layer["batch_compacted"])
            ),
            "persistence.save_s": save_s,
            "persistence.load_s": load_s,
            "persistence.bytes_per_point": size / index.ntotal,
        }
    )


RUNNERS: Dict[str, Callable[[Run], None]] = {
    "single_highd": lambda run: run_closed(run, rows_per_call=1, calls_per_pass=50),
    "batch_lowd": lambda run: run_closed(run, rows_per_call=BATCH_ROWS, calls_per_pass=1),
    "serve_mixed": run_serve,
    "churn_rw": run_churn,
}


def fingerprint() -> Dict[str, Any]:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "kernel_backend": kernels.active().name,
        "numba": kernels.numba_available(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "repro_env": sorted(key for key in os.environ if key.startswith("REPRO_")),
        "pins": {
            key: os.environ.get(key)
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                        "NUMPY_MADVISE_HUGEPAGE")
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="bench_e2e measured process")
    parser.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--truth", required=True)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)
    run = Run(args)
    RUNNERS[args.workload](run)
    if args.trace_out:
        run.spans.write(args.trace_out)
    json.dump(
        {
            "workload": args.workload,
            "seed": args.seed,
            "traced": run.traced,
            "attempted": run.checker.attempted,
            "failed": run.checker.failed,
            "fail_reasons": dict(run.checker.reasons),
            "metrics": run.metrics,
            "diag": run.diag,
            "fingerprint": fingerprint(),
        },
        sys.stdout,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
