#!/usr/bin/env python3
"""bench_e2e — the repo's one benchmark.

    python bench_e2e/run.py --seed S [--workload W] [--trace 0|1] [--seconds N]
                            [--scale full|smoke] [--out FILE] [--trace-out FILE]

Drives the stack a user gets from registry defaults (AsyncSearchServer ->
ShardedIndex -> PMLSH -> FlatPMTree -> kernels), checks every answer and
prints every metric by name with its unit; the last line of stdout is one
JSON object (``correct``, ``attempted``, ``failed``, ``metrics``).
``--trace 0`` (default) reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics from a separate traced pass.  Metric names and workloads
are declared in ``BENCHMARK.json``; ``README.md`` defines them.

This file only orchestrates: per workload it starts the ground-truth
helper (``workloads.py``, cached per workload + seed) and then one fresh
measured process (``worker.py``) with every ``REPRO_*`` variable scrubbed
and the BLAS pools pinned to one thread, and waits for both to end.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import subprocess
import sys
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CACHE = os.path.join(HERE, ".cache")
#: A child that has not ended by then is killed and the run fails.
CHILD_TIMEOUT_S = 170

WORKLOADS = ("single_highd", "batch_lowd", "serve_mixed", "churn_rw")

END_TO_END = {
    "setup_s": "s",
    "qps": "1/s",
    "lat_p50_ms": "ms",
    "lat_p90_ms": "ms",
    "cpu_user_ms_per_query": "ms",
    "peak_rss_mb": "MB",
    "recall_at_k": "share",
    "overall_ratio": "ratio",
}

KERNELS = (
    "leaf_prune", "inner_prune", "pair_distances", "verify_distances",
    "budget_cut", "group_topk", "sampled_project",
)

#: Per-layer metrics; a layer that is not on a workload's path reports 0.
PER_LAYER = {
    "serving.queue_wait_ms_p50": "ms",
    "serving.queue_wait_ms_p90": "ms",
    "serving.self_ms_per_req": "ms",
    "serving.batch_occupancy": "count",
    "serving.size_flush_share": "share",
    "serving.cache_hit_share": "share",
    "serving.shed_share": "share",
    "loadgen.late_ms_p99": "ms",
    "engine.run_ms_per_batch": "ms",
    "engine.fanout_self_ms_per_batch": "ms",
    "engine.merge_ms_per_batch": "ms",
    "engine.shard_skew": "ratio",
    "parallel.round_ms_per_batch": "ms",
    "parallel.vs_thread_ratio": "ratio",
    "parallel.start_pool_s": "s",
    "parallel.bytes_published": "count",
    "core.run_ms_per_query": "ms",
    "core.projection_ms_per_query": "ms",
    "core.self_ms_per_query": "ms",
    "core.candidates_per_query": "count",
    "core.rounds_per_query": "count",
    "core.budget": "count",
    "pmtree.traversal_ms_per_query": "ms",
    "pmtree.nodes_per_query": "count",
    "pmtree.dist_comps_per_query": "count",
    "pmtree.flatten_ms": "ms",
    "kernels.verify_ms_per_query": "ms",
    "kernels.verify_mb_per_query": "MB",
    **{f"kernels.calls_per_query.{name}": "count" for name in KERNELS},
    "lifecycle.add_ms_per_kpts_fresh": "ms",
    "lifecycle.add_ms_per_kpts_aged": "ms",
    "lifecycle.delete_ms_per_kpts": "ms",
    "lifecycle.compact_s": "s",
    "lifecycle.first_query_after_write_ms": "ms",
    "lifecycle.batch_ms_tombstoned_vs_compacted": "ratio",
    "persistence.save_s": "s",
    "persistence.load_s": "s",
    "persistence.bytes_per_point": "count",
    "proc.cpu_sys_ms_per_query": "ms",
    "proc.minor_faults_per_query": "count",
    "trace.overhead_share": "share",
    "trace.unattributed_share": "share",
}

#: The run fails when recall at the default seed and full scale leaves
#: this band on these workloads: a saturated quality metric guards nothing.
RECALL_BAND = (0.85, 0.97)
RECALL_GUARDED = ("single_highd", "batch_lowd", "serve_mixed")
DEFAULT_SEED = 0


def child_env() -> Dict[str, str]:
    """The measured process's environment: no ``REPRO_*`` (so a flipped
    default shows up), one BLAS thread (the engine's own workers are the
    only parallelism), no transparent-huge-page hint from NumPy (under
    THP ``madvise`` every third large-temporary batch stalls 2-3 s in
    kernel compaction on the reference host — NOISE.md), the checkout's
    ``src`` first on the path."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    env["NUMPY_MADVISE_HUGEPAGE"] = "0"
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


@functools.lru_cache(maxsize=None)
def git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "none"
    return done.stdout.strip() if done.returncode == 0 and done.stdout.strip() else "none"


def run_workload(name: str, args) -> Dict[str, Any]:
    """Ground truth (cached), then the measured process; returns its report."""
    env = child_env()
    # Keyed by the inputs' source too: editing workloads.py drops the cache.
    with open(os.path.join(HERE, "workloads.py"), "rb") as handle:
        inputs_version = hashlib.sha256(handle.read()).hexdigest()[:12]
    truth = os.path.join(
        CACHE, f"truth-{name}-{args.scale}-seed{args.seed}-{inputs_version}.npz"
    )
    if not os.path.exists(truth):
        subprocess.run(
            [sys.executable, os.path.join(HERE, "workloads.py"), "--workload", name,
             "--seed", str(args.seed), "--scale", args.scale, "--out", truth],
            env=env, check=True, timeout=CHILD_TIMEOUT_S,
        )
    command = [
        sys.executable, os.path.join(HERE, "worker.py"), "--workload", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--scale", args.scale, "--truth", truth, "--scratch", CACHE,
    ]
    if args.trace_out:
        suffix = f".{name}" if args.workload is None else ""
        command += ["--trace-out", args.trace_out + suffix]
    done = subprocess.run(
        command, env=env, check=True, timeout=CHILD_TIMEOUT_S, stdout=subprocess.PIPE, text=True
    )
    return json.loads(done.stdout)


def verdict(name: str, report: Dict[str, Any], args) -> List[str]:
    """Reasons this run is not correct (empty when it is)."""
    expected = PER_LAYER if args.trace else END_TO_END
    problems = []
    if report["failed"]:
        problems.append(f"{report['failed']} failed operations: {report['fail_reasons']}")
    if set(report["metrics"]) - set(expected):
        problems.append(f"undeclared metrics {sorted(set(report['metrics']) - set(expected))}")
    if not args.trace:
        missing = sorted(set(expected) - set(report["metrics"]))
        if missing:
            problems.append(f"missing metrics {missing}")
        recall = report["metrics"].get("recall_at_k", 0.0)
        guarded = name in RECALL_GUARDED and args.seed == DEFAULT_SEED and args.scale == "full"
        if guarded and not RECALL_BAND[0] <= recall <= RECALL_BAND[1]:
            problems.append(f"recall_at_k {recall:.4f} outside {RECALL_BAND}")
    return problems


def print_report(name: str, report: Dict[str, Any], metrics: Dict[str, Dict], args) -> None:
    fp = report["fingerprint"]
    print(f"== {name}  seed={args.seed}  scale={args.scale}  trace={args.trace}  "
          f"seconds={args.seconds}  git={git_sha()}")
    print(f"   kernels={fp['kernel_backend']} numba={fp['numba']} numpy={fp['numpy']} "
          f"blas={fp['blas']} python={fp['python']} nproc={fp['nproc']} "
          f"REPRO_*={fp['repro_env'] or 'scrubbed'} pins={fp['pins']}")
    print(f"   operations attempted={report['attempted']} failed={report['failed']} "
          f"{report['fail_reasons'] or ''}")
    for key, value in report["diag"].items():
        print(f"   ({key} = {value})")
    width = max(len(metric) for metric in metrics)
    for metric, entry in metrics.items():
        print(f"   {metric:<{width}}  {entry['value']:>14.6g} {entry['unit']}")
    if args.trace and name == "serve_mixed":
        print_served_breakdown(report)


def print_served_breakdown(report: Dict[str, Any]) -> None:
    """Where a served kNN's time goes, read off the traced metrics."""
    m, diag = report["metrics"], report["diag"]
    print("   -- one served kNN (open loop, batched requests, means unless noted):")
    print(f"      queue wait p50 {m['serving.queue_wait_ms_p50']:.2f} ms | serving self "
          f"{m['serving.self_ms_per_req']:.2f} ms | engine.run "
          f"{diag['open_loop_engine_run_ms_per_batch']:.2f} ms per batch "
          f"(latency from send p50 {diag['open_loop_latency_from_send_ms_p50']:.2f} ms)")
    run_ms = m["core.run_ms_per_query"]
    print("   -- one full 32-row batch (saturating bursts): engine.run "
          f"{m['engine.run_ms_per_batch']:.1f} ms = slowest shard + fan-out self "
          f"{m['engine.fanout_self_ms_per_batch']:.2f} ms (merge "
          f"{m['engine.merge_ms_per_batch']:.2f} ms), shard skew {m['engine.shard_skew']:.2f}")
    print(f"      inside a shard, per query: run {run_ms:.3f} ms = projection "
          f"{m['core.projection_ms_per_query'] / run_ms:.1%} + traversal "
          f"{m['pmtree.traversal_ms_per_query'] / run_ms:.1%} + verification "
          f"{m['kernels.verify_ms_per_query'] / run_ms:.1%} + probe loop "
          f"{m['core.self_ms_per_query'] / run_ms:.1%}")
    print(f"      process pool vs thread pool on the same batches: "
          f"{m['parallel.vs_thread_ratio']:.2f}x the time (thread "
          f"{diag['thread_round_ms_per_batch']:.1f} ms, process "
          f"{m['parallel.round_ms_per_batch']:.1f} ms per batch)")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--workload", choices=WORKLOADS, help="default: all four")
    parser.add_argument("--seconds", type=float, default=20.0, help="timed section per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const", const=1)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--out", help="also write the full reports as JSON here")
    parser.add_argument("--trace-out", help="write the spans of a traced run here (JSON lines)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"bench_e2e: no src/repro next to {HERE}; run it from a full checkout",
              file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else list(WORKLOADS)
    units = PER_LAYER if args.trace else END_TO_END
    reports: Dict[str, Dict[str, Any]] = {}
    merged: Dict[str, Dict[str, Any]] = {}
    problems: List[str] = []
    for name in names:
        try:
            report = run_workload(name, args)
        except subprocess.SubprocessError as exc:
            print(f"bench_e2e: {name}: {exc}", file=sys.stderr)
            return 1
        reports[name] = report
        values = {metric: 0.0 for metric in units} if args.trace else {}
        values.update(report["metrics"])
        metrics = {
            metric: {"value": values[metric], "unit": units[metric]}
            for metric in units if metric in values
        }
        print_report(name, report, metrics, args)
        problems += [f"{name}: {problem}" for problem in verdict(name, report, args)]
        prefix = "" if args.workload else f"{name}/"
        merged.update({prefix + metric: entry for metric, entry in metrics.items()})
    for problem in problems:
        print(f"bench_e2e: NOT CORRECT: {problem}", file=sys.stderr)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"git": git_sha(), "args": vars(args), "reports": reports}, handle, indent=1)
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": sum(report["attempted"] for report in reports.values()),
                "failed": sum(report["failed"] for report in reports.values()),
                "metrics": merged,
            }
        )
    )
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
