"""Checks of the benchmark itself.  Run with ``pytest bench_e2e`` — it is
outside tier-1's ``testpaths`` on purpose (about a minute of smoke runs).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run as bench  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

import repro  # noqa: E402
from repro import kernels  # noqa: E402

#: Counts that must repeat exactly for one seed: they come from the
#: program's own ``BatchResult.stats`` and depend only on data and seed.
EXACT_COUNTS = (
    "core.candidates_per_query", "core.rounds_per_query", "core.budget",
    "pmtree.nodes_per_query", "pmtree.dist_comps_per_query",
)


def smoke(seed: int, trace: int):
    """One ``--scale smoke`` run of all four workloads; returns the final
    JSON line."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--scale", "smoke", "--seconds", "1",
         "--seed", str(seed), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced_runs():
    return {"first": smoke(3, 1), "again": smoke(3, 1), "other_seed": smoke(4, 1)}


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_benchmark_json_declares_what_the_code_emits():
    doc = declared()
    assert [w["name"] for w in doc["workloads"]] == list(bench.WORKLOADS) == list(workloads.SPECS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == bench.PER_LAYER
    assert bench.KERNELS == kernels.KERNEL_NAMES
    assert bench.DEFAULT_SEED == workloads.DEFAULT_SEED
    assert doc["paths"] == ["bench_e2e"] and doc["command"] == ["python3", "bench_e2e/run.py"]
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in doc["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])


def test_untraced_smoke_emits_every_end_to_end_metric():
    result = smoke(3, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    for name in bench.WORKLOADS:
        for metric, unit in bench.END_TO_END.items():
            entry = result["metrics"][f"{name}/{metric}"]
            assert entry["unit"] == unit and entry["value"] > 0, (name, metric, entry)


def test_traced_smoke_emits_every_per_layer_metric(traced_runs):
    result = traced_runs["first"]
    assert result["correct"] and result["failed"] == 0
    for name in bench.WORKLOADS:
        for metric, unit in bench.PER_LAYER.items():
            entry = result["metrics"][f"{name}/{metric}"]
            assert entry["unit"] == unit and np.isfinite(entry["value"]), (name, metric, entry)
    served = {m: result["metrics"][f"serve_mixed/{m}"]["value"] for m in bench.PER_LAYER}
    for layer in ("serving.queue_wait_ms_p50", "engine.run_ms_per_batch",
                  "parallel.round_ms_per_batch", "core.run_ms_per_query",
                  "pmtree.traversal_ms_per_query", "kernels.verify_ms_per_query"):
        assert served[layer] > 0, layer
    assert result["metrics"]["churn_rw/lifecycle.add_ms_per_kpts_aged"]["value"] > 0
    assert result["metrics"]["churn_rw/persistence.bytes_per_point"]["value"] > 0


def test_exact_counts_repeat_for_a_seed_and_move_with_it(traced_runs):
    first, again, other = (traced_runs[key]["metrics"] for key in ("first", "again", "other_seed"))
    for name in bench.WORKLOADS:
        for metric in EXACT_COUNTS:
            cell = f"{name}/{metric}"
            assert first[cell]["value"] == again[cell]["value"], cell
        moved = [m for m in EXACT_COUNTS if first[f"{name}/{m}"]["value"] != other[f"{name}/{m}"]["value"]]
        assert moved, f"{name}: no exact count depends on the seed"


def test_minor_faults_repeat(traced_runs):
    first, again = traced_runs["first"]["metrics"], traced_runs["again"]["metrics"]
    # Where each call maps fresh memory (the 32-row batch path) the fault
    # count is a property of the code, not of the host's mood.  At full
    # scale the temporaries are always mmap-ed and two runs agree within
    # 1 % (NOISE.md); at smoke scale some fall under glibc's sliding mmap
    # threshold, so allow 5 %.
    a = first["batch_lowd/proc.minor_faults_per_query"]["value"]
    b = again["batch_lowd/proc.minor_faults_per_query"]["value"]
    assert a > 100 and abs(a - b) <= 0.05 * max(a, b), (a, b)


def test_injected_tombstoned_id_is_a_failed_operation():
    spec = workloads.spec_for("churn_rw", "smoke")
    inputs = workloads.make_inputs(spec, 5)
    data, queries = inputs["data"], inputs["queries"][:8]
    index = repro.create_index("pm-lsh", seed=5).fit(data)
    clean = index.search(queries, workloads.K)
    dead = int(np.setdiff1d(np.arange(data.shape[0]), clean.ids.ravel())[0])
    index.delete(np.array([dead]))
    alive = np.ones(data.shape[0], dtype=bool)
    alive[dead] = False

    def tamper(result):
        result.ids[0, 0] = dead  # a deleted point surfaces in row 0
        return result

    proxy = tracing.Boundary(index, tracing.Spans(), "core.run", tamper=tamper)
    answer = proxy.search(queries, workloads.K)
    checker = worker.Checker()
    bad = checker.knn(queries, answer.ids, answer.distances, data, alive)
    assert checker.attempted == 8 and checker.failed == 1 and bad.tolist() == [True] + [False] * 7
    assert checker.reasons["dead_id"] == 1

    honest = worker.Checker()
    honest.knn(queries, *(lambda r: (r.ids, r.distances))(index.search(queries, workloads.K)), data, alive)
    assert honest.failed == 0


def test_smoke_inputs_are_frozen_for_the_default_seed():
    for name in workloads.SPECS:
        spec = workloads.spec_for(name, "smoke")
        found = workloads.digest(workloads.make_inputs(spec, workloads.DEFAULT_SEED))
        assert found == workloads.SHA256[(name, "smoke")], name
        assert found != workloads.digest(workloads.make_inputs(spec, workloads.DEFAULT_SEED + 1))


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench_e2e",
                    ignore=shutil.ignore_patterns(".cache", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench_e2e/run.py", "--workload", "single_highd", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170,
    )
    assert done.returncode != 0 and done.stdout.strip() == ""
