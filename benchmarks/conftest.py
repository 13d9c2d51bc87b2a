"""Shared benchmark fixtures.

Scale knobs (environment variables, or the ``--n``/``--queries``/
``--seed``/``--out`` flags when a bench runs as a script — see
:mod:`_cli`):

* ``REPRO_BENCH_N`` — points per emulated dataset (default 2000).
* ``REPRO_BENCH_QUERIES`` — queries per workload (default 15).
* ``REPRO_BENCH_SEED`` — master seed offset added to every bench RNG
  stream (unset: each bench's built-in seeds).
* ``REPRO_BENCH_OUT`` — directory for the result tables (default
  ``results/`` at the repo root).
* ``REPRO_BENCH_JSON`` — when ``1`` (the ``--json`` flag), each bench
  also writes a machine-readable ``BENCH_<name>.json`` next to its table.
* ``REPRO_BENCH_METRICS_OUT`` — a file path (the ``--metrics-out``
  flag): benches that build a metrics registry dump it there in
  Prometheus text format on completion.
* ``REPRO_BENCH_TRACE_SAMPLE`` — head-sampling rate for per-request
  trace spans in serving benches (the ``--trace-sample`` flag; default 0).

Every bench writes its paper-style table to ``<out>/<bench>.txt`` and
registers at least one timed region with pytest-benchmark, so
``pytest benchmarks/ --benchmark-only`` both regenerates the tables and
reports timings.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path
from typing import Callable, Dict, Optional

# Script mode (`python benchmarks/bench_X.py`): make `repro` importable
# exactly as under `PYTHONPATH=src` before anything pulls it in, and the
# repo root too, for the paper benches' per-pair counts from the
# pointer-tree oracle (`tests.oracles`).  Bench modules import conftest
# *first* so this runs ahead of their own imports.
_ROOT = Path(__file__).resolve().parent.parent
for _path in (_ROOT / "src", _ROOT):
    if _path.is_dir() and str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from repro import PMLSHParams, create_index  # noqa: E402
from repro.datasets import Workload, load_dataset  # noqa: E402
from repro.evaluation import GroundTruth, compute_ground_truth  # noqa: E402

try:
    import pytest_benchmark  # noqa: F401
except ImportError:
    # Script mode without the plugin: a no-op stand-in keeps every bench
    # runnable (`--benchmark-disable` semantics, minus the plugin).
    class _NoOpBenchmark:
        def __call__(self, fn, *args, **kwargs):
            return fn(*args, **kwargs)

        def pedantic(self, fn, args=(), kwargs=None, rounds=1, iterations=1):
            return fn(*args, **(kwargs or {}))

    @pytest.fixture
    def benchmark():
        return _NoOpBenchmark()

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


def bench_n() -> int:
    return int(os.environ.get("REPRO_BENCH_N", "2000"))


def bench_queries() -> int:
    return int(os.environ.get("REPRO_BENCH_QUERIES", "15"))


def bench_seed(default: int) -> int:
    """Seed for one benchmark RNG stream.

    ``REPRO_BENCH_SEED`` (the ``--seed`` flag) shifts every stream by the
    same master offset — the whole run stays reproducible under one knob
    while distinct streams (dataset, index, queries) remain decorrelated
    because their built-in defaults differ.
    """
    base = os.environ.get("REPRO_BENCH_SEED")
    return default if base is None else default + int(base)


@pytest.fixture(scope="session")
def results_dir() -> Path:
    out = Path(os.environ.get("REPRO_BENCH_OUT", str(RESULTS_DIR)))
    out.mkdir(parents=True, exist_ok=True)
    return out


@pytest.fixture(scope="session")
def write_result(results_dir: Path) -> Callable[[str, str], None]:
    def _write(name: str, text: str) -> None:
        path = results_dir / f"{name}.txt"
        path.write_text(text)
        print()
        print(text)

    return _write


def bench_trace_sample() -> float:
    """Head-sampling rate for serving benches (``--trace-sample``)."""
    return float(os.environ.get("REPRO_BENCH_TRACE_SAMPLE", "0"))


@pytest.fixture(scope="session")
def write_json(results_dir: Path) -> Callable[[str, dict], Optional[Path]]:
    """Write ``BENCH_<name>.json`` when ``--json`` / ``REPRO_BENCH_JSON`` is set.

    Returns the written path, or ``None`` when JSON output is off — every
    bench calls this unconditionally with its headline numbers.
    """

    def _write(name: str, payload: dict) -> Optional[Path]:
        if os.environ.get("REPRO_BENCH_JSON") != "1":
            return None
        path = results_dir / f"BENCH_{name}.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"\nwrote {path}")
        return path

    return _write


def write_metrics(registry) -> Optional[Path]:
    """Dump *registry* to ``REPRO_BENCH_METRICS_OUT`` (``--metrics-out``).

    Prometheus text exposition format; parent directories are created.
    Returns the written path, or ``None`` when the knob is unset.
    """
    out = os.environ.get("REPRO_BENCH_METRICS_OUT")
    if not out:
        return None
    path = Path(out)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(registry.to_prometheus())
    print(f"\nwrote {path}")
    return path


class WorkloadCache:
    """Builds each emulated workload and its ground truth at most once."""

    def __init__(self) -> None:
        self._workloads: Dict[str, Workload] = {}
        self._ground_truth: Dict[tuple, GroundTruth] = {}

    def workload(self, name: str, n: int | None = None) -> Workload:
        size = n if n is not None else bench_n()
        key = f"{name}:{size}"
        if key not in self._workloads:
            self._workloads[key] = load_dataset(
                name, n=size, num_queries=bench_queries(), seed=bench_seed(1)
            )
        return self._workloads[key]

    def ground_truth(self, name: str, k_max: int, n: int | None = None) -> GroundTruth:
        size = n if n is not None else bench_n()
        key = (name, size, k_max)
        if key not in self._ground_truth:
            wl = self.workload(name, n=size)
            self._ground_truth[key] = compute_ground_truth(wl.data, wl.queries, k_max)
        return self._ground_truth[key]


@pytest.fixture(scope="session")
def cache() -> WorkloadCache:
    return WorkloadCache()


#: Factory per §6.1 competitor, keyed by the paper's algorithm name.  Each
#: factory constructs through the registry and returns a *fitted* index, so
#: adding a contender is one (registry name, constructor kwargs) line.
def algorithm_factories(
    c: float = 1.5, node_capacity: int = 128
) -> Dict[str, Callable[[np.ndarray], object]]:
    params = PMLSHParams(c=c, node_capacity=node_capacity)
    specs: Dict[str, tuple] = {
        "PM-LSH": ("pm-lsh", {"params": params, "seed": bench_seed(7)}),
        "SRS": ("srs", {"c": c, "seed": bench_seed(7)}),
        "QALSH": ("qalsh", {"c": c, "seed": bench_seed(7)}),
        "Multi-Probe": ("multi-probe", {"seed": bench_seed(7)}),
        "R-LSH": ("r-lsh", {"params": params, "seed": bench_seed(7)}),
        "LScan": ("lscan", {"portion": 0.7, "seed": bench_seed(7)}),
    }
    return {
        label: (
            lambda data, name=name, kwargs=kwargs: create_index(name, **kwargs).fit(data)
        )
        for label, (name, kwargs) in specs.items()
    }
