"""How many hash functions: the sweep behind ``repro.core.params``' rule.

PM-LSH's query cost is about n·m (the projected pass over every point)
plus β(m)·n·d (the candidate gather), and Eq. 10's β(m) falls fast as m
grows — so the best m depends on n.  This script measures quality and
speed over m at explicit values, on the four ``bench_e2e`` data shapes
(its generator, imported read-only) at several sizes and index seeds::

    PYTHONPATH=src python tools/m_sweep.py                  # the docs/tuning.md table
    PYTHONPATH=src python tools/m_sweep.py --n 800 5000 --seeds 3 --shapes batch_lowd

Per (shape, n, m) it reports recall@10 and the overall ratio (mean and
standard deviation over index seeds, 64 held-out queries each, exact
answers from ``repro.datasets.distance.chunked_knn``), ms per query for
one-row and 32-row ``search()`` calls, ``fit`` seconds and the traced
peak of ``fit``'s allocations.  The last column marks the cells that keep
the rule's constraint: recall no lower than m = 15's mean minus one
standard deviation, and ratio no higher than its mean plus one.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
import tracemalloc
from dataclasses import replace
from typing import Dict, List

# One BLAS thread, as bench_e2e pins it.  Before numpy loads.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from repro import PMLSH, PMLSHParams  # noqa: E402
from repro.core.params import hash_count_for  # noqa: E402
from repro.datasets.distance import chunked_knn  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench_e2e"))
import workloads  # noqa: E402

K = 10
QUERIES = 64
BLOCK = 32


def shape_data(name: str, max_n: int, seed: int):
    """``max_n`` points and ``QUERIES`` held-out queries of one bench shape."""
    spec = replace(workloads.SPECS[name], n=max_n, extra=0, queries=QUERIES)
    inputs = workloads.make_inputs(spec, seed)
    return inputs["data"], inputs["queries"]


def measure(data, queries, truth, m: int, seed: int, traced: bool) -> Dict[str, float]:
    """One index: quality, per-query time at 1 and 32 rows, fit cost."""
    index = PMLSH(params=PMLSHParams(m=m), seed=seed)
    if traced:
        tracemalloc.start()
    start = time.perf_counter()
    index.fit(data)
    setup = time.perf_counter() - start
    peak = tracemalloc.get_traced_memory()[1] / 2**20 if traced else float("nan")
    if traced:
        tracemalloc.stop()
    start = time.perf_counter()
    rows = [index.search(q[None, :], K) for q in queries]
    one_row = (time.perf_counter() - start) / len(queries) * 1e3
    start = time.perf_counter()
    for lo in range(0, len(queries), BLOCK):
        index.search(queries[lo : lo + BLOCK], K)
    block = (time.perf_counter() - start) / len(queries) * 1e3
    ids = np.vstack([result.ids for result in rows])
    dists = np.vstack([result.distances for result in rows])
    truth_ids, truth_dists = truth
    hits = (ids[:, :, None] == truth_ids[:, None, :]).any(axis=2).sum(axis=1)
    return {
        "recall": float(hits.mean() / K),
        "ratio": float(np.mean(dists / truth_dists)),
        "ms_1": one_row,
        "ms_32": block,
        "setup_s": setup,
        "fit_mb": peak,
    }


def summarize(cells: List[Dict[str, float]]) -> Dict[str, float]:
    out = {}
    for key in cells[0]:
        values = np.array([cell[key] for cell in cells])
        out[key] = float(np.nanmedian(values)) if key.startswith(("ms", "setup")) else float(np.nanmean(values))
        out[key + "_sd"] = float(np.std(values))
    return out


HEADER = (
    "| shape | n | m | β·n | recall | ratio | ms/q 1 row | ms/q 32 rows | fit s | fit peak MB | keeps |\n"
    "| --- | ---: | ---: | ---: | --- | --- | ---: | ---: | ---: | ---: | --- |"
)


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--shapes", nargs="+", default=["single_highd", "batch_lowd", "serve_mixed", "churn_rw"])
    parser.add_argument("--n", nargs="+", type=int, default=[800, 5_000, 25_000, 60_000, 100_000])
    parser.add_argument("--m", nargs="+", type=int, default=[15, 18, 20, 22, 24, 28])
    parser.add_argument("--seeds", type=int, default=10, help="index seeds per cell")
    parser.add_argument("--data-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if 15 not in args.m:
        parser.error("the constraint is relative to m = 15: include it in --m")
    print(HEADER)
    for name in args.shapes:
        data, queries = shape_data(name, max(args.n), args.data_seed)
        for n in args.n:
            points = data[:n]
            truth = chunked_knn(queries, points, K)
            stats = {}
            for m in args.m:
                cells = [
                    measure(points, queries, truth, m, seed, traced=seed == 0)
                    for seed in range(args.seeds)
                ]
                stats[m] = summarize(cells)
            base = stats[15]
            for m in args.m:
                cell = stats[m]
                keeps = (
                    cell["recall"] >= base["recall"] - base["recall_sd"]
                    and cell["ratio"] <= base["ratio"] + base["ratio_sd"]
                )
                beta = PMLSH(params=PMLSHParams(m=m)).solved.beta
                rule = " (rule)" if m == hash_count_for(n, PMLSHParams()) else ""
                print(
                    f"| {name} | {n} | {m}{rule} | {int(np.ceil(beta * n))} "
                    f"| {cell['recall']:.3f} ± {cell['recall_sd']:.3f} "
                    f"| {cell['ratio']:.4f} ± {cell['ratio_sd']:.4f} "
                    f"| {cell['ms_1']:.2f} | {cell['ms_32']:.2f} | {cell['setup_s']:.2f} "
                    f"| {cell['fit_mb']:.0f} | {'yes' if keeps else 'no'} |",
                    flush=True,
                )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
