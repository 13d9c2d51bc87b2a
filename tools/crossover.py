"""How the PM-tree's leaf pass reads the reached leaves: a view or a gather.

``FlatPMTree.batch_range`` scores the leaves its inner levels reached in
one dense pass per call (blocked GEMM scores, exact re-scores only in the
error bands).  Their slot spans, merged where adjacent, form runs; the
pass scores a *view* of the slot range from the first run to the last
when the runs fill at least ``repro.pmtree.flat._VIEW_FILL`` of it, and
a *gather* of just the runs' rows below.  Both return the same matches.
This script is where that one number is checked::

    PYTHONPATH=src python tools/crossover.py                 # the docs/tuning.md table
    PYTHONPATH=src python tools/crossover.py --quick --check # CI: identity only, seconds

Every cell builds a PM-tree over a Gaussian projection of a clustered
dataset (256 tight clusters, so that small balls reach few leaves), at
the m and β a default PM-LSH index over n points runs at
(``repro.core.params.hash_count_for``), picks the radius whose ball
holds the given quantile of the points, and runs the same capped query
block (``limits`` = ⌈βn⌉ + k, ``sort=False``, the way PM-LSH calls it)
with the rule forced to "view" and to "gather".  ``sort=False`` returns
no distances, so identity is checked on what it does return: ``lims``
and each query's id set, held to the brute-force capped ball (exact
projected distances computed here, with the traversal's own reduction).
Each cell is run a second time with the data and queries shifted 10⁸
from the origin, where the pass's error band swallows every slot and
every decision falls to the exact kernel.  Then it reports how many runs
the reached leaves form and what share of their range they fill, both
wall times and which input the shipped rule takes.

``--check`` exits non-zero unless every cell was identical on both data
placements and the shipped rule takes the faster input wherever the two
differ by more than ``--margin`` (``--quick`` times nothing worth
judging: identity is its gate).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from typing import Iterator, List

# One BLAS thread, as bench_e2e pins it: on a shared host OpenBLAS's thread
# hand-off stalls small GEMMs for a scheduler tick (16 ms on a 32 x 5k block
# here), which would be charged to whichever input was timed.  Before
# numpy loads.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from repro.core.estimation import solve_parameters  # noqa: E402
from repro.core.hashing import GaussianProjection  # noqa: E402
from repro.core.params import PMLSHParams, hash_count_for  # noqa: E402
from repro.datasets.synthetic import gaussian_mixture  # noqa: E402
from repro.pmtree import flat as flat_module  # noqa: E402
from repro.pmtree.tree import PMTree  # noqa: E402

K = 10
#: Where every dense score is inside its error band.
FAR = 1e8
#: ``_VIEW_FILL`` values that force each input.
FORCE = {"view": 0.0, "gather": math.inf}


def operating_point(n: int):
    """``(m, β)`` of a default PM-LSH index over *n* points."""
    params = PMLSHParams()
    m = hash_count_for(n, params)
    return m, solve_parameters(m=m, c=params.c).beta


def build(n: int, capacity: int, seed: int, shift: float = 0.0):
    """A flat PM-tree over projected clustered data, plus 64 held-out queries."""
    points = gaussian_mixture(
        n + 64, 64, num_clusters=256, cluster_std=0.3, center_box=2.0, seed=seed
    )
    projected = GaussianProjection(64, operating_point(n)[0], seed=seed).project(points) + shift
    data, queries = np.ascontiguousarray(projected[:n]), projected[n:]
    return PMTree.build(data, num_pivots=5, capacity=capacity, seed=seed).flatten(), queries


def capped_ball(flat, block, radius: float, limits) -> List[np.ndarray]:
    """Each query's ``limits[i]`` closest points within *radius*, by
    ``(distance, id)``, by brute force with the traversal's reduction —
    the exact projected distances the ``sort=False`` results are held to."""
    expected = []
    for query, limit in zip(block, limits):
        diff = flat.points - query
        dists = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        inside = np.flatnonzero(dists <= radius)
        order = np.lexsort((inside, dists[inside]))
        expected.append(np.sort(inside[order][:limit]))
    return expected


def same_sets(result, expected) -> bool:
    """``sort=False`` output: per-query id sets equal to *expected*."""
    lims, ids = result[0], result[1]
    return all(
        np.sort(ids[lims[i] : lims[i + 1]]).tobytes() == want.tobytes()
        for i, want in enumerate(expected)
    )


def both_inputs_exact(flat, block, radius: float, limits) -> bool:
    """One untimed call per input, each held to the brute-force capped ball."""
    expected = capped_ball(flat, block, radius, limits)
    return all(
        same_sets(run_input(flat, side, block, radius, limits, 1, 0.0)[0], expected)
        for side in FORCE
    )


def quantile_radius(flat, queries: np.ndarray, quantile: float) -> float:
    """Radius whose ball holds *quantile* of the points, median over queries."""
    per_query = []
    for query in queries[:16]:  # one (n, m) temporary at a time
        diff = flat.points - query
        per_query.append(np.quantile(np.sqrt(np.einsum("ij,ij->i", diff, diff)), quantile))
    return float(np.median(per_query))


def run_input(flat, side: str, block, radius, limits, repeats: int, min_seconds: float):
    """``batch_range`` with the rule pinned to *side*; best wall time of at
    least *repeats* calls and *min_seconds* of them — a 0.2 ms call needs
    hundreds of tries for a steady minimum."""
    saved = flat_module._VIEW_FILL
    flat_module._VIEW_FILL = FORCE[side]
    try:
        best, spent, calls = math.inf, 0.0, 0
        while calls < repeats or spent < min_seconds:
            start = time.perf_counter()
            out = flat.batch_range(block, radius, limits=limits, sort=False)
            elapsed = time.perf_counter() - start
            best, spent, calls = min(best, elapsed), spent + elapsed, calls + 1
    finally:
        flat_module._VIEW_FILL = saved
    return out, best


def shipped_choice(flat, block, radius, limits):
    """The runs the reached leaves form (the slots a forced gather scores),
    the share of their range they fill, and the input the shipped rule
    took — ``"none"`` when the block reached no leaf."""
    slots = []
    dense = flat._dense_leaves

    def spy(*args):
        slots.append(args[5])
        return dense(*args)

    flat._dense_leaves = spy
    try:
        flat.batch_range(block, radius, limits=limits, sort=False)
        run_input(flat, "gather", block, radius, limits, 1, 0.0)
    finally:
        del flat._dense_leaves
    if not slots:
        return 0, 0.0, "none"
    shipped, runs = slots
    fill = runs.size / (int(runs[-1]) + 1 - int(runs[0]))
    takes = "view" if isinstance(shipped, slice) else "gather"
    return 1 + int(np.count_nonzero(np.diff(runs) != 1)), fill, takes


def cells(sizes, capacities, quantiles, row_counts, repeats, min_seconds, seed) -> Iterator[dict]:
    for n in sizes:
        for capacity in capacities:
            budget = int(math.ceil(operating_point(n)[1] * n)) + K
            flat, queries = build(n, capacity, seed)
            measured = []
            for quantile in quantiles:
                radius = quantile_radius(flat, queries, quantile)
                for rows in row_counts:
                    block = queries[:rows]
                    limits = np.full(rows, budget, dtype=np.int64)
                    runs, fill, takes = shipped_choice(flat, block, radius, limits)
                    viewed, view_s = run_input(
                        flat, "view", block, radius, limits, repeats, min_seconds
                    )
                    gathered, gather_s = run_input(
                        flat, "gather", block, radius, limits, repeats, min_seconds
                    )
                    expected = capped_ball(flat, block, radius, limits)
                    measured.append({
                        "n": n,
                        "capacity": capacity,
                        "quantile": quantile,
                        "rows": rows,
                        "runs": runs,
                        "fill": fill,
                        "takes": takes,
                        "view_ms": view_s / rows * 1e3,
                        "gather_ms": gather_s / rows * 1e3,
                        "identical": viewed[0].tobytes() == gathered[0].tobytes()
                        and same_sets(viewed, expected)
                        and same_sets(gathered, expected),
                    })
            # The same cells far from the origin (one tree at a time in memory).
            del flat
            far, far_queries = build(n, capacity, seed, shift=FAR)
            for cell in measured:
                radius = quantile_radius(far, far_queries, cell["quantile"])
                limits = np.full(cell["rows"], budget, dtype=np.int64)
                cell["identical_far"] = both_inputs_exact(
                    far, far_queries[: cell["rows"]], radius, limits
                )
                yield cell
            del far


HEADER = (
    "| n | cap | rows | ball | runs | fill | view ms/q | gather ms/q | gather/view "
    "| rule takes |\n"
    "| ---: | ---: | ---: | ---: | ---: | ---: | ---: | ---: | ---: | --- |"
)


def row(cell: dict) -> str:
    return (
        f"| {cell['n']} | {cell['capacity']} | {cell['rows']} | {cell['quantile']:.2%} "
        f"| {cell['runs']} | {cell['fill']:.3f} | {cell['view_ms']:.3f} "
        f"| {cell['gather_ms']:.3f} | {cell['gather_ms'] / cell['view_ms']:.2f} "
        f"| {cell['takes']} |"
    )


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--quick", action="store_true", help="n = 5k: identity only")
    parser.add_argument("--check", action="store_true", help="exit 1 on a mismatch or a wrong pick")
    parser.add_argument("--margin", type=float, default=0.4, help="timing ratio treated as a tie")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    sizes = [5_000] if args.quick else [5_000, 25_000, 100_000, 400_000]
    repeats, min_seconds = (3, 0.0) if args.quick else (5, 0.1)
    failures: List[str] = []
    print(
        f"_VIEW_FILL = {flat_module._VIEW_FILL}, (m, β) per n: "
        + ", ".join(f"{n}: ({m}, {beta:.3f})" for n in sizes for m, beta in [operating_point(n)])
    )
    print(HEADER)
    grid = ([16, 128], [0.0001, 0.001, 0.01, 0.1], [1, 32])
    for cell in cells(sizes, *grid, repeats, min_seconds, args.seed):
        print(row(cell), flush=True)
        label = "n={n} cap={capacity} rows={rows} ball={quantile}".format(**cell)
        if not cell["identical"]:
            failures.append(f"{label}: view and gather results differ")
        if not cell["identical_far"]:
            failures.append(f"{label}: far from the origin, an input misses the capped ball")
        if args.quick:
            continue
        ratio = cell["gather_ms"] / cell["view_ms"]
        if cell["takes"] == "view" and ratio < 1.0 / (1.0 + args.margin):
            failures.append(f"{label}: takes view, gather is {1 / ratio:.2f}x faster")
        if cell["takes"] == "gather" and ratio > 1.0 + args.margin:
            failures.append(f"{label}: takes gather, view is {ratio:.2f}x faster")
    for failure in failures:
        print("FAIL", failure, file=sys.stderr)
    return 1 if (args.check and failures) else 0


if __name__ == "__main__":
    raise SystemExit(main())
