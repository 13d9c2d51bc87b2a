"""Where the PM-tree's leaf level should stop gathering and start streaming.

``FlatPMTree.batch_range`` answers its leaf level one of two ways: the
per-pair traversal (Eq. 5 member filters, then a gathered distance per
survivor) or the dense pass (blocked GEMM scores over the reached slot
range, exact re-scores only in the error bands).  Both return the same
matches; ``repro.pmtree.flat._DENSE_COVERAGE`` and ``_DENSE_LOAD_ROWS``
decide which from the share of ``rows × slots`` the reached leaves hold.
This script is where those two numbers come from::

    PYTHONPATH=src python tools/crossover.py                 # the docs/tuning.md table
    PYTHONPATH=src python tools/crossover.py --quick --check # CI: identity only, seconds

Every cell builds a PM-tree over a Gaussian projection of a clustered
dataset (256 tight clusters, so that small balls reach few leaves), at
the m and β a default PM-LSH index over n points runs at
(``repro.core.params.hash_count_for``), picks the radius whose ball holds the given quantile of the
points, and runs the same capped query block (``limits`` = ⌈βn⌉ + k,
``sort=False``, the way PM-LSH calls it) with the rule forced to "never"
and to "always".  ``sort=False`` returns no distances, so identity is
checked on what it does return: ``lims``, each query's id set, and the
exact projected distances of those ids (computed here, with the
traversal's own reduction).  Each cell is run a second time with the
data and queries shifted 10⁸ from the origin, where the dense pass's
error band swallows every slot and every decision falls to the exact
kernel.  Then it reports the coverage, both wall times, which side the
shipped rule takes and — beside the observed traversal-side distance
computations — what ``repro.costmodel.pm_tree_computation_cost``
predicts for them.

``--check`` exits non-zero unless every cell was identical on both data
placements and the shipped rule takes the faster side wherever the two
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
# here), which would be charged to the dense side.  Before numpy loads.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from repro.core.estimation import solve_parameters  # noqa: E402
from repro.core.hashing import GaussianProjection  # noqa: E402
from repro.core.params import PMLSHParams, hash_count_for  # noqa: E402
from repro.costmodel import pm_tree_computation_cost  # noqa: E402
from repro.datasets.distance import sample_distance_distribution  # noqa: E402
from repro.datasets.synthetic import gaussian_mixture  # noqa: E402
from repro.pmtree import flat as flat_module  # noqa: E402
from repro.pmtree.tree import PMTree  # noqa: E402

K = 10
#: Where every dense score is inside its error band.
FAR = 1e8


def operating_point(n: int):
    """``(m, β)`` of a default PM-LSH index over *n* points."""
    params = PMLSHParams()
    m = hash_count_for(n, params)
    return m, solve_parameters(m=m, c=params.c).beta


def build(n: int, capacity: int, seed: int, shift: float = 0.0):
    """A PM-tree over projected clustered data, plus 64 held-out queries.

    Shifted data is indexed without pivots: the pivot-distance matrix
    comes from the norm expansion with no error bound, so far from the
    origin the ring filters themselves drop true matches (ROADMAP,
    correctness) — a traversal fault, not the dense pass's."""
    points = gaussian_mixture(
        n + 64, 64, num_clusters=256, cluster_std=0.3, center_box=2.0, seed=seed
    )
    projected = GaussianProjection(64, operating_point(n)[0], seed=seed).project(points) + shift
    data, queries = np.ascontiguousarray(projected[:n]), projected[n:]
    tree = PMTree.build(data, num_pivots=0 if shift else 5, capacity=capacity, seed=seed)
    return tree, tree.flatten(), queries


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


def both_sides_exact(flat, block, radius: float, limits) -> bool:
    """One untimed call per side, each held to the brute-force capped ball."""
    expected = capped_ball(flat, block, radius, limits)
    return all(
        same_sets(run_side(flat, coverage, block, radius, limits, 1, 0.0)[0], expected)
        for coverage in (math.inf, 0.0)
    )


def quantile_radius(flat, queries: np.ndarray, quantile: float) -> float:
    """Radius whose ball holds *quantile* of the points, median over queries."""
    per_query = []
    for query in queries[:16]:  # one (n, m) temporary at a time
        diff = flat.points - query
        per_query.append(np.quantile(np.sqrt(np.einsum("ij,ij->i", diff, diff)), quantile))
    return float(np.median(per_query))


def run_side(flat, coverage: float, block, radius, limits, repeats: int, min_seconds: float):
    """``batch_range`` with the rule pinned (0 = always dense, inf =
    never); best wall time of at least *repeats* calls and *min_seconds*
    of them — a 0.2 ms call needs hundreds of tries for a steady minimum."""
    saved = flat_module._DENSE_COVERAGE
    flat_module._DENSE_COVERAGE = coverage
    try:
        best, spent, calls = math.inf, 0.0, 0
        while calls < repeats or spent < min_seconds:
            start = time.perf_counter()
            out = flat.batch_range(block, radius, limits=limits, sort=False)
            elapsed = time.perf_counter() - start
            best, spent, calls = min(best, elapsed), spent + elapsed, calls + 1
    finally:
        flat_module._DENSE_COVERAGE = saved
    return out, best


def shipped_choice(flat, block, radius, limits):
    """One call under the shipped rule: the coverage ``_expand_leaves``
    decided on and whether it took the dense side."""
    seen = {"coverage": 0.0, "dense": False}
    expand, dense = flat._expand_leaves, flat._dense_leaves

    def spy_expand(queries, rings, radius_, lower, limits_, lq, lnode, *rest):
        starts, ends = flat.span_start[lnode], flat.span_end[lnode]
        slots = int(ends.max() - starts.min())
        seen["coverage"] = int((ends - starts).sum()) / (np.unique(lq).size * slots)
        return expand(queries, rings, radius_, lower, limits_, lq, lnode, *rest)

    def spy_dense(*args):
        seen["dense"] = True
        return dense(*args)

    flat._expand_leaves, flat._dense_leaves = spy_expand, spy_dense
    try:
        flat.batch_range(block, radius, limits=limits, sort=False)
    finally:
        del flat._expand_leaves, flat._dense_leaves
    return seen["coverage"], seen["dense"]


def cells(sizes, capacities, quantiles, row_counts, repeats, min_seconds, seed) -> Iterator[dict]:
    for n in sizes:
        for capacity in capacities:
            budget = int(math.ceil(operating_point(n)[1] * n)) + K
            tree, flat, queries = build(n, capacity, seed)
            distribution = sample_distance_distribution(flat.points, num_pairs=20000, seed=seed)
            measured = []
            for quantile in quantiles:
                radius = quantile_radius(flat, queries, quantile)
                predicted = pm_tree_computation_cost(tree, distribution, radius)
                for rows in row_counts:
                    block = queries[:rows]
                    limits = np.full(rows, budget, dtype=np.int64)
                    coverage, picks_dense = shipped_choice(flat, block, radius, limits)
                    slow, traversal_s = run_side(
                        flat, math.inf, block, radius, limits, repeats, min_seconds
                    )
                    fast, dense_s = run_side(flat, 0.0, block, radius, limits, repeats, min_seconds)
                    expected = capped_ball(flat, block, radius, limits)
                    measured.append({
                        "n": n,
                        "capacity": capacity,
                        "quantile": quantile,
                        "rows": rows,
                        "coverage": coverage,
                        "picks_dense": picks_dense,
                        "traversal_ms": traversal_s / rows * 1e3,
                        "dense_ms": dense_s / rows * 1e3,
                        "identical": slow[0].tobytes() == fast[0].tobytes()
                        and same_sets(slow, expected)
                        and same_sets(fast, expected),
                        "observed_dc": float(slow[3].dist_comps.mean()),
                        "predicted_dc": predicted,
                    })
            # The same cells far from the origin (one tree at a time in memory).
            del tree, flat
            _, far, far_queries = build(n, capacity, seed, shift=FAR)
            for cell in measured:
                radius = quantile_radius(far, far_queries, cell["quantile"])
                limits = np.full(cell["rows"], budget, dtype=np.int64)
                cell["identical_far"] = both_sides_exact(
                    far, far_queries[: cell["rows"]], radius, limits
                )
                yield cell
            del far


HEADER = (
    "| n | cap | rows | ball | coverage | traversal ms/q | dense ms/q | dense/trav "
    "| rule takes | dist comps obs. | predicted | pred/obs |\n"
    "| ---: | ---: | ---: | ---: | ---: | ---: | ---: | ---: | --- | ---: | ---: | ---: |"
)


def row(cell: dict) -> str:
    return (
        f"| {cell['n']} | {cell['capacity']} | {cell['rows']} | {cell['quantile']:.2%} "
        f"| {cell['coverage']:.3f} | {cell['traversal_ms']:.3f} | {cell['dense_ms']:.3f} "
        f"| {cell['dense_ms'] / cell['traversal_ms']:.2f} "
        f"| {'dense' if cell['picks_dense'] else 'traversal'} | {cell['observed_dc']:.0f} "
        f"| {cell['predicted_dc']:.0f} | {cell['predicted_dc'] / max(cell['observed_dc'], 1.0):.2f} |"
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
        f"_DENSE_COVERAGE = {flat_module._DENSE_COVERAGE}, "
        f"_DENSE_LOAD_ROWS = {flat_module._DENSE_LOAD_ROWS}, "
        "(m, β) per n: "
        + ", ".join(f"{n}: ({m}, {beta:.3f})" for n in sizes for m, beta in [operating_point(n)])
    )
    print(HEADER)
    grid = ([16, 128], [0.0001, 0.001, 0.01, 0.1], [1, 32])
    for cell in cells(sizes, *grid, repeats, min_seconds, args.seed):
        print(row(cell), flush=True)
        label = "n={n} cap={capacity} rows={rows} ball={quantile}".format(**cell)
        if not cell["identical"]:
            failures.append(f"{label}: dense and traversal results differ")
        if not cell["identical_far"]:
            failures.append(f"{label}: far from the origin, a side misses the capped ball")
        if args.quick:
            continue
        ratio = cell["dense_ms"] / cell["traversal_ms"]
        if cell["picks_dense"] and ratio > 1.0 + args.margin:
            failures.append(f"{label}: takes dense, traversal is {ratio:.2f}x faster")
        if not cell["picks_dense"] and ratio < 1.0 / (1.0 + args.margin):
            failures.append(f"{label}: takes traversal, dense is {1 / ratio:.2f}x faster")
    for failure in failures:
        print("FAIL", failure, file=sys.stderr)
    return 1 if (args.check and failures) else 0


if __name__ == "__main__":
    raise SystemExit(main())
