"""Frozen inputs of bench_e2e: workload specs, the seeded generator, the
scripted operation plans and the exact ground truth.

NumPy only — nothing here imports ``repro``, so the program under test
receives generated arrays and nothing else.  The generator uses only
``Generator.random`` / ``integers`` / ``permutation`` and elementwise
float arithmetic (no BLAS, no libm), so one seed yields the same bytes on
any IEEE-754 host; ``SHA256`` pins them for the default seed.

Run as a script this file is the *ground-truth helper*: a separate
process that regenerates a workload's inputs, answers every scripted
query by chunked brute force and stores the result in a cache file, so
the measured process never spends time or memory on it.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from dataclasses import dataclass, replace
from typing import Dict, Iterator, List, Tuple

import numpy as np

K = 10
DEFAULT_SEED = 0
#: Rows per batched ``search()`` call and the server's ``max_batch``.
BATCH_ROWS = 32


@dataclass(frozen=True)
class Spec:
    """One workload: data shape, generator parameters, script sizes."""

    name: str
    n: int
    d: int
    #: Generator parameters, tuned so recall@10 at registry defaults is
    #: unsaturated (see README "Workloads"); frozen — changing one changes
    #: every number the benchmark has ever reported.
    intrinsic: int
    clusters: int
    spread: float
    noise: float
    fan: int
    #: Distinct held-out queries the script draws from.
    queries: int
    #: Extra points (same distribution) that ``churn_rw`` adds.
    extra: int = 0

    @property
    def rows(self) -> int:
        return self.n + self.extra + self.queries


# serve_mixed script constants ------------------------------------------------
#: Phase A: bursts of never-repeated queries through ``submit_many``;
#: burst 0 is warm-up, at least MIN_BURSTS timed ones always run.
BURST_ROWS = 96
MAX_BURSTS = 8
MIN_BURSTS = 3
#: Phase B: open-loop Poisson arrivals at a fixed rate, about a quarter of
#: the phase-A capacity measured on the 2-core reference host (≈ 47 q/s).
#: At 20 req/s a 10 % slower host moved lat_p90 by 20-35 % (the queue
#: amplifies it); at this rate most requests find the engine idle.
OPEN_RATE = 12.0
MAX_OPEN = 720
HOT_QUERIES = 64
HOT_SHARE = 0.3
#: Share of ``--seconds`` given to phase A; phase B gets the rest.
PHASE_A_SHARE = 0.4
#: Open-loop requests per latency pass (consecutive arrivals, ~2 s).
OPEN_GROUP = 24

# churn_rw script constants ---------------------------------------------------
#: One era = CYCLES x {add, delete, one-row searches}, one 32-row search,
#: compact().  Eras are identical in size, so they are the "passes".
MAX_ERAS = 12
#: Eras every run completes whatever ``--seconds`` says; recall and ratio
#: are taken over exactly these, so they repeat bit for bit per seed.
MIN_ERAS = 4
CYCLES = 2
CHURN_POINTS = 500
CHURN_SINGLES = 30
PERSIST_ROWS = 32
ERA_QUERIES = CYCLES * CHURN_SINGLES + BATCH_ROWS

SPECS: Dict[str, Spec] = {
    spec.name: spec
    for spec in (
        Spec(
            name="single_highd",
            n=100_000, d=128, intrinsic=48, clusters=8, spread=2.0, noise=0.1, fan=4,
            queries=600,
        ),
        Spec(
            name="batch_lowd",
            n=100_000, d=32, intrinsic=32, clusters=8, spread=1.0, noise=0.1, fan=1,
            queries=16 * BATCH_ROWS,
        ),
        Spec(
            name="serve_mixed",
            n=100_000, d=96, intrinsic=48, clusters=8, spread=2.0, noise=0.1, fan=4,
            queries=MAX_BURSTS * BURST_ROWS + MAX_OPEN + HOT_QUERIES,
        ),
        Spec(
            name="churn_rw",
            n=60_000, d=64, intrinsic=40, clusters=8, spread=2.0, noise=0.1, fan=4,
            queries=MAX_ERAS * ERA_QUERIES + PERSIST_ROWS,
            extra=MAX_ERAS * CYCLES * CHURN_POINTS,
        ),
    )
}

#: ``--scale smoke`` divides the data size (scripts keep their shape).
SMOKE_DIVISOR = 25

#: SHA-256 over data+extra+query bytes at DEFAULT_SEED, per (workload, scale).
SHA256: Dict[Tuple[str, str], str] = {
    ("single_highd", "full"): "a3f9efb6f7b7bdd385466c973e4ed9d6fa63f2d407c71be434ea237d937de4e7",
    ("batch_lowd", "full"): "bf8e363cd09849de4e281590dc8a3beb171e55a0d30c3cd4b7b02b50e2ef63c2",
    ("serve_mixed", "full"): "666df0a391e881c596ca5d4155d736dee71a7468b321356cad99925743cb80dc",
    ("churn_rw", "full"): "6002fb2b1f00e9019d939a3c9ae05882307462e19934cc4c8b85d3d50eadb74d",
    ("single_highd", "smoke"): "6f3409578d850206c86a2b7b20f2a710d3bb4296cc7400a667a30bbe0c1f7569",
    ("batch_lowd", "smoke"): "1794c3495391c3c11fc47c328ed2ab7ea7542ed5133933a0634dd312d3b16835",
    ("serve_mixed", "smoke"): "32ea81c4351fe3e9775db9500240d0def0b1f808d36ea7d826cbaba578bde58e",
    ("churn_rw", "smoke"): "f56afcd7c0b5382f3e7da6bea6b7e745f901422b21db94088bbf03b27ce5b3be",
}


def spec_for(name: str, scale: str) -> Spec:
    spec = SPECS[name]
    if scale == "smoke":
        return replace(spec, n=spec.n // SMOKE_DIVISOR)
    if scale != "full":
        raise ValueError(f"unknown scale {scale!r}")
    return spec


# ---------------------------------------------------------------------------
# the generator
# ---------------------------------------------------------------------------


def manifold_mixture(rng: np.random.Generator, rows: int, spec: Spec) -> np.ndarray:
    """``rows`` points from a mixture of ``clusters`` linear manifolds.

    Each cluster is a uniform cube of ``intrinsic`` unit-variance latent
    coordinates pushed into R^d by a sparse mixing map (every ambient
    coordinate is a unit-norm signed combination of ``fan`` latent ones),
    shifted by a cluster centre, plus small uniform ambient noise.
    Cluster sizes are equal and labels are shuffled, so striping rows
    over shards spreads every cluster evenly.
    """
    d, intrinsic = spec.d, spec.intrinsic
    centers = (rng.random((spec.clusters, d)) - 0.5) * spec.spread
    labels = rng.permutation(np.arange(rows) % spec.clusters)
    out = np.empty((rows, d), dtype=np.float64)
    for cluster in range(spec.clusters):
        members = np.flatnonzero(labels == cluster)
        latent = (rng.random((members.size, intrinsic)) - 0.5) * np.sqrt(12.0)
        source = rng.integers(0, intrinsic, size=(spec.fan, d))
        source[0] = rng.permutation(np.arange(d) % intrinsic)  # every latent used
        weight = rng.random((spec.fan, d)) * 2.0 - 1.0
        weight /= np.sqrt((weight * weight).sum(axis=0))
        block = latent[:, source[0]] * weight[0]
        for term in range(1, spec.fan):
            block += latent[:, source[term]] * weight[term]
        block += centers[cluster]
        out[members] = block
    for start in range(0, rows, 8192):  # bounded temporaries
        chunk = out[start : start + 8192]
        chunk += (rng.random(chunk.shape) - 0.5) * spec.noise
    return out


def make_inputs(spec: Spec, seed: int) -> Dict[str, np.ndarray]:
    """The workload's arrays: ``data`` (n, d), ``extra`` and ``queries``."""
    rng = np.random.default_rng([int(seed), sum(spec.name.encode())])
    points = manifold_mixture(rng, spec.rows, spec)
    return {
        "data": points[: spec.n],
        "extra": points[spec.n : spec.n + spec.extra],
        "queries": points[spec.n + spec.extra :],
    }


def digest(inputs: Dict[str, np.ndarray]) -> str:
    sha = hashlib.sha256()
    for key in ("data", "extra", "queries"):
        sha.update(np.ascontiguousarray(inputs[key]).tobytes())
    return sha.hexdigest()


# ---------------------------------------------------------------------------
# scripted plans (pure bookkeeping: no index, no distances)
# ---------------------------------------------------------------------------


def open_loop_plan(seed: int, seconds: float) -> Tuple[np.ndarray, np.ndarray]:
    """Phase B of ``serve_mixed``: ``(query rows, due times in s)``.

    Rows index the workload's query pool *after* the phase-A block: the
    first ``HOT_QUERIES`` rows there are the hot set, the rest are cold
    queries used once each, in order.
    """
    count = min(MAX_OPEN, max(32, int(round(OPEN_RATE * (1.0 - PHASE_A_SHARE) * seconds))))
    rng = np.random.default_rng([int(seed), 11])
    hot = rng.random(MAX_OPEN) < HOT_SHARE
    hot_pick = rng.integers(0, HOT_QUERIES, size=MAX_OPEN)
    cold_pick = HOT_QUERIES + np.cumsum(~hot) - 1
    rows = MAX_BURSTS * BURST_ROWS + np.where(hot, hot_pick, cold_pick)
    due = np.cumsum(-np.log1p(-rng.random(MAX_OPEN)) / OPEN_RATE)
    return rows[:count], due[:count]


def churn_steps(spec: Spec, seed: int) -> Iterator[Tuple]:
    """The ``churn_rw`` script as steps, with the id bookkeeping done here.

    Yields ``("add", lo, hi)`` (rows of ``extra``; ids continue from
    ntotal), ``("delete", ids)`` (seeded draw from the live ids),
    ``("search", lo, hi, rows_per_call)`` (rows of ``queries``),
    ``("compact",)`` (dense renumbering in id order) and ``("era",)``
    after each era.  Both the measured process and the ground-truth
    helper replay exactly this sequence.
    """
    rng = np.random.default_rng([int(seed), 7])
    alive = np.ones(spec.n, dtype=bool)
    added = asked = 0
    for _ in range(MAX_ERAS):
        for _ in range(CYCLES):
            yield ("add", added, added + CHURN_POINTS)
            added += CHURN_POINTS
            alive = np.concatenate([alive, np.ones(CHURN_POINTS, dtype=bool)])
            dead = np.sort(rng.choice(np.flatnonzero(alive), CHURN_POINTS, replace=False))
            alive[dead] = False
            yield ("delete", dead)
            yield ("search", asked, asked + CHURN_SINGLES, 1)
            asked += CHURN_SINGLES
        yield ("search", asked, asked + BATCH_ROWS, BATCH_ROWS)
        asked += BATCH_ROWS
        yield ("compact",)
        alive = np.ones(int(alive.sum()), dtype=bool)
        yield ("era",)


class LiveSet:
    """The point set ``churn_rw`` should hold after each step: rows by id
    plus a live mask — what answers are checked (and ground truth is
    computed) against."""

    def __init__(self, data: np.ndarray) -> None:
        self.points = data
        self.alive = np.ones(data.shape[0], dtype=bool)

    def apply(self, step: Tuple, extra: np.ndarray) -> None:
        if step[0] == "add":
            self.points = np.concatenate([self.points, extra[step[1] : step[2]]])
            self.alive = np.concatenate(
                [self.alive, np.ones(step[2] - step[1], dtype=bool)]
            )
        elif step[0] == "delete":
            self.alive[step[1]] = False
        elif step[0] == "compact":
            self.points = self.points[self.alive]
            self.alive = np.ones(self.points.shape[0], dtype=bool)


# ---------------------------------------------------------------------------
# exact ground truth (helper process only)
# ---------------------------------------------------------------------------


def exact_knn(
    points: np.ndarray, queries: np.ndarray, k: int = K, ids: np.ndarray | None = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Exact k nearest rows of *points* per query, sorted by (distance, id).

    Chunked: a GEMM-based squared-distance pass shortlists ``k + 16``
    rows per query, whose distances are then recomputed by direct
    differences (the same arithmetic the answer check uses).  *ids*
    renames rows (the live ids of a tombstoned set).
    """
    shortlist = min(points.shape[0], k + 16)
    norms = np.einsum("ij,ij->i", points, points)
    out_ids = np.empty((queries.shape[0], k), dtype=np.int64)
    out_dists = np.empty((queries.shape[0], k), dtype=np.float64)
    step = max(1, 4_000_000 // points.shape[0])
    for start in range(0, queries.shape[0], step):
        block = queries[start : start + step]
        approx = norms[None, :] - 2.0 * (block @ points.T)
        near = np.argpartition(approx, shortlist - 1, axis=1)[:, :shortlist]
        diff = points[near] - block[:, None, :]
        dists = np.sqrt(np.einsum("qkd,qkd->qk", diff, diff))
        names = near if ids is None else ids[near]
        order = np.lexsort((names, dists), axis=1)[:, :k]
        out_ids[start : start + step] = np.take_along_axis(names, order, axis=1)
        out_dists[start : start + step] = np.take_along_axis(dists, order, axis=1)
    return out_ids, out_dists


def ground_truth(spec: Spec, seed: int, inputs: Dict[str, np.ndarray]):
    """``(ids, distances)`` aligned with the query pool, row for row."""
    queries = inputs["queries"]
    if spec.name != "churn_rw":
        return exact_knn(inputs["data"], queries)
    ids = np.full((queries.shape[0], K), -1, dtype=np.int64)
    dists = np.full((queries.shape[0], K), np.inf)
    live = LiveSet(inputs["data"])
    for step in churn_steps(spec, seed):
        live.apply(step, inputs["extra"])
        if step[0] == "search":
            names = np.flatnonzero(live.alive)
            ids[step[1] : step[2]], dists[step[1] : step[2]] = exact_knn(
                live.points[names], queries[step[1] : step[2]], ids=names
            )
    return ids, dists


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="bench_e2e ground-truth helper")
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--out", required=True, help="cache file to write (.npz)")
    args = parser.parse_args(argv)
    spec = spec_for(args.workload, args.scale)
    inputs = make_inputs(spec, args.seed)
    if args.seed == DEFAULT_SEED:
        frozen = SHA256.get((args.workload, args.scale))
        found = digest(inputs)
        if frozen != found:
            print(
                f"bench_e2e: inputs of {args.workload}/{args.scale} at seed "
                f"{DEFAULT_SEED} hash to {found}, frozen value is {frozen}",
                file=sys.stderr,
            )
            return 3
    ids, dists = ground_truth(spec, args.seed, inputs)
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    # Write-then-rename: a killed helper never leaves a torn cache entry.
    with open(args.out + ".tmp", "wb") as handle:
        np.savez(handle, ids=ids, distances=dists)
    os.replace(args.out + ".tmp", args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
