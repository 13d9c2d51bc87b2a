"""Per-layer attribution measured from outside the program.

Two instruments, both living in the benchmark's own files:

* :class:`Boundary` — a delegating proxy placed at a layer boundary
  (serving -> engine, engine -> shard, caller -> index).  It records one
  span per ``run()`` call and keeps the call's inputs and answer.
* :func:`replay_knn` — a *stage replay*: a query block the index has
  just answered is pushed again through each layer's public functions
  (``projection.project``, ``flat_tree.batch_range``,
  ``kernels.active().verify_distances``) in the order Algorithm 2 uses
  them, timing each stage on its own.  The probe loop's own time is what
  remains of the ``run()`` call's time.

Spans are ``(name, start, end, parent, ident)`` rows held in memory and
written once, by the caller, when the run ends.
"""

from __future__ import annotations

import json
import time
from typing import Any, List, Optional, Tuple

import numpy as np

from repro import kernels
from repro.core.radius import radius_schedule, select_initial_radius
from repro.queries import Knn


class Spans:
    """In-memory span table.  ``parent`` is the row index of the span that
    caused this one (-1 for none); ``ident`` is the request or batch id
    shared by the spans of one unit of work."""

    def __init__(self) -> None:
        self.rows: List[Tuple[str, float, float, int, int]] = []

    def add(self, name: str, start: float, end: float, parent: int = -1, ident: int = -1) -> int:
        self.rows.append((name, start, end, parent, ident))
        return len(self.rows) - 1

    def named(self, name: str) -> List[Tuple[int, float, float, int]]:
        """``(row, start, end, parent)`` of every span called *name*."""
        return [
            (row, start, end, parent)
            for row, (label, start, end, parent, _) in enumerate(self.rows)
            if label == name
        ]

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            for row, (name, start, end, parent, ident) in enumerate(self.rows):
                handle.write(
                    json.dumps(
                        {"span": row, "name": name, "start": start, "end": end,
                         "parent": parent, "id": ident}
                    )
                    + "\n"
                )


class Boundary:
    """Delegating proxy around an index: every attribute forwards to the
    target, ``run()`` additionally records a span and the call.

    ``parent_of`` names another boundary whose currently open span caused
    this one (the engine proxy for a shard proxy).  ``tamper`` (tests
    only) may rewrite an answer on its way out.
    """

    _OWN = ("_target", "_spans", "_name", "_parent_of", "_tamper", "calls", "open_span",
            "keep_calls")

    def __init__(
        self,
        target: Any,
        spans: Spans,
        name: str,
        parent_of: Optional["Boundary"] = None,
        keep_calls: int = 64,
        tamper=None,
    ) -> None:
        self._target = target
        self._spans = spans
        self._name = name
        self._parent_of = parent_of
        self._tamper = tamper
        #: ``(span row, queries, spec, result)`` of the first *keep_calls* calls.
        self.calls: List[Tuple[int, np.ndarray, Any, Any]] = []
        self.keep_calls = keep_calls
        #: Row the *next* span of this boundary will get while a call is
        #: in flight (children read it as their parent), else -1.
        self.open_span = -1

    def __getattr__(self, attr: str) -> Any:
        return getattr(self._target, attr)

    def __setattr__(self, attr: str, value: Any) -> None:
        if attr in Boundary._OWN:
            object.__setattr__(self, attr, value)
        else:
            setattr(self._target, attr, value)

    def run(self, queries, spec):
        parent = self._parent_of.open_span if self._parent_of is not None else -1
        # Reserve the row first so children started during the call can
        # point at it; times and the batch id are filled in afterwards.
        row = self._spans.add(self._name, 0.0, 0.0, parent)
        self.open_span = row
        start = time.perf_counter()
        try:
            result = self._target.run(queries, spec)
        finally:
            end = time.perf_counter()
            self.open_span = -1
            ident = parent if parent >= 0 else row
            self._spans.rows[row] = (self._name, start, end, parent, ident)
        if self._tamper is not None:
            result = self._tamper(result)
        if len(self.calls) < self.keep_calls:
            self.calls.append((row, np.array(queries, copy=True), spec, result))
        return result

    def search(self, queries, k):
        return self.run(queries, Knn(k=int(k)))


class StageTimes:
    """Accumulated stage seconds and exact counts of one replay."""

    def __init__(self) -> None:
        self.queries = 0
        self.projection_s = 0.0
        self.traversal_s = 0.0
        self.verify_s = 0.0
        self.candidates = 0
        self.nodes = 0
        self.dist_comps = 0
        self.rounds = 0

    def per_query(self, seconds: float) -> float:
        return seconds / max(1, self.queries) * 1e3


def replay_knn(index, queries: np.ndarray, k: int, into: StageTimes) -> np.ndarray:
    """Push one query block through Algorithm 2's stages via public
    functions only, timing each stage; returns candidates per query.

    Mirrors ``PMLSH``'s batched probe: the same radius ladder, the same
    per-round annulus fetch (``lower`` = previous radius, ``limits`` =
    budget left), the same two termination tests — so the candidate sets,
    node visits and rounds equal the real run's, which the caller checks
    against ``BatchResult.stats``.
    """
    queries = np.ascontiguousarray(np.atleast_2d(queries), dtype=np.float64)
    count = queries.shape[0]
    params, solved = index.params, index.solved
    budget = max(index.candidate_budget(k), k)
    initial = select_initial_radius(
        index.distance_distribution, n=index.nlive, beta=solved.beta, k=k,
        shrink=params.radius_shrink,
    )
    ladder = radius_schedule(initial, params.c, params.max_iterations)
    flat = index.flat_tree
    verify = kernels.active().verify_distances

    start = time.perf_counter()
    projected = np.atleast_2d(index.projection.project(queries))
    into.projection_s += time.perf_counter() - start

    seen = np.zeros(count, dtype=np.int64)
    owner: List[np.ndarray] = []
    found: List[np.ndarray] = []
    active = np.arange(count)
    previous = None
    for round_index in range(params.max_iterations):
        if active.size == 0:
            break
        radius = float(ladder[round_index])
        into.rounds += int(active.size)
        if owner:  # test 1: k verified points within c*r
            near = np.concatenate(found) <= params.c * radius
            within = np.bincount(np.concatenate(owner)[near], minlength=count)
            active = active[within[active] < k]
            if active.size == 0:
                break
        start = time.perf_counter()
        lims, ids, _, stats = flat.batch_range(
            projected[active], solved.t * radius,
            limits=np.maximum(budget - seen[active], 0), lower=previous, sort=False,
        )
        into.traversal_s += time.perf_counter() - start
        into.nodes += int(stats.nodes.sum())
        into.dist_comps += int(stats.dist_comps.sum())
        counts = np.diff(lims)
        if ids.size:
            rep = np.repeat(active, counts)
            order = np.lexsort((ids, rep))
            rep, ids = rep[order], ids[order]
            start = time.perf_counter()
            dists = verify(index.data, ids, queries, rep)
            into.verify_s += time.perf_counter() - start
            owner.append(rep)
            found.append(dists)
            seen[active] += counts
        active = active[seen[active] < budget]  # test 2: budget exhausted
        previous = solved.t * radius
    into.queries += count
    into.candidates += int(seen.sum())
    return seen
