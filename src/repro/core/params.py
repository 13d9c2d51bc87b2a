"""Parameter bundle for PM-LSH with the paper's §6.1 defaults, and the
rule that picks the number of hash functions m from the dataset size."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.estimation import solve_parameters

#: The range the hash-count rule picks m from: the paper's §6.1 value, and
#: the widest projection that kept quality at 100k points on every
#: benchmark shape in the sweep of docs/tuning.md ("How many hash
#: functions").
HASH_COUNT_RANGE = (15, 19)

#: The candidate budget ⌈β(m)·n⌉ the rule keeps m above: in the sweep,
#: 3677 candidates (m = 17 at 50k points) lost quality on one shape and
#: 3852 (m = 18 at 60k) kept it on all four.
BUDGET_FLOOR = 3800


@dataclass(frozen=True)
class PMLSHParams:
    """All tunables of the PM-LSH index.

    Defaults follow §6.1 of the paper — s = 5 pivots, α1 = 1/e (so
    Pr[E1] ≥ 1 − 1/e), β = 2·α2 (so Pr[E2] = 1/2), c = 1.5 — except the
    number of hash functions m: ``None`` (default) lets ``fit`` pick it from
    the dataset size by :func:`hash_count_for` (15, the paper's value, up
    to 45k points; 19 from 68k).  An explicit m is honoured exactly.
    """

    #: Hash functions (projected dimensions).  ``None`` resolves at
    #: ``fit``; the fitted index's ``params`` holds the resolved int, so
    #: snapshots, compaction and ``add()`` keep it.
    m: int | None = None
    num_pivots: int = 5
    c: float = 1.5
    alpha1: float = float(1.0 / np.e)
    beta_multiplier: float = 2.0
    node_capacity: int = 128
    radius_shrink: float = 0.95
    radius_sample_pairs: int = 50_000
    pivot_method: str = "maxsep"
    use_rings: bool = True
    use_parent_filter: bool = True
    #: Hard cap on radius-enlarging iterations; a safety net, not a tuning
    #: knob (the candidate budget terminates the loop long before this).
    max_iterations: int = 64
    #: Optional fixed candidate-budget fraction.  When set, it replaces the
    #: β solved from Eq. 10 — the paper's parameter study varies m while
    #: holding the probing budget at its m = 15 level (Fig. 6), which this
    #: knob enables.  ``None`` (default) keeps the solved β.
    beta_override: float | None = None
    #: Hash family behind the m projections: ``"dense"`` (default) is the
    #: paper's Eq. 3 Gaussian GEMM; ``"sampled"`` is the FastLSH-style
    #: structured family (each function reads ~√d sampled coordinates),
    #: cutting hashing cost for ``fit``/``add``/cache keys at a small,
    #: calibrated approximation cost.  See
    #: :class:`repro.core.hashing.SampledProjection`.
    hash_family: str = "dense"
    #: Coordinates read per sampled hash function; ``None`` (default)
    #: resolves to ``⌈√d⌉`` at fit time.  Ignored by the dense family.
    hash_sample_size: int | None = None

    def __post_init__(self) -> None:
        if self.m is not None and self.m <= 0:
            raise ValueError(f"m must be positive, got {self.m}")
        if self.num_pivots < 0:
            raise ValueError(f"num_pivots must be non-negative, got {self.num_pivots}")
        if self.c <= 1.0:
            raise ValueError(f"c must exceed 1, got {self.c}")
        if not 0.0 < self.alpha1 < 1.0:
            raise ValueError(f"alpha1 must be in (0, 1), got {self.alpha1}")
        if self.beta_multiplier <= 1.0:
            raise ValueError(f"beta_multiplier must exceed 1, got {self.beta_multiplier}")
        if self.node_capacity < 4:
            raise ValueError(f"node_capacity must be at least 4, got {self.node_capacity}")
        if not 0.0 < self.radius_shrink <= 1.0:
            raise ValueError(f"radius_shrink must be in (0, 1], got {self.radius_shrink}")
        if self.pivot_method not in ("maxsep", "random", "variance"):
            raise ValueError(f"unknown pivot_method {self.pivot_method!r}")
        if self.max_iterations <= 0:
            raise ValueError(f"max_iterations must be positive, got {self.max_iterations}")
        if self.beta_override is not None and not 0.0 < self.beta_override < 1.0:
            raise ValueError(
                f"beta_override must be in (0, 1), got {self.beta_override}"
            )
        if self.hash_family not in ("dense", "sampled"):
            raise ValueError(f"unknown hash_family {self.hash_family!r}")
        if self.hash_sample_size is not None and self.hash_sample_size <= 0:
            raise ValueError(
                f"hash_sample_size must be positive, got {self.hash_sample_size}"
            )


def hash_count_for(n: int, params: PMLSHParams) -> int:
    """The number of hash functions for *n* points: *params*' own m when it
    is set, else the largest m in ``HASH_COUNT_RANGE`` whose candidate
    budget ⌈β(m)·n⌉ is at least ``BUDGET_FLOOR`` (the range's low end
    when none is).

    β(m) is Eq. 10's solution at *params*' c, α1 and β multiplier (or
    its ``beta_override``), so
    Theorem 1 holds at whichever m this returns; a query costs about
    n·m for the projected pass plus β(m)·n·d for the candidate gather,
    and β falls fast with m (.097 at 15, .056 at 19).  The floor and the
    cap keep recall and ratio within one seed-to-seed standard deviation
    of m = 15's on every benchmark data shape: below the floor a smaller
    budget costs recall, and beyond 19 it did at 100k points whatever
    the budget (docs/tuning.md has the sweep and the n → m table).
    """
    if params.m is not None:
        return params.m
    low, high = HASH_COUNT_RANGE
    for m in range(high, low, -1):
        beta = params.beta_override
        if beta is None:
            beta = solve_parameters(
                m=m, c=params.c, alpha1=params.alpha1, beta_multiplier=params.beta_multiplier
            ).beta
        if math.ceil(beta * n) >= BUDGET_FLOOR:
            return m
    return low
