"""Overload soak: static batching knobs on a 4x bursty trace.

Runs entirely in **virtual time** (no wall-clock sleeps): the served
index is a :class:`~tests.serving._clock.CostedIndex` that charges
``base + per_row * rows`` of virtual service time per batch, and the
driver advances a :class:`VirtualClock` along a deterministic bursty
arrival schedule at 4x the server's batch-1 capacity.  Every request
carries the SLO as its deadline, so hopeless work is shed instead of
poisoning the queue.

Asserted:

* **zero unshed deadline violations** on the well-sized ``8 / 2 ms``
  server — every answer it delivered met its SLO;
* every shed in any server's log is legitimate (its deadline really had
  passed), and at least one server did shed;
* the bookkeeping balances: sheds + answers == arrivals.

The whole run is deterministic (virtual clock + synchronous executor),
but it drives thousands of requests through several server
configurations, so it is gated behind the ``slow`` marker *and*
``REPRO_SOAK=1`` — the scheduled CI soak job sets the variable; the
tier-1 suite never pays for it.
"""

from __future__ import annotations

import asyncio
import os

import numpy as np
import pytest

import repro
from repro.obs.metrics import MetricsRegistry
from repro.serving import AsyncSearchServer, ServingRejected
from tests.serving._clock import (
    CostedIndex,
    ImmediateExecutor,
    VirtualClock,
    advance,
    settle,
)

pytestmark = [
    pytest.mark.slow,
    pytest.mark.skipif(
        os.environ.get("REPRO_SOAK") != "1",
        reason="overload soak runs in the scheduled CI job (set REPRO_SOAK=1)",
    ),
]

# The virtual cost model: a batch of B rows takes BASE_S + PER_ROW_S * B
# seconds of service.  Batch-1 capacity is therefore ~488 req/s; the
# trace below offers 4x that, in bursts.
BASE_S = 2.0e-3
PER_ROW_S = 5.0e-5
CAPACITY = 1.0 / (BASE_S + PER_ROW_S)
SLO_MS = 6.0
N_REQUESTS = 1200
LOAD = 4.0

RNG = np.random.default_rng(1729)
DATA = RNG.normal(size=(400, 16))
QUERIES = RNG.normal(size=(N_REQUESTS, 16))
SPEC = repro.Knn(k=5)


def bursty_schedule(n: int, load: float, *, phase: int = 40) -> np.ndarray:
    """Deterministic square-wave arrivals: alternating burst/lull phases
    of *phase* requests whose gaps average ``1 / (load * CAPACITY)``."""
    mean_gap = 1.0 / (load * CAPACITY)
    burst = (np.arange(n) // phase) % 2 == 0
    gaps = np.where(burst, 0.25 * mean_gap, 1.75 * mean_gap)
    return np.cumsum(gaps)


async def _drive(server, clock, schedule):
    """Submit every query at its scheduled virtual instant; returns the
    per-request outcomes (result or typed refusal)."""
    tasks = []
    for at_s, query in zip(schedule, QUERIES):
        if float(at_s) > clock.now():
            clock.advance_to(float(at_s))
        await settle(3)
        tasks.append(
            asyncio.ensure_future(server.submit(query, SPEC, deadline_ms=SLO_MS))
        )
        await settle(3)
    await advance(clock, 1.0)  # fire every remaining deadline timer
    outcomes = list(await asyncio.gather(*tasks, return_exceptions=True))
    await server.close()
    return outcomes


def _score(outcomes):
    """In-SLO, over-SLO and shed counts.

    Latency of a delivered answer is its batch wait plus its batch's
    service cost — exactly what the virtual clock charged, recomputed
    from the serving stats the answer carries.
    """
    in_slo = 0
    shed = 0
    over_slo = 0
    for outcome in outcomes:
        if isinstance(outcome, BaseException):
            assert isinstance(outcome, ServingRejected), outcome
            shed += 1
            continue
        batch = outcome.stats["serving_batch_size"]
        latency_ms = outcome.stats["serving_wait_ms"] + (
            BASE_S + PER_ROW_S * batch
        ) * 1e3
        if latency_ms <= SLO_MS + 1e-9:
            in_slo += 1
        else:
            over_slo += 1
    return {
        "in_slo": in_slo,
        "over_slo": over_slo,
        "shed": shed,
    }


def _run_cell(*, max_batch, max_delay_ms):
    async def cell():
        clock = VirtualClock()
        index = CostedIndex(
            repro.create_index("exact").fit(DATA),
            clock,
            base_s=BASE_S,
            per_row_s=PER_ROW_S,
        )
        server = AsyncSearchServer(
            index,
            max_batch=max_batch,
            max_delay_ms=max_delay_ms,
            executor=ImmediateExecutor(),
            clock=clock,
            metrics=MetricsRegistry(),
        )
        schedule = bursty_schedule(N_REQUESTS, LOAD)
        outcomes = await _drive(server, clock, schedule)
        score = _score(outcomes)
        score["server"] = server
        return score

    return asyncio.run(cell())


class TestOverloadSoak:
    """Static batching knobs under a 4x bursty trace, all in virtual time."""

    @pytest.fixture(scope="class")
    def cells(self):
        return {
            "static 1/0ms": _run_cell(max_batch=1, max_delay_ms=0.0),
            "static 8/2ms": _run_cell(max_batch=8, max_delay_ms=2.0),
            "static 32/4ms": _run_cell(max_batch=32, max_delay_ms=4.0),
            # Deadline window wider than the SLO: the head of every lull
            # batch expires before dispatch — the cell that actually
            # exercises deadline shedding under load.
            "static 64/8ms": _run_cell(max_batch=64, max_delay_ms=8.0),
        }

    def test_zero_unshed_deadline_violations(self, cells):
        # Every answer the well-sized server delivered met the SLO.
        assert cells["static 8/2ms"]["over_slo"] == 0

    def test_every_shed_is_legitimate(self, cells):
        total_sheds = 0
        for score in cells.values():
            server = score["server"]
            for record in server.admission.shed_log:
                assert record.deadline < record.now
                assert record.late_ms > 0.0
            total_sheds += len(server.admission.shed_log)
        # The over-wide static cell must actually have shed work — the
        # legitimacy loop above is not allowed to be vacuous.
        assert total_sheds > 0

    def test_bookkeeping_balances(self, cells):
        for score in cells.values():
            stats = score["server"].stats()
            assert score["in_slo"] + score["over_slo"] == stats.requests_served
            assert score["shed"] == stats.requests_shed + stats.requests_rejected
            assert (
                score["in_slo"] + score["over_slo"] + score["shed"] == N_REQUESTS
            )
            assert len(score["server"].admission.shed_log) == stats.requests_shed
