"""The carrier matrix: one engine, three ways to carry a round.

{serial, thread, process} × {kNN, range, closest pairs} × {fresh, after
interleaved writes, with added rows still in the shards' unindexed
tails, after a refit}: the bytes of every answer and the keys of every
stats dict must not depend on the carrier.  Plus the two things that *are* carrier
specific — the span tree a sampled trace shows, and that an in-process
carrier runs the objects sitting in ``engine._shards`` at call time.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Knn, Range, create_index
from repro.obs.tracing import Trace, use_trace
from tests.parallel._leaks import own_leaked_segments

NUM_SHARDS = 3
CARRIERS = {
    "serial": dict(pool_backend="thread", num_workers=1),
    "thread": dict(pool_backend="thread", num_workers=3),
    "process": dict(pool_backend="process", num_workers=2),
}
STATES = ("fresh", "written", "tailed", "refit")


def _dataset() -> np.ndarray:
    data = np.random.default_rng(31).normal(size=(180, 12))
    data[101] = data[40]  # a zero-distance pair that straddles two shards
    return data


def _queries(data: np.ndarray) -> np.ndarray:
    return data[:10] + np.random.default_rng(32).normal(size=(10, data.shape[1])) * 0.02


def _build(carrier: str, state: str):
    data = _dataset()
    engine = create_index(
        "sharded", num_shards=NUM_SHARDS, seed=5, **CARRIERS[carrier]
    ).fit(data)
    if state == "fresh":
        return engine
    engine.search(_queries(data), 3)  # the process carrier publishes epoch 0 first
    if state == "written":
        extra = np.random.default_rng(40).normal(size=(30, data.shape[1]))
        engine.add(extra)
        engine.delete([2, 7, 150, 171])
        engine.add(extra + 0.5)
        engine.compact()
    elif state == "tailed":  # no compaction: the added rows stay in the tails
        engine.add(np.random.default_rng(41).normal(size=(30, data.shape[1])))
        engine.delete([2, 150, 181, 209])  # fitted rows and tail rows
    else:
        engine.fit(data[:120])
    return engine


@pytest.fixture(scope="module", params=STATES)
def engines(request):
    built = {carrier: _build(carrier, request.param) for carrier in CARRIERS}
    yield request.param, built
    for engine in built.values():
        engine.close()
    assert own_leaked_segments() == ()


def _knn(engine):
    result = engine.run(_queries(_dataset()), Knn(k=8))
    return (result.ids, result.distances), result.stats


def _range(engine):
    result = engine.run(_queries(_dataset()), Range(r=4.0))
    return (result.lims, result.ids, result.distances), result.stats


def _closest_pairs(engine):
    result = engine.closest_pairs(10)
    return (result.pairs, result.distances), result.stats


@pytest.mark.parametrize(
    "ask", [_knn, _range, _closest_pairs], ids=["knn", "range", "cp"]
)
@pytest.mark.parametrize("carrier", ["thread", "process"])
def test_answers_do_not_depend_on_the_carrier(engines, carrier, ask):
    _, built = engines
    want_arrays, want_stats = ask(built["serial"])
    got_arrays, got_stats = ask(built[carrier])
    for got, want in zip(got_arrays, want_arrays):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert set(got_stats) == set(want_stats)


def test_the_state_is_the_one_the_cell_claims(engines):
    """The matrix would pass vacuously on three engines that ignored the
    writes: pin what each state must look like, on every carrier."""
    state, built = engines
    for engine in built.values():
        ids = engine.search(_queries(_dataset()), 8).ids
        if state == "written":
            assert engine.ntotal == 180 + 60 - 4 and engine.num_tombstones == 0
        elif state == "tailed":
            merged, dead_in_tree, dead_in_tail = [], 0, 0
            for shard, global_ids in zip(engine._shards, engine._id_maps):
                flat = shard.flat_tree
                assert flat.leaf_ids.size == 60 and len(flat) == 70
                dead_in_tree += int((shard.tombstones.ids() < 60).sum())
                dead_in_tail += int((shard.tombstones.ids() >= 60).sum())
                own = shard.search(_queries(_dataset()), 8)  # the shard, unsharded
                merged.append((own.distances, global_ids[own.ids]))
            assert (dead_in_tree, dead_in_tail) == (2, 2)
            dists = np.hstack([d for d, _ in merged])
            gids = np.hstack([g for _, g in merged])
            for row in range(ids.shape[0]):
                best = np.lexsort((gids[row], dists[row]))[:8]
                assert ids[row].tolist() == gids[row][best].tolist()
        elif state == "refit":
            assert ids.max() < 120
        assert engine.closest_pairs(10).distances[0] == 0.0  # the planted pair
    labels = built["process"]._obs_labels
    reattaches = built["process"].metrics.value("pool_reattaches", labels)
    assert (reattaches > 0.0) == (state != "fresh")


@pytest.mark.parametrize("carrier", list(CARRIERS))
def test_span_tree_per_carrier(carrier):
    engine = _build(carrier, "fresh")
    trace = Trace(0)
    try:
        with use_trace(trace), trace.span("index_run"):
            engine.run(_queries(_dataset()), Knn(k=5))
    finally:
        engine.close()
    children = trace.find("index_run").children
    assert children[-1].name == "merge" and children[-1].meta["k"] == 5
    fan_out = children[:-1]
    if carrier == "process":
        assert [span.name for span in fan_out] == ["process_fan_out"]
        assert fan_out[0].meta == {"workers": 2, "shards": NUM_SHARDS}
        assert fan_out[0].children == []  # worker-side spans cannot join
    else:
        # One span per shard, anchored under the caller's open span even
        # when a pool thread opened it (so their order is arrival order).
        assert [span.name for span in fan_out] == ["shard_search"] * NUM_SHARDS
        assert {span.meta["shard"] for span in fan_out} == set(range(NUM_SHARDS))
        assert all(span.children for span in fan_out)  # the probe nests inside


class _Counting:
    """What ``bench_e2e``'s boundary proxies are: a delegating wrapper
    whose ``run`` notes that it was called."""

    def __init__(self, target) -> None:
        self._target = target
        self.calls = 0

    def __getattr__(self, attr):
        return getattr(self._target, attr)

    def run(self, queries, spec):
        self.calls += 1
        return self._target.run(queries, spec)


@pytest.mark.parametrize("carrier", ["serial", "thread"])
def test_in_process_carriers_run_whatever_sits_in_the_shard_list(carrier):
    engine = _build(carrier, "fresh")
    queries = _queries(_dataset())
    try:
        want = engine.search(queries, 6)  # the carrier exists before the swap
        shards = list(engine.shards)
        wrappers = [_Counting(shard) for shard in shards]
        engine._shards[:] = wrappers
        try:
            got = engine.search(queries, 6)
            assert [wrapper.calls for wrapper in wrappers] == [1] * NUM_SHARDS
            engine.run(queries, Range(r=4.0))
            assert [wrapper.calls for wrapper in wrappers] == [2] * NUM_SHARDS
        finally:
            engine._shards[:] = shards
        assert got.ids.tobytes() == want.ids.tobytes()
        engine.search(queries, 6)
        assert [wrapper.calls for wrapper in wrappers] == [2] * NUM_SHARDS
    finally:
        engine.close()
