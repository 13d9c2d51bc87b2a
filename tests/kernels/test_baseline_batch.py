"""Baseline batch paths equal their per-query references, byte for byte.

The QALSH / C2LSH / E2LSH / LSB-Forest kNN entry points are bucketed /
round-synchronous batch implementations ending in one ``group_topk``
cut.  The contract is byte-identity with the per-query loops in
``tests.oracles.baseline_loops`` — the B+-tree cursor walks for QALSH
and LSB-Forest — ids, distances *and* stats, including exact-duplicate
ties, tombstoned ids and queries that only the random fallback answers.

Every comparison builds a fresh same-seed index per path: E2LSH and
LSB consume their shared fallback generator during queries, so reusing
one index across two runs would drift the rng state, not test identity.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import create_index, kernels
from repro.queries import Knn
from tests.oracles import baseline_loops


def _dataset(seed=5, n=900, d=12):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(n, d))
    data[50] = data[10]  # planted duplicates => exact distance ties
    data[51] = data[10]
    data[200] = data[201]
    return data


def _queries(data):
    rng = np.random.default_rng(99)
    queries = rng.normal(size=(7, data.shape[1]))
    queries[3] = data[10]  # lands exactly on the duplicate triple
    return queries


BASELINES = {
    "e2lsh": {"seed": 3},
    "qalsh": {"seed": 3},
    "c2lsh": {"seed": 3},
    "lsb-forest": {"num_trees": 3, "m": 6, "seed": 3},
}


def _run(name, kwargs, data, queries, path, delete=None):
    index = create_index(name, **kwargs).fit(data)
    if delete is not None:
        index.delete(delete)
    if path == "oracle":
        return baseline_loops.run(index, queries, Knn(k=10))
    return index.run(queries, Knn(k=10))


def _assert_same_bytes(batch, oracle):
    assert batch.ids.tobytes() == oracle.ids.tobytes()
    assert batch.distances.tobytes() == oracle.distances.tobytes()
    assert batch.stats == oracle.stats
    assert batch.per_query_stats == oracle.per_query_stats


@pytest.mark.parametrize("name", sorted(BASELINES))
def test_batch_equals_oracle_bytes(name):
    data = _dataset()
    queries = _queries(data)
    oracle = _run(name, BASELINES[name], data, queries, "oracle")
    batch = _run(name, BASELINES[name], data, queries, "batch")
    _assert_same_bytes(batch, oracle)


@pytest.mark.parametrize("name", sorted(BASELINES))
def test_batch_equals_oracle_under_tombstones(name):
    data = _dataset(seed=8)
    queries = _queries(data)
    dead = list(range(0, 150, 2))
    oracle = _run(name, BASELINES[name], data, queries, "oracle", delete=dead)
    batch = _run(name, BASELINES[name], data, queries, "batch", delete=dead)
    _assert_same_bytes(batch, oracle)
    returned = set(batch.ids.ravel().tolist()) - {-1}
    assert not returned & set(dead)


@pytest.mark.parametrize("dead", [None, list(range(0, 150, 2))], ids=["live", "tombstones"])
@pytest.mark.parametrize("name,draws", [("e2lsh", 7), ("lsb-forest", 0)])
def test_far_queries_draw_the_fallback_in_row_order(name, draws, dead):
    """Shifted +50 away from the data, every E2LSH row misses every
    bucket and draws its random probe from the shared generator; the
    batch path must draw in row order, as the loop does.  LSB-Forest's
    cursor walks always take entries, so its fallback never fires: the
    case pins the far-query walk."""
    data = _dataset()
    queries = _queries(data) + 50.0
    oracle = _run(name, BASELINES[name], data, queries, "oracle", delete=dead)
    index = create_index(name, **BASELINES[name]).fit(data)
    if dead is not None:
        index.delete(dead)
    fallback = index._fallback_candidates
    calls = []
    index._fallback_candidates = lambda k: calls.append(k) or fallback(k)
    batch = index.run(queries, Knn(k=10))
    _assert_same_bytes(batch, oracle)
    assert len(calls) == draws


@pytest.mark.parametrize("name", ["c2lsh", "qalsh"])
def test_collision_blocks_equal_one_block(name, monkeypatch):
    """The collision matrix is swept in row blocks; block boundaries must
    not change a row's answer."""
    data = _dataset(seed=4)
    queries = np.random.default_rng(6).normal(size=(9, data.shape[1]))
    whole = _run(name, BASELINES[name], data, queries, "batch")
    cls = type(create_index(name))
    monkeypatch.setattr(cls, "_BATCH_BLOCK_ENTRIES", 2 * data.shape[0])
    blocked = _run(name, BASELINES[name], data, queries, "batch")
    _assert_same_bytes(blocked, whole)


def test_duplicate_ties_cut_in_id_order():
    """The planted duplicate triple has identical distances; both
    paths must order the tie by ascending id (the canonical cut)."""
    data = _dataset()
    queries = data[10][None, :]
    for path in ("oracle", "batch"):
        result = _run("e2lsh", BASELINES["e2lsh"], data, queries, path)
        row = result.ids[0]
        tied = [int(i) for i in row if int(i) in {10, 50, 51}]
        assert tied == sorted(tied)
        assert len(tied) == 3


def test_batch_pools_one_verification_kernel_call():
    """The batch path's win: candidates verified in one gathered kernel
    call (plus one group_topk), not one call per query."""
    data = _dataset()
    queries = _queries(data)
    index = create_index("e2lsh", seed=3).fit(data)
    kernels.reset_kernel_calls()
    index.run(queries, Knn(k=10))
    calls = kernels.kernel_calls()
    assert calls[("fast", "verify_distances")] == 1
    assert calls[("fast", "group_topk")] == 1
