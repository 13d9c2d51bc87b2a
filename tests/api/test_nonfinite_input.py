"""Non-finite input is rejected at every entry point, with a typed error.

A NaN or infinity in the dataset poisons the tree and the r_min sample;
in a query it silently yields ids ``-1`` / distances ``inf``.  ``fit``,
``add`` and every ``run`` entry (``search``, ``query``, ``range_search``)
raise ``ValueError`` naming the first offending row instead — on every
registry backend, through the sharded engine, and through the async
server, whose other requests must be unaffected.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

import repro
from repro import Knn, Range
from repro.serving import AsyncSearchServer

#: Every registry name, plus "process-sharded": the sharded engine over
#: the worker-process pool.
NAMES = sorted(repro.available_indexes()) + ["process-sharded"]
BAD_VALUES = [np.nan, np.inf, -np.inf]


def _make(name):
    if name == "exact":
        return repro.create_index(name)
    if name == "process-sharded":
        return repro.create_index("sharded", pool_backend="process", seed=3)
    return repro.create_index(name, seed=3)


@pytest.fixture(scope="module")
def data(small_clustered):
    return small_clustered[:200]


@pytest.mark.parametrize("name", NAMES)
def test_every_entry_point_rejects_non_finite(name, data):
    poisoned = data.copy()
    poisoned[17, 3] = np.inf
    with pytest.raises(ValueError, match=r"data must be finite.*row 17"):
        _make(name).fit(poisoned)

    index = _make(name).fit(data)
    try:
        epoch, ntotal = index.epoch, index.ntotal
        new = data[:5].copy()
        new[2, 0] = np.nan
        with pytest.raises(ValueError, match=r"new points must be finite.*row 2"):
            index.add(new)
        assert (index.epoch, index.ntotal) == (epoch, ntotal)  # nothing half-applied

        for bad in BAD_VALUES:
            queries = data[:4].copy()
            queries[1, 5] = bad
            with pytest.raises(ValueError, match=r"queries must be finite.*row 1"):
                index.search(queries, k=3)
            with pytest.raises(ValueError, match="queries must be finite"):
                index.query(queries[1], k=3)
            with pytest.raises(ValueError, match="queries must be finite"):
                index.run(queries, Range(r=1.0))
        # Still healthy, and the answers are those of a never-poisoned index.
        got = index.search(data[:4], k=3)
        want = _make(name).fit(data).search(data[:4], k=3)
        np.testing.assert_array_equal(got.ids, want.ids)
    finally:
        if hasattr(index, "close"):
            index.close()


def test_server_rejects_the_bad_request_only(data):
    index = repro.create_index("sharded", backend="pm-lsh", num_shards=2, seed=3)
    index.fit(data)
    good = data[:6] + 0.01
    bad = good[0].copy()
    bad[2] = np.nan
    direct = index.run(good, Knn(k=4))

    async def serve():
        async with AsyncSearchServer(index, max_batch=4, max_delay_ms=1.0) as server:
            peers = asyncio.ensure_future(server.submit_many(good, Knn(k=4)))
            poisoned = asyncio.ensure_future(server.submit(bad, Knn(k=4)))
            outcome = await asyncio.gather(poisoned, return_exceptions=True)
            again = await server.submit(good[0], Knn(k=4))  # keeps serving
            return outcome[0], await peers, again

    error, results, again = asyncio.run(serve())
    index.close()
    assert isinstance(error, ValueError) and "must be finite" in str(error)
    for i, result in enumerate(results):
        np.testing.assert_array_equal(result.ids, direct[i].ids)
    np.testing.assert_array_equal(again.ids, direct[0].ids)
