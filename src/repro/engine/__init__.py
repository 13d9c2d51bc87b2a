"""Sharded parallel query engine: a multi-worker serving layer over the
unified index API.

* :mod:`repro.engine.sharded` — :class:`ShardedIndex`, the data-partitioned
  engine (registered as ``"sharded"`` in the index registry): ``fit``
  stripes rows over the shards, ``add()`` continues the stripe
  round-robin, and ``pool_backend`` picks thread or process fan-out;
* :mod:`repro.engine.merge` — vectorised per-shard top-k merging.

``ShardedIndex.stats()`` is the metrics registry's snapshot of the
engine's ``engine_*`` series (:class:`repro.obs.MetricsSnapshot`).
"""

from repro.engine.merge import (
    merge_shard_range_results,
    merge_shard_results,
    translate_ids,
)
from repro.engine.sharded import ShardedIndex

__all__ = [
    "ShardedIndex",
    "merge_shard_range_results",
    "merge_shard_results",
    "translate_ids",
]
