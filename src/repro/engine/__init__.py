"""Sharded parallel query engine: a multi-worker serving layer over the
unified index API.

* :mod:`repro.engine.sharded` — :class:`ShardedIndex`, the data-partitioned
  engine (registered as ``"sharded"`` in the index registry): ``fit``
  stripes rows over the shards, ``add()`` continues the stripe
  round-robin, and ``pool_backend`` picks thread or process fan-out;
* :mod:`repro.engine.merge` — vectorised per-shard top-k merging;
* :mod:`repro.engine.stats` — per-shard and engine-level serving stats.
"""

from repro.engine.merge import (
    merge_shard_range_results,
    merge_shard_results,
    translate_ids,
)
from repro.engine.sharded import ShardedIndex
from repro.engine.stats import EngineStats, LatencyWindow, ShardStats

__all__ = [
    "EngineStats",
    "LatencyWindow",
    "ShardStats",
    "ShardedIndex",
    "merge_shard_range_results",
    "merge_shard_results",
    "translate_ids",
]
