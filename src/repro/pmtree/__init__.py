"""PM-tree substrate (Skopal, Pokorný, Snásel, DASFAA'05).

The PM-tree is an M-tree whose regions are additionally clipped by
*hyper-rings*: for a set of s global pivots, every routing entry stores the
interval ``HR[i] = [min, max]`` of distances between pivot ``p_i`` and the
points in its subtree.  A range query can then discard a subtree when the
query ball misses either the M-tree covering sphere or any of the rings —
strictly more pruning power than the M-tree alone, which is exactly why
PM-LSH adopts it over the R-tree (§4.1–4.2 of the paper).

Public surface:

* :class:`~repro.pmtree.tree.PMTree` — the bulk build, emitting the
  packed breadth-first arrays directly (no node graph).
* :class:`~repro.pmtree.flat.FlatPMTree` — ``PMTree.flatten()``: the one
  traversal over those arrays — batched, level-synchronous, with the
  unindexed tail that appended rows join — and the distance counters.
* :func:`~repro.pmtree.pivots.select_pivots` — pivot selection strategies.
"""

from repro.pmtree.flat import FlatPMTree, TraversalStats
from repro.pmtree.pivots import select_pivots
from repro.pmtree.tree import PMTree

__all__ = [
    "FlatPMTree",
    "PMTree",
    "TraversalStats",
    "select_pivots",
]
