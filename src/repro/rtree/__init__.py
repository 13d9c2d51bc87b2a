"""R-tree substrate.

SRS (§3.1) indexes the projected points with an R-tree and repeatedly asks
for the *next* nearest point in the projected space (``incSearch``); the
R-LSH ablation (§6.1) runs PM-LSH's radius-enlarging algorithm on an R-tree
instead of a PM-tree.  This package provides both access paths: ball range
queries and a best-first incremental nearest-neighbour iterator over a
tree bulk-loaded by Sort-Tile-Recursive packing.
"""

from repro.rtree.geometry import MBR
from repro.rtree.tree import RTree

__all__ = ["MBR", "RTree"]
