"""PM-tree node and entry structures.

The layout mirrors Fig. 4(b) of the paper:

* a **routing entry** (inner-node slot) stores the covering radius ``r``, a
  pointer to the covered subtree ``ptr``, the routing object ``RO`` (a data
  point acting as sphere centre), the distance ``PD`` to its parent routing
  object, and the hyper-ring intervals ``HR`` — one ``[min, max]`` distance
  interval per global pivot covering every point below the entry;
* a **leaf** stores point ids plus each point's distance to the leaf's
  parent routing object; per-point pivot distances live in one shared
  ``(n, s)`` matrix owned by the tree, so the leaf only keeps ids.

Nodes cache vectorised views (centre matrix, radii vector, HR stacks),
built on first use after the bulk load last touched the node (nothing
mutates a finished tree); queries touch only numpy.
"""

from __future__ import annotations

from typing import List, Optional, Union

import numpy as np


class RoutingEntry:
    """One inner-node slot: sphere + rings around a subtree."""

    __slots__ = ("center", "radius", "child", "parent_distance", "hr")

    def __init__(
        self,
        center: np.ndarray,
        radius: float,
        child: "Node",
        parent_distance: float,
        hr: np.ndarray,
    ) -> None:
        self.center = center  # (m,) routing-object coordinates
        self.radius = float(radius)
        self.child = child
        self.parent_distance = float(parent_distance)
        self.hr = hr  # (s, 2) [min, max] per pivot; s may be 0


class LeafNode:
    """A leaf: point ids plus their distances to the parent routing object."""

    __slots__ = ("ids", "parent_distances", "_ids_array", "_pd_array")

    is_leaf = True

    def __init__(self) -> None:
        self.ids: List[int] = []
        self.parent_distances: List[float] = []
        self._ids_array: Optional[np.ndarray] = None
        self._pd_array: Optional[np.ndarray] = None

    def invalidate(self) -> None:
        self._ids_array = None
        self._pd_array = None

    @property
    def ids_array(self) -> np.ndarray:
        if self._ids_array is None:
            self._ids_array = np.asarray(self.ids, dtype=np.int64)
        return self._ids_array

    @property
    def pd_array(self) -> np.ndarray:
        if self._pd_array is None:
            self._pd_array = np.asarray(self.parent_distances, dtype=np.float64)
        return self._pd_array

    def __len__(self) -> int:
        return len(self.ids)


class InnerNode:
    """An inner node: a list of routing entries plus cached numpy views."""

    __slots__ = ("entries", "_centers", "_radii", "_pds", "_hr_min", "_hr_max")

    is_leaf = False

    def __init__(self) -> None:
        self.entries: List[RoutingEntry] = []
        self._centers: Optional[np.ndarray] = None
        self._radii: Optional[np.ndarray] = None
        self._pds: Optional[np.ndarray] = None
        self._hr_min: Optional[np.ndarray] = None
        self._hr_max: Optional[np.ndarray] = None

    def add(self, entry: RoutingEntry) -> None:
        self.entries.append(entry)
        self.invalidate()

    def invalidate(self) -> None:
        self._centers = None
        self._radii = None
        self._pds = None
        self._hr_min = None
        self._hr_max = None

    def _rebuild(self) -> None:
        self._centers = np.stack([e.center for e in self.entries])
        self._radii = np.asarray([e.radius for e in self.entries], dtype=np.float64)
        self._pds = np.asarray([e.parent_distance for e in self.entries], dtype=np.float64)
        if self.entries and self.entries[0].hr.shape[0] > 0:
            self._hr_min = np.stack([e.hr[:, 0] for e in self.entries])
            self._hr_max = np.stack([e.hr[:, 1] for e in self.entries])
        else:
            count = len(self.entries)
            self._hr_min = np.empty((count, 0), dtype=np.float64)
            self._hr_max = np.empty((count, 0), dtype=np.float64)

    @property
    def centers(self) -> np.ndarray:
        if self._centers is None:
            self._rebuild()
        return self._centers

    @property
    def radii(self) -> np.ndarray:
        if self._radii is None:
            self._rebuild()
        return self._radii

    @property
    def pds(self) -> np.ndarray:
        if self._pds is None:
            self._rebuild()
        return self._pds

    @property
    def hr_min(self) -> np.ndarray:
        if self._hr_min is None:
            self._rebuild()
        return self._hr_min

    @property
    def hr_max(self) -> np.ndarray:
        if self._hr_max is None:
            self._rebuild()
        return self._hr_max

    def __len__(self) -> int:
        return len(self.entries)


Node = Union[LeafNode, InnerNode]
