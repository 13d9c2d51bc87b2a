"""The PM-tree: an M-tree clipped by global-pivot hyper-rings (§4.1).

Indexing model
--------------
The tree indexes *row ids* of one fixed ``(n, m)`` float64 matrix (for
PM-LSH this is the projected dataset).  A ``(n, s)`` matrix of distances
from every point to the ``s`` global pivots is computed once per build,
by differences like every other distance here, and the leaves'
hyper-rings are reduced from it.  No query reads it, so the built tree
does not keep it, nor the members' distances to their leaf's centre,
which only give the leaves their covering radii.

There is one way to build it — :meth:`PMTree.build`'s bulk clustering —
and no way to grow it: PM-LSH appends new rows to the flat snapshot's
unindexed tail (:meth:`repro.pmtree.flat.FlatPMTree.extend`) and bulk-builds
again when the tail has grown.  The build emits the packed arrays the
flat traversal reads, in its breadth-first layout, and ``flatten()``
wraps them; there is no node graph and no second traversal.

The build, bottom-up:

1. points are median-split along generalised hyperplanes until every
   group fits a leaf (:func:`_balanced_leaf_groups`);
2. each leaf gets a routing entry — centre (an approximate 1-centre of
   its members), covering radius, hyper-rings — and each member its
   distance to that centre;
3. consecutive entries are packed into parents of near-equal fan-out,
   level by level, until one node is left: the root, whose entries have
   no parent routing object (parent distance 0);
4. the levels are laid out top-down, so node ids are breadth-first and
   each depth is one contiguous id range.

Pruning tests for a range query ``range(q, r)`` on a routing entry ``e``
(Eq. 5 of the paper), as :mod:`repro.kernels` applies them:

1. parent-distance test: ``|d(q, parent RO) − e.PD| > r + e.r`` → prune
   without computing ``d(q, e.RO)``;
2. sphere test: ``d(q, e.RO) > r + e.r`` → prune;
3. ring tests, one per pivot: the interval
   ``[d(q, p_i) − r, d(q, p_i) + r]`` must intersect ``e.HR[i]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.pmtree.pivots import select_pivots
from repro.utils.rng import RandomState, as_generator


@dataclass(eq=False)
class PMTree:
    """A bulk-built PM-tree over the rows of a fixed point matrix.

    The fields are those :class:`~repro.pmtree.flat.FlatPMTree` takes
    (node ids are breadth-first, the root is node 0, ``levels[d]`` is the
    ``[lo, hi)`` node-id range of depth d; ``span`` slices the ``entry_*``
    arrays for an inner node and ``leaf_ids`` for a leaf),
    plus the pivot selection it was built with.  Make one with
    :meth:`build`.
    """

    points: np.ndarray
    pivots: np.ndarray
    use_rings: bool
    use_parent_filter: bool
    is_leaf: np.ndarray
    span_start: np.ndarray
    span_end: np.ndarray
    levels: List[Tuple[int, int]]
    entry_center: np.ndarray
    entry_radius: np.ndarray
    entry_pd: np.ndarray
    entry_hr_min: np.ndarray
    entry_hr_max: np.ndarray
    entry_child: np.ndarray
    leaf_ids: np.ndarray
    pivot_method: str

    @classmethod
    def build(
        cls,
        points: np.ndarray,
        num_pivots: int = 5,
        capacity: int = 32,
        seed: RandomState = None,
        *,
        pivot_method: str = "maxsep",
        use_rings: bool = True,
        use_parent_filter: bool = True,
        pivots: Optional[np.ndarray] = None,
    ) -> "PMTree":
        """Bulk-build a PM-tree over all rows of *points*.

        ``num_pivots`` is the paper's ``s`` (0 yields a plain M-tree);
        every node holds at most ``capacity`` entries and every leaf at
        least ``capacity // 2``.  Explicit *pivots* (e.g. restored from a
        persisted index) bypass the ``pivot_method`` selection.
        ``use_rings`` / ``use_parent_filter`` switch the two PM-tree
        specific pruning tests for ablations.
        """
        points = np.ascontiguousarray(np.asarray(points, dtype=np.float64))
        if points.ndim != 2 or points.shape[0] == 0:
            raise ValueError(f"points must be a non-empty 2-D array, got shape {points.shape}")
        if capacity < 4:
            raise ValueError(f"capacity must be at least 4, got {capacity}")
        rng = as_generator(seed)
        if pivots is not None:
            pivots = np.asarray(pivots, dtype=np.float64)
            if pivots.ndim != 2 or pivots.shape[1] != points.shape[1]:
                raise ValueError(
                    f"pivots must be (s, {points.shape[1]}), got {pivots.shape}"
                )
            pivots = pivots.copy()
        else:
            pivots = select_pivots(points, num_pivots, method=pivot_method, seed=rng)
        return cls(
            points=points,
            pivots=pivots,
            use_rings=use_rings,
            use_parent_filter=use_parent_filter,
            pivot_method=pivot_method,
            **_layout(points, pivots, capacity, rng),
        )

    @property
    def num_pivots(self) -> int:
        return int(self.pivots.shape[0])

    def __len__(self) -> int:
        return int(self.leaf_ids.size)

    def flatten(self):
        """The :class:`~repro.pmtree.flat.FlatPMTree` over this tree's
        arrays (shared, not copied)."""
        from repro.pmtree.flat import FlatPMTree

        return FlatPMTree.from_tree(self)


# ----------------------------------------------------------------------
# the bulk build
# ----------------------------------------------------------------------


def _layout(points: np.ndarray, pivots: np.ndarray, capacity: int, rng) -> dict:
    """The tree's node and entry arrays (the module docstring's steps)."""
    n, m = points.shape
    s = pivots.shape[0]
    if n <= capacity:  # one leaf: the root has no routing object
        return dict(
            is_leaf=np.ones(1, dtype=bool),
            span_start=np.zeros(1, dtype=np.int64),
            span_end=np.full(1, n, dtype=np.int64),
            levels=[(0, 1)],
            entry_center=np.empty((0, m), dtype=np.float64),
            entry_radius=np.empty(0, dtype=np.float64),
            entry_pd=np.empty(0, dtype=np.float64),
            entry_hr_min=np.empty((0, s), dtype=np.float64),
            entry_hr_max=np.empty((0, s), dtype=np.float64),
            entry_child=np.empty(0, dtype=np.int64),
            leaf_ids=np.arange(n, dtype=np.int64),
        )
    groups = _balanced_leaf_groups(points, np.arange(n, dtype=np.int64), capacity, rng)
    leaf_ids = np.concatenate(groups)
    leaf_bounds = np.cumsum([0] + [group.size for group in groups])
    # Leaf routing entries: centre, covering radius, rings; each member's
    # distance to its leaf's centre.
    centers = [np.stack([_one_center(points[group], rng) for group in groups])]
    leaf_pd = _distances_to_owners(points, leaf_ids, centers[0], leaf_bounds)
    radii = [np.maximum.reduceat(leaf_pd, leaf_bounds[:-1])]
    rings = _pivot_distances(points, pivots)[leaf_ids]
    hr_min, hr_max = _ring_bounds(rings, rings, leaf_bounds[:-1])
    hr_mins, hr_maxs = [hr_min], [hr_max]
    # Entry levels bottom-up (level 0 routes to the leaves): packing level
    # d makes level d + 1 and gives level d its parent distances.
    pds: List[np.ndarray] = []
    packs: List[np.ndarray] = []  # per pack: the bounds of its chunks
    while centers[-1].shape[0] > 1:
        count = centers[-1].shape[0]
        bounds = np.linspace(0, count, int(np.ceil(count / capacity)) + 1).astype(np.int64)
        parent = np.stack(
            [_one_center(centers[-1][lo:hi], rng) for lo, hi in zip(bounds[:-1], bounds[1:])]
        )
        pds.append(_distances_to_owners(centers[-1], np.arange(count), parent, bounds))
        radii.append(np.maximum.reduceat(pds[-1] + radii[-1], bounds[:-1]))
        hr_min, hr_max = _ring_bounds(hr_mins[-1], hr_maxs[-1], bounds[:-1])
        hr_mins.append(hr_min)
        hr_maxs.append(hr_max)
        centers.append(parent)
        packs.append(bounds)
    # The last level is the root's own entry, which has no parent: drop
    # it.  The root's entries keep parent distance 0.
    for level in (centers, radii, hr_mins, hr_maxs):
        level.pop()
    pds[-1] = np.zeros_like(pds[-1])
    # Top-down layout: the root is node 0, and the entries of depth d's
    # nodes (entry level L − 1 − d) route to the nodes of depth d + 1, in
    # order — so entry e routes to node e + 1.
    counts = [level.shape[0] for level in reversed(centers)]
    entry_offsets = np.cumsum([0] + counts)
    num_nodes = 1 + int(entry_offsets[-1])
    levels = [(0, 1)] + [
        (1 + int(lo), 1 + int(hi)) for lo, hi in zip(entry_offsets[:-1], entry_offsets[1:])
    ]
    span_start = np.empty(num_nodes, dtype=np.int64)
    span_end = np.empty(num_nodes, dtype=np.int64)
    for depth, bounds in enumerate(reversed(packs)):  # the inner levels
        lo, hi = levels[depth]
        span_start[lo:hi] = entry_offsets[depth] + bounds[:-1]
        span_end[lo:hi] = entry_offsets[depth] + bounds[1:]
    leaves = slice(levels[-1][0], num_nodes)
    span_start[leaves], span_end[leaves] = leaf_bounds[:-1], leaf_bounds[1:]
    is_leaf = np.zeros(num_nodes, dtype=bool)
    is_leaf[leaves] = True
    return dict(
        is_leaf=is_leaf,
        span_start=span_start,
        span_end=span_end,
        levels=levels,
        entry_center=np.concatenate(centers[::-1]),
        entry_radius=np.concatenate(radii[::-1]),
        entry_pd=np.concatenate(pds[::-1]),
        entry_hr_min=np.concatenate(hr_mins[::-1]),
        entry_hr_max=np.concatenate(hr_maxs[::-1]),
        entry_child=np.arange(1, num_nodes, dtype=np.int64),
        leaf_ids=leaf_ids,
    )


def _balanced_leaf_groups(
    points: np.ndarray, ids: np.ndarray, capacity: int, rng
) -> List[np.ndarray]:
    """Median hyperplane splits until every group fits in one leaf: two
    far-apart seeds, members sorted by ``d(x, a) − d(x, b)``, halved."""
    if ids.size <= capacity:
        return [ids]
    coords = points[ids]
    anchor = coords[int(rng.integers(0, ids.size))]
    seed_a = coords[int(np.argmax(_distances_to(coords, anchor)))]
    to_a = _distances_to(coords, seed_a)
    seed_b = coords[int(np.argmax(to_a))]
    side = to_a - _distances_to(coords, seed_b)
    # Let go of this level's gather before the recursion: the
    # path from the root holds one id array per level, not n × m floats.
    del coords, anchor, seed_a, seed_b, to_a
    order = np.argsort(side, kind="stable")
    half = ids.size // 2
    left, right = ids[order[:half]], ids[order[half:]]
    return _balanced_leaf_groups(points, left, capacity, rng) + _balanced_leaf_groups(
        points, right, capacity, rng
    )


def _one_center(coords: np.ndarray, rng) -> np.ndarray:
    """Approximate 1-center: the member minimising the maximum distance
    to the others (exact over ≤ 128 members, sampled beyond)."""
    if coords.shape[0] == 1:
        return coords[0].copy()
    if coords.shape[0] > 128:
        sample = coords[rng.choice(coords.shape[0], size=128, replace=False)]
    else:
        sample = coords
    matrix = _pairwise(sample)
    return sample[int(np.argmin(matrix.max(axis=1)))].copy()


def _ring_bounds(
    lo: np.ndarray, hi: np.ndarray, starts: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Per group of consecutive rows: the smallest *lo* and largest *hi*
    per pivot (a group's hyper-rings)."""
    return np.minimum.reduceat(lo, starts, axis=0), np.maximum.reduceat(hi, starts, axis=0)


# ----------------------------------------------------------------------
# vector helpers
# ----------------------------------------------------------------------


#: Bytes of the difference block :func:`_distances_to` reuses.
_DIFF_BLOCK_BYTES = 1 << 18


def _distances_to(rows: np.ndarray, anchor: np.ndarray) -> np.ndarray:
    """``‖row − anchor‖`` per row, through one reused cache-sized block:
    each row reduces independently, so the blocks change no bit, and a
    bulk build's splits never hold an n × m difference matrix."""
    num_rows, dim = rows.shape
    out = np.empty(num_rows, dtype=np.float64)
    step = max(64, _DIFF_BLOCK_BYTES // (8 * max(1, dim)))
    diff = np.empty((min(step, num_rows), dim), dtype=np.float64)
    for lo in range(0, num_rows, step):
        hi = min(lo + step, num_rows)
        block = np.subtract(rows[lo:hi], anchor, out=diff[: hi - lo])
        np.einsum("ij,ij->i", block, block, out=out[lo:hi])
    return np.sqrt(out, out=out)


def _distances_to_owners(
    rows: np.ndarray, ids: np.ndarray, anchors: np.ndarray, bounds: np.ndarray
) -> np.ndarray:
    """``‖rows[ids[j]] − anchors[g]‖`` for every j in group g, the groups
    being ``ids[bounds[g]:bounds[g + 1]]``: :func:`_distances_to` per
    group, with the same per-row reduction and the same blocks' bytes."""
    out = np.empty(ids.size, dtype=np.float64)
    owner = np.repeat(np.arange(anchors.shape[0]), np.diff(bounds))
    step = max(64, _DIFF_BLOCK_BYTES // (8 * max(1, rows.shape[1])))
    for lo in range(0, ids.size, step):
        hi = min(lo + step, ids.size)
        block = rows[ids[lo:hi]]
        block -= anchors[owner[lo:hi]]
        np.einsum("ij,ij->i", block, block, out=out[lo:hi])
    return np.sqrt(out, out=out)


def _pivot_distances(points: np.ndarray, pivots: np.ndarray) -> np.ndarray:
    """``(n, s)`` distances from every point to every pivot, by
    differences: the norm expansion ``‖a‖² − 2a·b + ‖b‖²`` loses every
    digit far from the origin, and the ring filters then prune nodes
    that hold true matches."""
    out = np.empty((points.shape[0], pivots.shape[0]), dtype=np.float64)
    for column, pivot in enumerate(pivots):
        out[:, column] = _distances_to(points, pivot)
    return out


def _pairwise(coords: np.ndarray) -> np.ndarray:
    sq = np.einsum("ij,ij->i", coords, coords)
    matrix = sq[:, None] + sq[None, :] - 2.0 * (coords @ coords.T)
    np.maximum(matrix, 0.0, out=matrix)
    return np.sqrt(matrix)
