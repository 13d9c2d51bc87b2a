"""An in-memory B+-tree over ordered keys with integer payloads — the
published index structure of QALSH and LSB-Forest, kept as the reference
that ``baseline_loops`` walks (the product answers from the trees' sorted
leaf arrays).

Design notes
------------
* Keys are ordered scalars (QALSH's float projections, LSB-Forest's integer
  z-values); duplicates are allowed (several points can share a hash
  value), so the tree is a sorted *multimap*.
* Leaves form a doubly-linked chain, enabling the two access patterns the
  baselines need: a one-shot ``range_search(lo, hi)`` and a :class:`Cursor`
  that starts at the query's position and walks left/right incrementally
  as the virtual-rehashing window grows.
* Nodes hold their keys in Python lists managed with ``bisect``; the
  structure (fan-out, splits, chained leaves) is faithful to the on-disk
  original.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Iterator, List, Optional, Tuple


class _Leaf:
    __slots__ = ("keys", "values", "next", "prev")

    def __init__(self) -> None:
        self.keys: List[float] = []
        self.values: List[int] = []
        self.next: Optional[_Leaf] = None
        self.prev: Optional[_Leaf] = None


class _Inner:
    __slots__ = ("keys", "children")

    def __init__(self) -> None:
        # children[i] covers keys < keys[i]; children[-1] covers the rest.
        self.keys: List[float] = []
        self.children: List[object] = []


class Cursor:
    """Bidirectional cursor over the leaf chain.

    A cursor sits *between* entries.  ``peek_left`` / ``peek_right`` expose
    the neighbouring ``(key, value)`` pairs without moving; ``move_left`` /
    ``move_right`` consume them.  QALSH holds one cursor per hash table,
    seeded at the query projection, and repeatedly consumes whichever side
    is still inside the current collision window.
    """

    __slots__ = ("_left_leaf", "_left_pos", "_right_leaf", "_right_pos")

    def __init__(self, leaf: Optional[_Leaf], pos: int) -> None:
        # Left side points at the entry just below the cursor; right side at
        # the entry at/above it.  Either may run off the chain (None).
        self._right_leaf = leaf
        self._right_pos = pos
        self._normalize_right()
        if leaf is None:
            self._left_leaf: Optional[_Leaf] = None
            self._left_pos = -1
        else:
            self._left_leaf = leaf
            self._left_pos = pos - 1
            self._normalize_left()

    def _normalize_right(self) -> None:
        while self._right_leaf is not None and self._right_pos >= len(self._right_leaf.keys):
            self._right_leaf = self._right_leaf.next
            self._right_pos = 0

    def _normalize_left(self) -> None:
        while self._left_leaf is not None and self._left_pos < 0:
            self._left_leaf = self._left_leaf.prev
            self._left_pos = len(self._left_leaf.keys) - 1 if self._left_leaf else -1

    def peek_right(self) -> Optional[Tuple[float, int]]:
        if self._right_leaf is None:
            return None
        return (self._right_leaf.keys[self._right_pos], self._right_leaf.values[self._right_pos])

    def peek_left(self) -> Optional[Tuple[float, int]]:
        if self._left_leaf is None:
            return None
        return (self._left_leaf.keys[self._left_pos], self._left_leaf.values[self._left_pos])

    def move_right(self) -> Optional[Tuple[float, int]]:
        entry = self.peek_right()
        if entry is not None:
            self._right_pos += 1
            self._normalize_right()
        return entry

    def move_left(self) -> Optional[Tuple[float, int]]:
        entry = self.peek_left()
        if entry is not None:
            self._left_pos -= 1
            self._normalize_left()
        return entry


class BPlusTree:
    """Sorted multimap ``float key -> int value`` with B+-tree structure.

    Parameters
    ----------
    order:
        Maximum number of keys per node (≥ 3).  Nodes split at
        ``order + 1`` keys into two halves.
    """

    def __init__(self, order: int = 64) -> None:
        if order < 3:
            raise ValueError(f"order must be at least 3, got {order}")
        self.order = order
        self._root: object = _Leaf()
        self._size = 0
        self._height = 1

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def from_items(cls, items: Iterable[Tuple[float, int]], order: int = 64) -> "BPlusTree":
        """Bulk-load from ``(key, value)`` pairs (need not be sorted).

        Builds the leaf level directly from the sorted items and stacks inner
        levels on top — O(n log n) for the sort, O(n) for the build.
        """
        pairs = sorted(items, key=lambda kv: kv[0])
        tree = cls(order=order)
        if not pairs:
            return tree
        # Fill leaves at ~ (order+1)//2 ... order utilisation; use a fixed
        # fill just under the maximum so early inserts don't cascade splits.
        fill = max(2, (order * 3) // 4) if len(pairs) > order else len(pairs)
        leaves: List[_Leaf] = []
        for start in range(0, len(pairs), fill):
            leaf = _Leaf()
            chunk = pairs[start : start + fill]
            leaf.keys = [k for k, _ in chunk]
            leaf.values = [int(v) for _, v in chunk]
            if leaves:
                leaves[-1].next = leaf
                leaf.prev = leaves[-1]
            leaves.append(leaf)
        # Guard against a dangling tiny final leaf: merge it into the
        # previous one if it underflows drastically (cosmetic only).
        if len(leaves) >= 2 and len(leaves[-1].keys) == 1:
            last = leaves.pop()
            leaves[-1].keys.extend(last.keys)
            leaves[-1].values.extend(last.values)
            leaves[-1].next = None
        tree._size = len(pairs)
        level: List[object] = list(leaves)
        separators = [leaf.keys[0] for leaf in leaves[1:]]
        height = 1
        while len(level) > 1:
            next_level: List[object] = []
            next_separators: List[float] = []
            group = max(2, fill)
            for start in range(0, len(level), group):
                inner = _Inner()
                inner.children = level[start : start + group]
                # Separators between the children inside this group; the
                # separator between two adjacent groups bubbles up instead.
                inner.keys = separators[start : start + len(inner.children) - 1]
                next_level.append(inner)
                if start + group < len(level):
                    next_separators.append(separators[start + group - 1])
            level = next_level
            separators = next_separators
            height += 1
        tree._root = level[0]
        tree._height = height
        return tree

    # ------------------------------------------------------------------
    # basic operations
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    @property
    def height(self) -> int:
        return self._height

    def insert(self, key: float, value: int) -> None:
        """Insert one pair; duplicate keys are kept (insertion goes after
        existing equal keys)."""
        split = self._insert_into(self._root, key, int(value))
        if split is not None:
            separator, right = split
            new_root = _Inner()
            new_root.keys = [separator]
            new_root.children = [self._root, right]
            self._root = new_root
            self._height += 1
        self._size += 1

    def _insert_into(self, node: object, key: float, value: int):
        if isinstance(node, _Leaf):
            pos = bisect.bisect_right(node.keys, key)
            node.keys.insert(pos, key)
            node.values.insert(pos, value)
            if len(node.keys) > self.order:
                return self._split_leaf(node)
            return None
        assert isinstance(node, _Inner)
        index = bisect.bisect_right(node.keys, key)
        split = self._insert_into(node.children[index], key, value)
        if split is None:
            return None
        separator, right = split
        node.keys.insert(index, separator)
        node.children.insert(index + 1, right)
        if len(node.keys) > self.order:
            return self._split_inner(node)
        return None

    def _split_leaf(self, leaf: _Leaf):
        mid = len(leaf.keys) // 2
        right = _Leaf()
        right.keys = leaf.keys[mid:]
        right.values = leaf.values[mid:]
        del leaf.keys[mid:]
        del leaf.values[mid:]
        right.next = leaf.next
        if right.next is not None:
            right.next.prev = right
        right.prev = leaf
        leaf.next = right
        return right.keys[0], right

    def _split_inner(self, inner: _Inner):
        mid = len(inner.keys) // 2
        separator = inner.keys[mid]
        right = _Inner()
        right.keys = inner.keys[mid + 1 :]
        right.children = inner.children[mid + 1 :]
        del inner.keys[mid:]
        del inner.children[mid + 1 :]
        return separator, right

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------

    def _find_leaf(self, key: float) -> Tuple[_Leaf, int]:
        """Leaf and in-leaf position of the first entry with key ≥ *key*.

        The position may equal ``len(leaf.keys)`` when every key in the last
        visited leaf is smaller.
        """
        node = self._root
        while isinstance(node, _Inner):
            index = bisect.bisect_left(node.keys, key)
            # Equal separator keys live in the right subtree after splits
            # with bisect_right insertion, so descend right on equality.
            while index < len(node.keys) and node.keys[index] == key:
                index += 1
            node = node.children[index]
        assert isinstance(node, _Leaf)
        pos = bisect.bisect_left(node.keys, key)
        return node, pos

    def _leftmost_geq(self, key: float) -> Tuple[Optional[_Leaf], int]:
        """First entry with key ≥ *key*, scanning back over equal duplicates
        that may have spilled into earlier leaves."""
        leaf, pos = self._find_leaf(key)
        # Walk back while the previous leaf ends with an equal key.
        current: Optional[_Leaf] = leaf
        while current is not None:
            prev = current.prev
            if pos == 0 and prev is not None and prev.keys and prev.keys[-1] >= key:
                current = prev
                pos = bisect.bisect_left(current.keys, key)
            else:
                break
        if current is not None and pos >= len(current.keys):
            nxt = current.next
            return (nxt, 0) if nxt is not None else (current, pos)
        return current, pos

    def search(self, key: float) -> List[int]:
        """All values stored under exactly *key* (empty list if none)."""
        results: List[int] = []
        leaf, pos = self._leftmost_geq(key)
        while leaf is not None:
            while pos < len(leaf.keys) and leaf.keys[pos] == key:
                results.append(leaf.values[pos])
                pos += 1
            if pos < len(leaf.keys) or leaf.next is None:
                break
            leaf = leaf.next
            pos = 0
            if leaf.keys and leaf.keys[0] != key:
                break
        return results

    def range_search(self, lo: float, hi: float) -> List[Tuple[float, int]]:
        """All ``(key, value)`` pairs with lo ≤ key ≤ hi, in key order."""
        if hi < lo:
            return []
        results: List[Tuple[float, int]] = []
        leaf, pos = self._leftmost_geq(lo)
        while leaf is not None:
            keys = leaf.keys
            while pos < len(keys):
                if keys[pos] > hi:
                    return results
                results.append((keys[pos], leaf.values[pos]))
                pos += 1
            leaf = leaf.next
            pos = 0
        return results

    def cursor(self, key: float) -> Cursor:
        """Cursor positioned between keys < *key* and keys ≥ *key*."""
        leaf, pos = self._leftmost_geq(key)
        if leaf is None:
            # Empty tree.
            return Cursor(None, 0)
        return Cursor(leaf, pos)

    def items(self) -> Iterator[Tuple[float, int]]:
        """All pairs in ascending key order."""
        node = self._root
        while isinstance(node, _Inner):
            node = node.children[0]
        leaf: Optional[_Leaf] = node
        while leaf is not None:
            yield from zip(leaf.keys, leaf.values)
            leaf = leaf.next

    def min_key(self) -> Optional[float]:
        for key, _ in self.items():
            return key
        return None

    def max_key(self) -> Optional[float]:
        node = self._root
        while isinstance(node, _Inner):
            node = node.children[-1]
        assert isinstance(node, _Leaf)
        # The rightmost leaf can be empty only when the whole tree is empty.
        return node.keys[-1] if node.keys else None

    # ------------------------------------------------------------------
    # validation (used by tests)
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Raise AssertionError if any structural invariant is violated."""
        size = sum(1 for _ in self.items())
        assert size == self._size, f"size mismatch: chain has {size}, counter {self._size}"
        keys = [k for k, _ in self.items()]
        assert all(a <= b for a, b in zip(keys, keys[1:])), "leaf chain not sorted"
        self._check_node(self._root, lo=None, hi=None, depth=0)

    def _check_node(self, node: object, lo: Optional[float], hi: Optional[float], depth: int) -> int:
        if isinstance(node, _Leaf):
            for key in node.keys:
                assert lo is None or key >= lo, f"leaf key {key} below separator {lo}"
                assert hi is None or key <= hi, f"leaf key {key} above separator {hi}"
            return 1
        assert isinstance(node, _Inner)
        assert len(node.children) == len(node.keys) + 1, "inner fan-out mismatch"
        assert all(a <= b for a, b in zip(node.keys, node.keys[1:])), "inner keys unsorted"
        heights = set()
        bounds = [lo] + list(node.keys) + [hi]
        for i, child in enumerate(node.children):
            heights.add(self._check_node(child, bounds[i], bounds[i + 1], depth + 1))
        assert len(heights) == 1, "children at different heights"
        return heights.pop() + 1
