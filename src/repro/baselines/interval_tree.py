"""Edelsbrunner's interval tree (paper Section 2, reference [16]).

The tree recursively splits the domain at its centre point ``c``: intervals
strictly left of ``c`` go to the left subtree, intervals strictly right of
``c`` go to the right subtree, and intervals overlapping ``c`` are stored at
the node in two sorted lists -- ``ST`` (sorted by start, ascending) and
``END`` (sorted by end, ascending but scanned from the back) -- so a
stabbing/range query can stop scanning as soon as the first non-qualifying
interval is met.

This is the classic O(n) space, O(log n + K) query structure.  The paper's
criticisms of it (one comparison for most results, slow updates because node
lists must stay sorted) are reproduced faithfully: inserts keep the node lists
sorted via binary insertion and deletes remove from them.
"""

from __future__ import annotations

from bisect import insort
from typing import List, Optional

from repro.core.base import IntervalIndex, QueryStats
from repro.core.interval import Interval, IntervalCollection, Query
from repro.core.spans import SpanTable
from repro.engine.registry import register_backend

__all__ = ["IntervalTree"]


class _Node:
    """One interval-tree node: a centre point plus the intervals crossing it."""

    __slots__ = ("center", "lo", "hi", "by_start", "by_end", "left", "right")

    def __init__(self, lo: int, hi: int) -> None:
        self.lo = lo
        self.hi = hi
        self.center = (lo + hi) // 2
        # by_start: (start, end, id) ascending by start
        # by_end:   (end, start, id) ascending by end (scanned from the back)
        self.by_start: List[tuple[int, int, int]] = []
        self.by_end: List[tuple[int, int, int]] = []
        self.left: Optional["_Node"] = None
        self.right: Optional["_Node"] = None


@register_backend(
    "interval_tree",
    aliases=("interval-tree",),
    description="Edelsbrunner's centered interval tree",
    paper_section="Section 2 [16]",
)
class IntervalTree(IntervalIndex):
    """Binary interval tree over the data span."""

    name = "interval-tree"

    def __init__(self, collection: IntervalCollection) -> None:
        self._spans = SpanTable(collection)
        #: ``(start, end, id)`` of intervals inserted after construction that
        #: fall outside the root span; scanned linearly (the tree's domain
        #: estimate is fixed at build time, mirroring the static structure
        #: the paper benchmarks).
        self._overflow: List[tuple[int, int, int]] = []
        if len(collection):
            lo, hi = collection.span()
        else:
            lo, hi = 0, 1
        self._root = _Node(lo, max(hi, lo + 1))
        for interval in collection:
            self._insert_into_tree(interval)

    @classmethod
    def build(cls, collection: IntervalCollection) -> "IntervalTree":
        return cls(collection)

    # ------------------------------------------------------------------ #
    # construction / updates
    # ------------------------------------------------------------------ #
    def _insert_into_tree(self, interval: Interval) -> None:
        node = self._root
        while True:
            center = node.center
            if interval.end < center and interval.start >= node.lo:
                if node.left is None:
                    node.left = _Node(node.lo, center - 1)
                node = node.left
            elif interval.start > center and interval.end <= node.hi:
                if node.right is None:
                    node.right = _Node(center + 1, node.hi)
                node = node.right
            else:
                insort(node.by_start, (interval.start, interval.end, interval.id))
                insort(node.by_end, (interval.end, interval.start, interval.id))
                return

    def insert(self, interval: Interval) -> None:
        self._spans.add(interval)
        if interval.start < self._root.lo or interval.end > self._root.hi:
            self._overflow.append((interval.start, interval.end, interval.id))
            return
        self._insert_into_tree(interval)

    def delete(self, interval_id: int) -> bool:
        interval = self._spans.get(interval_id)
        if interval is None:
            return False
        entry = (interval.start, interval.end, interval.id)
        if entry in self._overflow:
            self._overflow.remove(entry)
            self._spans.remove(interval_id)
            return True
        node: Optional[_Node] = self._root
        while node is not None:
            if entry in node.by_start:
                node.by_start.remove(entry)
                node.by_end.remove((interval.end, interval.start, interval.id))
                self._spans.remove(interval_id)
                return True
            if interval.end < node.center:
                node = node.left
            elif interval.start > node.center:
                node = node.right
            else:
                break
        return False

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def query(self, query: Query) -> List[int]:
        results, _ = self._query(query)
        return results

    def query_with_stats(self, query: Query) -> tuple[List[int], QueryStats]:
        return self._query(query)

    def _query(self, query: Query) -> tuple[List[int], QueryStats]:
        results: List[int] = []
        stats = QueryStats()
        node: Optional[_Node]
        stack: List[Optional[_Node]] = [self._root]
        while stack:
            node = stack.pop()
            if node is None:
                continue
            stats.partitions_accessed += 1
            if query.start <= node.center <= query.end:
                # every interval stored here crosses the centre, which the
                # query covers, so all are results without comparisons
                results.extend(entry[2] for entry in node.by_start)
                stats.candidates += len(node.by_start)
                stack.append(node.left)
                stack.append(node.right)
            elif query.end < node.center:
                # stored intervals end at/after the centre, hence after q.end;
                # they overlap iff they start at or before q.end
                if node.by_start:
                    stats.partitions_compared += 1
                for start, _end, sid in node.by_start:
                    stats.comparisons += 1
                    stats.candidates += 1
                    if start > query.end:
                        break
                    results.append(sid)
                stack.append(node.left)
            else:  # query.start > node.center
                # stored intervals start at/before the centre, hence before
                # q.start; they overlap iff they end at or after q.start
                if node.by_end:
                    stats.partitions_compared += 1
                for end, _start, sid in reversed(node.by_end):
                    stats.comparisons += 1
                    stats.candidates += 1
                    if end < query.start:
                        break
                    results.append(sid)
                stack.append(node.right)
        for start, end, sid in self._overflow:
            stats.comparisons += 2
            stats.candidates += 1
            if start <= query.end and query.start <= end:
                results.append(sid)
        stats.results = len(results)
        return results, stats

    # ------------------------------------------------------------------ #
    # introspection used by tests
    # ------------------------------------------------------------------ #
    def height(self) -> int:
        """Height of the tree (number of levels), computed iteratively."""
        best = 0
        stack: List[tuple[Optional[_Node], int]] = [(self._root, 1)]
        while stack:
            node, depth = stack.pop()
            if node is None:
                continue
            best = max(best, depth)
            stack.append((node.left, depth + 1))
            stack.append((node.right, depth + 1))
        return best

    def node_count(self) -> int:
        """Number of allocated nodes."""
        count = 0
        stack: List[Optional[_Node]] = [self._root]
        while stack:
            node = stack.pop()
            if node is None:
                continue
            count += 1
            stack.append(node.left)
            stack.append(node.right)
        return count
