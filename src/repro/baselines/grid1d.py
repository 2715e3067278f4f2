"""Uniform 1D-grid with reference-value duplicate elimination (Section 2).

The domain is split into ``p`` partitions of equal width; every interval is
replicated into each partition it overlaps.  A range query visits the
partitions overlapping the query: partitions fully contained in the query
contribute all their intervals, boundary partitions require per-interval
comparisons.  Because an interval may be reported in several partitions, the
*reference value* technique of Dittrich and Seeger [15] is used: an interval
``s`` is reported in partition ``P_i`` only if ``max(s.st, q.st)`` falls in
``P_i``, which dedupes results without a hash set.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.base import IntervalIndex, QueryStats, _int64_bounds
from repro.core.interval import Interval, IntervalCollection, Query
from repro.core.spans import SpanTable
from repro.engine.registry import register_backend

__all__ = ["Grid1D"]


@register_backend(
    "grid1d",
    aliases=("1d-grid",),
    description="uniform 1D-grid with reference-value duplicate elimination",
    paper_section="Section 2 [15]",
)
class Grid1D(IntervalIndex):
    """A uniform one-dimensional grid over the data span.

    Args:
        collection: intervals to index.
        num_partitions: the grid resolution ``p``.
    """

    name = "1d-grid"

    def __init__(self, collection: IntervalCollection, num_partitions: int = 1000) -> None:
        if num_partitions < 1:
            raise ValueError(f"num_partitions must be >= 1, got {num_partitions}")
        self._p = num_partitions
        if len(collection):
            lo, hi = collection.span()
        else:
            lo, hi = 0, 1
        self._lo = lo
        self._hi = max(hi, lo + 1)
        self._width = max(1, (self._hi - self._lo + self._p) // self._p)
        # each cell holds (start, end, id) triples in insertion order
        self._cells: List[List[tuple[int, int, int]]] = [[] for _ in range(self._p)]
        self._spans = SpanTable(collection)
        self._replicas = 0
        for interval in collection:
            self._place(interval)

    @classmethod
    def build(cls, collection: IntervalCollection, **kwargs) -> "Grid1D":
        return cls(collection, **kwargs)

    # ------------------------------------------------------------------ #
    # partition arithmetic
    # ------------------------------------------------------------------ #
    def _cell_of(self, value: int) -> int:
        """Grid cell containing ``value`` (clamped to the grid)."""
        cell = (value - self._lo) // self._width
        return min(max(cell, 0), self._p - 1)

    def cell_bounds(self, cell: int) -> tuple[int, int]:
        """Raw ``[first, last]`` values covered by ``cell``."""
        first = self._lo + cell * self._width
        return first, first + self._width - 1

    @property
    def num_partitions(self) -> int:
        """Grid resolution ``p``."""
        return self._p

    @property
    def replication_factor(self) -> float:
        """Average number of cells each live interval is stored in."""
        if len(self) == 0:
            return 0.0
        return self._replicas / len(self)

    # ------------------------------------------------------------------ #
    # updates
    # ------------------------------------------------------------------ #
    def insert(self, interval: Interval) -> None:
        self._place(interval)
        self._spans.add(interval)

    def _place(self, interval: Interval) -> None:
        first = self._cell_of(interval.start)
        last = self._cell_of(interval.end)
        entry = (interval.start, interval.end, interval.id)
        for cell in range(first, last + 1):
            self._cells[cell].append(entry)
        self._replicas += last - first + 1

    def delete(self, interval_id: int) -> bool:
        """Delete ``interval_id``: its entries leave every cell it was placed
        in, so re-inserting the id later cannot resurrect them."""
        victim = self._spans.remove(interval_id)
        if victim is None:
            return False
        entry = (victim.start, victim.end, victim.id)
        for cell in range(self._cell_of(victim.start), self._cell_of(victim.end) + 1):
            self._cells[cell].remove(entry)
            self._replicas -= 1
        return True

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def query(self, query: Query) -> List[int]:
        results, _ = self._query(query)
        return results

    def query_with_stats(self, query: Query) -> tuple[List[int], QueryStats]:
        return self._query(query)

    def _query(self, query: Query) -> tuple[List[int], QueryStats]:
        stats = QueryStats()
        results = list(self._iter_results(query, stats))
        stats.results = len(results)
        return results, stats

    def _iter_results(self, query: Query, stats: Optional[QueryStats] = None):
        """The single encoding of the grid traversal: yields each result id
        once (reference-value dedup included), optionally filling ``stats``.

        :meth:`query`/:meth:`query_with_stats` materialise the stream;
        counts never walk the grid (they read the span table's count pair,
        see :meth:`IntervalIndex.query_count
        <repro.core.base.IntervalIndex.query_count>`).
        """
        bounds = _int64_bounds(query)
        if bounds is None:
            return
        q_start, q_end = bounds
        tombstones = self._spans.removed
        grid_max = self._lo + self._p * self._width - 1
        # a reference point is never below q_start, which passes q_end by
        # one when the query holds no integer
        first, last = self._cell_of(q_start), self._cell_of(max(q_start, q_end))
        for cell in range(first, last + 1):
            entries = self._cells[cell]
            if stats is not None:
                stats.partitions_accessed += 1
            if not entries:
                continue
            cell_lo, cell_hi = self.cell_bounds(cell)
            boundary = not (q_start <= cell_lo and cell_hi <= q_end)
            if boundary and stats is not None:
                stats.partitions_compared += 1
            for start, end, sid in entries:
                if stats is not None:
                    stats.candidates += 1
                if sid in tombstones:
                    continue
                if boundary:
                    if stats is not None:
                        stats.comparisons += 2
                    if not (start <= q_end and q_start <= end):
                        continue
                # reference-value duplicate elimination: report s only in the
                # cell containing max(s.st, q.st).  The reference is clamped
                # to the grid extent so results are not lost when intervals or
                # queries protrude beyond the grid's build-time span.
                reference = max(start, q_start)
                reference = min(max(reference, self._lo), grid_max)
                if stats is not None:
                    stats.comparisons += 1
                if cell_lo <= reference <= cell_hi:
                    yield sid
