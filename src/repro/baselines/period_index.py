"""The period index (paper Section 2, reference [4]).

A domain-partitioning, self-adaptive structure specialised for range and
duration queries.  The time domain is split into coarse partitions (as in a
1D-grid); each coarse partition is subdivided hierarchically into a fixed
number of levels.  Level ``j`` of a coarse partition is a grid of divisions of
width ``partition_width / 2**j`` -- finer at the top (level 0), coarser going
down.  Each interval is assigned, inside every coarse partition it overlaps,
to the level whose division length is just above the interval's duration, and
to every division of that level it overlaps (at most two, except at the
bottom-most level which holds everything longer).

Range queries visit the divisions overlapping the query at every level;
duration queries additionally skip the levels whose divisions are shorter than
the requested minimum duration.  Results are deduplicated with the
reference-value technique, like the 1D-grid.
"""

from __future__ import annotations

from typing import List

from repro.core.base import IntervalIndex, QueryStats, _int64_bounds
from repro.core.interval import Interval, IntervalCollection, Query
from repro.core.spans import SpanTable
from repro.engine.registry import register_backend

__all__ = ["PeriodIndex"]


class _CoarsePartition:
    """One coarse partition: ``num_levels`` grids of increasingly long divisions."""

    __slots__ = ("lo", "hi", "levels", "division_widths")

    def __init__(self, lo: int, hi: int, num_levels: int) -> None:
        self.lo = lo
        self.hi = hi
        extent = max(1, hi - lo + 1)
        self.levels: List[List[List[tuple[int, int, int]]]] = []
        self.division_widths: List[int] = []
        for level in range(num_levels):
            # level 0 has the finest divisions; the bottom level one division
            divisions = max(1, 2 ** (num_levels - 1 - level))
            width = max(1, (extent + divisions - 1) // divisions)
            self.division_widths.append(width)
            self.levels.append([[] for _ in range(divisions)])

    def level_for_duration(self, duration: int) -> int:
        """Level whose division width first accommodates ``duration``."""
        for level, width in enumerate(self.division_widths):
            if duration < width:
                return level
        return len(self.division_widths) - 1

    def divisions_for(self, level: int, start: int, end: int) -> range:
        """Division offsets at ``level`` overlapped by ``[start, end]`` (clamped)."""
        width = self.division_widths[level]
        count = len(self.levels[level])
        first = min(max((start - self.lo) // width, 0), count - 1)
        last = min(max((end - self.lo) // width, 0), count - 1)
        return range(first, last + 1)

    def division_bounds(self, level: int, offset: int) -> tuple[int, int]:
        """Raw ``[first, last]`` values covered by a division.

        The last division of each level is clamped to the coarse partition's
        upper bound so that divisions of neighbouring coarse partitions never
        overlap (otherwise the reference-value deduplication could report an
        interval twice).
        """
        width = self.division_widths[level]
        first = self.lo + offset * width
        return first, min(first + width - 1, self.hi)


@register_backend(
    "period",
    aliases=("period-index",),
    description="the (adaptive) period index: coarse partitions with duration levels",
    paper_section="Section 2 [4]",
)
class PeriodIndex(IntervalIndex):
    """Period index with uniform coarse partitions and duration levels.

    Args:
        collection: intervals to index.
        num_coarse_partitions: primary domain split (the paper uses 100).
        num_levels: duration levels per coarse partition (the paper uses 4-8).
    """

    name = "period-index"

    def __init__(
        self,
        collection: IntervalCollection,
        num_coarse_partitions: int = 100,
        num_levels: int = 4,
    ) -> None:
        if num_coarse_partitions < 1:
            raise ValueError("num_coarse_partitions must be >= 1")
        if num_levels < 1:
            raise ValueError("num_levels must be >= 1")
        self._p = num_coarse_partitions
        self._num_levels = num_levels
        if len(collection):
            lo, hi = collection.span()
        else:
            lo, hi = 0, 1
        self._lo = lo
        self._hi = max(hi, lo + 1)
        self._width = max(1, (self._hi - self._lo + self._p) // self._p)
        self._partitions = [
            _CoarsePartition(
                self._lo + i * self._width,
                self._lo + (i + 1) * self._width - 1,
                num_levels,
            )
            for i in range(self._p)
        ]
        self._spans = SpanTable(collection)
        self._replicas = 0
        for interval in collection:
            self._place(interval)

    @classmethod
    def build(cls, collection: IntervalCollection, **kwargs) -> "PeriodIndex":
        return cls(collection, **kwargs)

    # ------------------------------------------------------------------ #
    # partition arithmetic
    # ------------------------------------------------------------------ #
    def _coarse_of(self, value: int) -> int:
        cell = (value - self._lo) // self._width
        return min(max(cell, 0), self._p - 1)

    @property
    def replication_factor(self) -> float:
        """Average number of divisions each live interval is stored in."""
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
        entry = (interval.start, interval.end, interval.id)
        for division in self._divisions(interval):
            division.append(entry)
            self._replicas += 1

    def _divisions(self, interval: Interval):
        """The division lists ``interval`` is placed in."""
        first = self._coarse_of(interval.start)
        last = self._coarse_of(interval.end)
        for coarse in range(first, last + 1):
            partition = self._partitions[coarse]
            level = partition.level_for_duration(interval.duration)
            for division in partition.divisions_for(level, interval.start, interval.end):
                yield partition.levels[level][division]

    def delete(self, interval_id: int) -> bool:
        """Delete ``interval_id``: its entries leave every division it was
        placed in, so re-inserting the id later cannot resurrect them."""
        victim = self._spans.remove(interval_id)
        if victim is None:
            return False
        entry = (victim.start, victim.end, victim.id)
        for division in self._divisions(victim):
            division.remove(entry)
            self._replicas -= 1
        return True

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def query(self, query: Query) -> List[int]:
        results, _ = self._query(query, min_duration=0)
        return results

    def query_with_stats(self, query: Query) -> tuple[List[int], QueryStats]:
        return self._query(query, min_duration=0)

    def query_with_duration(self, query: Query, min_duration: int) -> List[int]:
        """Range + duration query: results must also have ``duration >= min_duration``."""
        results, _ = self._query(query, min_duration=min_duration)
        return results

    def _query(self, query: Query, min_duration: int) -> tuple[List[int], QueryStats]:
        results: List[int] = []
        stats = QueryStats()
        bounds = _int64_bounds(query)
        if bounds is None:
            return results, stats
        q_start, q_end = bounds
        # a reference point is never below q_start, which passes q_end by
        # one when the query holds no integer
        q_top = max(q_start, q_end)
        tombstones = self._spans.removed
        first, last = self._coarse_of(q_start), self._coarse_of(q_top)
        grid_max = self._lo + self._p * self._width - 1
        for coarse in range(first, last + 1):
            partition = self._partitions[coarse]
            for level in range(self._num_levels):
                # duration predicate: skip levels whose divisions are too
                # short to contain qualifying intervals (except the bottom
                # level, which holds arbitrarily long intervals)
                if (
                    min_duration > 0
                    and level < self._num_levels - 1
                    and partition.division_widths[level] <= min_duration
                ):
                    continue
                for division in partition.divisions_for(level, q_start, q_top):
                    entries = partition.levels[level][division]
                    stats.partitions_accessed += 1
                    if not entries:
                        continue
                    div_lo, div_hi = partition.division_bounds(level, division)
                    contained = q_start <= div_lo and div_hi <= q_end
                    if not contained:
                        stats.partitions_compared += 1
                    for start, end, sid in entries:
                        stats.candidates += 1
                        if sid in tombstones:
                            continue
                        if min_duration > 0 and end - start < min_duration:
                            continue
                        if not contained:
                            stats.comparisons += 2
                            if not (start <= q_end and q_start <= end):
                                continue
                        reference = max(start, q_start)
                        reference = min(max(reference, self._lo), grid_max)
                        stats.comparisons += 1
                        if div_lo <= reference <= div_hi:
                            results.append(sid)
        stats.results = len(results)
        return results, stats
