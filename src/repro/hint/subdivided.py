"""HINT^m with partition subdivisions, sorting and storage optimization (Section 4.1).

Every partition ``P[l,i]`` is further divided into four groups:

* ``O_in``  -- originals that end inside the partition,
* ``O_aft`` -- originals that end after the partition,
* ``R_in``  -- replicas that end inside the partition,
* ``R_aft`` -- replicas that end after the partition.

Lemmas 5 and 6 of the paper then reduce the comparisons needed in the first /
last relevant partition of each level to at most one per interval (and zero
for the ``*_aft`` groups when the query spans several partitions).

Two optional optimizations from the paper are controlled by constructor
flags, matching the four variants of the Figure 11 ablation:

* ``sort_subdivisions`` (Section 4.1.1): keeps each subdivision sorted by the
  endpoint that its comparisons use (Table 3), so boundary-partition scans
  can stop early / use binary search.
* ``storage_optimization`` (Section 4.1.2): stores only the endpoint columns
  a subdivision can ever need (``O_in``: start+end, ``O_aft``: start,
  ``R_in``: end, ``R_aft``: nothing but the id), reducing the footprint of
  replicated intervals.

The combination ``sort_subdivisions=True, storage_optimization=True`` is the
paper's ``subs+sort+sopt`` configuration, which Section 5.2.2 selects as the
default for HINT^m.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional, Tuple

from repro.core.base import IntervalIndex, QueryStats
from repro.core.domain import Domain
from repro.core.errors import DomainError
from repro.core.interval import Interval, IntervalCollection, Query
from repro.core.spans import SpanTable
from repro.engine.registry import register_backend
from repro.hint.partitioning import covered_range, partition_assignments, relevant_offsets

__all__ = ["SubdividedHINTm"]


class _Subdivision:
    """One of the four per-partition groups, stored columnarly.

    The three columns are kept in the same order; columns that the group can
    never need (per Table 3) are simply left unused when the storage
    optimization is active.
    """

    __slots__ = ("ids", "starts", "ends", "sort_key", "_sorted")

    def __init__(self, sort_key: Optional[str]) -> None:
        self.ids: List[int] = []
        self.starts: List[int] = []
        self.ends: List[int] = []
        #: "start", "end" or None -- which column the group is kept sorted by
        self.sort_key = sort_key
        self._sorted = True

    def append(self, interval_id: int, start: Optional[int], end: Optional[int]) -> None:
        self.ids.append(interval_id)
        if start is not None:
            self.starts.append(start)
        if end is not None:
            self.ends.append(end)
        self._sorted = False

    def remove(self, interval_id: int) -> None:
        """Drop ``interval_id``'s entry; a stored column is parallel to the
        ids, so the same position goes from each (the order survives)."""
        position = self.ids.index(interval_id)
        del self.ids[position]
        if self.starts:
            del self.starts[position]
        if self.ends:
            del self.ends[position]

    def __len__(self) -> int:
        return len(self.ids)

    def ensure_sorted(self) -> None:
        """Sort the group by its beneficial key (no-op when no key or already sorted)."""
        if self.sort_key is None or self._sorted or len(self.ids) <= 1:
            self._sorted = True
            return
        if self.sort_key == "start":
            key_column = self.starts
        else:
            key_column = self.ends
        order = sorted(range(len(self.ids)), key=key_column.__getitem__)
        self.ids = [self.ids[i] for i in order]
        if self.starts:
            self.starts = [self.starts[i] for i in order]
        if self.ends:
            self.ends = [self.ends[i] for i in order]
        self._sorted = True


class _Partition:
    """The four subdivisions of one HINT^m partition."""

    __slots__ = ("o_in", "o_aft", "r_in", "r_aft")

    def __init__(self, sort_enabled: bool) -> None:
        self.o_in = _Subdivision("start" if sort_enabled else None)
        self.o_aft = _Subdivision("start" if sort_enabled else None)
        self.r_in = _Subdivision("end" if sort_enabled else None)
        self.r_aft = _Subdivision(None)

    def subdivisions(self) -> Tuple[_Subdivision, _Subdivision, _Subdivision, _Subdivision]:
        return self.o_in, self.o_aft, self.r_in, self.r_aft

    def __len__(self) -> int:
        return len(self.o_in) + len(self.o_aft) + len(self.r_in) + len(self.r_aft)


@register_backend(
    "hintm_sub",
    aliases=("hint-m-subs",),
    description="HINT^m with subdivisions, sorting and storage optimization",
    paper_section="Section 4.1",
    tunable=True,
)
class SubdividedHINTm(IntervalIndex):
    """HINT^m with ``O_in/O_aft/R_in/R_aft`` subdivisions (paper Section 4.1).

    Args:
        collection: intervals to index (raw endpoints).
        num_bits: the ``m`` parameter.
        sort_subdivisions: keep subdivisions sorted (Section 4.1.1).
        storage_optimization: store only the needed endpoint columns
            (Section 4.1.2).
        domain: optional pre-built discrete domain.
    """

    name = "hint-m-subs"

    def __init__(
        self,
        collection: IntervalCollection,
        num_bits: int = 10,
        sort_subdivisions: bool = True,
        storage_optimization: bool = True,
        domain: Optional[Domain] = None,
    ) -> None:
        if num_bits < 1:
            raise DomainError(f"num_bits must be >= 1, got {num_bits}")
        self._m = num_bits
        self._sort = sort_subdivisions
        self._sopt = storage_optimization
        if domain is None:
            domain = Domain.for_collection(collection.starts, collection.ends, num_bits)
        elif domain.num_bits != num_bits:
            raise DomainError(
                f"domain has {domain.num_bits} bits but the index expects {num_bits}"
            )
        self._domain = domain
        self._spans = SpanTable(collection)
        self._assignments = 0
        self._levels: List[Dict[int, _Partition]] = [{} for _ in range(num_bits + 1)]
        self._dirty = False
        for interval in collection:
            self._place(interval)
        self._ensure_sorted()

    @classmethod
    def build(
        cls,
        collection: IntervalCollection,
        num_bits: int = 10,
        sort_subdivisions: bool = True,
        storage_optimization: bool = True,
        **kwargs,
    ) -> "SubdividedHINTm":
        return cls(
            collection,
            num_bits=num_bits,
            sort_subdivisions=sort_subdivisions,
            storage_optimization=storage_optimization,
            **kwargs,
        )

    # ------------------------------------------------------------------ #
    # properties
    # ------------------------------------------------------------------ #
    @property
    def num_bits(self) -> int:
        """The ``m`` parameter."""
        return self._m

    @property
    def num_levels(self) -> int:
        """Number of levels (``m + 1``)."""
        return self._m + 1

    @property
    def domain(self) -> Domain:
        """The discrete domain used by the index."""
        return self._domain

    @property
    def sort_subdivisions(self) -> bool:
        """True when subdivisions are kept sorted (Section 4.1.1)."""
        return self._sort

    @property
    def storage_optimization(self) -> bool:
        """True when only the needed endpoint columns are stored (Section 4.1.2)."""
        return self._sopt

    @property
    def replication_factor(self) -> float:
        """Average number of partitions each interval is stored in."""
        if len(self) == 0:
            return 0.0
        return self._assignments / len(self)

    def nonempty_partitions(self) -> int:
        """Number of partitions holding at least one interval."""
        return sum(len(level) for level in self._levels)

    # ------------------------------------------------------------------ #
    # updates
    # ------------------------------------------------------------------ #
    def insert(self, interval: Interval) -> None:
        """Insert ``interval`` (Algorithm 1 plus the subdivision bookkeeping)."""
        self._place(interval)
        self._spans.add(interval)

    def _place(self, interval: Interval) -> None:
        for partition, group in self._groups(interval):
            start, end = self._columns_for(group, partition, interval)
            group.append(interval.id, start, end)
            self._assignments += 1
        self._dirty = True

    def _groups(self, interval: Interval):
        """``(partition, subdivision)`` of each of ``interval``'s assignments
        (Algorithm 1), creating partitions on first use."""
        mapped_start = self._domain.map_value(interval.start)
        mapped_end = self._domain.map_value(interval.end)
        for assignment in partition_assignments(self._m, mapped_start, mapped_end):
            partition = self._levels[assignment.level].setdefault(
                assignment.offset, _Partition(self._sort)
            )
            _, partition_last = covered_range(self._m, assignment.level, assignment.offset)
            ends_inside = mapped_end <= partition_last
            if assignment.is_original:
                group = partition.o_in if ends_inside else partition.o_aft
            else:
                group = partition.r_in if ends_inside else partition.r_aft
            yield partition, group

    def _columns_for(
        self, group: _Subdivision, partition: _Partition, interval: Interval
    ) -> Tuple[Optional[int], Optional[int]]:
        """Which endpoint columns to store for ``interval`` in ``group``.

        With the storage optimization active, only the columns listed in
        Table 3 are retained; otherwise the full triple is kept everywhere.
        """
        if not self._sopt:
            return interval.start, interval.end
        if group is partition.o_in:
            return interval.start, interval.end
        if group is partition.o_aft:
            return interval.start, None
        if group is partition.r_in:
            return None, interval.end
        return None, None  # r_aft keeps only the id

    def delete(self, interval_id: int) -> bool:
        """Delete ``interval_id``: its entries leave every partition it was
        assigned to, so re-inserting the id later cannot resurrect them."""
        victim = self._spans.remove(interval_id)
        if victim is None:
            return False
        for _, group in self._groups(victim):
            group.remove(interval_id)
            self._assignments -= 1
        return True

    def _ensure_sorted(self) -> None:
        if not self._sort or not self._dirty:
            self._dirty = False
            return
        for level in self._levels:
            for partition in level.values():
                for group in partition.subdivisions():
                    group.ensure_sorted()
        self._dirty = False

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def query(self, query: Query) -> List[int]:
        results, _ = self.query_with_stats(query)
        return results

    def query_with_stats(self, query: Query) -> tuple[List[int], QueryStats]:
        if self._sort and self._dirty:
            self._ensure_sorted()
        stats = QueryStats()
        results: List[int] = []
        mq_start = self._domain.map_value(query.start)
        mq_end = self._domain.map_value(query.end)
        comp_first = True
        comp_last = True
        for level in range(self._m, -1, -1):
            first, last = relevant_offsets(self._m, level, mq_start, mq_end)
            partitions = self._levels[level]
            first_partition = partitions.get(first)
            if first_partition is not None:
                stats.partitions_accessed += 1
                if first == last:
                    self._visit_single(
                        first_partition, query, comp_first, comp_last, results, stats
                    )
                else:
                    self._visit_first(
                        first_partition, query, comp_first, results, stats
                    )
            if last > first:
                for offset in range(first + 1, last):
                    partition = partitions.get(offset)
                    if partition is None:
                        continue
                    stats.partitions_accessed += 1
                    self._report_all(partition.o_in, results, stats)
                    self._report_all(partition.o_aft, results, stats)
                last_partition = partitions.get(last)
                if last_partition is not None:
                    stats.partitions_accessed += 1
                    self._visit_last(last_partition, query, comp_last, results, stats)
            comp_first, comp_last = self._lower_flags(
                level, first, last, mq_start, mq_end, comp_first, comp_last
            )
        tombstones = self._spans.removed
        if tombstones:
            results = [sid for sid in results if sid not in tombstones]
        stats.results = len(results)
        return results, stats

    # -- per-partition visitors ------------------------------------------ #
    def _visit_first(
        self,
        partition: _Partition,
        query: Query,
        comp_first: bool,
        results: List[int],
        stats: QueryStats,
    ) -> None:
        """First relevant partition when the query spans several partitions (Lemma 5)."""
        if comp_first:
            if len(partition.o_in) or len(partition.r_in):
                stats.partitions_compared += 1
            self._report_end_after(partition.o_in, query.start, results, stats)
            self._report_end_after(partition.r_in, query.start, results, stats)
        else:
            self._report_all(partition.o_in, results, stats)
            self._report_all(partition.r_in, results, stats)
        self._report_all(partition.o_aft, results, stats)
        self._report_all(partition.r_aft, results, stats)

    def _visit_last(
        self,
        partition: _Partition,
        query: Query,
        comp_last: bool,
        results: List[int],
        stats: QueryStats,
    ) -> None:
        """Last relevant partition, ``l > f``: only originals, one comparison each."""
        if comp_last:
            if len(partition.o_in) or len(partition.o_aft):
                stats.partitions_compared += 1
            self._report_start_before(partition.o_in, query.end, results, stats)
            self._report_start_before(partition.o_aft, query.end, results, stats)
        else:
            self._report_all(partition.o_in, results, stats)
            self._report_all(partition.o_aft, results, stats)

    def _visit_single(
        self,
        partition: _Partition,
        query: Query,
        comp_first: bool,
        comp_last: bool,
        results: List[int],
        stats: QueryStats,
    ) -> None:
        """The query overlaps a single partition at this level (Lemma 6)."""
        if comp_first or comp_last:
            if len(partition):
                stats.partitions_compared += 1
        # O_in: both endpoints may need testing
        if comp_first and comp_last:
            self._report_full_test(partition.o_in, query, results, stats)
        elif comp_first:
            self._report_end_after(partition.o_in, query.start, results, stats)
        elif comp_last:
            self._report_start_before(partition.o_in, query.end, results, stats)
        else:
            self._report_all(partition.o_in, results, stats)
        # O_aft: ends after the partition, only the start side can disqualify
        if comp_last:
            self._report_start_before(partition.o_aft, query.end, results, stats)
        else:
            self._report_all(partition.o_aft, results, stats)
        # R_in: starts before the partition, only the end side can disqualify
        if comp_first:
            self._report_end_after(partition.r_in, query.start, results, stats)
        else:
            self._report_all(partition.r_in, results, stats)
        # R_aft: starts before and ends after -- always a result
        self._report_all(partition.r_aft, results, stats)

    # -- group reporting primitives --------------------------------------- #
    def _report_all(
        self, group: _Subdivision, results: List[int], stats: QueryStats
    ) -> None:
        if not group.ids:
            return
        stats.candidates += len(group.ids)
        results.extend(group.ids)

    def _report_end_after(
        self, group: _Subdivision, q_start: int, results: List[int], stats: QueryStats
    ) -> None:
        """Report members with ``end >= q_start``."""
        if not group.ids:
            return
        ends = group.ends
        if self._sort and group.sort_key == "end" and not self._dirty:
            # sorted ascending by end: qualifying members form a suffix
            cut = bisect_left(ends, q_start)
            stats.comparisons += max(1, (len(ends) - cut).bit_length())
            stats.candidates += len(ends) - cut
            results.extend(group.ids[cut:])
            return
        stats.candidates += len(group.ids)
        stats.comparisons += len(group.ids)
        results.extend(sid for sid, end in zip(group.ids, ends) if end >= q_start)

    def _report_start_before(
        self, group: _Subdivision, q_end: int, results: List[int], stats: QueryStats
    ) -> None:
        """Report members with ``start <= q_end``."""
        if not group.ids:
            return
        starts = group.starts
        if self._sort and group.sort_key == "start" and not self._dirty:
            # sorted ascending by start: qualifying members form a prefix
            cut = bisect_right(starts, q_end)
            stats.comparisons += max(1, cut.bit_length())
            stats.candidates += cut
            results.extend(group.ids[:cut])
            return
        stats.candidates += len(group.ids)
        stats.comparisons += len(group.ids)
        results.extend(sid for sid, start in zip(group.ids, starts) if start <= q_end)

    def _report_full_test(
        self, group: _Subdivision, query: Query, results: List[int], stats: QueryStats
    ) -> None:
        """Report members overlapping the query (both comparisons)."""
        if not group.ids:
            return
        starts = group.starts
        ends = group.ends
        if self._sort and group.sort_key == "start" and not self._dirty:
            cut = bisect_right(starts, query.end)
            stats.candidates += cut
            stats.comparisons += cut + max(1, cut.bit_length())
            results.extend(
                sid
                for sid, end in zip(group.ids[:cut], ends[:cut])
                if end >= query.start
            )
            return
        stats.candidates += len(group.ids)
        stats.comparisons += 2 * len(group.ids)
        results.extend(
            sid
            for sid, start, end in zip(group.ids, starts, ends)
            if start <= query.end and query.start <= end
        )

    # -- Lemma 2 flags ---------------------------------------------------- #
    def _lower_flags(
        self,
        level: int,
        first: int,
        last: int,
        mq_start: int,
        mq_end: int,
        comp_first: bool,
        comp_last: bool,
    ) -> Tuple[bool, bool]:
        """Lemma 2 flag update (see :meth:`repro.hint.hintm.HINTm._lower_flags`)."""
        if level == 0:
            return comp_first, comp_last
        if comp_first and first % 2 == 0:
            comp_first = False
        if comp_last and last % 2 == 1:
            comp_last = False
        return comp_first, comp_last
