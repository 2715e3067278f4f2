"""Fully optimized HINT^m (paper Sections 4.2 and 4.3).

This variant is built statically over a collection and applies, on top of the
subdivisions / sorting / storage-optimization of Section 4.1:

* **Skewness & sparsity handling (Section 4.2)** -- per subdivision class,
  the entries of *all* partitions are merged into one contiguous table; an
  auxiliary directory keeps the sorted heap numbers of the non-empty
  partitions together with, per class, the start position of each
  partition's run inside the merged table (a CSR layout).  Query evaluation
  locates the first relevant non-empty partition with binary search and then
  walks the merged table sequentially, never touching empty partitions.

* **Cache-miss reduction (Section 4.3)** -- the interval ids are stored in a
  dedicated ids column, separate from the endpoint columns, so partitions for
  which no comparisons are needed are answered by slicing the ids column
  alone.  In this Python reproduction the columns are NumPy arrays and the
  "sequential, comparison-free access" of the paper becomes a single array
  slice, while boundary-partition comparisons become vectorised predicates.

Both optimizations can be switched off individually (``sparse_directory`` and
``columnar``) to reproduce the intermediate configurations of the paper's
Figure 12 ablation.

The fully optimized index is query-optimized and static: single-interval
insertion is not supported (Section 4.4); use
:class:`repro.hint.updates.HybridHINTm` for mixed workloads.  Deletions are
supported through tombstones.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.base import IntervalIndex, QueryStats
from repro.core.domain import Domain
from repro.core.errors import DomainError
from repro.core.interval import IntervalCollection, Query
from repro.core.spans import SpanTable
from repro.engine.registry import register_backend

__all__ = ["OptimizedHINTm"]


#: what one list or tuple entry holds beyond its 8-byte slot, and an empty
#: tuple (measured, CPython 3.11): ``tolist()`` makes one int object per entry
_INT_BYTES = 32
_TUPLE_BYTES = 40

#: batches at least this long go through the vectorised traversal, shorter
#: ones through the per-query loop.  The traversal costs ~200 us per call plus
#: ~15 us per query where the loop costs ~45-65 us per query (the
#: ``batch_crossover`` sweep of :mod:`repro.bench.experiments`: 10k synthetic
#: intervals at m = 12, CPython 3.11 on a 2-core Xeon VM): loop / kernel is
#: 0.97 at 6 queries and 1.25 at 7
_BATCH_CROSSOVER = 7


def _record_matches(
    record: Tuple[int, ...], test_start: bool, test_end: bool, q_start, q_end
) -> bool:
    """Predicate for one interleaved ``(id, start?, end?)`` record.

    The single encoding of the ``columnar=False`` record layout: a start is
    tested only in the classes that keep one, where it is column 1, and an
    end only in those that keep one, where it is the last column.
    """
    if test_start and record[1] > q_end:
        return False
    return not (test_end and record[-1] < q_start)


def _exact_bounds(query: Query) -> Tuple[object, object]:
    """``(q_start, q_end)`` as bounds an int64 column compares exactly.

    NumPy compares an int64 column with a float in float64, which rounds
    past 2^53; for integer endpoints ``end >= q.start`` iff ``end >=
    ceil(q.start)`` and ``start <= q.end`` iff ``start <= floor(q.end)``,
    and Python ints of any size compare exactly.
    """
    q_start, q_end = query.start, query.end
    if isinstance(q_start, float) and math.isfinite(q_start):
        q_start = math.ceil(q_start)
    if isinstance(q_end, float) and math.isfinite(q_end):
        q_end = math.floor(q_end)
    return q_start, q_end


def _distinct(sorted_keys: np.ndarray) -> np.ndarray:
    """The distinct values of a sorted column of positive keys."""
    return sorted_keys[np.flatnonzero(np.diff(sorted_keys, prepend=0))]


def _expand(first: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``concatenate([arange(f, f + n) for f, n in zip(first, lengths)])``."""
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if len(ends) else 0
    return np.repeat(first - (ends - lengths), lengths) + np.arange(total, dtype=np.int64)


def _bisect_runs(
    column: np.ndarray, lo: np.ndarray, hi: np.ndarray, bound: np.ndarray, right: bool
) -> np.ndarray:
    """:func:`bisect_right` (``right``) or :func:`bisect_left` of each
    ``bound[i]`` in ``column[lo[i]:hi[i]]``, each run sorted, all runs at
    once: one step of every search per pass."""
    lo, hi = lo.copy(), hi.copy()
    top = len(column) - 1
    for _ in range(int(np.max(hi - lo, initial=0)).bit_length()):
        mid = (lo + hi) >> 1
        value = column[np.minimum(mid, top)]
        searching = lo < hi
        above = searching & ((value <= bound) if right else (value < bound))
        lo = np.where(above, mid + 1, lo)
        hi = np.where(searching & ~above, mid, hi)
    return lo


#: subdivision classes in storage order: (name, keeps starts, keeps ends).
#: A class is sorted by its starts when it keeps them, else by its ends.  The
#: order makes the rows that keep a start, and those that keep an end,
#: contiguous in the shared row space: one starts column and one ends column
#: serve all four classes without padding.
_CLASSES = (
    ("o_aft", True, False),
    ("o_in", True, True),
    ("r_in", False, True),
    ("r_aft", False, False),
)


@register_backend(
    "hintm_opt",
    aliases=("hint-m-opt",),
    description="fully optimized HINT^m (sparse directories, columnar storage)",
    paper_section="Sections 4.2/4.3",
    tunable=True,
)
class OptimizedHINTm(IntervalIndex):
    """The fully optimized, statically built HINT^m.

    Args:
        collection: intervals to index.
        num_bits: the ``m`` parameter.
        sparse_directory: enable the skewness & sparsity layout (Section 4.2).
            When False the per-level directory enumerates every one of the
            ``2^level`` partitions (empty ones included).
        columnar: enable the cache-miss optimization (Section 4.3): ids kept
            in a dedicated column separate from the endpoints and comparisons
            vectorised.  When False the merged tables hold interleaved
            records that are scanned row by row.
        domain: optional pre-built discrete domain.
    """

    name = "hint-m-opt"

    def __init__(
        self,
        collection: IntervalCollection,
        num_bits: int = 10,
        sparse_directory: bool = True,
        columnar: bool = True,
        domain: Optional[Domain] = None,
    ) -> None:
        if num_bits < 1:
            raise DomainError(f"num_bits must be >= 1, got {num_bits}")
        self._m = num_bits
        self._sparse = sparse_directory
        self._columnar = columnar
        if domain is None:
            domain = Domain.for_collection(collection.starts, collection.ends, num_bits)
        elif domain.num_bits != num_bits:
            raise DomainError(
                f"domain has {domain.num_bits} bits but the index expects {num_bits}"
            )
        self._domain = domain
        self._spans = SpanTable(collection)
        self._build(collection)

    @classmethod
    def build(
        cls,
        collection: IntervalCollection,
        num_bits: int = 10,
        sparse_directory: bool = True,
        columnar: bool = True,
        **kwargs,
    ) -> "OptimizedHINTm":
        return cls(
            collection,
            num_bits=num_bits,
            sparse_directory=sparse_directory,
            columnar=columnar,
            **kwargs,
        )

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def _build(self, collection: IntervalCollection) -> None:
        """Algorithm 1 on whole columns, then one sort per class.

        The bottom-up walk of :func:`partition_assignments` runs once for all
        intervals: the cursors ``a`` and ``b`` are columns, and the rows whose
        cursors crossed drop out level by level.  An emitted partition holds
        the interval as an original iff its offset is the prefix of the
        interval's start, and the interval ends inside it (``*_in``) iff its
        mapped end is not past the partition's last value.
        """
        m = self._m
        mapped_starts = self._domain.map_values(collection.starts)
        mapped_ends = self._domain.map_values(collection.ends)
        rows = np.arange(len(collection), dtype=np.int64)
        a, b = mapped_starts, mapped_ends
        emitted: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        for level in range(m, -1, -1):
            alive = a <= b
            if not alive.all():
                rows, a, b = rows[alive], a[alive], b[alive]
            if len(rows) == 0:
                break
            shift = m - level
            for take, cursor in (((a & 1) == 1, a), ((b & 1) == 0, b)):
                members = rows[take]
                offsets = cursor[take]
                original = offsets == (mapped_starts[members] >> shift)
                inside = mapped_ends[members] <= ((offsets + 1) << shift) - 1
                # storage order of _CLASSES: o_aft, o_in, r_in, r_aft
                class_index = np.where(original, inside, 3 - inside)
                emitted.append(((1 << level) + offsets, members, class_index))
            a = (a + (a & 1)) >> 1
            b = (b - (~b & 1)) >> 1
        if emitted:
            keys, members, class_index = (np.concatenate(column) for column in zip(*emitted))
        else:
            keys = members = class_index = np.empty(0, dtype=np.int64)
        self._assignments = len(keys)

        starts, ends = collection.starts, collection.ends
        orders: List[np.ndarray] = []
        class_keys: List[np.ndarray] = []
        for index, (_name, keep_starts, keep_ends) in enumerate(_CLASSES):
            picked = np.flatnonzero(class_index == index)
            keys_of_class, rows_of_class = keys[picked], members[picked]
            # a partition's run: by the sort column, ties in collection order
            sort_keys = [rows_of_class, keys_of_class]
            if keep_starts or keep_ends:
                sort_keys.insert(1, (starts if keep_starts else ends)[rows_of_class])
            order = np.lexsort(sort_keys)
            class_keys.append(keys_of_class[order])
            orders.append(rows_of_class[order])

        # one row space for the four classes (see _CLASSES for the order)
        self._ids = collection.ids[np.concatenate(orders)]
        self._starts = starts[np.concatenate(orders[0:2])]
        self._ends = ends[np.concatenate(orders[1:3])]
        #: row of ``_ends`` = row of ``_ids`` minus this (``o_aft`` keeps no end)
        self._ends_base = len(orders[0])
        #: where the replicas start in the row space
        self._replicas_base = len(orders[0]) + len(orders[1])
        # one directory of partitions, keyed by heap number (so sorted by
        # level, then offset), for all four classes: the rows class ``c``
        # stores in directory entry ``j`` are ``pointers[c][j] ..
        # pointers[c][j + 1]`` of the shared columns
        if self._sparse:
            # the distinct keys of the sorted class columns, merged: a sixth
            # of what np.unique(keys) costs, which sorts every entry again
            directory = np.sort(np.concatenate([_distinct(sorted_keys) for sorted_keys in class_keys]))
            directory = _distinct(directory)
        else:
            directory = np.arange(1, 2 << m, dtype=np.int64)
        self._keys = directory
        self._pointers: List[np.ndarray] = []
        row_base = 0
        for sorted_keys in class_keys:
            found = np.searchsorted(sorted_keys, directory)
            self._pointers.append(np.append(found, len(sorted_keys)) + row_base)
            row_base += len(sorted_keys)
        # the scalar walk searches Python lists: much faster through
        # :mod:`bisect` than through ``np.searchsorted`` one value at a time
        self._keys_list: List[int] = directory.tolist()
        self._pointer_lists: List[List[int]] = [pointers.tolist() for pointers in self._pointers]
        #: where each level starts in the directory (``m + 2`` cuts)
        self._level_cuts: List[int] = np.searchsorted(
            directory, np.int64(1) << np.arange(m + 2)
        ).tolist()
        self._levels = self._level_plan()
        #: interleaved (id, start?, end?) tuples -- what the row-by-row scan
        #: reads when the columnar optimization is disabled
        self._records: Optional[List[Tuple[int, ...]]] = None
        if not self._columnar:
            self._records = []
            for index, (_name, keep_starts, keep_ends) in enumerate(_CLASSES):
                rows = orders[index]
                kept = [collection.ids[rows]]
                kept += [starts[rows]] if keep_starts else []
                kept += [ends[rows]] if keep_ends else []
                self._records.extend(zip(*(column.tolist() for column in kept)))

    def _level_plan(self) -> List[tuple]:
        """What the scalar walk visits, bottom level first: one entry
        ``(2^level, m - level, 2^(m - level) - 1, dir_lo, dir_hi, classes)``
        per level that stores anything, where ``dir_lo:dir_hi`` is the
        level's range of the directory and ``classes`` holds one ``(pointers,
        original, keeps_end)`` per class with rows at the level -- on
        short-interval data most (level, class) pairs hold none."""
        m = self._m
        cuts = self._level_cuts
        plan = []
        for level in range(m, -1, -1):
            lo, hi = cuts[level], cuts[level + 1]
            classes = tuple(
                (self._pointer_lists[index], index < 2, _CLASSES[index][2])
                for index in (1, 0, 2, 3)  # o_in, o_aft, r_in, r_aft
                if self._pointer_lists[index][hi] > self._pointer_lists[index][lo]
            )
            if classes:
                shift = m - level
                plan.append((1 << level, shift, (1 << shift) - 1, lo, hi, classes))
        return plan

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
    def sparse_directory(self) -> bool:
        """True when only non-empty partitions are materialised (Section 4.2)."""
        return self._sparse

    @property
    def columnar(self) -> bool:
        """True when ids/endpoints are decomposed into separate columns (Section 4.3)."""
        return self._columnar

    @property
    def replication_factor(self) -> float:
        """Average number of partitions each interval is stored in (Table 7's ``k``)."""
        if len(self) == 0:
            return 0.0
        return self._assignments / len(self)

    def level_occupancy(self) -> List[int]:
        """Stored entries per level, across all four subdivision classes."""
        cuts = self._level_cuts
        return [
            sum(pointers[cuts[level + 1]] - pointers[cuts[level]] for pointers in self._pointer_lists)
            for level in range(self.num_levels)
        ]

    def nonempty_partitions(self) -> int:
        """Number of (level, partition) pairs holding at least one interval."""
        return int(np.count_nonzero(sum(np.diff(pointers) for pointers in self._pointers)))

    # ------------------------------------------------------------------ #
    # updates
    # ------------------------------------------------------------------ #
    def delete(self, interval_id: int) -> bool:
        """Logically delete ``interval_id`` with a tombstone."""
        return self._spans.remove(interval_id) is not None

    # ------------------------------------------------------------------ #
    # queries: one scalar traversal, then whole-segment reads
    # ------------------------------------------------------------------ #
    def query(self, query: Query) -> np.ndarray:
        return self._answer(query)

    def query_with_stats(self, query: Query) -> tuple[np.ndarray, QueryStats]:
        stats = QueryStats()
        results = self._answer(query, stats)
        stats.results = len(results)
        return results, stats

    def query_count(self, query: Query) -> int:
        """Count results without gathering an id (Section 4.2/4.3 traversal,
        aggregation-only).

        Comparison-free runs contribute their length in O(1); boundary
        partitions contribute a predicate count.  Tombstoned indexes gather
        the ids, the only way to subtract deleted ones exactly.
        """
        if self._spans.removed:
            return len(self._answer(query))
        return self._tally(query, stop_at_first=False)

    def query_exists(self, query: Query) -> bool:
        """True iff any interval overlaps ``query``: any non-empty
        comparison-free run proves it, and the scan stops at the first
        segment with a match."""
        if self._spans.removed:
            return len(self._answer(query)) > 0
        return self._tally(query, stop_at_first=True) > 0

    def _segments(self, query: Query) -> List[tuple]:
        """``(row_lo, row_hi, test_start, test_end, key)`` for every
        non-empty run of the shared columns the query touches.

        This is the scalar encoding of the Section 4.2/4.3 traversal: which
        partitions are relevant per level, how boundary partitions split off
        from the comparison-free middle run, and how the Lemma 2 flags lower
        the predicates level by level (:meth:`_batch_segments` is the same
        traversal for a whole batch, and reads the flags by the same
        formula).  Per level, one binary search in the directory finds the
        first relevant partition (a second one the last, when they differ),
        and only the classes that store rows at the level are read.  ``key``
        is the heap number of a boundary partition (``None`` for
        comparison-free runs), used for the Lemma 4 counter.
        """
        mq_start = self._domain.map_value(query.start)
        mq_end = self._domain.map_value(query.end)
        keys = self._keys_list
        segments: List[tuple] = []
        add = segments.append
        for heap, shift, below, dir_lo, dir_hi, classes in self._levels:
            # heap numbers of the first and last relevant partitions
            first = heap + (mq_start >> shift)
            last = heap + (mq_end >> shift)
            # Lemma 2: the first (last) partition still needs its end (start)
            # test iff the mapped start's (end's) bits below the level's
            # prefix are all ones (all zeros)
            comp_first = mq_start & below == below
            comp_last = not mq_end & below
            lo = bisect_left(keys, first, dir_lo, dir_hi)
            head = lo < dir_hi and keys[lo] == first
            if first == last:
                if head:
                    for pointers, original, keeps_end in classes:
                        row_lo, row_hi = pointers[lo], pointers[lo + 1]
                        if row_lo < row_hi:
                            add((
                                row_lo, row_hi, original and comp_last,
                                keeps_end and comp_first, first,
                            ))
                continue
            hi = bisect_right(keys, last, lo, dir_hi)
            tail = hi > lo and keys[hi - 1] == last
            middle_lo, middle_hi = lo + head, hi - tail
            for pointers, original, keeps_end in classes:
                # the end test applies to the classes that keep an end;
                # replicas read their first partition only
                if head and pointers[lo] < pointers[lo + 1]:
                    add((pointers[lo], pointers[lo + 1], False, keeps_end and comp_first, first))
                if not original:
                    continue
                if tail and pointers[hi - 1] < pointers[hi]:
                    add((pointers[hi - 1], pointers[hi], comp_last, False, last))
                if pointers[middle_lo] < pointers[middle_hi]:
                    add((pointers[middle_lo], pointers[middle_hi], False, False, None))
        return segments

    def _passing(self, lo: int, hi: int, test_start: bool, test_end: bool, q_start, q_end):
        """The rows of run ``lo:hi`` that pass the requested predicates, as
        ``(lo, hi, mask)``: ``mask`` is None when rows ``lo:hi`` pass whole.

        A boundary partition's run is sorted by its start (originals) or its
        end (replicas), Section 4.1's sorting, so the test on that column
        trims the run by binary search; only an original's end test reads
        its rows.
        """
        if test_start:
            hi = bisect_right(self._starts, q_end, lo, hi)
        if not test_end:
            return lo, hi, None
        base = self._ends_base
        if lo >= self._replicas_base:
            return bisect_left(self._ends, q_start, lo - base, hi - base) + base, hi, None
        return lo, hi, self._ends[lo - base : hi - base] >= q_start

    def _answer(self, query: Query, stats: Optional[QueryStats] = None) -> np.ndarray:
        """The ids answering ``query`` as a fresh int64 array: the traversal,
        then per segment a slice of the id column, masked by slices of the
        endpoint columns where the segment needs a predicate."""
        segments = self._segments(query)
        if stats is not None:
            # distinct boundary partitions compared: what Lemma 4 bounds by
            # four in expectation
            compared = set()
            for row_lo, row_hi, test_start, test_end, key in segments:
                count = row_hi - row_lo
                stats.partitions_accessed += 1
                stats.candidates += count
                if test_start or test_end:
                    compared.add(key)
                    stats.comparisons += count * (test_start + test_end)
            stats.partitions_compared = len(compared)
        q_start, q_end = _exact_bounds(query)
        if self._columnar:
            ids = self._ids
            pieces = []
            for lo, hi, test_start, test_end, _key in segments:
                if test_start or test_end:
                    lo, hi, mask = self._passing(lo, hi, test_start, test_end, q_start, q_end)
                    pieces.append(ids[lo:hi] if mask is None else ids[lo:hi][mask])
                else:
                    pieces.append(ids[lo:hi])
            found = np.concatenate(pieces) if pieces else np.empty(0, dtype=np.int64)
        else:
            # row-wise layout: interleaved records, scanned row by row
            records = self._records
            found = np.fromiter(
                (
                    record[0]
                    for lo, hi, test_start, test_end, _key in segments
                    for record in records[lo:hi]
                    if _record_matches(record, test_start, test_end, q_start, q_end)
                ),
                dtype=np.int64,
            )
        removed = self._spans.removed
        if removed:
            # probed in the set: its sorted array is rebuilt after every
            # delete, which costs more than one query's few hundred lookups
            found = found[[interval_id not in removed for interval_id in found.tolist()]]
        return found

    def _tally(self, query: Query, stop_at_first: bool) -> int:
        """Results of ``query`` counted segment by segment, no id gathered;
        with ``stop_at_first`` the count stops at the first non-zero segment."""
        q_start, q_end = _exact_bounds(query)
        total = 0
        for lo, hi, test_start, test_end, _key in self._segments(query):
            if not (test_start or test_end):
                total += hi - lo
            elif self._columnar:
                lo, hi, mask = self._passing(lo, hi, test_start, test_end, q_start, q_end)
                total += hi - lo if mask is None else int(np.count_nonzero(mask))
            else:
                total += sum(
                    _record_matches(record, test_start, test_end, q_start, q_end)
                    for record in self._records[lo:hi]
                )
            if stop_at_first and total:
                break
        return total

    # ------------------------------------------------------------------ #
    # batched queries: the same traversal, one array pass per batch
    # ------------------------------------------------------------------ #
    def query_batch(self, queries: Sequence[Query]) -> List[np.ndarray]:
        bounds = self._batch_bounds(queries)
        if bounds is None:
            return [self._answer(query) for query in queries]
        rows, offsets = self._batch_rows(*bounds)
        # one gather per query: each answer owns its ids, so keeping one
        # answer never pins the whole batch
        ids = self._ids
        cuts = offsets.tolist()
        return [ids[rows[lo:hi]] for lo, hi in zip(cuts, cuts[1:])]

    def query_count_batch(self, queries: Sequence[Query]) -> List[int]:
        bounds = self._batch_bounds(queries)
        if bounds is None:
            return [self.query_count(query) for query in queries]
        return self._batch_counts(*bounds).tolist()

    def query_exists_batch(self, queries: Sequence[Query]) -> List[bool]:
        bounds = self._batch_bounds(queries)
        if bounds is None:
            return [self.query_exists(query) for query in queries]
        return (self._batch_counts(*bounds) > 0).tolist()

    def _batch_bounds(self, queries: Sequence[Query]) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """The batch's endpoints as two int64 columns -- or None when it
        keeps the per-query loop: a batch too short to repay the kernel's
        fixed cost, the row-by-row layout, or endpoints that are not int64
        (floats, ints beyond 64 bits), which only Python compares exactly."""
        if not self._columnar or len(queries) < _BATCH_CROSSOVER:
            return None
        q_starts = np.array([query.start for query in queries])
        q_ends = np.array([query.end for query in queries])
        if q_starts.dtype != np.int64 or q_ends.dtype != np.int64:
            return None
        return q_starts, q_ends

    def _batch_segments(self, q_starts: np.ndarray, q_ends: np.ndarray):
        """The flat segment table of a batch: ``(query, row_lo, length,
        test_start, test_end)`` columns, one entry per non-empty merged-table
        run, in query-major order, rows in the shared row space.

        :meth:`_segments` in closed form.  At every level the first and
        last relevant partitions of every query are shifts of its mapped
        endpoints; the Lemma 2 flag of the first (last) partition at a level
        still stands iff the bits of the mapped start (end) below the
        level's prefix are all ones (all zeros), the formula
        :meth:`_segments` reads one level at a time; one ``searchsorted``
        pair per class locates all of them in the heap-numbered directory.  Each (query,
        level) has eight slots: first partition / comparison-free middle run
        / last partition for ``o_aft`` and ``o_in``, the first partition for
        ``r_in`` and ``r_aft``.
        """
        m = self._m
        mq_starts = self._domain.map_values(q_starts)[:, None]
        mq_ends = self._domain.map_values(q_ends)[:, None]
        shifts = np.arange(m, -1, -1, dtype=np.int64)  # level 0 .. m
        heap = np.int64(1) << (m - shifts)
        below = (np.int64(1) << shifts) - 1
        first = heap + (mq_starts >> shifts)
        last = heap + (mq_ends >> shifts)
        comp_first = (mq_starts & below) == below
        comp_last = (mq_ends & below) == 0
        single = first == last
        never = np.zeros_like(single)
        lo: List[np.ndarray] = []
        hi: List[np.ndarray] = []
        test_start: List[np.ndarray] = []
        test_end: List[np.ndarray] = []

        def slot(pointers, entry_lo, entry_hi, start_flag, end_flag):
            lo.append(pointers[entry_lo])
            hi.append(pointers[entry_hi])
            test_start.append(start_flag)
            test_end.append(end_flag)

        keys = self._keys
        if len(keys):
            # directory entries of the first partition (head .. run_lo), the
            # middle run (run_lo .. run_hi) and the last partition (run_hi ..
            # tail); every class reads its rows of the same entries
            head = np.searchsorted(keys, first, "left")
            run_lo = head + (keys[np.minimum(head, len(keys) - 1)] == first)
            tail = np.searchsorted(keys, last, "right")
            run_hi = tail - ((keys[np.maximum(tail, 1) - 1] == last) & ~single)
        # (class, end test of the first partition, start test of the last
        # one -- None for the replicas, which read their first partition only)
        for pointers, test_end_first, test_start_last in zip(
            self._pointers, (never, comp_first, comp_first, never), (comp_last, comp_last, None, None)
        ):
            if pointers[0] == pointers[-1]:
                continue
            if test_start_last is None:
                slot(pointers, head, run_lo, never, test_end_first)
                continue
            slot(pointers, head, run_lo, single & test_start_last, test_end_first)
            slot(pointers, run_lo, run_hi, never, never)
            slot(pointers, run_hi, tail, test_start_last, never)

        if not lo:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, empty, empty.astype(bool), empty.astype(bool)
        seg_lo = np.stack(lo, axis=2).reshape(-1)
        seg_len = np.stack(hi, axis=2).reshape(-1) - seg_lo
        kept = np.flatnonzero(seg_len)
        slots_per_query = len(lo) * (m + 1)
        return (
            kept // slots_per_query,
            seg_lo[kept],
            seg_len[kept],
            np.stack(test_start, axis=2).reshape(-1)[kept],
            np.stack(test_end, axis=2).reshape(-1)[kept],
        )

    def _batch_plan(self, q_starts: np.ndarray, q_ends: np.ndarray):
        """Segment table of a batch with the predicates already decided.

        Returns ``(per-query counts, seg_lo, seg_len, flagged, failed)``:
        the runs come trimmed as :meth:`_passing` trims them (by a
        vectorised binary search), ``flagged`` indexes the runs that still
        need an original's end test, and ``failed`` marks, among the rows of
        those runs in order, the ones that do not qualify.  The ends column
        is read for these rows only.
        """
        count = len(q_starts)
        seg_query, seg_lo, seg_len, seg_start, seg_end = self._batch_segments(q_starts, q_ends)
        seg_hi = seg_lo + seg_len
        base = self._ends_base
        replicas = seg_lo >= self._replicas_base
        trim = np.flatnonzero(seg_start)
        seg_hi[trim] = _bisect_runs(
            self._starts, seg_lo[trim], seg_hi[trim], q_ends[seg_query[trim]], right=True
        )
        trim = np.flatnonzero(seg_end & replicas)
        seg_lo[trim] = base + _bisect_runs(
            self._ends, seg_lo[trim] - base, seg_hi[trim] - base, q_starts[seg_query[trim]],
            right=False,
        )
        seg_len = seg_hi - seg_lo
        counts = np.bincount(seg_query, weights=seg_len, minlength=count).astype(np.int64)
        flagged = np.flatnonzero(seg_end & ~replicas)
        lengths = seg_len[flagged]
        rows = _expand(seg_lo[flagged], lengths)
        owner = np.repeat(seg_query[flagged], lengths)
        failed = self._ends[rows - base] < q_starts[owner]
        counts -= np.bincount(owner[failed], minlength=count)
        return counts, seg_lo, seg_len, flagged, failed

    def _batch_counts(self, q_starts: np.ndarray, q_ends: np.ndarray) -> np.ndarray:
        """Per-query result counts: segment lengths minus failed predicate
        rows, no id gathered -- unless tombstones have to be subtracted."""
        if self._spans.removed:
            return np.diff(self._batch_rows(q_starts, q_ends)[1])
        return self._batch_plan(q_starts, q_ends)[0]

    def _batch_rows(self, q_starts: np.ndarray, q_ends: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(rows, offsets)``: query ``k`` of the batch is answered by the
        ids at ``rows[offsets[k]:offsets[k + 1]]`` of the shared id column
        (``self._ids[rows]`` is the batch's flat int64 answer)."""
        counts, seg_lo, seg_len, flagged, failed = self._batch_plan(q_starts, q_ends)
        rows = _expand(seg_lo, seg_len)
        if failed.any():
            position = np.cumsum(seg_len) - seg_len
            keep = np.ones(len(rows), dtype=bool)
            keep[_expand(position[flagged], seg_len[flagged])[failed]] = False
            rows = rows[keep]
        if self._spans.removed:
            dead = np.isin(self._ids[rows], self._spans.removed_array())
            owner = np.repeat(np.arange(len(counts)), counts)
            counts -= np.bincount(owner[dead], minlength=len(counts))
            rows = rows[~dead]
        offsets = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return rows, offsets

    # ------------------------------------------------------------------ #
    def memory_bytes(self, _memo: "set | None" = None) -> int:
        if self._memo_seen(_memo):
            return 0
        total = self._spans_bytes(_memo)
        for column in (self._ids, self._starts, self._ends, self._keys, *self._pointers):
            total += column.nbytes
        # the directory's list mirrors, which the scalar walk searches
        for mirror in (self._keys_list, *self._pointer_lists):
            total += sys.getsizeof(mirror) + _INT_BYTES * len(mirror)
        if self._records is not None:
            total += sys.getsizeof(self._records)
            for pointers, (_name, keep_starts, keep_ends) in zip(self._pointer_lists, _CLASSES):
                width = 1 + keep_starts + keep_ends
                total += (pointers[-1] - pointers[0]) * (_TUPLE_BYTES + width * (8 + _INT_BYTES))
        return total
