"""Fully optimized HINT^m (paper Sections 4.2 and 4.3).

This variant is built statically over a collection and applies, on top of the
subdivisions / sorting / storage-optimization of Section 4.1:

* **Skewness & sparsity handling (Section 4.2)** -- per level, the originals
  (and, separately, the replicas) of *all* partitions are merged into one
  contiguous table; an auxiliary directory keeps the sorted offsets of the
  non-empty partitions together with the start position of each partition's
  run inside the merged table (a CSR layout).  Query evaluation locates the
  first relevant non-empty partition with binary search and then walks the
  merged table sequentially, never touching empty partitions.

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
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.base import IntervalIndex, QueryStats
from repro.core.domain import Domain
from repro.core.errors import DomainError
from repro.core.interval import IntervalCollection, Query
from repro.core.spans import SpanTable
from repro.engine.registry import register_backend

__all__ = ["OptimizedHINTm"]


class _ClassTable:
    """Merged storage for one subdivision class, all levels (CSR layout).

    ``keys[i]`` is the heap number ``2^level + offset`` of the ``i``-th
    directory entry -- sorted, hence by level and then by offset -- and its
    members occupy rows ``indptr[i] .. indptr[i+1]`` of the columns.  The
    columns are views of the index's shared ones (:attr:`row_base` is where
    this class starts in them).  The directory alone is also cached as plain
    Python lists -- one entry per non-empty partition, not per row: the lone
    query's lookups are scalar binary searches, considerably faster through
    :mod:`bisect` than through ``np.searchsorted``.  ``level_bounds[level]``
    is where a level's entries start in the directory, so the scalar
    searches stay confined to one level.
    """

    __slots__ = (
        "keys",
        "indptr",
        "row_base",
        "ids",
        "starts",
        "ends",
        "records",
        "level_bounds",
        "keys_list",
        "indptr_list",
    )

    def __init__(
        self,
        num_bits: int,
        keys: np.ndarray,
        indptr: np.ndarray,
        row_base: int,
        ids: np.ndarray,
        starts: Optional[np.ndarray],
        ends: Optional[np.ndarray],
        rowwise: bool,
    ) -> None:
        self.keys = keys
        self.indptr = indptr
        self.row_base = row_base
        self.ids = ids
        self.starts = starts
        self.ends = ends
        self.level_bounds: List[int] = np.searchsorted(
            keys, np.int64(1) << np.arange(num_bits + 2)
        ).tolist()
        self.keys_list: List[int] = keys.tolist()
        self.indptr_list: List[int] = indptr.tolist()
        #: interleaved (id, start?, end?) tuples -- what the row-by-row scan
        #: reads when the columnar optimization is disabled
        self.records: Optional[List[Tuple[int, ...]]] = None
        if rowwise:
            kept = [column for column in (ids, starts, ends) if column is not None]
            self.records = list(zip(*(column.tolist() for column in kept)))

    def rows_at(self, level: int) -> int:
        """Stored entries of one level."""
        lo, hi = self.level_bounds[level], self.level_bounds[level + 1]
        return self.indptr_list[hi] - self.indptr_list[lo]

    def memory_bytes(self) -> int:
        """Directory and its list mirrors, plus the interleaved records of the
        row-wise layout (the columns are the index's, counted there)."""
        total = self.keys.nbytes + self.indptr.nbytes
        for mirror in (self.keys_list, self.indptr_list):
            total += sys.getsizeof(mirror) + _INT_BYTES * len(mirror)
        if self.records is not None:
            width = len(self.records[0]) if self.records else 0
            total += sys.getsizeof(self.records)
            total += len(self.records) * (_TUPLE_BYTES + width * (8 + _INT_BYTES))
        return total


#: what one list or tuple entry holds beyond its 8-byte slot, and an empty
#: tuple (measured, CPython 3.11): ``tolist()`` makes one int object per entry
_INT_BYTES = 32
_TUPLE_BYTES = 40

#: batches at least this long go through the vectorised traversal, shorter
#: ones through the per-query loop.  The traversal costs ~200 us per call plus
#: ~15 us per query where the loop costs ~45-65 us per query (the batch-size
#: sweep of bench_ablation_vectorization: 10k synthetic intervals at m = 12,
#: CPython 3.11 on a 2-core Xeon VM): loop / kernel is 0.97 at 6 queries and
#: 1.25 at 7
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


def _column_mask(
    table: _ClassTable, lo: int, hi: int, test_start: bool, test_end: bool, q_start, q_end
) -> np.ndarray:
    """Which of rows ``lo:hi`` of ``table`` pass the requested predicates."""
    if not test_start:
        return table.ends[lo:hi] >= q_start
    mask = table.starts[lo:hi] <= q_end
    if test_end:
        mask &= table.ends[lo:hi] >= q_start
    return mask


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


def _expand(first: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``concatenate([arange(f, f + n) for f, n in zip(first, lengths)])``."""
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if len(ends) else 0
    return np.repeat(first - (ends - lengths), lengths) + np.arange(total, dtype=np.int64)


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
        directories: List[Tuple[np.ndarray, np.ndarray]] = []
        for index, (_name, keep_starts, keep_ends) in enumerate(_CLASSES):
            picked = np.flatnonzero(class_index == index)
            class_keys, class_rows = keys[picked], members[picked]
            # a partition's run: by the sort column, ties in collection order
            sort_keys = [class_rows, class_keys]
            if keep_starts or keep_ends:
                sort_keys.insert(1, (starts if keep_starts else ends)[class_rows])
            order = np.lexsort(sort_keys)
            class_keys = class_keys[order]
            orders.append(class_rows[order])
            if self._sparse:
                directory = class_keys[np.flatnonzero(np.diff(class_keys, prepend=0))]
            else:
                directory = np.arange(1, 2 << m, dtype=np.int64)
            indptr = np.append(np.searchsorted(class_keys, directory), len(class_keys))
            directories.append((directory, indptr))

        # one row space for the four classes (see _CLASSES for the order)
        sizes = [len(order) for order in orders]
        bases = np.concatenate(([0], np.cumsum(sizes))).tolist()
        self._ids = collection.ids[np.concatenate(orders)]
        self._starts = starts[np.concatenate(orders[0:2])]
        self._ends = ends[np.concatenate(orders[1:3])]
        #: row of ``_ends`` = row of ``_ids`` minus this (``o_aft`` keeps no end)
        self._ends_base = bases[1]
        self._tables: Dict[str, _ClassTable] = {}
        for index, (name, keep_starts, keep_ends) in enumerate(_CLASSES):
            lo, hi = bases[index], bases[index + 1]
            self._tables[name] = _ClassTable(
                m,
                *directories[index],
                lo,
                self._ids[lo:hi],
                self._starts[lo:hi] if keep_starts else None,
                self._ends[lo - self._ends_base : hi - self._ends_base] if keep_ends else None,
                rowwise=not self._columnar,
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
        return [
            sum(table.rows_at(level) for table in self._tables.values())
            for level in range(self.num_levels)
        ]

    def nonempty_partitions(self) -> int:
        """Number of (level, partition) pairs holding at least one interval."""
        occupied = [
            table.keys[np.diff(table.indptr) > 0] for table in self._tables.values()
        ]
        return len(np.unique(np.concatenate(occupied)))

    # ------------------------------------------------------------------ #
    # updates
    # ------------------------------------------------------------------ #
    def delete(self, interval_id: int) -> bool:
        """Logically delete ``interval_id`` with a tombstone."""
        return self._spans.remove(interval_id) is not None

    # ------------------------------------------------------------------ #
    # queries: one scalar traversal, then whole-segment reads
    # ------------------------------------------------------------------ #
    def query(self, query: Query) -> List[int]:
        return self._answer(query).tolist()

    def query_with_stats(self, query: Query) -> tuple[List[int], QueryStats]:
        stats = QueryStats()
        results = self._answer(query, stats).tolist()
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
        """``(table, row_lo, row_hi, test_start, test_end, key)`` for every
        merged-table run the query touches (rows local to the table; a
        dense directory also yields empty runs).

        This is the scalar encoding of the Section 4.2/4.3 traversal: which
        partitions are relevant per level, how boundary partitions split off
        from the comparison-free middle run, and how the Lemma 2 flags lower
        the predicates level by level (:meth:`_batch_segments` is the same
        traversal for a whole batch).  ``key`` is the heap number of a
        boundary partition (``None`` for comparison-free runs), used for the
        Lemma 4 counter.
        """
        m = self._m
        mq_start = self._domain.map_value(query.start)
        mq_end = self._domain.map_value(query.end)
        tables = self._tables
        o_in, o_aft, r_in, r_aft = tables["o_in"], tables["o_aft"], tables["r_in"], tables["r_aft"]
        segments: List[tuple] = []
        add = segments.append
        comp_first = comp_last = True
        for level in range(m, -1, -1):
            # heap numbers of the first and last relevant partitions
            first = (1 << level) + (mq_start >> (m - level))
            last = (1 << level) + (mq_end >> (m - level))
            # (class, end test of the first partition, start test of the last
            # one -- None for the replicas, which read their first partition
            # only); O_aft of the first partition never needs the end test
            for table, test_end_first, test_start_last in (
                (o_in, comp_first, comp_last),
                (o_aft, False, comp_last),
                (r_in, comp_first, None),
                (r_aft, False, None),
            ):
                level_lo, level_hi = table.level_bounds[level], table.level_bounds[level + 1]
                if level_lo == level_hi:
                    continue
                keys, indptr = table.keys_list, table.indptr_list
                lo = bisect_left(keys, first, level_lo, level_hi)
                if test_start_last is None:
                    if lo < level_hi and keys[lo] == first:
                        add((table, indptr[lo], indptr[lo + 1], False, test_end_first, first))
                    continue
                hi = bisect_right(keys, last, lo, level_hi)
                if lo >= hi:
                    continue
                if first == last:
                    add((table, indptr[lo], indptr[lo + 1], test_start_last, test_end_first, first))
                    continue
                if keys[lo] == first:
                    add((table, indptr[lo], indptr[lo + 1], False, test_end_first, first))
                    lo += 1
                if keys[hi - 1] == last:
                    add((table, indptr[hi - 1], indptr[hi], test_start_last, False, last))
                    hi -= 1
                if lo < hi:
                    add((table, indptr[lo], indptr[hi], False, False, None))
            # Lemma 2: below the root a heap number has the parity of its
            # offset (the update after level 0 is never read)
            comp_first = comp_first and first % 2 == 1
            comp_last = comp_last and last % 2 == 0
        return segments

    def _answer(self, query: Query, stats: Optional[QueryStats] = None) -> np.ndarray:
        """The ids answering ``query`` as a fresh int64 array: the traversal,
        then per segment a slice of the id column, masked by slices of the
        endpoint columns where the segment needs a predicate."""
        segments = self._segments(query)
        if stats is not None:
            # distinct boundary partitions compared: what Lemma 4 bounds by
            # four in expectation
            compared = set()
            for _table, row_lo, row_hi, test_start, test_end, key in segments:
                count = row_hi - row_lo
                if not count:
                    continue
                stats.partitions_accessed += 1
                stats.candidates += count
                if test_start or test_end:
                    compared.add(key)
                    stats.comparisons += count * (test_start + test_end)
            stats.partitions_compared = len(compared)
        q_start, q_end = _exact_bounds(query)
        if self._columnar:
            pieces = [
                table.ids[lo:hi][_column_mask(table, lo, hi, test_start, test_end, q_start, q_end)]
                if test_start or test_end
                else table.ids[lo:hi]
                for table, lo, hi, test_start, test_end, _key in segments
            ]
            found = np.concatenate(pieces) if pieces else np.empty(0, dtype=np.int64)
        else:
            # row-wise layout: interleaved records, scanned row by row
            found = np.fromiter(
                (
                    record[0]
                    for table, lo, hi, test_start, test_end, _key in segments
                    for record in table.records[lo:hi]
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
        for table, lo, hi, test_start, test_end, _key in self._segments(query):
            if not (test_start or test_end):
                total += hi - lo
            elif self._columnar:
                mask = _column_mask(table, lo, hi, test_start, test_end, q_start, q_end)
                total += int(np.count_nonzero(mask))
            else:
                total += sum(
                    _record_matches(record, test_start, test_end, q_start, q_end)
                    for record in table.records[lo:hi]
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

        :meth:`_iter_segments` in closed form.  At every level the first and
        last relevant partitions of every query are shifts of its mapped
        endpoints; the Lemma 2 flag of the first (last) partition at a level
        still stands iff the bits of the mapped start (end) below the
        level's prefix are all ones (all zeros) -- what :meth:`_lower_flags`
        finds one level at a time; one ``searchsorted`` pair per class
        locates all of them in the heap-numbered directory.  Each (query,
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
        tables = self._tables
        lo: List[np.ndarray] = []
        hi: List[np.ndarray] = []
        test_start: List[np.ndarray] = []
        test_end: List[np.ndarray] = []

        def slot(table, entry_lo, entry_hi, start_flag, end_flag):
            lo.append(table.indptr[entry_lo] + table.row_base)
            hi.append(table.indptr[entry_hi] + table.row_base)
            test_start.append(start_flag)
            test_end.append(end_flag)

        # (class, end test of the first partition, start test of the last
        # one -- None for the replicas, which read their first partition only)
        for name, test_end_first, test_start_last in (
            ("o_aft", never, comp_last),
            ("o_in", comp_first, comp_last),
            ("r_in", comp_first, None),
            ("r_aft", never, None),
        ):
            table = tables[name]
            keys = table.keys
            if len(keys) == 0:
                continue
            head = np.searchsorted(keys, first, "left")
            run_lo = head + (keys[np.minimum(head, len(keys) - 1)] == first)
            if test_start_last is None:
                slot(table, head, run_lo, never, test_end_first)
                continue
            tail = np.searchsorted(keys, last, "right")
            run_hi = tail - ((keys[np.maximum(tail, 1) - 1] == last) & ~single)
            slot(table, head, run_lo, single & test_start_last, test_end_first)
            slot(table, run_lo, run_hi, never, never)
            slot(table, run_hi, tail, test_start_last, never)

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
        ``flagged`` indexes the segments that need a predicate, and
        ``failed`` marks, among the rows of those segments in order, the ones
        that do not qualify.  The endpoint columns are read for these rows
        only.
        """
        count = len(q_starts)
        seg_query, seg_lo, seg_len, seg_start, seg_end = self._batch_segments(q_starts, q_ends)
        counts = np.bincount(seg_query, weights=seg_len, minlength=count).astype(np.int64)
        flagged = np.flatnonzero(seg_start | seg_end)
        lengths = seg_len[flagged]
        rows = _expand(seg_lo[flagged], lengths)
        owner = np.repeat(seg_query[flagged], lengths)
        failed = np.zeros(len(rows), dtype=bool)
        tested = np.flatnonzero(np.repeat(seg_start[flagged], lengths))
        failed[tested] = self._starts[rows[tested]] > q_ends[owner[tested]]
        tested = np.flatnonzero(np.repeat(seg_end[flagged], lengths))
        failed[tested] |= self._ends[rows[tested] - self._ends_base] < q_starts[owner[tested]]
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
        total += self._ids.nbytes + self._starts.nbytes + self._ends.nbytes
        return total + sum(table.memory_bytes() for table in self._tables.values())
