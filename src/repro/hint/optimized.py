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

from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.base import IntervalIndex, QueryStats
from repro.core.domain import Domain
from repro.core.errors import DomainError
from repro.core.interval import IntervalCollection, Query
from repro.core.spans import SpanTable
from repro.engine.registry import register_backend
from repro.hint.partitioning import partition_assignments, relevant_offsets

__all__ = ["OptimizedHINTm"]


class _LevelClass:
    """Merged storage for one (level, subdivision-class) pair.

    CSR layout: ``offsets[i]`` is the partition offset of the ``i``-th
    non-empty partition and its members occupy rows
    ``indptr[i] .. indptr[i+1]`` of the column arrays.  The directory
    (``offsets``/``indptr``) is also cached as plain Python lists because the
    per-query lookups are scalar binary searches, which are considerably
    faster through :mod:`bisect` than through ``np.searchsorted``.
    """

    __slots__ = (
        "offsets",
        "indptr",
        "ids",
        "starts",
        "ends",
        "records",
        "offsets_list",
        "indptr_list",
        "ids_list",
        "starts_list",
        "ends_list",
    )

    def __init__(
        self,
        offsets: np.ndarray,
        indptr: np.ndarray,
        ids: np.ndarray,
        starts: Optional[np.ndarray],
        ends: Optional[np.ndarray],
        records: Optional[List[Tuple[int, ...]]],
    ) -> None:
        self.offsets = offsets
        self.indptr = indptr
        self.ids = ids
        self.starts = starts
        self.ends = ends
        #: interleaved (id, start?, end?) tuples -- only kept when the
        #: columnar optimization is disabled
        self.records = records
        self.offsets_list: List[int] = offsets.tolist()
        self.indptr_list: List[int] = indptr.tolist()
        # plain-list mirrors of the columns: short boundary segments are
        # cheaper to scan in Python than through NumPy slicing
        self.ids_list: List[int] = ids.tolist()
        self.starts_list: Optional[List[int]] = starts.tolist() if starts is not None else None
        self.ends_list: Optional[List[int]] = ends.tolist() if ends is not None else None

    def __len__(self) -> int:
        return len(self.ids)

    def memory_bytes(self, columnar: bool) -> int:
        directory = self.offsets.nbytes + self.indptr.nbytes
        if columnar:
            data = self.ids.nbytes
            if self.starts is not None:
                data += self.starts.nbytes
            if self.ends is not None:
                data += self.ends.nbytes
        else:
            width = 1 + (self.starts is not None) + (self.ends is not None)
            data = len(self.ids) * width * 8
        return directory + data


#: segments at most this long are scanned in pure Python instead of NumPy;
#: the crossover was measured on CPython 3.11 (see bench_ablation_vectorization)
_SMALL_SEGMENT = 96

def _record_matches(
    record: Tuple[int, ...],
    has_start: bool,
    test_start: bool,
    test_end: bool,
    q_start: int,
    q_end: int,
) -> bool:
    """Predicate for one interleaved ``(id, start?, end?)`` record.

    The single encoding of the ``columnar=False`` record layout: the start
    (when kept) is column 1 and the end is column 2, or column 1 when no
    start is kept (``r_in``).
    """
    if test_start and record[1] > q_end:
        return False
    if test_end:
        end_value = record[2] if has_start and len(record) > 2 else record[-1]
        if end_value < q_start:
            return False
    return True


#: subdivision classes: (name, keeps starts, keeps ends, sort key column)
_CLASSES = (
    ("o_in", True, True, "starts"),
    ("o_aft", True, False, "starts"),
    ("r_in", False, True, "ends"),
    ("r_aft", False, False, None),
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
        self._assignments = 0
        # levels[level][class_name] -> _LevelClass
        self._levels: List[Dict[str, _LevelClass]] = [{} for _ in range(num_bits + 1)]
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
        mapped_starts = self._domain.map_values(collection.starts)
        mapped_ends = self._domain.map_values(collection.ends)
        # buckets[level][class][offset] -> list of row indices into the collection
        buckets: List[Dict[str, Dict[int, List[int]]]] = [
            {name: {} for name, *_ in _CLASSES} for _ in range(self._m + 1)
        ]
        m = self._m
        ids = collection.ids
        starts = collection.starts
        ends = collection.ends
        for row in range(len(collection)):
            ms = int(mapped_starts[row])
            me = int(mapped_ends[row])
            for assignment in partition_assignments(m, ms, me):
                level = assignment.level
                partition_last = (assignment.offset + 1) * (1 << (m - level)) - 1
                ends_inside = me <= partition_last
                if assignment.is_original:
                    class_name = "o_in" if ends_inside else "o_aft"
                else:
                    class_name = "r_in" if ends_inside else "r_aft"
                buckets[level][class_name].setdefault(assignment.offset, []).append(row)
                self._assignments += 1
        for level in range(self._m + 1):
            for class_name, keep_starts, keep_ends, sort_column in _CLASSES:
                per_offset = buckets[level][class_name]
                self._levels[level][class_name] = self._finalize_class(
                    level,
                    per_offset,
                    starts,
                    ends,
                    ids,
                    keep_starts,
                    keep_ends,
                    sort_column,
                )

    def _finalize_class(
        self,
        level: int,
        per_offset: Dict[int, List[int]],
        starts: np.ndarray,
        ends: np.ndarray,
        ids: np.ndarray,
        keep_starts: bool,
        keep_ends: bool,
        sort_column: Optional[str],
    ) -> _LevelClass:
        """Build the CSR merged table for one (level, class)."""
        if self._sparse:
            offsets = np.array(sorted(per_offset), dtype=np.int64)
        else:
            offsets = np.arange(1 << level, dtype=np.int64)
        counts = np.array([len(per_offset.get(int(o), ())) for o in offsets], dtype=np.int64)
        indptr = np.zeros(len(offsets) + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        rows: List[int] = []
        for offset in offsets:
            members = per_offset.get(int(offset))
            if not members:
                continue
            if sort_column == "starts":
                members = sorted(members, key=lambda r: int(starts[r]))
            elif sort_column == "ends":
                members = sorted(members, key=lambda r: int(ends[r]))
            rows.extend(members)
        row_index = np.array(rows, dtype=np.int64)
        merged_ids = ids[row_index] if len(row_index) else np.empty(0, dtype=np.int64)
        merged_starts = (
            starts[row_index]
            if keep_starts and len(row_index)
            else (np.empty(0, dtype=np.int64) if keep_starts else None)
        )
        merged_ends = (
            ends[row_index]
            if keep_ends and len(row_index)
            else (np.empty(0, dtype=np.int64) if keep_ends else None)
        )
        records: Optional[List[Tuple[int, ...]]] = None
        if not self._columnar:
            records = []
            for position in range(len(row_index)):
                record: List[int] = [int(merged_ids[position])]
                if keep_starts:
                    record.append(int(merged_starts[position]))
                if keep_ends:
                    record.append(int(merged_ends[position]))
                records.append(tuple(record))
        return _LevelClass(offsets, indptr, merged_ids, merged_starts, merged_ends, records)

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
            sum(len(self._levels[level][name]) for name, *_ in _CLASSES)
            for level in range(self.num_levels)
        ]

    def nonempty_partitions(self) -> int:
        """Number of (level, partition) pairs holding at least one interval."""
        count = 0
        for level in range(self.num_levels):
            offsets: set[int] = set()
            for name, *_ in _CLASSES:
                level_class = self._levels[level][name]
                lengths = np.diff(level_class.indptr)
                offsets.update(level_class.offsets[lengths > 0].tolist())
            count += len(offsets)
        return count

    # ------------------------------------------------------------------ #
    # updates
    # ------------------------------------------------------------------ #
    def delete(self, interval_id: int) -> bool:
        """Logically delete ``interval_id`` with a tombstone."""
        return self._spans.remove(interval_id) is not None

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def query(self, query: Query) -> List[int]:
        results, _ = self.query_with_stats(query)
        return results

    def query_with_stats(self, query: Query) -> tuple[List[int], QueryStats]:
        stats = QueryStats()
        chunks: List[np.ndarray] = []
        plain: List[int] = []
        # distinct (level, offset) pairs for which endpoint comparisons were
        # performed; this is the quantity Lemma 4 bounds by four in expectation
        compared: set[Tuple[int, int]] = set()
        for level_class, row_lo, row_hi, test_start, test_end, key in self._iter_segments(
            query
        ):
            self._emit_segment(
                level_class,
                row_lo,
                row_hi,
                query,
                test_start,
                test_end,
                chunks,
                plain,
                stats,
                compared,
                key,
            )
        results = self._merge_results(chunks, plain)
        stats.partitions_compared = len(compared)
        stats.results = len(results)
        return results, stats

    # -- aggregate fast path ------------------------------------------------ #
    def query_count(self, query: Query) -> int:
        """Count results without materialising an id list (Section 4.2/4.3
        traversal, aggregation-only).

        Comparison-free runs contribute their length in O(1); boundary
        partitions contribute a vectorised predicate count.  No intermediate
        list of ids is built anywhere on this path.  Tombstoned indexes fall
        back to the materialising path, which is the only way to subtract
        deleted ids exactly.
        """
        if self._spans.removed:
            return len(self.query(query))
        total = 0
        q_start = query.start
        q_end = query.end
        for level_class, row_lo, row_hi, test_start, test_end, _key in self._iter_segments(
            query
        ):
            if not (test_start or test_end):
                total += row_hi - row_lo
                continue
            if self._columnar:
                if test_start and test_end:
                    mask = (level_class.starts[row_lo:row_hi] <= q_end) & (
                        level_class.ends[row_lo:row_hi] >= q_start
                    )
                elif test_start:
                    mask = level_class.starts[row_lo:row_hi] <= q_end
                else:
                    mask = level_class.ends[row_lo:row_hi] >= q_start
                total += int(np.count_nonzero(mask))
                continue
            records = level_class.records
            has_start = level_class.starts is not None
            for row in range(row_lo, row_hi):
                if _record_matches(
                    records[row], has_start, test_start, test_end, q_start, q_end
                ):
                    total += 1
        return total

    def query_exists(self, query: Query) -> bool:
        """True iff any interval overlaps ``query``, stopping at the first hit.

        Any non-empty comparison-free run proves existence immediately; only
        boundary partitions need a predicate, and the scan stops at the first
        segment with a match.
        """
        if self._spans.removed:
            return self.query_count(query) > 0
        q_start = query.start
        q_end = query.end
        for level_class, row_lo, row_hi, test_start, test_end, _key in self._iter_segments(
            query
        ):
            if row_hi <= row_lo:
                continue
            if not (test_start or test_end):
                return True
            if self._columnar:
                if test_start and test_end:
                    mask = (level_class.starts[row_lo:row_hi] <= q_end) & (
                        level_class.ends[row_lo:row_hi] >= q_start
                    )
                elif test_start:
                    mask = level_class.starts[row_lo:row_hi] <= q_end
                else:
                    mask = level_class.ends[row_lo:row_hi] >= q_start
                if mask.any():
                    return True
                continue
            records = level_class.records
            has_start = level_class.starts is not None
            for row in range(row_lo, row_hi):
                if _record_matches(
                    records[row], has_start, test_start, test_end, q_start, q_end
                ):
                    return True
        return False

    def _iter_segments(self, query: Query):
        """Yield ``(level_class, row_lo, row_hi, test_start, test_end, key)``
        for every merged-table run the query touches.

        This is the single encoding of the Section 4.2/4.3 traversal: which
        partitions are relevant per level, how boundary partitions split off
        from the comparison-free middle run, and how the Lemma 2 flags lower
        the predicates level by level.  :meth:`query_with_stats` feeds the
        runs to :meth:`_emit_segment`; :meth:`query_count` only aggregates
        them.  ``key`` is the ``(level, offset)`` of a boundary partition
        (``None`` for comparison-free runs), used for the Lemma 4 counter.
        """
        mq_start = self._domain.map_value(query.start)
        mq_end = self._domain.map_value(query.end)
        comp_first = True
        comp_last = True
        for level in range(self._m, -1, -1):
            first, last = relevant_offsets(self._m, level, mq_start, mq_end)
            classes = self._levels[level]
            yield from self._original_segments(
                classes["o_in"], level, first, last, comp_first, comp_last
            )
            # O_aft of the first partition never needs the end-side test
            yield from self._original_segments(
                classes["o_aft"], level, first, last, False, comp_last
            )
            # replicas: only the first relevant partition
            yield from self._replica_segment(classes["r_in"], level, first, comp_first)
            yield from self._replica_segment(classes["r_aft"], level, first, False)
            comp_first, comp_last = self._lower_flags(
                level, first, last, mq_start, mq_end, comp_first, comp_last
            )

    def _original_segments(
        self,
        level_class: _LevelClass,
        level: int,
        first: int,
        last: int,
        test_end_first: bool,
        test_start_last: bool,
    ):
        """Runs of one originals class over partitions ``first..last``.

        ``test_end_first``: the first partition needs the ``end >= q.st``
        predicate.  ``test_start_last``: the last partition needs
        ``start <= q.end``.  Partitions strictly between the boundaries form
        one contiguous comparison-free run of the merged table (the Section
        4.2/4.3 fast path).
        """
        offsets = level_class.offsets_list
        if len(level_class.ids) == 0 or not offsets:
            return
        lo = bisect_left(offsets, first)
        hi = bisect_right(offsets, last)
        if lo >= hi:
            return
        indptr = level_class.indptr_list
        if first == last:
            if offsets[lo] == first:
                yield (
                    level_class,
                    indptr[lo],
                    indptr[lo + 1],
                    test_start_last,
                    test_end_first,
                    (level, first),
                )
            return
        start_run = lo
        end_run = hi
        if offsets[lo] == first:
            yield level_class, indptr[lo], indptr[lo + 1], False, test_end_first, (level, first)
            start_run = lo + 1
        if offsets[hi - 1] == last:
            yield level_class, indptr[hi - 1], indptr[hi], test_start_last, False, (level, last)
            end_run = hi - 1
        if start_run < end_run:
            yield level_class, indptr[start_run], indptr[end_run], False, False, None

    def _replica_segment(
        self, level_class: _LevelClass, level: int, first: int, test_end: bool
    ):
        """The replica run of the first relevant partition of one class."""
        offsets = level_class.offsets_list
        if len(level_class.ids) == 0 or not offsets:
            return
        position = bisect_left(offsets, first)
        if position >= len(offsets) or offsets[position] != first:
            return
        indptr = level_class.indptr_list
        yield (
            level_class,
            indptr[position],
            indptr[position + 1],
            False,
            test_end,
            (level, first),
        )

    # -- result assembly --------------------------------------------------- #
    def _merge_results(self, chunks: List[np.ndarray], plain: List[int]) -> List[int]:
        tombstones = self._spans.removed
        if chunks:
            merged = np.concatenate(chunks)
            if tombstones:
                keep = ~np.isin(merged, np.fromiter(tombstones, dtype=np.int64))
                merged = merged[keep]
            results = merged.tolist()
        else:
            results = []
        if plain:
            if tombstones:
                results.extend(sid for sid in plain if sid not in tombstones)
            else:
                results.extend(plain)
        return results

    # -- one partition segment ---------------------------------------------- #
    def _emit_segment(
        self,
        level_class: _LevelClass,
        row_lo: int,
        row_hi: int,
        query: Query,
        test_start: bool,
        test_end: bool,
        chunks: List[np.ndarray],
        plain: List[int],
        stats: QueryStats,
        compared: Optional[set] = None,
        partition_key: Optional[Tuple[int, int]] = None,
    ) -> None:
        """Report rows ``row_lo:row_hi`` applying the requested predicates."""
        if row_hi <= row_lo:
            return
        count = row_hi - row_lo
        stats.partitions_accessed += 1
        stats.candidates += count
        if test_start or test_end:
            if compared is not None and partition_key is not None:
                compared.add(partition_key)
            stats.comparisons += count * (int(test_start) + int(test_end))
        if self._columnar:
            if count <= _SMALL_SEGMENT:
                # short boundary/run: a plain Python scan beats the fixed cost
                # of NumPy slicing; the columnar layout is unchanged
                ids_list = level_class.ids_list
                if not (test_start or test_end):
                    plain.extend(ids_list[row_lo:row_hi])
                    return
                starts_list = level_class.starts_list
                ends_list = level_class.ends_list
                q_start = query.start
                q_end = query.end
                for row in range(row_lo, row_hi):
                    if test_start and starts_list[row] > q_end:
                        continue
                    if test_end and ends_list[row] < q_start:
                        continue
                    plain.append(ids_list[row])
                return
            mask: Optional[np.ndarray] = None
            if test_start:
                mask = level_class.starts[row_lo:row_hi] <= query.end
            if test_end:
                end_mask = level_class.ends[row_lo:row_hi] >= query.start
                mask = end_mask if mask is None else (mask & end_mask)
            segment_ids = level_class.ids[row_lo:row_hi]
            chunks.append(segment_ids if mask is None else segment_ids[mask])
            return
        # non-columnar path: interleaved records, scanned row by row
        records = level_class.records
        has_start = level_class.starts is not None
        for row in range(row_lo, row_hi):
            record = records[row]
            if _record_matches(
                record, has_start, test_start, test_end, query.start, query.end
            ):
                plain.append(record[0])

    # -- Lemma 2 flags ------------------------------------------------------- #
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

    # ------------------------------------------------------------------ #
    def memory_bytes(self, _memo: "set | None" = None) -> int:
        if self._memo_seen(_memo):
            return 0
        total = self._spans_bytes(_memo)
        for level in range(self.num_levels):
            for name, *_ in _CLASSES:
                total += self._levels[level][name].memory_bytes(self._columnar)
        return total
