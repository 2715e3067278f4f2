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
supported through tombstones: one byte per row of the merged tables, which
every read drops inside the row ranges its walk already holds.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.base import IntervalIndex, QueryStats
from repro.core.domain import Domain
from repro.core.errors import DomainError
from repro.core.interval import Interval, IntervalCollection, Query
from repro.core.spans import SpanTable
from repro.engine.registry import register_backend

__all__ = ["OptimizedHINTm"]


#: ids rendered per step when the id column is rendered as text: one
#: chunk's Python ints and strs at a time, never one per row of the index
_RENDER_CHUNK = 8192

#: batches at least this long go through the vectorised traversal, shorter
#: ones through the per-query loop.  The ``batch_crossover`` sweep of
#: :mod:`repro.bench.experiments` (20k synthetic intervals at m = 12, the two
#: paths timed in turn, medians of seven; CPython 3.11 on a 2-core x86-64 VM,
#: the process pinned to one CPU) puts the kernel at ~305-375 us for a
#: one-query call and the loop, which reads a class's partitions at a level
#: as one run, at ~45-60 us per query: over three runs loop / kernel was
#: 0.82-0.87 at 8 queries and 1.05-1.32 at 16, and the same interleaved
#: timing over 9-14 queries (medians of nine, six runs) gave 0.74-0.91 at 9,
#: 0.87-1.04 at 10, 0.99-1.09 at 11 and 1.08-1.30 at 12, the smallest size
#: the kernel won in every run.  Above 1, a lone query never enters the
#: kernel
_BATCH_CROSSOVER = 12


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
    rows = np.repeat(first - (ends - lengths), lengths)
    rows += np.arange(total, dtype=np.int64)
    return rows


def _live_runs(runs: List[tuple], dead: bytearray) -> List[tuple]:
    """The final runs of a walk, each split where ``dead`` marks a row: the
    runs of live rows, in order."""
    live: List[tuple] = []
    for lo, hi, _, _ in runs:
        row = dead.find(1, lo, hi)
        while row >= 0:
            if lo < row:
                live.append((lo, row, False, False))
            lo = row + 1
            row = dead.find(1, lo, hi)
        if lo < hi:
            live.append((lo, hi, False, False))
    return live


def _bisect_runs(
    column: np.ndarray, lo: np.ndarray, hi: np.ndarray, bound: np.ndarray, right: bool
) -> np.ndarray:
    """:func:`bisect_right` (``right``) or :func:`bisect_left` of each
    ``bound[i]`` in ``column[lo[i]:hi[i]]``, each run sorted, all runs at
    once: one step of every search per pass.  The steps halve from the
    largest power of two below the longest run, and a search moves its
    position ``found`` forward by a step whenever the row before the new
    position still belongs left of its bound."""
    found = lo.copy()
    step = 1 << int(np.max(hi - lo, initial=0)).bit_length() >> 1
    while step:
        probe = found + step
        take = probe <= hi
        value = column[np.minimum(probe, hi) - 1]
        take &= (value <= bound) if right else (value < bound)
        found += take * step
        step >>= 1
    return found


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

#: the batch kernel's (entry, level) table: a (query, level)'s directory
#: entries ``first .. after_first`` (first partition, empty when it is
#: absent) and ``last .. after_last`` (last partition, the first one again
#: when they coincide; ``last == after_last`` when it is absent), and
#: ``split``: ``after_first`` when the first partition needs the end test,
#: else ``first``
_FIRST, _AFTER_FIRST, _LAST, _AFTER_LAST, _SPLIT = range(5)
#: ... and its (flag, level) table: no test; the start test of the first
#: partition (when it is the last one too) and of the last partition; the
#: end test of the first partition (Lemma 2)
_NEVER, _FIRST_START, _COMP_LAST, _COMP_FIRST = range(4)


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
        #: the domain's mapping as plain ints, which :meth:`_walk` inlines
        self._rescaling = domain.rescaling
        self._spans = SpanTable(collection)
        #: the tombstones: one byte per row of the shared row space, 1 where
        #: the row's interval is deleted; None until the first delete
        #: (see :meth:`delete`), so a tombstone-free read tests only that
        self._dead: Optional[bytearray] = None
        #: the same bytes as a bool array, which the batch kernel reads
        self._dead_rows: Optional[np.ndarray] = None
        # the table's rows: the collection itself unless it repeats an id,
        # whose last row is then the only one indexed, as the table keeps it
        self._build(self._spans.collection())
        #: the id column rendered as text (see :meth:`render_ids`): each id
        #: as ASCII decimal plus a comma, in row order, and the int64
        #: offsets where each row's text starts (one more at the end)
        self._id_text: Optional[Tuple[bytes, np.ndarray]] = None

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
        #: memoryviews of the three columns, which the scalar walk reads:
        #: :func:`bisect` and slicing get Python ints and bytes from them,
        #: with no copy of a column
        self._views = tuple(memoryview(column) for column in (self._starts, self._ends, self._ids))
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
        #: one row per class; the kernel reads it flat, class ``c``'s row
        #: from ``c * (len(directory) + 1)``
        self._pointers = np.empty((len(_CLASSES), len(directory) + 1), dtype=np.int64)
        row_base = 0
        for pointers, sorted_keys in zip(self._pointers, class_keys):
            pointers[:-1] = np.searchsorted(sorted_keys, directory) + row_base
            row_base += len(sorted_keys)
            pointers[-1] = row_base
        # the scalar walk searches Python lists: much faster through
        # :mod:`bisect` than through ``np.searchsorted`` one value at a time
        self._keys_list: List[int] = directory.tolist()
        self._pointer_lists: List[List[int]] = self._pointers.tolist()
        #: where each level starts in the directory (``m + 2`` cuts)
        self._level_cuts: List[int] = np.searchsorted(
            directory, np.int64(1) << np.arange(m + 2)
        ).tolist()
        self._levels, self._slots = self._level_plan()
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

    def _level_plan(self) -> Tuple[List[tuple], tuple]:
        """The one walk plan, from one scan of the levels: what each
        traversal visits -- only the levels that store rows, and per level
        only the classes with rows there (on short-interval data most
        (level, class) pairs hold none).

        For the scalar walk, bottom level first: one entry ``(2^level, m -
        level, 2^(m - level) - 1, dir_lo, dir_hi, classes)`` per populated
        level, where ``dir_lo:dir_hi`` is the level's range of the directory
        and ``classes`` holds one ``(pointers, original, keeps_end)`` per
        class with rows at the level.

        For the batch kernel, the same pairs as slot columns (see
        :meth:`_batch_segments`): ``(shifts, heap, below)`` as columns over
        the populated levels, top level first, then per slot the rows of the
        (entry, level) table its run starts at, ends at and start-trims
        from, the offset of its class's row of the pointer table, and the
        rows of the (flag, level) table its start and end tests read -- the
        runs :meth:`_walk` reads: one slot per populated ``o_aft`` or
        replica pair, two per populated ``o_in`` pair -- 30-33 slots on the
        ``core_scan`` benchmark data, where three per original pair made
        47-53.
        """
        m = self._m
        cuts = self._level_cuts
        pointer_lists = self._pointer_lists
        walk: List[tuple] = []
        shifts: List[int] = []
        slots: List[Tuple[int, ...]] = []
        for level in range(m + 1):
            lo, hi = cuts[level], cuts[level + 1]
            present = [
                index for index in (1, 0, 2, 3)  # o_in, o_aft, r_in, r_aft
                if pointer_lists[index][hi] > pointer_lists[index][lo]
            ]
            if not present:
                continue
            shift = m - level
            walk.append((
                1 << level, shift, (1 << shift) - 1, lo, hi,
                tuple((pointer_lists[index], _CLASSES[index][2]) for index in present if index > 1),
                tuple((pointer_lists[index], _CLASSES[index][2]) for index in present if index < 2),
            ))
            row = len(shifts)
            shifts.append(shift)
            for index in present:
                # (class, level row, run from, run to, trim from, start test, end test)
                if index == 0:  # o_aft: first partition through the last
                    slots.append((index, row, _FIRST, _AFTER_LAST, _LAST, _COMP_LAST, _NEVER))
                    continue
                if index == 1:  # o_in: the first partition apart when it is end-tested
                    slots.append((index, row, _FIRST, _SPLIT, _FIRST, _FIRST_START, _COMP_FIRST))
                    slots.append((index, row, _SPLIT, _AFTER_LAST, _LAST, _COMP_LAST, _NEVER))
                    continue
                end_test = _COMP_FIRST if _CLASSES[index][2] else _NEVER
                slots.append((index, row, _FIRST, _AFTER_FIRST, _FIRST, _NEVER, end_test))
        walk.reverse()
        levels = len(shifts)
        shift_column = np.array(shifts, dtype=np.int64)[:, None]
        classes, rows, run_from, run_to, trim_from, start_test, end_test = (
            np.array(column, dtype=np.int64).reshape(-1)
            for column in (zip(*slots) if slots else [()] * 7)
        )
        batch = (
            shift_column,
            np.int64(1) << (m - shift_column),
            (np.int64(1) << shift_column) - 1,
            run_from * levels + rows,
            run_to * levels + rows,
            trim_from * levels + rows,
            classes * self._pointers.shape[1],
            start_test * levels + rows,
            end_test * levels + rows,
        )
        return walk, batch

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
        return int(np.count_nonzero(np.diff(self._pointers).sum(axis=0)))

    # ------------------------------------------------------------------ #
    # updates
    # ------------------------------------------------------------------ #
    def delete(self, interval_id: int) -> bool:
        """Logically delete ``interval_id``: a tombstone on every row that
        holds it.

        The first delete allocates the tombstones, one byte per row.  A
        reader loads them once, and an interval sits in at most one row a
        query reads, so a racing reader sees each deleted id either live or
        gone, never half of it.
        """
        victim = self._spans.remove(interval_id)
        if victim is None:
            return False
        dead = self._dead
        if dead is None:
            dead = bytearray(len(self._ids))
        for row in self._rows_of(victim):
            dead[row] = 1
        if self._dead is None:
            self._dead_rows = np.frombuffer(dead, dtype=np.bool_)
            self._dead = dead
        return True

    def _rows_of(self, interval: Interval) -> List[int]:
        """The rows of the shared row space that hold ``interval``.

        Algorithm 1 on its mapped endpoints gives its partitions, as
        :meth:`_build` assigned them; each is found in the directory and
        holds the interval in one row.  A partition's run is sorted by its
        class's sort column, ties in collection order, so one bisect on that
        column and a scan over the ties give that row (an ``r_aft`` run has
        no sort column: all its rows are ties).  No id column is probed.
        """
        m = self._m
        mapped_start = self._domain.map_value(interval.start)
        mapped_end = self._domain.map_value(interval.end)
        keys, pointer_lists = self._keys_list, self._pointer_lists
        starts, ends, ids = self._views
        base = self._ends_base
        found: List[int] = []
        a, b = mapped_start, mapped_end
        for level in range(m, -1, -1):
            if a > b:
                break
            shift = m - level
            for offset in [a] * (a & 1) + [b] * (1 - (b & 1)):
                inside = mapped_end <= ((offset + 1) << shift) - 1
                # storage order of _CLASSES: o_aft, o_in, r_in, r_aft
                class_index = inside if offset == mapped_start >> shift else 3 - inside
                pointers = pointer_lists[class_index]
                entry = bisect_left(keys, (1 << level) + offset)
                row_lo, row_hi = pointers[entry], pointers[entry + 1]
                if class_index < 2:
                    row_lo = bisect_left(starts, interval.start, row_lo, row_hi)
                    row_hi = bisect_right(starts, interval.start, row_lo, row_hi)
                elif class_index == 2:
                    row_lo = bisect_left(ends, interval.end, row_lo - base, row_hi - base) + base
                    row_hi = bisect_right(ends, interval.end, row_lo - base, row_hi - base) + base
                found.append(row_lo + ids[row_lo:row_hi].tolist().index(interval.id))
            a = (a + (a & 1)) >> 1
            b = (b - (~b & 1)) >> 1
        return found

    # ------------------------------------------------------------------ #
    # answers as text: the id column rendered once, then sliced
    # ------------------------------------------------------------------ #
    def render_ids(self) -> None:
        """Render the id column as text once, for :meth:`ids_text`.

        Each id becomes its ASCII decimal plus a comma, in row order, with
        an int64 offset per row: a run of rows is then one slice of text.
        The ids are rendered :data:`_RENDER_CHUNK` at a time, so no more
        than one chunk of them exists as Python objects at once.  The
        column costs its text (the digits and a comma: 6.4 bytes a row on
        ids below 200k) plus 8 bytes a row, and :meth:`memory_bytes`
        counts it.  Only a
        server answering from this index renders it.  Nothing happens on
        the row-wise layout, which never answers as text, or when the
        column is already there.  Deletes keep it: a tombstoned row is a
        cut between slices (see :meth:`ids_text`).
        """
        if self._id_text is not None or not self._columnar:
            return
        ids = self._ids
        text = b"".join(
            (",".join(map(str, ids[lo : lo + _RENDER_CHUNK].tolist())) + ",").encode()
            for lo in range(0, len(ids), _RENDER_CHUNK)
        )
        offsets = np.zeros(len(ids) + 1, dtype=np.int64)
        offsets[1:] = np.flatnonzero(np.frombuffer(text, dtype=np.uint8) == ord(",")) + 1
        self._id_text = text, offsets

    @property
    def renders_ids(self) -> bool:
        """True while :meth:`ids_text` answers: the column is rendered."""
        return self._id_text is not None

    def ids_text(self, query: Query) -> Optional[Tuple[bytes, int]]:
        """``(text, count)``: the ids answering ``query`` joined by commas,
        in :meth:`query`'s order, and how many there are -- or None unless
        :attr:`renders_ids`.  Each run of :meth:`_walk` is one slice of the
        rendered column, split where a tombstoned row sits; no id becomes a
        Python int.
        """
        rendered = self._id_text
        if rendered is None:
            return None
        text, offsets = rendered[0], memoryview(rendered[1])  # int lookups
        runs = self._walk(query)[0]
        dead = self._dead
        if dead is not None:
            runs = _live_runs(runs, dead)
        pieces = [text[offsets[lo] : offsets[hi]] for lo, hi, _, _ in runs]
        # every id's text ends in a comma: the answer's last one goes
        return b"".join(pieces)[:-1], sum([hi - lo for lo, hi, _, _ in runs])

    # ------------------------------------------------------------------ #
    # queries: one walk, then whole-run reads
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
        aggregation-only): the runs' lengths, less their tombstoned rows."""
        return self._tally(query, stop_at_first=False)

    def query_exists(self, query: Query) -> bool:
        """True iff any interval overlaps ``query``: any run with a live row
        proves it."""
        return self._tally(query, stop_at_first=True) > 0

    def _walk(self, query: Query, stats: Optional[QueryStats] = None) -> Tuple[list, object, object]:
        """``(runs, q_start, q_end)``: ``(row_lo, row_hi, test_start,
        test_end)`` for every non-empty run of the shared columns that holds
        answers to ``query``, and its bounds as :func:`_exact_bounds` gives
        them.  The one Section 4.2/4.3 traversal of a lone query; with
        ``stats`` it fills the counters too.

        Per level, one binary search in the directory finds the first
        relevant partition (a second one the last, when they differ), and
        only the classes that store rows at the level are read
        (:meth:`_batch_segments` is the same traversal for a whole batch,
        and reads the Lemma 2 flags by the same formula).  A class's
        partitions sit side by side in the merged table (Section 4.2), so
        its first, comparison-free middle and last partitions are one run --
        but an ``o_in`` first partition that needs the end test is a run of
        its own, and a replica class reads its first partition only.

        On the columnar layout every run comes final, both flags False.  A
        start test is one :func:`bisect_right` over the run's last partition
        (the whole run when it is the first one too), sorted by start, and
        a replica's end test one :func:`bisect_left` over its partition,
        sorted by end (Section 4.1's sorting); both probe memoryviews of the
        endpoint columns, which hand out Python ints where the arrays box a
        NumPy scalar per probe.  An ``o_in`` partition is sorted by start
        only, so its end test splits it at ``q_start``: on the ``core_scan``
        and ``serve_uniform`` data (seed 7, 3,000 queries each) a query
        meets 1.4-1.5 such partitions of 31-34 rows, 46-48 % of their rows
        start at or after ``q_start`` and half fail, so one run and 1.0-1.4
        single rows remain of each.  The row-wise layout gets its runs
        untrimmed and flagged, a run's last partition apart when it is
        start-tested, for the record scan.  The stats count partitions from
        the untrimmed bounds, as a walk that read the first, middle and last
        partitions apart would count them, and the boundary partitions
        compared, which Lemma 4 bounds by four in expectation.
        """
        q_start, q_end = _exact_bounds(query)
        # the domain's mapping, inline (see Domain.rescaling)
        low, high, scale_shift, factor, divisor = self._rescaling
        x = query.start
        mq_start = (int(low if x < low else high if x > high else x) - low) >> scale_shift
        x = query.end
        mq_end = (int(low if x < low else high if x > high else x) - low) >> scale_shift
        mq_start, mq_end = mq_start * factor // divisor, mq_end * factor // divisor
        keys = self._keys_list
        starts, ends, _ = self._views
        base, trim = self._ends_base, self._columnar
        runs: List[tuple] = []
        add = runs.append
        # untrimmed (row_lo, row_mid, row_cut, row_hi, test_start, test_end,
        # key of the tested partition) per run, for the stats
        untrimmed = None if stats is None else []
        for heap, shift, below, dir_lo, dir_hi, replicas, originals in self._levels:
            # heap number of the first relevant partition, and its entry
            first = heap + (mq_start >> shift)
            lo = bisect_left(keys, first, dir_lo, dir_hi)
            head = lo < dir_hi and keys[lo] == first
            if head:
                # Lemma 2: the first (last) partition still needs its end
                # (start) test iff the mapped start's (end's) bits below the
                # level's prefix are all ones (all zeros)
                comp_first = mq_start & below == below
                for pointers, keeps_end in replicas:
                    row_lo, row_hi = pointers[lo], pointers[lo + 1]
                    if row_lo == row_hi:
                        continue
                    test_end = keeps_end and comp_first
                    if untrimmed is not None:
                        untrimmed.append((row_lo, row_lo, row_lo, row_hi, False, test_end, first))
                    if test_end and trim:
                        row_lo = bisect_left(ends, q_start, row_lo - base, row_hi - base) + base
                        test_end = False
                    if row_lo < row_hi:
                        add((row_lo, row_hi, False, test_end))
            if not originals:
                continue
            last = heap + (mq_end >> shift)
            comp_last = not mq_end & below
            if first != last:
                hi = bisect_right(keys, last, lo, dir_hi)
                middle_lo = lo + head
                # the entry the last partition starts at (``hi`` when it is absent)
                cut = hi - (hi > lo and keys[hi - 1] == last)
            elif head:
                middle_lo, cut, hi = lo, lo, lo + 1  # one partition, first and last
            else:
                continue
            for pointers, keeps_end in originals:
                row_lo = pointers[lo]
                if keeps_end and head and comp_first and row_lo < pointers[lo + 1]:
                    # an o_in first partition that needs the end test: a run
                    # apart, start-tested too when it is the last one as well
                    row_mid = pointers[lo + 1]
                    test_start = comp_last and first == last
                    if untrimmed is not None:
                        untrimmed.append((row_lo, row_lo, row_lo, row_mid, test_start, True, first))
                    if not trim:
                        add((row_lo, row_mid, test_start, True))
                    else:
                        row_end = row_mid
                        if test_start:
                            row_end = bisect_right(starts, q_end, row_lo, row_mid)
                        # sorted by start: the rows that start at or after
                        # q_start end there too, one run; only those before
                        # it read their end, each passing one a run of its own
                        split = bisect_left(starts, q_start, row_lo, row_end)
                        for row in range(row_lo, split):
                            if ends[row - base] >= q_start:
                                add((row, row + 1, False, False))
                        if split < row_end:
                            add((split, row_end, False, False))
                    row_lo = row_mid
                row_hi = pointers[hi]
                if row_lo == row_hi:
                    continue
                row_cut = pointers[cut]
                if untrimmed is not None:
                    untrimmed.append((
                        row_lo, pointers[middle_lo], row_cut, row_hi, comp_last, False, last,
                    ))
                if comp_last and not trim:
                    # the record scan start-tests the last partition apart
                    if row_lo < row_cut:
                        add((row_lo, row_cut, False, False))
                    if row_cut < row_hi:
                        add((row_cut, row_hi, True, False))
                    continue
                if comp_last:
                    row_hi = bisect_right(starts, q_end, row_cut, row_hi)
                if row_lo < row_hi:
                    add((row_lo, row_hi, False, False))
        if untrimmed is not None:
            compared = set()
            for row_lo, row_mid, row_cut, row_hi, test_start, test_end, key in untrimmed:
                stats.partitions_accessed += (
                    (row_mid > row_lo) + (row_cut > row_mid) + (row_hi > row_cut)
                )
                stats.candidates += row_hi - row_lo
                tested = test_start * (row_hi - row_cut) + test_end * (row_hi - row_lo)
                if tested:
                    compared.add(key)
                    stats.comparisons += tested
            stats.partitions_compared = len(compared)
        return runs, q_start, q_end

    def _passing_records(self, lo: int, hi: int, test_start: bool, test_end: bool, q_start, q_end):
        """The interleaved records of run ``lo:hi`` that pass, scanned row
        by row: the ``columnar=False`` layout's predicates, tombstoned rows
        skipped."""
        records = self._records[lo:hi]
        dead = self._dead
        if dead is not None and dead.find(1, lo, hi) >= 0:
            records = [record for record, gone in zip(records, dead[lo:hi]) if not gone]
        if not (test_start or test_end):
            return records
        return [
            record for record in records
            if _record_matches(record, test_start, test_end, q_start, q_end)
        ]

    def _answer(self, query: Query, stats: Optional[QueryStats] = None) -> np.ndarray:
        """The ids answering ``query`` as a fresh, owning int64 array,
        without the tombstoned ones: on the columnar layout the bytes of
        every run of :meth:`_walk` in the id column, joined and copied once
        -- a memoryview slice costs a third of an array view, and the whole
        gather ~0.65x of ``np.concatenate`` over views (11 runs, timeit).
        On a tombstoned index the runs' tombstone bytes are joined the same
        way, and the answer is filtered only when one of them is set."""
        runs, q_start, q_end = self._walk(query, stats)
        if not self._columnar:
            # row-wise layout: interleaved records, scanned row by row
            return np.fromiter(
                (
                    record[0]
                    for run in runs
                    for record in self._passing_records(*run, q_start, q_end)
                ),
                dtype=np.int64,
            )
        ids = self._views[2]
        found = np.frombuffer(b"".join([ids[lo:hi] for lo, hi, _, _ in runs]), dtype=np.int64)
        dead = self._dead
        if dead is not None:
            gone = b"".join([dead[lo:hi] for lo, hi, _, _ in runs])
            if 1 in gone:
                return found[~np.frombuffer(gone, dtype=np.bool_)]
        return found.copy()

    def _tally(self, query: Query, stop_at_first: bool) -> int:
        """Results of ``query`` counted run by run, no id gathered; with
        ``stop_at_first`` the count stops at the first run with a live row.
        Tombstoned rows are counted in the mask, never looked up."""
        runs, q_start, q_end = self._walk(query)
        if self._columnar:  # final runs, none empty
            dead = self._dead
            if dead is None:
                return min(len(runs), 1) if stop_at_first else sum([hi - lo for lo, hi, _, _ in runs])
            if stop_at_first:
                return int(any(dead.find(0, lo, hi) >= 0 for lo, hi, _, _ in runs))
            return sum([hi - lo - dead.count(1, lo, hi) for lo, hi, _, _ in runs])
        total = 0
        for run in runs:
            total += len(self._passing_records(*run, q_start, q_end))
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
        row_cut, test_start, test_end)`` columns, one entry per non-empty
        merged-table run, in query-major order, rows in the shared row space.

        :meth:`_walk` in closed form, over the plan both walks read
        (:meth:`_level_plan`).  At every populated level the first and last
        relevant partitions of every query are shifts of its mapped
        endpoints; the Lemma 2 flag of the first (last) partition at a level
        still stands iff the bits of the mapped start (end) below the
        level's prefix are all ones (all zeros), the formula :meth:`_walk`
        reads one level at a time.  One ``searchsorted`` per side locates
        them all in the heap-numbered directory: its needles, level-major
        and each level's ordered by the mapped endpoint, are sorted, and
        the search runs ~2.5x faster on them than unordered.  Each query
        then has the runs :meth:`_walk` reads as slots: one per
        populated ``o_aft`` or replica (level, class) pair, two per populated
        ``o_in`` pair (its first partition when it is end-tested, then the
        rest through the last): 30-33 slots on the ``core_scan`` benchmark
        data (m = 13, seven seeds), where three per original pair made 47-53
        and one per class and level 112.
        """
        shifts, heap, below, run_from, run_to, trim_from, bases, start_rows, end_rows = self._slots
        width = len(run_from)
        if not width:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, empty, empty, empty.astype(bool), empty.astype(bool)
        levels, count = len(shifts), len(q_starts)
        mq_starts = self._domain.map_values(q_starts)
        mq_ends = self._domain.map_values(q_ends)
        keys = self._keys
        entries = np.empty((5, levels, count), dtype=np.int64)
        order = np.argsort(mq_starts)
        needles = heap + (mq_starts[order] >> shifts)
        found = np.searchsorted(keys, needles.reshape(-1), "left").reshape(levels, count)
        entries[_FIRST][:, order] = found
        entries[_AFTER_FIRST][:, order] = found + (keys[np.minimum(found, len(keys) - 1)] == needles)
        order = np.argsort(mq_ends)
        needles = heap + (mq_ends[order] >> shifts)
        found = np.searchsorted(keys, needles.reshape(-1), "right").reshape(levels, count)
        entries[_AFTER_LAST][:, order] = found
        entries[_LAST][:, order] = found - (keys[np.maximum(found, 1) - 1] == needles)
        flags = np.empty((4, levels, count), dtype=bool)
        flags[_NEVER] = False
        flags[_COMP_LAST] = (mq_ends & below) == 0
        flags[_FIRST_START] = (((mq_starts ^ mq_ends) >> shifts) == 0) & flags[_COMP_LAST]
        flags[_COMP_FIRST] = (mq_starts & below) == below
        entries[_SPLIT] = np.where(flags[_COMP_FIRST], entries[_AFTER_FIRST], entries[_FIRST])
        # (query, slot) tables: the row space bounds of every slot's run
        by_query = entries.reshape(5 * levels, count).T
        pointers = self._pointers.reshape(-1)
        seg_lo = pointers[by_query[:, run_from] + bases].reshape(-1)
        seg_len = pointers[by_query[:, run_to] + bases].reshape(-1) - seg_lo
        kept = np.flatnonzero(seg_len != 0)  # a third of what int64 costs
        seg_query, slot = np.divmod(kept, width)
        flags = flags.reshape(4 * levels, count)
        return (
            seg_query,
            seg_lo[kept],
            seg_len[kept],
            pointers[by_query[seg_query, trim_from[slot]] + bases[slot]],
            flags[start_rows[slot], seg_query],
            flags[end_rows[slot], seg_query],
        )

    def _batch_plan(self, q_starts: np.ndarray, q_ends: np.ndarray):
        """Segment table of a batch with the predicates already decided.

        Returns ``(per-query counts, seg_lo, seg_len, flagged, failed)``:
        the runs come trimmed as the scalar walk trims them (by a vectorised
        binary search over each start-tested run's last partition, and over
        each end-tested replica partition), ``flagged`` indexes the runs that still need an
        original's end test, and ``failed`` marks, among the rows of those
        runs in order, the ones that do not qualify.  The ends column is
        read for these rows only.
        """
        count = len(q_starts)
        seg_query, seg_lo, seg_len, seg_cut, seg_start, seg_end = self._batch_segments(
            q_starts, q_ends
        )
        seg_hi = seg_lo + seg_len
        base = self._ends_base
        replicas = seg_lo >= self._replicas_base
        trim = np.flatnonzero(seg_start)
        seg_hi[trim] = _bisect_runs(
            self._starts, seg_cut[trim], seg_hi[trim], q_ends[seg_query[trim]], right=True
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
        rows, no id gathered -- on a tombstoned index the rows are listed,
        so their tombstones can be subtracted."""
        if self._dead_rows is not None:
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
        dead = self._dead_rows
        if dead is not None:
            gone = dead[rows]
            owner = np.repeat(np.arange(len(counts)), counts)
            counts -= np.bincount(owner[gone], minlength=len(counts))
            rows = rows[~gone]
        offsets = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return rows, offsets
