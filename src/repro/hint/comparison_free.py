"""The comparison-free HINT of Section 3.1.

This version is applicable when the domain is discrete and small enough to
afford one level per domain bit (``m' = ceil(log2 |D|)`` levels).  Because the
partitions at the bottom level have unit extent, the partitions covering an
interval *define* it exactly, so range queries report results without a
single endpoint comparison (Algorithm 2): at every level, all intervals
(originals and replicas) of the first relevant partition are results, and
only the originals of every subsequent relevant partition are.

Partitions therefore store only interval ids.  Two storage layouts are
provided:

* ``sparse=False`` -- a dense array of ``2^l`` partitions per level, empty
  ones included, exactly as Section 3.1 describes;
* ``sparse=True`` -- the skewness & sparsity optimization of Section 4.2:
  only non-empty partitions are materialised, each level keeps a sorted
  directory of non-empty offsets, and query evaluation walks that directory
  instead of touching (possibly empty) partitions one by one.  Table 6 of the
  paper measures exactly this switch.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, Iterable, List, Optional, Union

import numpy as np

from repro.core.base import IntervalIndex, QueryStats, _int64_bounds
from repro.core.domain import Domain
from repro.core.errors import DomainError
from repro.core.interval import Interval, IntervalCollection, Query
from repro.core.spans import SpanTable
from repro.engine.registry import register_backend
from repro.hint.partitioning import partition_assignments, relevant_offsets

__all__ = ["ComparisonFreeHINT"]


class _DenseLevel(list):
    """One level of the dense layout: all ``2^l`` partitions, each an id
    list, empty or not.  ``get`` and ``keys`` read it the way the sparse
    layout's dicts are read."""

    __slots__ = ()

    def get(self, offset: int) -> List[int]:
        return self[offset]

    def keys(self) -> List[int]:
        return [offset for offset, members in enumerate(self) if members]


#: one level's partitions: offset -> ids, dense or only the non-empty ones
_Level = Union[_DenseLevel, Dict[int, List[int]]]


@register_backend(
    "hint_cf",
    aliases=("hint",),
    description="comparison-free HINT over a discrete domain",
    paper_section="Section 3.1",
    discrete_domain=True,
)
class ComparisonFreeHINT(IntervalIndex):
    """Comparison-free HINT over the discrete domain ``[0, 2^num_bits - 1]``.

    Args:
        collection: intervals to index; endpoints must already lie in the
            discrete domain (use :class:`repro.core.domain.Domain` to rescale
            arbitrary data first, or use HINT^m which does it internally).
        num_bits: the ``m'`` parameter; the index has ``num_bits + 1`` levels.
        sparse: enable the skewness & sparsity storage optimization.
    """

    name = "hint"

    def __init__(
        self,
        collection: IntervalCollection,
        num_bits: int,
        sparse: bool = True,
    ) -> None:
        if num_bits < 1:
            raise DomainError(f"num_bits must be >= 1, got {num_bits}")
        self._m = num_bits
        self._sparse = sparse
        self._domain = Domain.identity(num_bits)
        self._spans = SpanTable(collection)
        self._replicas = 0
        # originals[level][offset] -> list of ids; replicas likewise.
        # With sparse=True the inner mapping only holds non-empty offsets and
        # each level keeps a sorted directory of non-empty original offsets.
        self._originals: List[_Level] = [self._level(l) for l in range(num_bits + 1)]
        self._replicas_parts: List[_Level] = [self._level(l) for l in range(num_bits + 1)]
        self._original_dirs: List[List[int]] = [[] for _ in range(num_bits + 1)]
        self._dirs_dirty = False
        for interval in collection:
            self._place(interval)

    def _level(self, level: int) -> _Level:
        return {} if self._sparse else _DenseLevel([] for _ in range(1 << level))

    @classmethod
    def build(
        cls, collection: IntervalCollection, num_bits: int = 16, sparse: bool = True
    ) -> "ComparisonFreeHINT":
        return cls(collection, num_bits=num_bits, sparse=sparse)

    # ------------------------------------------------------------------ #
    # properties
    # ------------------------------------------------------------------ #
    @property
    def num_bits(self) -> int:
        """The ``m'`` parameter (levels are ``0 .. num_bits``)."""
        return self._m

    @property
    def num_levels(self) -> int:
        """Number of levels (``num_bits + 1``)."""
        return self._m + 1

    @property
    def sparse(self) -> bool:
        """Whether the skewness & sparsity optimization is active."""
        return self._sparse

    @property
    def replication_factor(self) -> float:
        """Average number of partitions each interval is stored in."""
        if len(self) == 0:
            return 0.0
        return self._replicas / len(self)

    def nonempty_partitions(self) -> int:
        """Number of non-empty (originals or replicas) partitions."""
        count = 0
        for level in range(self.num_levels):
            offsets = set(self._originals[level].keys()) | set(
                self._replicas_parts[level].keys()
            )
            count += len(offsets)
        return count

    # ------------------------------------------------------------------ #
    # updates
    # ------------------------------------------------------------------ #
    def insert(self, interval: Interval) -> None:
        """Assign ``interval`` to its partitions (Algorithm 1)."""
        self._place(interval)
        self._spans.add(interval)

    def validate(self, interval: Interval) -> None:
        """The domain is fixed: ``[0, 2^num_bits - 1]``."""
        if interval.start < 0 or interval.end > self._domain.max_value:
            raise DomainError(
                f"interval [{interval.start}, {interval.end}] outside domain "
                f"[0, {self._domain.max_value}]; rescale first or use HINTm"
            )

    def _place(self, interval: Interval) -> None:
        self.validate(interval)
        for assignment in partition_assignments(self._m, interval.start, interval.end):
            parts = (self._originals if assignment.is_original else self._replicas_parts)[
                assignment.level
            ]
            members = parts.get(assignment.offset)
            if members is None:
                parts[assignment.offset] = members = []
            members.append(interval.id)
            self._replicas += 1
        self._dirs_dirty = True

    def delete(self, interval_id: int) -> bool:
        """Delete ``interval_id``: it leaves every partition it was assigned
        to, so re-inserting the id later cannot resurrect it."""
        victim = self._spans.remove(interval_id)
        if victim is None:
            return False
        for assignment in partition_assignments(self._m, victim.start, victim.end):
            parts = (self._originals if assignment.is_original else self._replicas_parts)[
                assignment.level
            ]
            members = parts[assignment.offset]
            members.remove(interval_id)
            if not members and self._sparse:
                del parts[assignment.offset]
                self._dirs_dirty = True
            self._replicas -= 1
        return True

    def _refresh_directories(self) -> None:
        """Rebuild the per-level sorted directories of non-empty partitions."""
        for level in range(self.num_levels):
            self._original_dirs[level] = sorted(self._originals[level])
        self._dirs_dirty = False

    # ------------------------------------------------------------------ #
    # queries (Algorithm 2)
    # ------------------------------------------------------------------ #
    def query(self, query: Query) -> List[int]:
        results, _ = self._query(query)
        return results

    def query_with_stats(self, query: Query) -> tuple[List[int], QueryStats]:
        return self._query(query)

    def _query(self, query: Query) -> tuple[List[int], QueryStats]:
        bounds = _int64_bounds(query)
        top = self._domain.max_value
        if bounds is None or bounds[1] < 0 or bounds[0] > top:
            return [], QueryStats()  # no point of the discrete domain
        q_start, q_end = max(bounds[0], 0), min(bounds[1], top)
        if q_start > q_end:  # no integer inside: the intervals holding both neighbours
            ids, stats = self._query(Query(q_end, q_start))
            starts, ends, _ = self._spans.gather(ids)
            results = np.asarray(ids, dtype=np.int64)[(starts <= q_end) & (ends >= q_start)]
            stats.results = len(results)
            return results.tolist(), stats
        stats = QueryStats()
        results: List[int] = []
        if self._sparse and self._dirs_dirty:
            self._refresh_directories()
        for level in range(self._m, -1, -1):
            first, last = relevant_offsets(self._m, level, q_start, q_end)
            # first relevant partition: report originals and replicas
            originals = self._originals[level].get(first)
            if originals:
                stats.partitions_accessed += 1
                stats.candidates += len(originals)
                results.extend(originals)
            replicas = self._replicas_parts[level].get(first)
            if replicas:
                stats.partitions_accessed += 1
                stats.candidates += len(replicas)
                results.extend(replicas)
            # subsequent relevant partitions: originals only
            if last > first:
                if self._sparse:
                    directory = self._original_dirs[level]
                    lo = bisect_right(directory, first)
                    hi = bisect_right(directory, last)
                    for offset in directory[lo:hi]:
                        originals = self._originals[level][offset]
                        stats.partitions_accessed += 1
                        stats.candidates += len(originals)
                        results.extend(originals)
                else:
                    for originals in self._originals[level][first + 1 : last + 1]:
                        stats.partitions_accessed += 1
                        if originals:
                            stats.candidates += len(originals)
                            results.extend(originals)
        tombstones = self._spans.removed
        if tombstones:
            results = [sid for sid in results if sid not in tombstones]
        stats.results = len(results)
        return results, stats
