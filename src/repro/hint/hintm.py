"""HINT^m -- the generalised HINT for arbitrary domains (paper Section 3.2).

HINT^m limits the hierarchy to ``m + 1`` levels.  Raw interval endpoints are
mapped to the discrete domain ``[0, 2^m - 1]`` by linear rescaling
(:class:`repro.core.domain.Domain`); the partitions an interval is assigned to
then cover the smallest discrete interval containing it, not the interval
itself.  Consequently query evaluation must compare interval endpoints with
the query endpoints -- but only in the first and last relevant partition of
each level (Lemma 1), and usually in far fewer than ``2(m+1)`` partitions
thanks to Lemma 2 (the expected number is four, Lemma 4).

Two evaluation strategies are provided, matching the paper's Figure 10
experiment:

* ``top_down`` -- applies Lemma 1 at every level independently;
* ``bottom_up`` -- Algorithm 3: walks levels from ``m`` up to 0 maintaining
  the ``compfirst`` / ``complast`` flags of Lemma 2 so that comparisons stop
  as soon as the first/last relevant partition is known to be covered.

Exactness note.  Lemma 2's "last bit" test is applied verbatim and remains
exact even when the value mapping to ``[0, 2^m - 1]`` is lossy: Algorithm 1
only assigns an interval to partitions that its discretised image fully
covers, so once the first (last) relevant partition at some level is the left
(right) child of its parent, every member of the first (last) relevant
partitions at the levels above ends strictly after (starts strictly before)
the discretised query start (end); by monotonicity of the mapping the same
holds for the raw endpoints.  The instrumentation in the Table 7 benchmark
verifies that the number of partitions requiring comparisons stays around
four (Lemma 4).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.base import IntervalIndex, QueryStats
from repro.core.domain import Domain
from repro.core.errors import DomainError
from repro.core.interval import Interval, IntervalCollection, Query
from repro.core.spans import SpanTable
from repro.engine.registry import register_backend
from repro.hint.partitioning import partition_assignments, relevant_offsets

__all__ = ["HINTm"]

#: entries stored in partitions: (raw start, raw end, id)
_Entry = Tuple[int, int, int]


@register_backend(
    "hintm",
    aliases=("hint-m",),
    description="base HINT^m (top-down or bottom-up evaluation)",
    paper_section="Section 3.2",
    tunable=True,
)
class HINTm(IntervalIndex):
    """HINT^m with per-partition originals/replicas divisions (no subdivisions).

    This is the "base" variant of the paper's Figure 11 ablation: partitions
    store full ``(start, end, id)`` triples, originals and replicas are kept
    apart (Section 3.1's duplicate-free reporting), and no further
    subdivision, sorting or storage optimization is applied.  The optimized
    variants build on this class.

    Args:
        collection: intervals to index (raw endpoints, arbitrary integers).
        num_bits: the ``m`` parameter (the index has ``m + 1`` levels).
        domain: optionally a pre-built :class:`Domain`; by default the domain
            is fitted to the collection's span, as the paper does.
        evaluation: ``"bottom_up"`` (Algorithm 3, default) or ``"top_down"``.
    """

    name = "hint-m"

    def __init__(
        self,
        collection: IntervalCollection,
        num_bits: int = 10,
        domain: Optional[Domain] = None,
        evaluation: str = "bottom_up",
    ) -> None:
        if num_bits < 1:
            raise DomainError(f"num_bits must be >= 1, got {num_bits}")
        if evaluation not in ("bottom_up", "top_down"):
            raise ValueError(f"unknown evaluation strategy {evaluation!r}")
        self._m = num_bits
        self._evaluation = evaluation
        if domain is None:
            domain = Domain.for_collection(collection.starts, collection.ends, num_bits)
        elif domain.num_bits != num_bits:
            raise DomainError(
                f"domain has {domain.num_bits} bits but the index expects {num_bits}"
            )
        self._domain = domain
        self._spans = SpanTable(collection)
        self._assignments = 0
        # originals[level][offset] / replicas[level][offset] -> list of entries
        self._originals: List[Dict[int, List[_Entry]]] = [{} for _ in range(num_bits + 1)]
        self._replicas: List[Dict[int, List[_Entry]]] = [{} for _ in range(num_bits + 1)]
        for interval in collection:
            self._place(interval)

    @classmethod
    def build(
        cls,
        collection: IntervalCollection,
        num_bits: int = 10,
        evaluation: str = "bottom_up",
        **kwargs,
    ) -> "HINTm":
        return cls(collection, num_bits=num_bits, evaluation=evaluation, **kwargs)

    # ------------------------------------------------------------------ #
    # properties / introspection
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
        """The discrete domain the index maps raw endpoints into."""
        return self._domain

    @property
    def evaluation(self) -> str:
        """Query evaluation strategy (``"bottom_up"`` or ``"top_down"``)."""
        return self._evaluation

    @property
    def replication_factor(self) -> float:
        """Average number of partitions each interval is stored in (the ``k`` of Table 7)."""
        if len(self) == 0:
            return 0.0
        return self._assignments / len(self)

    def level_occupancy(self) -> List[int]:
        """Number of stored entries per level (originals + replicas)."""
        counts = []
        for level in range(self.num_levels):
            total = sum(len(v) for v in self._originals[level].values())
            total += sum(len(v) for v in self._replicas[level].values())
            counts.append(total)
        return counts

    def nonempty_partitions(self) -> int:
        """Number of partitions holding at least one original or replica."""
        count = 0
        for level in range(self.num_levels):
            offsets = set(self._originals[level]) | set(self._replicas[level])
            count += len(offsets)
        return count

    # ------------------------------------------------------------------ #
    # updates (Section 3.4)
    # ------------------------------------------------------------------ #
    def insert(self, interval: Interval) -> None:
        """Insert ``interval``: map to the discrete domain and run Algorithm 1."""
        self._place(interval)
        self._spans.add(interval)

    def _place(self, interval: Interval) -> None:
        entry: _Entry = (interval.start, interval.end, interval.id)
        for level, offset, target in self._assignments_of(interval):
            target[level].setdefault(offset, []).append(entry)
            self._assignments += 1

    def _assignments_of(self, interval: Interval):
        """``(level, offset, originals or replicas)`` of each partition
        Algorithm 1 assigns ``interval`` to."""
        mapped_start = self._domain.map_value(interval.start)
        mapped_end = self._domain.map_value(interval.end)
        for assignment in partition_assignments(self._m, mapped_start, mapped_end):
            target = self._originals if assignment.is_original else self._replicas
            yield assignment.level, assignment.offset, target

    def delete(self, interval_id: int) -> bool:
        """Delete ``interval_id``: its entries leave every partition it was
        assigned to, so re-inserting the id later cannot resurrect them."""
        victim = self._spans.remove(interval_id)
        if victim is None:
            return False
        entry: _Entry = (victim.start, victim.end, victim.id)
        for level, offset, target in self._assignments_of(victim):
            entries = target[level][offset]
            entries.remove(entry)
            if not entries:
                del target[level][offset]
            self._assignments -= 1
        return True

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def query(self, query: Query) -> List[int]:
        results, _ = self.query_with_stats(query)
        return results

    def query_with_stats(self, query: Query) -> tuple[List[int], QueryStats]:
        if self._evaluation == "bottom_up":
            results, stats = self._query_bottom_up(query)
        else:
            results, stats = self._query_top_down(query)
        tombstones = self._spans.removed
        if tombstones:
            results = [sid for sid in results if sid not in tombstones]
        stats.results = len(results)
        return results, stats

    # -- shared helpers -------------------------------------------------- #
    def _mapped_query(self, query: Query) -> Tuple[int, int]:
        return self._domain.map_value(query.start), self._domain.map_value(query.end)

    def _report_all(
        self, entries: Optional[List[_Entry]], results: List[int], stats: QueryStats
    ) -> None:
        if not entries:
            return
        stats.partitions_accessed += 1
        stats.candidates += len(entries)
        results.extend(entry[2] for entry in entries)

    def _report_end_after(
        self,
        entries: Optional[List[_Entry]],
        q_start: int,
        results: List[int],
        stats: QueryStats,
        compared: Optional[set] = None,
        key: Optional[Tuple[int, int]] = None,
    ) -> None:
        """Report entries with ``end >= q.start`` (Lemma 1, first partition)."""
        if not entries:
            return
        stats.partitions_accessed += 1
        if compared is not None and key is not None:
            compared.add(key)
        stats.candidates += len(entries)
        stats.comparisons += len(entries)
        results.extend(entry[2] for entry in entries if entry[1] >= q_start)

    def _report_start_before(
        self,
        entries: Optional[List[_Entry]],
        q_end: int,
        results: List[int],
        stats: QueryStats,
        compared: Optional[set] = None,
        key: Optional[Tuple[int, int]] = None,
    ) -> None:
        """Report entries with ``start <= q.end`` (Lemma 1, last partition)."""
        if not entries:
            return
        stats.partitions_accessed += 1
        if compared is not None and key is not None:
            compared.add(key)
        stats.candidates += len(entries)
        stats.comparisons += len(entries)
        results.extend(entry[2] for entry in entries if entry[0] <= q_end)

    def _report_full_test(
        self,
        entries: Optional[List[_Entry]],
        q_start: int,
        q_end: int,
        results: List[int],
        stats: QueryStats,
        compared: Optional[set] = None,
        key: Optional[Tuple[int, int]] = None,
    ) -> None:
        """Report entries overlapping ``[q_start, q_end]`` (both comparisons)."""
        if not entries:
            return
        stats.partitions_accessed += 1
        if compared is not None and key is not None:
            compared.add(key)
        stats.candidates += len(entries)
        stats.comparisons += 2 * len(entries)
        results.extend(
            entry[2] for entry in entries if entry[0] <= q_end and q_start <= entry[1]
        )

    # -- top-down evaluation (Lemma 1 only) ------------------------------ #
    def _query_top_down(self, query: Query) -> tuple[List[int], QueryStats]:
        stats = QueryStats()
        results: List[int] = []
        compared: set = set()
        mq_start, mq_end = self._mapped_query(query)
        for level in range(0, self._m + 1):
            first, last = relevant_offsets(self._m, level, mq_start, mq_end)
            originals = self._originals[level]
            replicas = self._replicas[level]
            first_key = (level, first)
            last_key = (level, last)
            if first == last:
                self._report_full_test(
                    originals.get(first), query.start, query.end, results, stats,
                    compared, first_key,
                )
                self._report_end_after(
                    replicas.get(first), query.start, results, stats, compared, first_key
                )
            else:
                # first partition: originals + replicas, one comparison each
                self._report_end_after(
                    originals.get(first), query.start, results, stats, compared, first_key
                )
                self._report_end_after(
                    replicas.get(first), query.start, results, stats, compared, first_key
                )
                # in-between partitions: originals, no comparisons
                for offset in range(first + 1, last):
                    self._report_all(originals.get(offset), results, stats)
                # last partition: originals, one comparison each
                self._report_start_before(
                    originals.get(last), query.end, results, stats, compared, last_key
                )
        stats.partitions_compared = len(compared)
        return results, stats

    # -- bottom-up evaluation (Algorithm 3 + Lemma 2) --------------------- #
    def _query_bottom_up(self, query: Query) -> tuple[List[int], QueryStats]:
        stats = QueryStats()
        results: List[int] = []
        compared: set = set()
        mq_start, mq_end = self._mapped_query(query)
        comp_first = True
        comp_last = True
        for level in range(self._m, -1, -1):
            first, last = relevant_offsets(self._m, level, mq_start, mq_end)
            originals = self._originals[level]
            replicas = self._replicas[level]
            first_key = (level, first)
            last_key = (level, last)
            if comp_first:
                if first == last and comp_last:
                    self._report_full_test(
                        originals.get(first), query.start, query.end, results, stats,
                        compared, first_key,
                    )
                    self._report_end_after(
                        replicas.get(first), query.start, results, stats, compared, first_key
                    )
                else:
                    # only the start-side comparison is needed (Lemma 1 /
                    # Algorithm 3 line 13-14)
                    self._report_end_after(
                        originals.get(first), query.start, results, stats, compared, first_key
                    )
                    self._report_end_after(
                        replicas.get(first), query.start, results, stats, compared, first_key
                    )
            else:
                if first == last and comp_last:
                    # Algorithm 3 lines 10-12: only the end-side comparison
                    self._report_start_before(
                        originals.get(first), query.end, results, stats, compared, first_key
                    )
                    self._report_all(replicas.get(first), results, stats)
                else:
                    # no comparisons at all (Algorithm 3 lines 15-16)
                    self._report_all(originals.get(first), results, stats)
                    self._report_all(replicas.get(first), results, stats)
            if last > first:
                for offset in range(first + 1, last):
                    self._report_all(originals.get(offset), results, stats)
                if comp_last:
                    self._report_start_before(
                        originals.get(last), query.end, results, stats, compared, last_key
                    )
                else:
                    self._report_all(originals.get(last), results, stats)
            comp_first, comp_last = self._lower_flags(
                level, first, last, mq_start, mq_end, comp_first, comp_last
            )
        stats.partitions_compared = len(compared)
        return results, stats

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
        """Update the Lemma 2 flags after finishing ``level``.

        The paper lowers ``compfirst`` when the last bit of ``first`` is 0 and
        ``complast`` when the last bit of ``last`` is 1.  This is exact even
        when the value mapping is lossy: every partition Algorithm 1 assigns
        an interval to is fully covered by the interval's discretised image,
        so members of the first relevant partition at the levels above end
        strictly after the discretised query start (and symmetrically for the
        last partition), which carries over to the raw values by monotonicity.
        """
        if level == 0:
            return comp_first, comp_last
        if comp_first and first % 2 == 0:
            comp_first = False
        if comp_last and last % 2 == 1:
            comp_last = False
        return comp_first, comp_last
