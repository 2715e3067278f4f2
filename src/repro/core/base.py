"""The common query API implemented by every interval index in the library.

All indexes (HINT, HINT^m and the four baselines) expose the same interface so
that the benchmark harness, the correctness tests and the examples can treat
them interchangeably:

* :meth:`IntervalIndex.query` -- ids of all intervals overlapping a range query,
* :meth:`IntervalIndex.stab` -- ids of all intervals containing a point,
* :meth:`IntervalIndex.query_count` / :meth:`IntervalIndex.query_exists` --
  aggregate forms of the range query; the defaults materialise the id list,
  backends with cheaper paths (counting partition runs, vectorised masks)
  override them so ``store.query(...).count()`` never builds a result list,
* :meth:`IntervalIndex.query_batch` -- answer many queries in one call, one
  int64 id array per query (the entry point of batched execution),
* :meth:`IntervalIndex.insert` / :meth:`IntervalIndex.delete` -- updates,
* :meth:`IntervalIndex.live_collection` -- the live rows, columnar (read from
  the index's one id -> span table, :mod:`repro.core.spans`),
* :meth:`IntervalIndex.memory_bytes` -- an estimate of the index footprint
  (used by the Table 8 experiment),
* :meth:`IntervalIndex.query_with_stats` -- instrumented query evaluation that
  reports how many comparisons/partition accesses were performed (used to
  validate Lemma 4 and Table 7 without relying on wall-clock time).
"""

from __future__ import annotations

import abc
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from repro.core.allen import AllenRelation, RANGE_QUERY_RELATIONS, relation_mask
from repro.core.errors import UnsupportedQueryError
from repro.core.interval import Interval, IntervalCollection, Query
from repro.core.spans import SpanTable
from repro.core.updates import UpdateFeed

__all__ = ["IntervalIndex", "QueryStats", "count_once"]


def count_once(memo: "set[int] | None", obj: object, nbytes: int) -> int:
    """Count ``nbytes`` for ``obj`` unless the id-memo already saw it.

    Used by ``memory_bytes`` overrides for buffers that may be aliased across
    the sub-indexes of a composite (e.g. two indexes built over the same
    collection share its NumPy arrays).  With ``memo=None`` it degenerates to
    plain counting.
    """
    if memo is None:
        return nbytes
    if id(obj) in memo:
        return 0
    memo.add(id(obj))
    return nbytes


@dataclass
class QueryStats:
    """Counters collected while evaluating a single query.

    Attributes:
        results: number of result ids reported.
        comparisons: number of endpoint comparisons against the query.
        partitions_accessed: number of partitions (or nodes/cells) visited.
        partitions_compared: partitions where at least one comparison happened
            (the quantity Lemma 4 bounds by 4 in expectation for HINT^m).
        candidates: number of intervals inspected, including non-results.
    """

    results: int = 0
    comparisons: int = 0
    partitions_accessed: int = 0
    partitions_compared: int = 0
    candidates: int = 0
    extra: Dict[str, float] = field(default_factory=dict)

    #: ``extra`` columns that are point-in-time gauges rather than additive
    #: counters (the sharded index's ingest/maintenance/serving state);
    #: merging takes their max so ``sum(stats_list)`` over a workload stays
    #: meaningful instead of reporting e.g. a snapshot generation that never
    #: existed
    GAUGE_EXTRAS = frozenset(
        {
            "ingest_pending",
            "snapshot_generation",
            "epoch",
            "cache_hits",
            "cache_size",
            "subscriptions_active",
            "deltas_emitted",
            "deltas_coalesced",
            "catchup_resyncs",
            "fanout_disabled",
            "kernel_retries",
        }
    )

    def merge(self, other: "QueryStats") -> "QueryStats":
        """Accumulate ``other``'s counters into this instance (and return it).

        Composite indexes (the hybrid main+delta pair, sharded stores) answer
        one query with several sub-queries; merging sums every counter,
        including the free-form ``extra`` columns (gauges in
        :attr:`GAUGE_EXTRAS` take the max instead).  ``results`` sums too --
        a composite that deduplicates ids afterwards overwrites it with the
        merged count.
        """
        self.results += other.results
        self.comparisons += other.comparisons
        self.partitions_accessed += other.partitions_accessed
        self.partitions_compared += other.partitions_compared
        self.candidates += other.candidates
        for key, value in other.extra.items():
            if key in self.GAUGE_EXTRAS:
                self.extra[key] = max(self.extra.get(key, value), value)
            else:
                self.extra[key] = self.extra.get(key, 0.0) + value
        return self

    def __add__(self, other: "QueryStats") -> "QueryStats":
        if not isinstance(other, QueryStats):
            return NotImplemented
        return QueryStats(
            results=self.results,
            comparisons=self.comparisons,
            partitions_accessed=self.partitions_accessed,
            partitions_compared=self.partitions_compared,
            candidates=self.candidates,
            extra=dict(self.extra),
        ).merge(other)

    def __radd__(self, other: object) -> "QueryStats":
        # lets ``sum(stats_list)`` start from the int 0
        if other == 0:
            return QueryStats().merge(self)
        return NotImplemented

    def __iadd__(self, other: "QueryStats") -> "QueryStats":
        if not isinstance(other, QueryStats):
            return NotImplemented
        return self.merge(other)


class IntervalIndex(abc.ABC):
    """Abstract base class for all interval indexes."""

    #: human-readable name used in benchmark reports
    name: str = "abstract"

    #: the :class:`~repro.core.updates.UpdateFeed` of an index that
    #: serialises its own updates (hybrid, sharded); ``None`` on every other
    #: backend, whose wrapping store owns the feed instead
    updates: "UpdateFeed | None" = None

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    @abc.abstractmethod
    def build(cls, collection: IntervalCollection, **kwargs) -> "IntervalIndex":
        """Build an index over ``collection``."""

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def query(self, query: Query) -> Sequence[int]:
        """Return the ids of all intervals that overlap ``query``.

        The result order is unspecified; no duplicates are returned.  The
        answer is a sequence of ids: a list on some backends, an int64
        array on others (``OptimizedHINTm``, ``HybridHINTm``, a multi-shard
        ``ShardedIndex``).  Callers that serialise or hash the ids call
        ``.tolist()`` on an array first.
        """

    def stab(self, point: int) -> Sequence[int]:
        """Return the ids of all intervals containing ``point``."""
        return self.query(Query.stabbing(point))

    def query_count(self, query: Query) -> int:
        """Number of intervals overlapping ``query``.

        The default materialises the id list; backends with a cheaper path
        (summing partition-run lengths, vectorised masks) override it.
        """
        return len(self.query(query))

    def query_exists(self, query: Query) -> bool:
        """True iff at least one interval overlaps ``query``."""
        return self.query_count(query) > 0

    def query_count_batch(self, queries: Sequence[Query]) -> List[int]:
        """Per-query overlap counts for a whole workload, in order.

        The default evaluates :meth:`query_count` one by one; composite
        indexes override with genuinely batched evaluation (the sharded
        index answers with one vectorised pass over its ingest journal).
        """
        return [self.query_count(query) for query in queries]

    def query_exists_batch(self, queries: Sequence[Query]) -> List[bool]:
        """Per-query existence probes for a whole workload, in order."""
        return [self.query_exists(query) for query in queries]

    def query_batch(self, queries: Sequence[Query]) -> List[np.ndarray]:
        """Answer many range queries in one call.

        Returns one int64 id array per query, positionally aligned with
        ``queries``; every array owns its memory, so keeping one answer
        never pins another's, or the index's columns.  The default
        evaluates the queries one by one; backends may override with a
        genuinely batched evaluation (shared traversals, vectorisation).
        """
        return [np.array(self.query(query), dtype=np.int64) for query in queries]

    def query_with_stats(self, query: Query) -> tuple[Sequence[int], QueryStats]:
        """Instrumented :meth:`query`.

        The default implementation runs the plain query and fills only the
        ``results`` counter; indexes that support instrumentation override it.
        """
        results = self.query(query)
        return results, QueryStats(results=len(results))

    def query_relation(self, query: Query, relation: AllenRelation) -> List[int]:
        """Ids of intervals in the given Allen relation with ``query``.

        Relations implying overlap refine the range query's candidates
        through the span table's ``gather``, so they cost what the
        candidates cost -- never a pass over the stored intervals.
        BEFORE/AFTER are unbounded (not what HINT targets) and take one
        vectorised scan of :meth:`live_collection`.
        """
        try:
            if relation in RANGE_QUERY_RELATIONS:
                ids = np.asarray(self.query(query), dtype=np.int64)
                starts, ends, live = self._span_table().gather(ids)
                keep = live & relation_mask(relation, starts, ends, query)
            else:
                rows = self.live_collection()
                ids = rows.ids
                keep = relation_mask(relation, rows.starts, rows.ends, query)
        except UnsupportedQueryError:
            raise
        except NotImplementedError as exc:
            raise UnsupportedQueryError(
                f"backend {self.name!r} ({type(self).__name__}) does not retain "
                f"full intervals, so it cannot answer "
                f"{relation.name} relation queries"
            ) from exc
        return ids[keep].tolist()

    # ------------------------------------------------------------------ #
    # updates
    # ------------------------------------------------------------------ #
    def insert(self, interval: Interval) -> None:
        """Insert a new interval.  Indexes that do not support single-interval
        inserts raise ``NotImplementedError``."""
        raise NotImplementedError(f"{type(self).__name__} does not support insert()")

    def validate(self, interval: Interval) -> None:
        """Raise the error :meth:`insert` would raise for ``interval``'s span,
        without inserting it.

        A durable store checks here before it logs an insert, so the
        write-ahead log never holds an insert the index refused.  Most
        backends accept every span; one with a fixed domain overrides this.
        """

    def delete(self, interval_id: int) -> bool:
        """Delete an interval by id (tombstone semantics where applicable).

        Returns True when the id was found.
        """
        raise NotImplementedError(f"{type(self).__name__} does not support delete()")

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        """Number of (live) intervals indexed: the table's row count."""
        return len(self._spans)

    def memory_bytes(self, _memo: "set[int] | None" = None) -> int:
        """Approximate memory footprint of the index structures in bytes.

        The default walks the instance's attributes with ``sys.getsizeof``;
        array-backed indexes override this with exact buffer sizes.

        ``_memo`` is an id-memo shared by composite indexes (hybrid, sharded)
        so that objects reachable from several sub-indexes -- a shared domain,
        aliased NumPy buffers, or the same sub-index appearing twice -- are
        counted exactly once across the whole composite.  Every override
        honours the same contract: an index already recorded in the memo
        reports 0 additional bytes.
        """
        # _deep_sizeof records this object in the memo itself, so already-seen
        # indexes naturally report 0 here
        return _deep_sizeof(self, _memo)

    def _memo_seen(self, _memo: "set[int] | None") -> bool:
        """Record this index in the shared id-memo; True when already counted."""
        if _memo is None:
            return False
        if id(self) in _memo:
            return True
        _memo.add(id(self))
        return False

    # ------------------------------------------------------------------ #
    # id -> span: one table per index (see :mod:`repro.core.spans`)
    # ------------------------------------------------------------------ #
    #: the index's :class:`~repro.core.spans.SpanTable`: every backend that
    #: retains its intervals builds it over its collection, mutates it in
    #: ``insert``/``delete`` and reads ``_spans.removed`` as its tombstone
    #: filter.  Composites leave it ``None`` and override :meth:`_span_table`.
    _spans: "SpanTable | None" = None

    def _span_table(self) -> SpanTable:
        """What every id -> span read below goes through."""
        if self._spans is not None:
            return self._spans
        if type(self)._interval_lookup is IntervalIndex._interval_lookup:
            raise NotImplementedError(f"{type(self).__name__} retains no intervals")
        # an index that keeps rows of its own (the NaiveIndex reference)
        # overrides _interval_lookup: a throwaway table over it, O(n) like
        # the lookup itself
        return SpanTable(IntervalCollection.from_intervals(self._interval_lookup().values()))

    def _spans_bytes(self, _memo: "set[int] | None") -> int:
        """The table's share of :meth:`memory_bytes` (counted once per memo)."""
        return count_once(_memo, self._spans, self._spans.nbytes)

    def live_collection(self) -> IntervalCollection:
        """The live intervals as a columnar collection (one vectorised pass)."""
        return self._span_table().collection()

    def _interval_lookup(self) -> Dict[int, Interval]:
        """Map id -> Interval for every live interval: O(n) Python objects,
        so nothing on a query or update path calls it."""
        return {interval.id: interval for interval in self.live_collection()}

    def _resolve_interval(self, interval_id: int) -> "Interval | None":
        """The live interval for one id, or None (the delete paths resolve
        the victim's span on every op: one table probe)."""
        return self._span_table().get(interval_id)


def _deep_sizeof(obj: object, _seen: set | None = None) -> int:
    """Best-effort recursive ``sys.getsizeof`` that handles containers and numpy arrays."""
    if _seen is None:
        _seen = set()
    obj_id = id(obj)
    if obj_id in _seen:
        return 0
    _seen.add(obj_id)

    if isinstance(obj, np.ndarray):
        # views share their base's buffer; count only owned data plus the header
        owned = obj.base is None
        return (int(obj.nbytes) if owned else 0) + 112

    size = sys.getsizeof(obj)
    if isinstance(obj, dict):
        size += sum(_deep_sizeof(k, _seen) + _deep_sizeof(v, _seen) for k, v in obj.items())
    elif isinstance(obj, (list, tuple, set, frozenset)):
        size += sum(_deep_sizeof(item, _seen) for item in obj)
    elif hasattr(obj, "__dict__"):
        size += _deep_sizeof(vars(obj), _seen)
    elif hasattr(obj, "__slots__"):
        size += sum(
            _deep_sizeof(getattr(obj, slot), _seen)
            for slot in obj.__slots__
            if hasattr(obj, slot)
        )
    return size
