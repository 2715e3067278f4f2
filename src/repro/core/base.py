"""The common query API implemented by every interval index in the library.

All indexes (HINT, HINT^m and the four baselines) expose the same interface so
that the benchmark harness, the correctness tests and the examples can treat
them interchangeably:

* :meth:`IntervalIndex.query` -- ids of all intervals overlapping a range query,
* :meth:`IntervalIndex.stab` -- ids of all intervals containing a point,
* :meth:`IntervalIndex.query_count` / :meth:`IntervalIndex.query_exists` and
  their batch forms -- aggregate forms of the range query, answered for
  every backend by one mechanism: two bisections over the count pair of
  the index's id -> span table (:mod:`repro.core.spans`), so
  ``store.query(...).count()`` never builds a result list or walks an
  index (``NaiveIndex``, the oracle, keeps a mask count of its own),
* :meth:`IntervalIndex.query_batch` -- answer many queries in one call, one
  int64 id array per query (the entry point of batched execution),
* :meth:`IntervalIndex.insert` / :meth:`IntervalIndex.delete` -- updates,
* :meth:`IntervalIndex.live_collection` -- the live rows, columnar (read from
  the index's one id -> span table, :mod:`repro.core.spans`),
* :meth:`IntervalIndex.memory_bytes` -- the bytes the index retains, measured
  by one walk of its objects (used by the Table 8 experiment),
* :meth:`IntervalIndex.query_with_stats` -- instrumented query evaluation that
  reports how many comparisons/partition accesses were performed (used to
  validate Lemma 4 and Table 7 without relying on wall-clock time).
"""

from __future__ import annotations

import abc
import math
import mmap
import sys
import threading
from concurrent.futures import Executor as _PoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.allen import AllenRelation, RANGE_QUERY_RELATIONS, relation_mask
from repro.core.errors import UnsupportedQueryError
from repro.core.interval import Interval, IntervalCollection, Query
from repro.core.spans import SpanTable
from repro.core.updates import UpdateFeed

__all__ = ["IntervalIndex", "QueryStats"]

_LOWEST, _HIGHEST = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


def _int64_bounds(query: Query) -> Optional[Tuple[int, int]]:
    """``(lo, hi)`` in the int64 range such that an interval with int64
    endpoints overlaps ``query`` iff ``start <= hi`` and ``end >= lo`` --
    or None when ``query`` lies wholly past that range.

    ``end >= q.start`` iff ``end >= ceil(q.start)`` and ``start <= q.end``
    iff ``start <= floor(q.end)`` (so ``lo`` passes ``hi`` by one when the
    query holds no integer), and a bound past the int64 range (an
    infinity, a wider int) clamps to its limit, which every int64 endpoint
    already satisfies.  Python compares the raw bounds with
    the limits exactly, and only floats are rounded (a NumPy integer would
    round through float64).  Counts bisect int64 columns with these bounds,
    and the backends that compute cells from a query's bounds read them too.
    """
    lo, hi = query.start, query.end
    if lo > _HIGHEST or hi < _LOWEST:
        return None
    lo = _LOWEST if lo < _LOWEST else math.ceil(lo) if isinstance(lo, float) else lo
    hi = _HIGHEST if hi > _HIGHEST else math.floor(hi) if isinstance(hi, float) else hi
    return lo, hi


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

    def merge(self, other: "QueryStats") -> "QueryStats":
        """Accumulate ``other``'s counters into this instance (and return it).

        Composite indexes (the hybrid main+delta pair, sharded indexes)
        answer one query with several sub-queries; merging sums every
        counter.  ``results`` sums too -- a composite that deduplicates ids
        afterwards overwrites it with the merged count.
        """
        self.results += other.results
        self.comparisons += other.comparisons
        self.partitions_accessed += other.partitions_accessed
        self.partitions_compared += other.partitions_compared
        self.candidates += other.candidates
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
        """Number of live intervals overlapping ``query``: two bisections
        over the span table's count pair (see :meth:`SpanTable.count
        <repro.core.spans.SpanTable.count>`), no id gathered."""
        bounds = _int64_bounds(query)
        return 0 if bounds is None else int(self._span_table().count(*bounds))

    def query_exists(self, query: Query) -> bool:
        """True iff at least one interval overlaps ``query``."""
        return self.query_count(query) > 0

    def query_count_batch(self, queries: Sequence[Query]) -> List[int]:
        """Per-query overlap counts for a whole workload, in order: the
        same two bisections, vectorised over the batch."""
        return self._count_batch(queries).tolist()

    def query_exists_batch(self, queries: Sequence[Query]) -> List[bool]:
        """Per-query existence probes for a whole workload, in order."""
        return (self._count_batch(queries) > 0).tolist()

    def _count_batch(self, queries: Sequence[Query]) -> np.ndarray:
        lo = np.array([query.start for query in queries])
        hi = np.array([query.end for query in queries])
        if lo.dtype == hi.dtype == np.int64:  # int64 bounds are exact as they are
            return self._span_table().count(lo, hi)
        bounds = [_int64_bounds(query) for query in queries]
        empty = [position for position, pair in enumerate(bounds) if pair is None]
        lo, hi = np.array(
            [pair or (0, 0) for pair in bounds], dtype=np.int64
        ).reshape(-1, 2).T
        counts = self._span_table().count(lo, hi)
        counts[empty] = 0
        return counts

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

    def memory_bytes(self) -> int:
        """Bytes the index retains: one walk of everything reachable from it.

        Every backend is measured by the same rule, :func:`_deep_sizeof`,
        so sizes compare across backends (Table 8): no backend prices its
        own structures.  One walk shares one seen-set, so a composite's
        components, and buffers they alias, are counted once.  The walk
        iterates containers that updates mutate, so it stays off every
        query and update path.
        """
        return _deep_sizeof(self)

    # ------------------------------------------------------------------ #
    # id -> span: one table per index (see :mod:`repro.core.spans`)
    # ------------------------------------------------------------------ #
    #: the index's :class:`~repro.core.spans.SpanTable`: every backend that
    #: retains its intervals builds it over its collection, mutates it in
    #: ``insert``/``delete`` and reads ``_spans.removed`` as its tombstone
    #: filter.  Composites leave it ``None`` and override :meth:`_span_table`,
    #: as does the ``NaiveIndex`` reference, which keeps rows of its own.
    _spans: "SpanTable | None" = None

    def _span_table(self) -> SpanTable:
        """What every id -> span read and every count goes through."""
        if self._spans is None:
            raise NotImplementedError(f"{type(self).__name__} retains no intervals")
        return self._spans

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


#: types with nothing reachable beyond their own ``getsizeof``
_ATOMS = frozenset({int, float, bool, str, bytes, type(None)})


def _deep_sizeof(obj: object) -> int:
    """``sys.getsizeof`` summed over everything reachable from ``obj``.

    Each object counts once per walk (``seen`` holds the ids already
    counted).  The walk follows dict items, list/tuple/set members and the
    attributes of instances (``__dict__`` or ``__slots__``), with a stack of
    pending objects rather than recursion.  Two leaves hold buffers
    ``getsizeof`` does not see: a NumPy array counts its data when it owns
    it (a view counts its header only), and an ``mmap`` counts its mapped
    length.  A ``concurrent.futures`` pool and a thread count their header
    only: they are execution machinery an index may share with other
    indexes, and a pool's queues and futures change under its manager
    thread while a batch runs.
    """
    seen = set()
    pending = [obj]
    total = 0
    while pending:
        obj = pending.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if type(obj) in _ATOMS:
            total += sys.getsizeof(obj)
        elif isinstance(obj, np.ndarray):
            # views share their base's buffer; count only owned data plus the header
            total += (int(obj.nbytes) if obj.base is None else 0) + 112
        else:
            total += sys.getsizeof(obj)
            if isinstance(obj, (list, tuple, set, frozenset)):
                pending.extend(obj)
            elif isinstance(obj, dict):
                pending.extend(obj.keys())
                pending.extend(obj.values())
            elif isinstance(obj, mmap.mmap):
                total += len(obj)
            elif isinstance(obj, (_PoolExecutor, threading.Thread)):
                pass
            elif hasattr(obj, "__dict__"):
                pending.append(vars(obj))
            elif hasattr(obj, "__slots__"):
                pending.extend(
                    getattr(obj, slot) for slot in obj.__slots__ if hasattr(obj, slot)
                )
    return total
