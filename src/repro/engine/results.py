"""Lazy result sets.

A :class:`ResultSet` is a handle on the answer of one query: nothing touches
the index until a terminal accessor runs, and aggregate accessors
(:meth:`ResultSet.count`, :meth:`ResultSet.exists`) go through the index's
``query_count``/``query_exists`` instead of materialising an id list.
:meth:`ResultSet.ids` materialises one read-only int64 array -- a backend
that answers with a list has it converted once, here -- and caches it;
every later accessor reuses it.

The same handle serves every index, sharded or not: a
:class:`~repro.engine.sharded.ShardedIndex` merges its shards' ids inside
its own query method, and every index answers ``count`` and ``exists``
with two bisections over its id -> span table's count pair
(:meth:`repro.core.spans.SpanTable.count`).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from repro.core.allen import AllenRelation
from repro.core.base import IntervalIndex, QueryStats
from repro.core.errors import UnsupportedQueryError
from repro.core.interval import Query

__all__ = ["ResultSet", "merge_unique_ids"]


def merge_unique_ids(id_lists: Iterable[Sequence[int]]) -> np.ndarray:
    """Union of id lists as one int64 array, preserving first-seen order.

    The one merge used everywhere shards are combined: the partitioner
    duplicates boundary-spanning intervals, so multi-shard answers must
    deduplicate by id.
    """
    parts = [np.asarray(ids, dtype=np.int64) for ids in id_lists]
    if not parts:
        return np.empty(0, dtype=np.int64)
    merged = np.concatenate(parts)
    _, first_seen = np.unique(merged, return_index=True)
    return merged[np.sort(first_seen)]


class ResultSet:
    """The (lazily evaluated) ids answering one query.

    Args:
        index: backend answering the query.
        query: the range/stabbing query.
        relation: optional Allen-relation refinement; when set, results are
            the intervals in that relation with ``query`` rather than all
            overlapping intervals.
        limit: optional cap on the number of ids reported.
        backend: registry name of the backend, used in error messages.
    """

    __slots__ = ("_index", "_query", "_relation", "_limit", "_backend", "_ids")

    def __init__(
        self,
        index: IntervalIndex,
        query: Query,
        relation: Optional[AllenRelation] = None,
        limit: Optional[int] = None,
        backend: Optional[str] = None,
    ) -> None:
        self._index = index
        self._query = query
        self._relation = relation
        self._limit = limit
        self._backend = backend or index.name
        self._ids: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def query(self) -> Query:
        """The underlying query."""
        return self._query

    @property
    def relation(self) -> Optional[AllenRelation]:
        """The Allen-relation refinement, if any."""
        return self._relation

    @property
    def limit(self) -> Optional[int]:
        """The result cap, if any."""
        return self._limit

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        state = "materialised" if self._ids is not None else "lazy"
        return (
            f"ResultSet(backend={self._backend!r}, query={self._query}, "
            f"relation={self._relation}, limit={self._limit}, {state})"
        )

    # ------------------------------------------------------------------ #
    # terminal accessors
    # ------------------------------------------------------------------ #
    def ids(self) -> np.ndarray:
        """Materialise (and cache) the result ids as an int64 array.

        Order is unspecified, as with :meth:`IntervalIndex.query`; a ``limit``
        keeps the first ids in that unspecified order.  Every call returns
        the cached array itself, not a copy, so it is read-only: a caller
        that sorts or edits the ids makes its own copy first.
        """
        if self._ids is None:
            found = np.asarray(self._fetch(), dtype=np.int64)
            if self._limit is not None and len(found) > self._limit:
                found = found[: self._limit].copy()
            found.setflags(write=False)
            self._ids = found
        return self._ids

    def count(self) -> int:
        """Number of results: the ids already fetched, else the index's
        :meth:`~repro.core.base.IntervalIndex.query_count` (two bisections
        over its span table's count pair, no id list).  A refined query (an
        Allen relation) counts its ids; a ``limit`` caps the count.
        """
        if self._ids is not None:
            return len(self._ids)
        if self._relation is not None:
            return len(self.ids())
        total = self._index.query_count(self._query)
        if self._limit is not None:
            total = min(total, self._limit)
        return total

    def exists(self) -> bool:
        """True iff the query has at least one result."""
        if self._ids is not None:
            return len(self._ids) > 0
        if self._relation is not None:
            return len(self.ids()) > 0
        return self._index.query_exists(self._query)

    def stats(self) -> QueryStats:
        """Instrumented counters for the underlying range query.

        Relation refinement and ``limit`` do not alter the traversal, so the
        counters describe the full range query that produced the candidates.
        """
        _, stats = self._index.query_with_stats(self._query)
        return stats

    # ------------------------------------------------------------------ #
    # container protocol (all materialise)
    # ------------------------------------------------------------------ #
    def __iter__(self) -> Iterator[int]:
        """Yield the ids as Python ints (JSON-serialisable, unlike ``np.int64``)."""
        return iter(self.ids().tolist())

    def __len__(self) -> int:
        return self.count()

    def __bool__(self) -> bool:
        return self.exists()

    def __contains__(self, interval_id: int) -> bool:
        return interval_id in self.ids()

    # ------------------------------------------------------------------ #
    def _fetch(self) -> Sequence[int]:
        if self._relation is None:
            return self._index.query(self._query)
        try:
            return self._index.query_relation(self._query, self._relation)
        except UnsupportedQueryError:
            raise
        except NotImplementedError as exc:
            raise UnsupportedQueryError(
                f"backend {self._backend!r} cannot answer "
                f"{self._relation.name} relation queries"
            ) from exc
