"""Allen's interval algebra relations.

The paper's range query retrieves all intervals that *overlap* the query in
the general sense (they share at least one point).  Section 1 and the
conclusions note that range queries can be specialised to any relation of
Allen's algebra; this module provides that specialisation so the indexes can
serve selection queries such as "intervals covered by q" or "intervals that
meet q" by post-filtering the candidates of a range query.

The thirteen relations follow Allen (1981) with closed-interval semantics.
Point intervals are permitted: e.g. ``[3, 3] EQUALS [3, 3]``.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, Iterable, List

import numpy as np

from repro.core.interval import Interval, Query

__all__ = [
    "AllenRelation",
    "allen_relation",
    "satisfies_relation",
    "filter_by_relation",
    "RANGE_QUERY_RELATIONS",
]


class AllenRelation(enum.Enum):
    """The thirteen relations of Allen's interval algebra.

    The relation is read "interval RELATION query": for example
    ``BEFORE`` means the data interval ends strictly before the query starts.
    """

    BEFORE = "before"
    MEETS = "meets"
    OVERLAPS = "overlaps"
    STARTS = "starts"
    DURING = "during"
    FINISHES = "finishes"
    EQUALS = "equals"
    FINISHED_BY = "finished_by"
    CONTAINS = "contains"
    STARTED_BY = "started_by"
    OVERLAPPED_BY = "overlapped_by"
    MET_BY = "met_by"
    AFTER = "after"


# One encoding of the thirteen predicates, over raw endpoints: written with
# ``&`` so the same function answers for two ints (a ``bool``) and for two
# ``int64`` columns (a boolean mask) -- see :func:`relation_mask`.
def _before(start, end, q: Query):
    return end < q.start

def _meets(start, end, q: Query):
    # the "q.start < q.end" guard keeps the relations mutually exclusive when
    # the query degenerates to a point (FINISHED_BY covers that case)
    return (end == q.start) & (start < q.start) & (q.start < q.end)

def _overlaps(start, end, q: Query):
    return (start < q.start) & (q.start < end) & (end < q.end)

def _starts(start, end, q: Query):
    return (start == q.start) & (end < q.end)

def _during(start, end, q: Query):
    return (q.start < start) & (end < q.end)

def _finishes(start, end, q: Query):
    return (end == q.end) & (start > q.start)

def _equals(start, end, q: Query):
    return (start == q.start) & (end == q.end)

def _finished_by(start, end, q: Query):
    return (end == q.end) & (start < q.start)

def _contains(start, end, q: Query):
    return (start < q.start) & (q.end < end)

def _started_by(start, end, q: Query):
    return (start == q.start) & (end > q.end)

def _overlapped_by(start, end, q: Query):
    return (q.start < start) & (start < q.end) & (q.end < end)

def _met_by(start, end, q: Query):
    # see _meets: for a point query STARTED_BY covers this case instead
    return (start == q.end) & (end > q.end) & (q.start < q.end)

def _after(start, end, q: Query):
    return start > q.end


_PREDICATES: Dict[AllenRelation, Callable] = {
    AllenRelation.BEFORE: _before,
    AllenRelation.MEETS: _meets,
    AllenRelation.OVERLAPS: _overlaps,
    AllenRelation.STARTS: _starts,
    AllenRelation.DURING: _during,
    AllenRelation.FINISHES: _finishes,
    AllenRelation.EQUALS: _equals,
    AllenRelation.FINISHED_BY: _finished_by,
    AllenRelation.CONTAINS: _contains,
    AllenRelation.STARTED_BY: _started_by,
    AllenRelation.OVERLAPPED_BY: _overlapped_by,
    AllenRelation.MET_BY: _met_by,
    AllenRelation.AFTER: _after,
}

# Bound to each member once: a dict lookup keyed by the member would run the
# Python-level ``Enum.__hash__`` on every call, and standing-query refinement
# and relation-filtered answers call it once per candidate.
for _relation, _predicate in _PREDICATES.items():
    _relation._predicate = _predicate

#: Relations that imply the interval shares at least one point with the query.
#: A range (overlap) query retrieves exactly the union of these relations,
#: so candidates for any of them can be produced by the HINT range query.
RANGE_QUERY_RELATIONS = frozenset(
    {
        AllenRelation.MEETS,
        AllenRelation.OVERLAPS,
        AllenRelation.STARTS,
        AllenRelation.DURING,
        AllenRelation.FINISHES,
        AllenRelation.EQUALS,
        AllenRelation.FINISHED_BY,
        AllenRelation.CONTAINS,
        AllenRelation.STARTED_BY,
        AllenRelation.OVERLAPPED_BY,
        AllenRelation.MET_BY,
    }
)


def satisfies_relation(interval: Interval, query: Query, relation: AllenRelation) -> bool:
    """Return True iff ``interval RELATION query`` holds."""
    return bool(relation._predicate(interval.start, interval.end, query))


def relation_mask(
    relation: AllenRelation, starts: np.ndarray, ends: np.ndarray, query: Query
) -> np.ndarray:
    """Row-wise :func:`satisfies_relation` over two endpoint columns."""
    return relation._predicate(starts, ends, query)


def allen_relation(interval: Interval, query: Query) -> AllenRelation:
    """Return the unique Allen relation that holds between ``interval`` and ``query``."""
    for relation in AllenRelation:
        if satisfies_relation(interval, query, relation):
            return relation
    raise AssertionError("Allen's relations are exhaustive; unreachable")  # pragma: no cover


def filter_by_relation(
    intervals: Iterable[Interval], query: Query, relation: AllenRelation
) -> List[Interval]:
    """Filter ``intervals`` keeping only those in ``relation`` with ``query``."""
    return [s for s in intervals if satisfies_relation(s, query, relation)]
