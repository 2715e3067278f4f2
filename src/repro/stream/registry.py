"""Standing-query subscriptions and the interval-indexed matcher.

A subscription *is* an interval -- its query range -- so "which standing
queries does this insert/delete affect" is itself an interval query.  The
registry stores the range of every routable subscription in its own
:class:`~repro.engine.store.IntervalStore` (an update-friendly backend, so
subscribe/unsubscribe are inserts/deletes into it) and routes one update
with one overlap probe: O(affected subscriptions), never a scan over all of
them.  Candidates from the probe are then refined per subscription (Allen
relation, duration filters, predicate), which is exact because every
relation a range probe can serve implies overlap
(:data:`repro.core.allen.RANGE_QUERY_RELATIONS`).

Two kinds of subscription cannot be range-pruned and live outside the index:

* relations whose matches never overlap the query range (``BEFORE``,
  ``AFTER``, ``MEETS``, ``MET_BY`` -- everything outside
  ``RANGE_QUERY_RELATIONS``) are kept on a side list checked on every
  update (O(unbounded subscriptions));
* below ``index_threshold`` total subscriptions the registry stays linear --
  building an index over a handful of ranges costs more than it saves.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core.allen import RANGE_QUERY_RELATIONS, AllenRelation, satisfies_relation
from repro.core.errors import ReproError
from repro.core.interval import Interval, IntervalCollection, Query
from repro.obs import global_registry
from repro.stream.filters import compile_filter, normalize_filter

#: process-global: standing queries ever registered (active counts are
#: gauges on the owning manager, surfaced via the servers' /metrics)
_SUBSCRIPTIONS = global_registry().counter(
    "repro_subscriptions_total", "standing queries registered"
)

__all__ = ["Subscription", "SubscriptionRegistry", "parse_relation"]


def parse_relation(relation: "AllenRelation | str | None") -> Optional[AllenRelation]:
    """Normalise a relation spec (enum, wire name, or None)."""
    if relation is None or isinstance(relation, AllenRelation):
        return relation
    try:
        return AllenRelation(str(relation).strip().lower().replace("-", "_"))
    except ValueError:
        names = ", ".join(sorted(r.value for r in AllenRelation))
        raise ReproError(
            f"unknown Allen relation {relation!r}; expected one of: {names}"
        ) from None


@dataclass(frozen=True)
class Subscription:
    """One registered standing query.

    Attributes:
        subscription_id: registry-assigned id (also the id of the range
            interval in the matching index).
        query: the standing range/stabbing query.
        relation: optional Allen-relation refinement ("interval RELATION
            query", as in :meth:`repro.engine.store.QueryBuilder.relation`).
        min_duration / max_duration: optional bounds on the matched
            interval's length (``end - start``).
        predicate: optional extra filter over matched intervals.  Arbitrary
            callables are Python-API-only; filters registered through the
            JSON DSL compile to a predicate *and* keep their spec in
            ``filter_spec``.
        filter_spec: the normalised JSON filter this predicate was compiled
            from (:mod:`repro.stream.filters`), or ``None`` for a plain
            callable.  A subscription with a ``filter_spec`` survives the
            wire and checkpoints; one with only a callable does not.
    """

    subscription_id: int
    query: Query
    relation: Optional[AllenRelation] = None
    min_duration: int = 0
    max_duration: Optional[int] = None
    predicate: Optional[Callable[[Interval], bool]] = field(
        default=None, compare=False
    )
    filter_spec: Optional[dict] = field(default=None, compare=False)

    @property
    def range_prunable(self) -> bool:
        """True when every match overlaps the query range (indexable)."""
        return self.relation is None or self.relation in RANGE_QUERY_RELATIONS

    def matches(self, interval: Interval) -> bool:
        """Exact membership test for one data interval."""
        length = interval.end - interval.start
        if length < self.min_duration:
            return False
        if self.max_duration is not None and length > self.max_duration:
            return False
        if self.relation is not None:
            if not satisfies_relation(interval, self.query, self.relation):
                return False
        elif not (
            interval.start <= self.query.end and self.query.start <= interval.end
        ):
            return False
        return self.predicate is None or bool(self.predicate(interval))


def _resolve_filter(
    predicate: Optional[Callable[[Interval], bool]],
    filter_spec: Optional[dict],
):
    """Normalise/compile a filter spec into the predicate slot."""
    if filter_spec is None:
        return predicate, None
    if predicate is not None:
        raise ReproError(
            "pass either a predicate callable or a filter spec, not both"
        )
    spec = normalize_filter(filter_spec)
    return compile_filter(spec), spec


class SubscriptionRegistry:
    """The subscription set plus its interval-indexed matcher.

    Args:
        index_backend: backend for the matching index; must support
            insert/delete (subscribe/unsubscribe mutate it in place).
        index_threshold: subscription count below which matching stays a
            linear scan instead of building the index.
    """

    def __init__(
        self, index_backend: str = "hintm_hybrid", index_threshold: int = 64
    ) -> None:
        self._index_backend = index_backend
        self._index_threshold = max(2, index_threshold)
        self._subscriptions: Dict[int, Subscription] = {}
        #: non-range-prunable relations, matched by scan (kept small)
        self._unbounded: Dict[int, Subscription] = {}
        self._store = None  # built lazily past the threshold
        self._next_id = 0
        self._lock = threading.RLock()

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._subscriptions)

    def __contains__(self, subscription_id: int) -> bool:
        return subscription_id in self._subscriptions

    def get(self, subscription_id: int) -> Optional[Subscription]:
        return self._subscriptions.get(subscription_id)

    def ids(self) -> List[int]:
        return sorted(self._subscriptions)

    @property
    def indexed(self) -> bool:
        """True once the matching index has been built."""
        return self._store is not None

    # ------------------------------------------------------------------ #
    def register(
        self,
        query: Query,
        *,
        relation: "AllenRelation | str | None" = None,
        min_duration: int = 0,
        max_duration: Optional[int] = None,
        predicate: Optional[Callable[[Interval], bool]] = None,
        filter_spec: Optional[dict] = None,
    ) -> Subscription:
        """Add one standing query; returns the assigned subscription.

        ``filter_spec`` (a JSON predicate, :mod:`repro.stream.filters`) and
        ``predicate`` (an arbitrary callable) are mutually exclusive: the
        spec compiles *into* the predicate slot.
        """
        relation = parse_relation(relation)
        predicate, filter_spec = _resolve_filter(predicate, filter_spec)
        with self._lock:
            subscription = Subscription(
                subscription_id=self._next_id,
                query=query,
                relation=relation,
                min_duration=min_duration,
                max_duration=max_duration,
                predicate=predicate,
                filter_spec=filter_spec,
            )
            self._next_id += 1
            self._subscriptions[subscription.subscription_id] = subscription
            _SUBSCRIPTIONS.inc()
            if not subscription.range_prunable:
                self._unbounded[subscription.subscription_id] = subscription
            elif self._store is not None:
                self._store.insert(
                    Interval(subscription.subscription_id, query.start, query.end)
                )
            elif (
                len(self._subscriptions) - len(self._unbounded)
                >= self._index_threshold
            ):
                self._build_index()
            return subscription

    def restore(
        self,
        subscription_id: int,
        query: Query,
        *,
        relation: "AllenRelation | str | None" = None,
        min_duration: int = 0,
        max_duration: Optional[int] = None,
        filter_spec: Optional[dict] = None,
    ) -> Subscription:
        """Re-register a checkpointed subscription under its original id.

        The recovery path replays the subscription registry from a
        checkpoint; keeping the pre-crash ids is what lets a reconnecting
        client keep polling the subscription it already holds.  Fresh
        registrations continue past the highest restored id.  A persisted
        ``filter_spec`` is recompiled into the predicate it came from.
        """
        relation = parse_relation(relation)
        predicate, filter_spec = _resolve_filter(None, filter_spec)
        with self._lock:
            if subscription_id in self._subscriptions:
                raise ReproError(
                    f"subscription {subscription_id} already registered; "
                    "restore() is for recovery into a fresh registry"
                )
            subscription = Subscription(
                subscription_id=int(subscription_id),
                query=query,
                relation=relation,
                min_duration=min_duration,
                max_duration=max_duration,
                predicate=predicate,
                filter_spec=filter_spec,
            )
            self._next_id = max(self._next_id, subscription.subscription_id + 1)
            self._subscriptions[subscription.subscription_id] = subscription
            if not subscription.range_prunable:
                self._unbounded[subscription.subscription_id] = subscription
            elif self._store is not None:
                self._store.insert(
                    Interval(subscription.subscription_id, query.start, query.end)
                )
            elif (
                len(self._subscriptions) - len(self._unbounded)
                >= self._index_threshold
            ):
                self._build_index()
            return subscription

    def unregister(self, subscription_id: int) -> bool:
        """Remove a subscription; True when it existed."""
        with self._lock:
            subscription = self._subscriptions.pop(subscription_id, None)
            if subscription is None:
                return False
            self._unbounded.pop(subscription_id, None)
            if self._store is not None and subscription.range_prunable:
                self._store.delete(subscription_id)
            return True

    def _build_index(self) -> None:
        from repro.engine.store import IntervalStore

        ranges = [
            Interval(s.subscription_id, s.query.start, s.query.end)
            for s in self._subscriptions.values()
            if s.range_prunable
        ]
        self._store = IntervalStore.open(
            IntervalCollection.from_intervals(ranges), self._index_backend
        )

    # ------------------------------------------------------------------ #
    def affected(self, interval: Interval) -> List[Subscription]:
        """Subscriptions whose result set changes when ``interval`` is
        inserted or deleted -- one overlap probe plus per-candidate
        refinement, O(affected)."""
        with self._lock:
            if self._store is not None:
                candidate_ids = self._store.query().overlapping(
                    interval.start, interval.end
                ).ids().tolist()
                candidates = [
                    s
                    for s in (self._subscriptions.get(i) for i in candidate_ids)
                    if s is not None
                ]
            else:
                candidates = [
                    s
                    for s in self._subscriptions.values()
                    if s.range_prunable
                ]
            candidates.extend(self._unbounded.values())
        return [s for s in candidates if s.matches(interval)]

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"SubscriptionRegistry(n={len(self._subscriptions)}, "
            f"indexed={self.indexed}, unbounded={len(self._unbounded)})"
        )
