"""Standing-query subscriptions and the range watch that routes updates.

A subscription *is* an interval -- its query range -- so "which standing
queries does this insert/delete affect" is the overlap question a
:class:`~repro.core.updates.RangeWatch` answers: the registry watches every
subscription's range, and one update costs one vectorised overlap mask over
the watch's int64 columns, then an exact per-candidate refinement (Allen
relation, duration filters, predicate).  Every relation a range probe can
serve implies overlap (:data:`repro.core.allen.RANGE_QUERY_RELATIONS`); the
other two (``BEFORE``, ``AFTER``) match intervals that never overlap the
query range, so their subscriptions watch the everywhere range and every
update refines them.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set

from repro.core.allen import RANGE_QUERY_RELATIONS, AllenRelation, satisfies_relation
from repro.core.errors import ReproError
from repro.core.interval import Interval, Query
from repro.core.updates import RangeWatch
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
        subscription_id: registry-assigned id (also the key of its range
            in the registry's watch).
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
        """True when every match overlaps the query range."""
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
    """The subscription set plus the range watch that routes updates to it."""

    def __init__(self) -> None:
        self._subscriptions: Dict[int, Subscription] = {}
        self._watch = RangeWatch()
        #: ids of the plain subscriptions: the overlap mask alone decides them
        self._plain: Set[int] = set()
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
            subscription = self._add(
                Subscription(
                    self._next_id, query, relation, min_duration, max_duration,
                    predicate, filter_spec,
                )
            )
            _SUBSCRIPTIONS.inc()
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
            return self._add(
                Subscription(
                    int(subscription_id), query, relation, min_duration,
                    max_duration, predicate, filter_spec,
                )
            )

    def _add(self, subscription: Subscription) -> Subscription:
        """Watch the range, then record the subscription (lock held)."""
        query = subscription.query
        watched = (query.start, query.end)
        if not subscription.range_prunable:
            watched = RangeWatch.EVERYWHERE
        self._watch.add(subscription.subscription_id, *watched)
        lo, hi = RangeWatch.EVERYWHERE
        if (
            subscription.relation is None
            and subscription.min_duration == 0
            and subscription.max_duration is None
            and subscription.predicate is None
            and lo <= query.start
            and query.end <= hi  # a clamped range can touch what it misses
        ):
            self._plain.add(subscription.subscription_id)
        self._subscriptions[subscription.subscription_id] = subscription
        self._next_id = max(self._next_id, subscription.subscription_id + 1)
        return subscription

    def unregister(self, subscription_id: int) -> bool:
        """Remove a subscription; True when it existed."""
        with self._lock:
            if self._subscriptions.pop(subscription_id, None) is None:
                return False
            self._watch.remove(subscription_id)
            self._plain.discard(subscription_id)
            return True

    # ------------------------------------------------------------------ #
    def affected(self, interval: Interval) -> List[Subscription]:
        """Subscriptions whose result set changes when ``interval`` is
        inserted or deleted: the watch's overlap mask, then the exact
        :meth:`Subscription.matches` of each candidate the mask has not
        already decided (a plain subscription matches what it overlaps)."""
        with self._lock:
            subscriptions, plain = self._subscriptions, self._plain
            candidates = [
                (subscriptions[subscription_id], subscription_id in plain)
                for subscription_id in self._watch.touched(
                    interval.start, interval.end
                )
            ]
        return [s for s, decided in candidates if decided or s.matches(interval)]

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"SubscriptionRegistry(n={len(self._subscriptions)})"
