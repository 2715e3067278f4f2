"""The incremental delta engine behind standing queries.

A :class:`StandingQueryManager` attaches one update listener to a store
(``store.add_update_listener``: fired under ``store.updates.lock`` with the
authoritative post-commit generation, whatever the backend) and turns every
insert/delete into per-subscription deltas:

1. the mutated interval is routed through the
   :class:`~repro.stream.registry.SubscriptionRegistry`'s range watch --
   one overlap mask, then each candidate's exact refinement;
2. each affected subscription's :class:`~repro.stream.log.DeltaLog` gets a
   ``(generation, added_ids, removed_ids)`` record;
3. registered notifiers (the query server's long-poll wakeups) fire for the
   affected subscription ids.

Maintenance is the part that must *not* produce deltas: count-column folds,
snapshot refreshes and re-partitions republish epoch state and may bump the
result generation, but the queryable contents are unchanged -- the engine
records the generation advance (``sync`` events) and emits nothing, so
replaying a subscription's deltas across a fold/repartition neither
duplicates nor drops a change.

Exactness contract: folding a subscription's deltas up to generation ``g``
onto its subscribe-time snapshot equals re-running the standing query at
``g``.  Writers are serialised by ``store.updates.lock``, which a subscribe
or resync holds across (read generation, run query, register): the snapshot
is exactly consistent with its generation on every backend.
"""

from __future__ import annotations

import contextlib
import threading
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.errors import ReproError
from repro.core.interval import Interval, Query
from repro.stream.log import DeltaLog, DeltaRecord
from repro.stream.registry import Subscription, SubscriptionRegistry

__all__ = [
    "PollResult",
    "StandingQueryManager",
    "SubscribeResult",
    "UnknownSubscriptionError",
]


class UnknownSubscriptionError(ReproError):
    """Polled or unsubscribed an id the manager does not know."""

    def __init__(self, subscription_id: int):
        super().__init__(f"unknown subscription {subscription_id}")
        self.subscription_id = subscription_id


@dataclass(frozen=True)
class SubscribeResult:
    """A new (or resynced) subscription plus its consistent snapshot."""

    subscription: Subscription
    generation: int
    ids: Tuple[int, ...]


@dataclass(frozen=True)
class PollResult:
    """One catch-up read of a subscription's delta log.

    ``generation`` is the token to ack on the next poll: every delta at or
    below it has been delivered (records list) or was already acked.
    ``resync_required`` means exact catch-up is impossible (the log was
    truncated or coalesced past the ack) -- re-subscribe / resync instead
    of folding.
    """

    records: List[DeltaRecord]
    generation: int
    resync_required: bool


class StandingQueryManager:
    """Subscriptions, delta emission and catch-up over one store.

    Args:
        store: the :class:`~repro.engine.store.IntervalStore` (or sharded
            store) to watch.  Updates must flow through the store (or the
            query server) -- the same contract the result cache has.
        registry: optionally a pre-configured
            :class:`~repro.stream.registry.SubscriptionRegistry`.
        log_capacity / max_coalesced_ids: per-subscription
            :class:`~repro.stream.log.DeltaLog` bounds.
        max_poller_lag: optional backpressure bound on per-subscription lag
            (retained records).  When a laggard's log grows past it, the
            log is dropped outright and the subscription is forced into
            ``resync_required`` on its next poll -- bounding the memory a
            slow or absent consumer can pin, instead of coalescing forever.
            ``None`` (the default) keeps the observe-only behaviour.
    """

    def __init__(
        self,
        store,
        *,
        registry: Optional[SubscriptionRegistry] = None,
        log_capacity: int = 256,
        max_coalesced_ids: int = 4096,
        max_poller_lag: Optional[int] = None,
    ) -> None:
        if max_poller_lag is not None and max_poller_lag < 1:
            raise ReproError(
                f"max_poller_lag must be >= 1 (or None), got {max_poller_lag}"
            )
        self._store = store
        self._registry = registry if registry is not None else SubscriptionRegistry()
        self._log_capacity = log_capacity
        self._max_coalesced_ids = max_coalesced_ids
        self._max_poller_lag = max_poller_lag
        self._backpressure_drops = 0
        self._logs: Dict[int, DeltaLog] = {}
        self._lock = threading.RLock()
        self._notifiers: List[Callable[[int], None]] = []
        self._seen_generation = -1
        self._deltas_emitted = 0
        self._catchup_resyncs = 0
        self._coalesced_retired = 0  # coalesce ops of removed logs
        self.attach()
        # durable stores checkpoint the subscription registry: tell the
        # durability manager whose subscriptions to serialise
        durability = getattr(store, "durability", None)
        if durability is not None:
            durability.attach_stream(self)

    # ------------------------------------------------------------------ #
    # recovery
    # ------------------------------------------------------------------ #
    @classmethod
    def restore(
        cls,
        store,
        subscriptions,
        *,
        generation: int,
        log_capacity: int = 256,
        max_coalesced_ids: int = 4096,
        max_poller_lag: Optional[int] = None,
    ) -> "StandingQueryManager":
        """Rebuild a manager from a checkpoint's subscription rows.

        Each restored subscription keeps its pre-crash id and gets a fresh
        delta log whose truncation floor is the checkpoint ``generation``:
        a client acked at or past it catches up exactly from the replayed
        WAL tail (the restore runs *before* replay, so replay's listener
        events land in these logs with their original generations); one
        acked below it gets an explicit ``resync_required``.
        """
        manager = cls(
            store,
            log_capacity=log_capacity,
            max_coalesced_ids=max_coalesced_ids,
            max_poller_lag=max_poller_lag,
        )
        with manager._lock:
            for row in subscriptions:
                query = Query(int(row["start"]), int(row["end"]))
                subscription = manager._registry.restore(
                    int(row["subscription_id"]),
                    query,
                    relation=row.get("relation"),
                    min_duration=int(row.get("min_duration", 0) or 0),
                    max_duration=row.get("max_duration"),
                    filter_spec=row.get("filter"),
                )
                log = DeltaLog(
                    capacity=log_capacity, max_coalesced_ids=max_coalesced_ids
                )
                log.mark_truncated(int(generation))
                manager._logs[subscription.subscription_id] = log
            manager._seen_generation = max(manager._seen_generation, int(generation))
        return manager

    def note_generation(self, generation: int) -> None:
        """Advance the seen generation (recovery calls this after replay)."""
        with self._lock:
            self._seen_generation = max(self._seen_generation, int(generation))

    # ------------------------------------------------------------------ #
    # wiring
    # ------------------------------------------------------------------ #
    def attach(self) -> None:
        """(Re-)register the update listener; idempotent."""
        self.detach()
        self._store.add_update_listener(self._on_update)

    def detach(self) -> None:
        """Unregister the listener (subscriptions and logs are kept)."""
        self._store.remove_update_listener(self._on_update)

    close = detach

    @property
    def store(self):
        return self._store

    @property
    def registry(self) -> SubscriptionRegistry:
        return self._registry

    def add_notifier(self, notifier: Callable[[int], None]) -> None:
        """``notifier(subscription_id)`` fires after new deltas land.

        Called outside the manager lock but possibly under the store's
        update serialisation -- keep it non-blocking (the query server
        schedules an event-loop wakeup)."""
        self._notifiers.append(notifier)

    def remove_notifier(self, notifier: Callable[[int], None]) -> None:
        with contextlib.suppress(ValueError):
            self._notifiers.remove(notifier)

    # ------------------------------------------------------------------ #
    # the delta engine: one listener event -> per-subscription records
    # ------------------------------------------------------------------ #
    def _on_update(self, op: str, interval: Optional[Interval], generation: int) -> None:
        # a sync (maintenance republished epoch state: the generation moved,
        # the queryable contents did not) and a delete whose span could not
        # be resolved affect nobody: record the advance, emit no deltas --
        # folding across it must not duplicate or drop changes
        affected = self._registry.affected(interval) if interval is not None else ()
        notify: List[int] = []
        with self._lock:
            self._seen_generation = max(self._seen_generation, generation)
            for subscription in affected:
                log = self._logs.get(subscription.subscription_id)
                if log is None:
                    continue
                if op == "insert":
                    log.append(generation, (interval.id,), ())
                else:
                    log.append(generation, (), (interval.id,))
                self._deltas_emitted += 1
                if (
                    self._max_poller_lag is not None
                    and len(log) > self._max_poller_lag
                ):
                    # the consumer lagged past the bound: act on the gauge
                    # instead of growing the log -- drop it and force the
                    # poller through an explicit resync
                    log.drop(generation)
                    self._backpressure_drops += 1
                notify.append(subscription.subscription_id)
        for subscription_id in notify:
            for notifier in list(self._notifiers):
                notifier(subscription_id)

    # ------------------------------------------------------------------ #
    # subscriptions
    # ------------------------------------------------------------------ #
    def subscribe(
        self,
        start: Optional[int] = None,
        end: Optional[int] = None,
        *,
        stab: Optional[int] = None,
        relation=None,
        min_duration: int = 0,
        max_duration: Optional[int] = None,
        predicate=None,
        filter_spec=None,
    ) -> SubscribeResult:
        """Register a standing query; returns it with a consistent snapshot."""
        if stab is not None:
            query = Query.stabbing(int(stab))
        elif start is not None and end is not None:
            query = Query(int(start), int(end))
        else:
            raise ReproError("subscribe needs start and end (or stab)")
        with self._store.updates.lock:
            with self._lock:
                subscription = self._registry.register(
                    query,
                    relation=relation,
                    min_duration=min_duration,
                    max_duration=max_duration,
                    predicate=predicate,
                    filter_spec=filter_spec,
                )
                self._logs[subscription.subscription_id] = DeltaLog(
                    capacity=self._log_capacity,
                    max_coalesced_ids=self._max_coalesced_ids,
                )
                generation, ids = self._snapshot(subscription)
                self._seen_generation = max(self._seen_generation, generation)
        return SubscribeResult(subscription=subscription, generation=generation, ids=ids)

    def resync(self, subscription_id: int) -> SubscribeResult:
        """Fresh snapshot for an existing subscription; resets its log.

        The answer to a ``resync_required`` poll: the client replaces its
        local result set with the returned snapshot and resumes folding
        deltas from the returned generation.
        """
        with self._store.updates.lock:
            with self._lock:
                subscription = self._registry.get(subscription_id)
                if subscription is None:
                    raise UnknownSubscriptionError(subscription_id)
                old = self._logs.get(subscription_id)
                if old is not None:
                    self._coalesced_retired += old.coalesce_ops
                self._logs[subscription_id] = DeltaLog(
                    capacity=self._log_capacity,
                    max_coalesced_ids=self._max_coalesced_ids,
                )
                generation, ids = self._snapshot(subscription)
                self._seen_generation = max(self._seen_generation, generation)
        return SubscribeResult(subscription=subscription, generation=generation, ids=ids)

    def _snapshot(self, subscription: Subscription) -> Tuple[int, Tuple[int, ...]]:
        generation = int(self._store.result_generation())
        query = subscription.query
        builder = self._store.query().overlapping(query.start, query.end)
        if subscription.relation is not None:
            builder = builder.relation(subscription.relation)
        ids = builder.ids().tolist()
        if (
            subscription.min_duration
            or subscription.max_duration is not None
            or subscription.predicate is not None
        ):
            # the filters read spans: gathered for the candidates only
            starts, ends, live = self._store.index._span_table().gather(ids)
            spans = zip(ids, starts.tolist(), ends.tolist(), live.tolist())
            ids = [i for i, s, e, ok in spans if ok and subscription.matches(Interval(i, s, e))]
        return generation, tuple(sorted(ids))

    def unsubscribe(self, subscription_id: int) -> bool:
        with self._lock:
            log = self._logs.pop(subscription_id, None)
            if log is not None:
                self._coalesced_retired += log.coalesce_ops
            return self._registry.unregister(subscription_id)

    # ------------------------------------------------------------------ #
    # catch-up
    # ------------------------------------------------------------------ #
    def poll(self, subscription_id: int, after_generation: int = -1) -> PollResult:
        """Deltas newer than the client's last-acked generation.

        Acked records are pruned (the ack doubles as a consumption
        confirmation); the returned generation is what the client acks
        next.  ``resync_required`` means the log can no longer replay the
        gap exactly -- call :meth:`resync`.
        """
        with self._lock:
            log = self._logs.get(subscription_id)
            if log is None:
                raise UnknownSubscriptionError(subscription_id)
            log.ack(after_generation)
            records, resync = log.since(after_generation)
            if resync:
                self._catchup_resyncs += 1
                return PollResult(
                    records=[], generation=after_generation, resync_required=True
                )
            generation = max(
                after_generation,
                self._seen_generation,
                records[-1].generation if records else -1,
            )
            return PollResult(
                records=records, generation=generation, resync_required=False
            )

    def pending(self, subscription_id: int) -> int:
        """Records currently retained for one subscription."""
        with self._lock:
            log = self._logs.get(subscription_id)
            return len(log) if log is not None else 0

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #
    def gauges(self) -> Dict[str, float]:
        with self._lock:
            return self._gauges_locked()

    def _gauges_locked(self) -> Dict[str, float]:
        coalesced = self._coalesced_retired
        # per-poller backpressure: records still retained per subscription
        # = how far its consumer lags behind the head (acked records are
        # pruned on every poll, so an up-to-date poller holds zero)
        slowest = 0
        total_lag = 0
        for log in self._logs.values():
            coalesced += log.coalesce_ops
            lag = len(log)
            total_lag += lag
            if lag > slowest:
                slowest = lag
        return {
            "subscriptions_active": float(len(self._registry)),
            "deltas_emitted": float(self._deltas_emitted),
            "deltas_coalesced": float(coalesced),
            "catchup_resyncs": float(self._catchup_resyncs),
            "poller_lag": float(total_lag),
            "slowest_poller_lag": float(slowest),
            "backpressure_drops": float(self._backpressure_drops),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"StandingQueryManager(subscriptions={len(self._registry)}, "
            f"deltas_emitted={self._deltas_emitted}, "
            f"seen_generation={self._seen_generation})"
        )
