"""Standing queries: subscriptions, incremental deltas, catch-up.

The streaming subsystem turns the one-shot query engine into a push system
(see the README's "Standing queries" section):

* a **subscription registry + range watch** -- routing an insert/delete
  to the subscriptions it affects is one overlap mask over their ranges
  (:class:`~repro.core.updates.RangeWatch`) plus an exact refinement of
  the candidates (:mod:`repro.stream.registry`);
* an **incremental delta engine** -- update listeners on the engine emit
  exact ``(generation, added_ids, removed_ids)`` records per subscription;
  maintenance (folds, refreshes, re-partitions) advances the generation
  without emitting, so replay is exact across it
  (:mod:`repro.stream.deltas`);
* a **bounded per-subscription delta log** -- sequence-numbered records
  with net-effect coalescing under backpressure and an explicit
  "resync required" signal once exact catch-up is impossible
  (:mod:`repro.stream.log`);
* **push transport** -- ``/subscribe``, ``/unsubscribe`` and long-polled
  ``/poll-deltas`` on the query server, and a
  :class:`~repro.serve.client.StreamClient` that folds deltas into a live
  local result set.
"""

from repro.stream.deltas import (
    PollResult,
    StandingQueryManager,
    SubscribeResult,
    UnknownSubscriptionError,
)
from repro.stream.filters import (
    FilterSpecError,
    compile_filter,
    describe_filter,
    normalize_filter,
)
from repro.stream.log import DeltaLog, DeltaRecord
from repro.stream.registry import Subscription, SubscriptionRegistry, parse_relation

__all__ = [
    "DeltaLog",
    "DeltaRecord",
    "FilterSpecError",
    "PollResult",
    "StandingQueryManager",
    "SubscribeResult",
    "Subscription",
    "SubscriptionRegistry",
    "UnknownSubscriptionError",
    "compile_filter",
    "describe_filter",
    "normalize_filter",
    "parse_relation",
]
