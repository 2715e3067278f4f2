"""Standing queries: subscriptions, incremental deltas and long-poll push.

Run with::

    PYTHONPATH=src python examples/standing_queries.py

A monitoring dashboard wants to *keep watching* "which maintenance windows
overlap the next on-call shift?" rather than re-running the range query on
a timer.  Covers the standing-query subsystem end to end:

* subscribing to a range (plus a duration-filtered and an Allen-refined
  subscription) against a live store with
  :class:`~repro.StandingQueryManager` -- a snapshot now, exact deltas
  forever after,
* inserts/deletes emitting per-subscription ``(generation, added,
  removed)`` deltas, discovered by one interval-index probe
  (O(affected), not O(subscriptions)),
* folding deltas onto the snapshot and checking the result equals a fresh
  query -- including across a maintenance pass, which must emit *no*
  deltas,
* catch-up from the bounded delta log after a "disconnect", and the
  ``resync_required`` signal once the log has truncated past an ack,
* the same protocol over HTTP: ``/subscribe`` + long-polled
  ``/poll-deltas`` via :class:`~repro.StreamClient` (the ``repro
  subscribe`` CLI wraps the same client).
"""

import numpy as np

from repro import (
    IntervalStore,
    ServeClient,
    StandingQueryManager,
    StreamClient,
    start_server_thread,
)
from repro.core.interval import Interval, IntervalCollection


def main() -> None:
    # ------------------------------------------------------------------ #
    # 1. a live store: 10k maintenance windows over a 30-day horizon
    #    (minutes), on the update-capable sharded hybrid
    # ------------------------------------------------------------------ #
    rng = np.random.default_rng(42)
    starts = rng.integers(0, 43_200, 10_000)
    ends = starts + rng.integers(15, 480, 10_000)
    windows = IntervalCollection.from_pairs(
        [(int(s), int(e)) for s, e in zip(starts, ends)]
    )
    store = IntervalStore.open(windows, "hintm_hybrid", num_shards=2)

    # ------------------------------------------------------------------ #
    # 2. subscribe: a snapshot now, exact deltas from then on
    # ------------------------------------------------------------------ #
    manager = StandingQueryManager(store)
    shift = manager.subscribe(10_000, 10_480)  # tonight's on-call shift
    long_jobs = manager.subscribe(0, 43_200, min_duration=400)
    strictly_inside = manager.subscribe(10_000, 10_480, relation="during")
    watched = set(shift.ids)
    print(
        f"subscribed: {len(watched)} windows overlap the shift, "
        f"{len(long_jobs.ids)} long jobs, "
        f"{len(strictly_inside.ids)} strictly inside"
    )

    # ------------------------------------------------------------------ #
    # 3. updates emit deltas -- only to the subscriptions they affect
    # ------------------------------------------------------------------ #
    store.insert(Interval(90_000, 10_100, 10_160))  # short, inside the shift
    store.insert(Interval(90_001, 9_000, 9_900))    # misses the shift
    store.delete(int(next(iter(watched))))
    poll = manager.poll(shift.subscription.subscription_id, shift.generation)
    for record in poll.records:
        watched.difference_update(record.removed)
        watched.update(record.added)
    fresh = set(store.query().overlapping(10_000, 10_480).ids())
    assert watched == fresh
    print(
        f"folded {len(poll.records)} deltas -> {len(watched)} windows "
        f"(equals a fresh query: {watched == fresh})"
    )

    # ------------------------------------------------------------------ #
    # 4. maintenance reorganises shards but must emit no deltas
    # ------------------------------------------------------------------ #
    before = manager.gauges()["deltas_emitted"]
    store.maintain(force=True)
    assert manager.gauges()["deltas_emitted"] == before
    poll = manager.poll(shift.subscription.subscription_id, poll.generation)
    assert not poll.records
    print("maintenance pass: zero deltas, generation advanced")

    # ------------------------------------------------------------------ #
    # 5. disconnect, miss updates, catch up exactly from the last ack
    # ------------------------------------------------------------------ #
    acked = poll.generation
    for i in range(5):
        store.insert(Interval(91_000 + i, 10_200, 10_260))
    catch_up = manager.poll(shift.subscription.subscription_id, acked)
    assert not catch_up.resync_required
    for record in catch_up.records:
        watched.difference_update(record.removed)
        watched.update(record.added)
    assert watched == set(store.query().overlapping(10_000, 10_480).ids())
    print(f"caught up {len(catch_up.records)} missed deltas after a disconnect")
    manager.detach()

    # ------------------------------------------------------------------ #
    # 6. the same protocol over HTTP: /subscribe + long-polled deltas
    # ------------------------------------------------------------------ #
    handle = start_server_thread(store, cache=128)
    subscriber = StreamClient(port=handle.port)
    subscriber.subscribe(10_000, 10_480)
    with ServeClient(port=handle.port) as writer:
        writer.insert(95_000, 10_300, 10_360)
        subscriber.poll(timeout=5)
    assert 95_000 in subscriber.ids()
    stats = ServeClient(port=handle.port)
    print(
        f"served: {len(subscriber.ids())} windows live at the client, "
        f"{stats.stats()['stream']['subscriptions_active']:.0f} "
        f"subscription(s) active"
    )
    subscriber.unsubscribe()
    subscriber.close()
    stats.close()
    handle.stop()
    store.close()
    print("done")


if __name__ == "__main__":
    main()
