"""Delta-replay exactness: folding a subscription's deltas onto its snapshot
must equal re-running the standing query, at every generation, across
backends, shard counts, executors and maintenance interleavings."""

import random

import pytest

from repro.core.interval import Interval, IntervalCollection, Query
from repro.engine import IntervalStore
from repro.stream import StandingQueryManager, UnknownSubscriptionError

DOMAIN = 10_000


def _collection(n=200, seed=11):
    rng = random.Random(seed)
    return IntervalCollection.from_intervals(
        [
            Interval(i, s, s + rng.randrange(1, 400))
            for i, s in enumerate(rng.randrange(0, DOMAIN) for _ in range(n))
        ]
    )


def _live_oracle(collection):
    return {
        int(i): (int(s), int(e))
        for i, s, e in zip(collection.ids, collection.starts, collection.ends)
    }


def _matching(live, subscription):
    return {
        i
        for i, (s, e) in live.items()
        if subscription.matches(Interval(i, s, e))
    }


CONFIGS = [
    pytest.param("hintm_hybrid", {}, id="plain-hybrid"),
    pytest.param("interval_tree", {}, id="plain-interval-tree"),
    pytest.param("naive", {}, id="plain-naive"),
    pytest.param("hintm_hybrid", {"num_shards": 4}, id="sharded-K4-serial"),
    pytest.param(
        "hintm_hybrid",
        {"num_shards": 4, "executor": "processes", "workers": 2},
        id="sharded-K4-processes",
    ),
]


@pytest.mark.parametrize("backend,opts", CONFIGS)
def test_delta_replay_equals_requery(backend, opts):
    """The tentpole invariant, on a random interleaved workload.

    Each subscription keeps a locally folded result set; after every
    mutation (and through forced maintenance passes) the folded set must
    equal both a fresh probe of the store and the live-dict oracle.
    """
    rng = random.Random(1234)
    collection = _collection()
    store = IntervalStore.open(collection, backend, **opts)
    try:
        manager = StandingQueryManager(store, log_capacity=16)
        live = _live_oracle(collection)

        folded = {}  # subscription_id -> (subscription, acked generation, ids)
        for _ in range(15):
            start = rng.randrange(0, DOMAIN)
            result = manager.subscribe(start, start + rng.randrange(50, 1_500))
            sub = result.subscription
            assert set(result.ids) == _matching(live, sub)
            folded[sub.subscription_id] = (sub, result.generation, set(result.ids))

        next_id = 10_000
        for step in range(150):
            op = rng.random()
            if op < 0.5:
                s = rng.randrange(0, DOMAIN)
                interval = Interval(next_id, s, s + rng.randrange(1, 400))
                next_id += 1
                store.insert(interval)
                live[interval.id] = (interval.start, interval.end)
            elif op < 0.8 and live:
                victim = rng.choice(sorted(live))
                store.delete(victim)
                del live[victim]
            else:
                store.maintain(force=True)  # must emit no deltas

            if step % 10 == 9:  # fold + verify every subscription
                for sid, (sub, acked, ids) in folded.items():
                    poll = manager.poll(sid, after_generation=acked)
                    if poll.resync_required:
                        fresh = manager.resync(sid)
                        folded[sid] = (sub, fresh.generation, set(fresh.ids))
                    else:
                        for record in poll.records:
                            ids.difference_update(record.removed)
                            ids.update(record.added)
                        folded[sid] = (sub, poll.generation, ids)
                    assert folded[sid][2] == _matching(live, sub), (
                        f"subscription {sid} diverged at step {step}"
                    )
        # final cross-check against a fresh store probe
        for sid, (sub, acked, ids) in folded.items():
            q = sub.query
            assert ids == set(store.query().overlapping(q.start, q.end).ids())
        gauges = manager.gauges()
        assert gauges["subscriptions_active"] == len(folded)
        assert gauges["deltas_emitted"] > 0
    finally:
        store.close()


def test_reconnect_catch_up_is_exact():
    """A consumer that goes away mid-stream resumes from its ack exactly."""
    store = IntervalStore.open(_collection(), "hintm_hybrid", num_shards=2)
    try:
        manager = StandingQueryManager(store)
        result = manager.subscribe(0, DOMAIN)  # matches everything
        sid = result.subscription.subscription_id
        ids = set(result.ids)
        acked = result.generation

        # consume the first burst
        for i in range(5):
            store.insert(Interval(20_000 + i, 100 * i, 100 * i + 50))
        poll = manager.poll(sid, after_generation=acked)
        assert not poll.resync_required
        for record in poll.records:
            ids.difference_update(record.removed)
            ids.update(record.added)
        acked = poll.generation

        # "disconnect": more updates land un-polled, including maintenance
        for i in range(5, 12):
            store.insert(Interval(20_000 + i, 100 * i, 100 * i + 50))
        store.delete(20_001)
        store.maintain(force=True)

        # reconnect from the last ack: exact catch-up, no resync
        poll = manager.poll(sid, after_generation=acked)
        assert not poll.resync_required
        for record in poll.records:
            ids.difference_update(record.removed)
            ids.update(record.added)
        assert ids == set(store.query().overlapping(0, DOMAIN).ids())

        # polling the same ack twice is idempotent for the result set
        again = manager.poll(sid, after_generation=poll.generation)
        assert not again.records and not again.resync_required
    finally:
        store.close()


def test_log_truncation_forces_resync_then_continues():
    """Past the log bounds a stale consumer is told to resync -- never
    silently handed an inexact delta stream -- and works again after."""
    store = IntervalStore.open(_collection(), "hintm_hybrid")
    try:
        manager = StandingQueryManager(store, log_capacity=4, max_coalesced_ids=8)
        result = manager.subscribe(0, DOMAIN)
        sid = result.subscription.subscription_id
        stale_ack = result.generation

        # far more distinct updates than the log can coalesce or hold
        for i in range(100):
            store.insert(Interval(30_000 + i, 10 * i, 10 * i + 5))

        poll = manager.poll(sid, after_generation=stale_ack)
        assert poll.resync_required
        assert manager.gauges()["catchup_resyncs"] >= 1

        fresh = manager.resync(sid)
        assert set(fresh.ids) == set(store.query().overlapping(0, DOMAIN).ids())

        # the resynced log serves incremental deltas again
        store.insert(Interval(40_000, 50, 60))
        poll = manager.poll(sid, after_generation=fresh.generation)
        assert not poll.resync_required
        assert any(40_000 in record.added for record in poll.records)
    finally:
        store.close()


def test_unknown_subscription_raises():
    store = IntervalStore.open(_collection(), "hintm_hybrid")
    try:
        manager = StandingQueryManager(store)
        with pytest.raises(UnknownSubscriptionError):
            manager.poll(999)
        with pytest.raises(UnknownSubscriptionError):
            manager.resync(999)
        assert manager.unsubscribe(999) is False
    finally:
        store.close()


def test_filtered_subscriptions_route_exactly():
    """Duration/relation-filtered subscriptions only see matching deltas."""
    store = IntervalStore.open(_collection(), "hintm_hybrid")
    try:
        manager = StandingQueryManager(store)
        long_only = manager.subscribe(0, DOMAIN, min_duration=100)
        during = manager.subscribe(1_000, 2_000, relation="during")
        s_long = long_only.subscription
        s_during = during.subscription

        store.insert(Interval(50_000, 1_100, 1_150))  # short, during the range
        store.insert(Interval(50_001, 1_100, 1_900))  # long, during the range
        store.insert(Interval(50_002, 500, 3_000))    # long, contains the range

        poll = manager.poll(
            s_long.subscription_id, after_generation=long_only.generation
        )
        added = {i for r in poll.records for i in r.added}
        assert added == {50_001, 50_002}  # both long; the short one filtered

        poll = manager.poll(
            s_during.subscription_id, after_generation=during.generation
        )
        added = {i for r in poll.records for i in r.added}
        assert added == {50_000, 50_001}  # strictly inside; the container not
    finally:
        store.close()


def test_maintenance_emits_no_deltas():
    store = IntervalStore.open(_collection(), "hintm_hybrid", num_shards=2)
    try:
        manager = StandingQueryManager(store)
        result = manager.subscribe(0, DOMAIN)
        sid = result.subscription.subscription_id
        before = manager.gauges()["deltas_emitted"]
        for _ in range(3):
            store.maintain(force=True)
        poll = manager.poll(sid, after_generation=result.generation)
        assert not poll.records and not poll.resync_required
        assert manager.gauges()["deltas_emitted"] == before
        # but the acked generation still advances past the epoch bumps, so
        # the client's next ack token is current
        assert poll.generation >= result.generation
    finally:
        store.close()
