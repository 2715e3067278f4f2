"""The update contract (``repro.core.updates.UpdateFeed``), tested once.

Three things hang off the one feed a store exposes as ``store.updates``:

* the *rules* -- what moves the generation, which events listeners hear --
  are the same whichever index sits underneath (one hypothesis op stream,
  four store configurations);
* the *write lock* makes WAL order, listener order and predicted
  generations agree under concurrent direct writers;
* *replay* has one rule table: the follower's per-record ``apply_record``
  and local recovery's fold-then-walk (``fold_tail`` +
  ``DurabilityManager.replay``) agree on outcomes, counters and generations.
"""

import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.follower import ClusterFollower
from repro.core.interval import Interval, IntervalCollection
from repro.durability.manager import DurabilityManager, apply_record, fold_tail
from repro.durability.wal import WalRecord, replay_wal
from repro.engine import IntervalStore
from repro.stream.deltas import StandingQueryManager

#: (backend, num_shards): a plain backend (the store owns the feed), the two
#: indexes that own theirs, and a plain backend behind the sharded one
CONFIGS = [("hintm", 1), ("hintm_hybrid", 1), ("hintm_hybrid", 2), ("hintm", 2)]
CONFIG_IDS = [f"{backend}-K{shards}" for backend, shards in CONFIGS]

BASE = IntervalCollection.from_pairs(
    [(start, start + 30 + (start % 7) * 40) for start in range(0, 6_000, 25)]
)
FIRST_NEW_ID = 100_000

OPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(0, 6_000), st.integers(0, 900)),
        st.tuples(st.just("delete_live"), st.integers(0, 10_000)),
        st.tuples(st.just("delete_unknown")),
        st.tuples(st.just("maintain")),
        st.tuples(st.just("rebuild")),
        st.tuples(st.just("repartition")),
        st.tuples(st.just("floor"), st.integers(-3, 3)),
        st.tuples(st.just("drop_listener")),
    ),
    min_size=1,
    max_size=30,
)


@pytest.mark.parametrize(("backend", "num_shards"), CONFIGS, ids=CONFIG_IDS)
@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(ops=OPS)
def test_one_contract_for_every_store(backend, num_shards, ops):
    store = IntervalStore.open(BASE, backend, num_shards=num_shards, num_bits=6)
    feed, index = store.updates, store.index
    heard = []  # (op, interval id or None, generation, feed generation at delivery)
    dropped = []

    def listener(op, interval, generation):
        heard.append(
            (op, interval.id if interval is not None else None, generation, feed.generation)
        )

    def short_lived(op, interval, generation):
        dropped.append(op)

    store.add_update_listener(listener)
    store.add_update_listener(short_lived)
    live = {int(i) for i in BASE.ids}
    next_id = FIRST_NEW_ID
    dropped_at = None
    try:
        for op in ops:
            before, epoch_before = feed.generation, getattr(index, "epoch", 0)
            del heard[:]
            kind = op[0]
            if kind == "insert":
                store.insert(Interval(next_id, op[1], op[1] + op[2]))
                live.add(next_id)
                assert [event[:3] for event in heard] == [("insert", next_id, before + 1)]
                next_id += 1
            elif kind == "delete_live":
                victim = sorted(live)[op[1] % len(live)]
                assert store.delete(victim)
                live.discard(victim)
                assert [event[:3] for event in heard] == [("delete", victim, before + 1)]
            elif kind == "delete_unknown":
                assert not store.delete(next_id + 7)
                assert heard == [] and feed.generation == before
            elif kind == "floor":
                feed.floor(before + op[1])
                assert heard == [] and feed.generation == max(before, before + op[1])
            elif kind == "drop_listener":
                store.remove_update_listener(short_lived)
                dropped_at = len(dropped) if dropped_at is None else dropped_at
            else:
                if kind == "maintain":
                    store.maintain(force=True)
                elif kind == "rebuild" and hasattr(index, "rebuild"):
                    index.rebuild()
                elif kind == "repartition" and hasattr(index, "repartition"):
                    index.repartition(strategy="balanced")
                # a reorganisation is only ever a "sync": +1 per epoch
                # publication, +0 for a hybrid rebuild or an idle pass
                assert {event[0] for event in heard} <= {"sync"}
                published = getattr(index, "epoch", 0) - epoch_before
                assert feed.generation == before + published
            assert feed.generation >= before
            assert store.result_generation() == feed.generation
            # every event carries the generation the feed held at delivery
            assert all(event[2] == event[3] for event in heard)
            if dropped_at is not None:
                assert len(dropped) == dropped_at
        lo, hi = BASE.span()
        assert set(store.query().overlapping(lo - 1, hi + 10_000).ids()) == live
    finally:
        store.close()


# ---------------------------------------------------------------------- #
# the write lock: WAL order == listener order, predicted generations exact
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("num_shards", [1, 2])
def test_concurrent_writers_log_and_commit_in_one_order(tmp_path, monkeypatch, num_shards):
    wal_dir = str(tmp_path / "wal")
    store = IntervalStore.open(
        BASE, "hintm_hybrid", num_shards=num_shards, wal_dir=wal_dir, fsync="off"
    )
    stream = StandingQueryManager(store)
    subscription = stream.subscribe(0, 10_000).subscription.subscription_id
    store.maintain(checkpoint=True)  # persists the subscription
    base = store.result_generation()

    events = []
    store.add_update_listener(
        lambda op, interval, generation: events.append((op, interval.id, generation))
        if op != "sync"
        else None
    )
    parked, release, b_appended = threading.Event(), threading.Event(), threading.Event()
    real_insert = store.index.insert

    def parking_insert(interval):
        # writer A stops here: after its WAL append, before the index mutates
        if interval.id == 9001:
            parked.set()
            assert release.wait(10)
        real_insert(interval)

    real_log = store.durability.log_insert

    def observed_log(interval):
        real_log(interval)
        if interval.id == 9002:
            b_appended.set()

    monkeypatch.setattr(store.index, "insert", parking_insert)
    monkeypatch.setattr(store.durability, "log_insert", observed_log)
    writer_a = threading.Thread(target=store.insert, args=(Interval(9001, 100, 200),))
    writer_b = threading.Thread(target=store.insert, args=(Interval(9002, 150, 250),))
    writer_a.start()
    assert parked.wait(10)
    writer_b.start()
    try:
        assert not b_appended.wait(0.5), "writer B appended before writer A committed"
    finally:
        release.set()
        writer_a.join(10)
        writer_b.join(10)
    assert not writer_a.is_alive() and not writer_b.is_alive()

    expected = [("insert", 9001, base + 1), ("insert", 9002, base + 2)]
    assert events == expected

    def folded(manager):
        return [
            (record.generation, tuple(record.added))
            for record in manager.poll(subscription, after_generation=base).records
        ]

    assert folded(stream) == [(base + 1, (9001,)), (base + 2, (9002,))]
    store.close()

    records, _ = replay_wal(wal_dir, truncate=False)
    logged = [
        (r.op, r.interval_id, r.generation) for r in records if r.interval_id in (9001, 9002)
    ]
    assert logged == expected

    reopened = IntervalStore.open(
        IntervalCollection.empty(), "hintm_hybrid", num_shards=num_shards,
        wal_dir=wal_dir, fsync="off",
    )
    try:
        # replay hands a client acked at `base` the very suffix it saw live
        assert folded(reopened.restored_stream) == [(base + 1, (9001,)), (base + 2, (9002,))]
        assert reopened.result_generation() >= base + 2
    finally:
        reopened.close()


# ---------------------------------------------------------------------- #
# replay: one step, two callers
# ---------------------------------------------------------------------- #
def _hybrid_store():
    return IntervalStore.open(BASE, "hintm_hybrid", num_bits=6)


def _static_store():
    return IntervalStore.open(BASE, "hintm_opt", num_bits=6)


#: (name, store factory, records as (op, id, start, end, generation *relative
#: to the store's generation at the start*), outcomes, final relative
#: generation, ids that must end up live)
REPLAY_TABLE = [
    (
        "insert-then-delete",
        _hybrid_store,
        [("insert", 9001, 5, 9, 1), ("delete", 9001, 5, 9, 2)],
        [True, True],
        2,
        [],
    ),
    (
        # the ineffective delete predicted +1 and consumed nothing, so the
        # next record predicts +1 again: flooring to generation - 1 keeps
        # the replica at +1 after it, never +2
        "ineffective-delete-does-not-consume-its-generation",
        _hybrid_store,
        [("delete", 424_242, 0, 0, 1), ("insert", 9001, 5, 9, 1)],
        [True, True],
        1,
        [9001],
    ),
    (
        "sync-floors-and-applies-nothing",
        _hybrid_store,
        [("sync", 0, 0, 0, 4), ("insert", 9001, 5, 9, 5), ("sync", 0, 0, 0, 2)],
        [None, True, None],
        5,
        [9001],
    ),
    (
        "static-backend-cannot-play-the-record",
        _static_store,
        [("insert", 9001, 5, 9, 1), ("insert", 9002, 7, 9, 1)],
        [False, False],
        0,
        [],
    ),
    (
        "unknown-op-is-skipped",
        _hybrid_store,
        [("upsert", 9001, 5, 9, 1)],
        [False],
        0,
        [],
    ),
]


@pytest.mark.parametrize(
    ("make_store", "records", "outcomes", "final", "live"),
    [row[1:] for row in REPLAY_TABLE],
    ids=[row[0] for row in REPLAY_TABLE],
)
def test_apply_record_table(tmp_path, make_store, records, outcomes, final, live):
    def absolute(store):
        base = store.result_generation()
        return base, [(op, i, s, e, base + g) for op, i, s, e, g in records]

    # the step itself
    store = make_store()
    base, rows = absolute(store)
    heard = []
    store.add_update_listener(lambda op, interval, generation: heard.append(generation))
    assert [apply_record(store, *row) for row in rows] == outcomes
    assert store.result_generation() == base + final
    assert heard == sorted(heard)
    if not any(outcomes):
        assert heard == [], "an unplayable record must leave the feed untouched"
    for interval_id in live:
        assert store.index._resolve_interval(interval_id) is not None
    store.close()

    played = sum(outcome is True for outcome in outcomes)
    skipped = sum(outcome is False for outcome in outcomes)

    # local recovery's counters: the fold, then its walk through the feed
    store = make_store()
    base, rows = absolute(store)
    tail = [WalRecord(*row) for row in rows]
    folded, steps = fold_tail(BASE, tail, store.backend)
    recovery = DurabilityManager(store, tmp_path / "wal", fsync="off")
    try:
        assert recovery.replay(tail, steps) == played
        assert (recovery.replayed_records, recovery.replay_skipped) == (played, skipped)
        assert store.result_generation() == base + final
        assert set(live) <= set(folded.ids.tolist())
    finally:
        recovery.close()
        store.close()

    # the follower's counters: every content record shipped, skipped ones
    store = make_store()
    base, rows = absolute(store)
    follower = ClusterFollower("127.0.0.1", 1)  # never started: no connection
    follower._store = store
    follower._apply([list(row) for row in rows])
    assert (follower.records_applied, follower.replay_skipped) == (played + skipped, skipped)
    assert follower.applied_generation() == base + final
    store.close()
