"""Recovery's fold equals per-record replay, on every WAL stream.

``open_durable`` folds the WAL tail into the checkpoint's columns, builds
the store once, then walks the tail through the update feed.  The reference
here is what recovery used to do and what the cluster follower still does:
open a store on the same checkpoint and push every tail record through
``apply_record``.  Both must agree on the live set, the result generation,
the replay counters, and the deltas a restored standing-query subscription
hands a client acked at the checkpoint.
"""

import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.errors import DomainError
from repro.core.interval import Interval, IntervalCollection
from repro.durability.checkpoint import load_checkpoint
from repro.durability.manager import apply_record
from repro.durability.wal import replay_wal
from repro.engine import IntervalStore
from repro.stream.deltas import StandingQueryManager

BASE = IntervalCollection.from_pairs(
    [(start, start + 30 + (start % 7) * 40) for start in range(0, 6_000, 25)]
)
FIRST_NEW_ID = 100_000
SUBSCRIBED_RANGE = (0, 3_000)

OPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(0, 6_000), st.integers(0, 900)),
        st.tuples(st.just("delete_live"), st.integers(0, 10_000)),
        st.tuples(st.just("delete_unknown")),
        st.tuples(st.just("reinsert_deleted"), st.integers(0, 10_000), st.integers(0, 6_000)),
        st.tuples(st.just("maintain")),
        st.tuples(st.just("checkpoint")),
        st.tuples(st.just("sync"), st.booleans()),
    ),
    min_size=1,
    max_size=25,
)


def _open(collection, num_shards, wal_dir=None):
    return IntervalStore.open(
        collection, "hintm_hybrid", num_shards=num_shards, num_bits=6,
        wal_dir=None if wal_dir is None else str(wal_dir), fsync="off",
    )


def _write_history(wal_dir, num_shards, subscribed, ops):
    """Run ``ops`` on a durable store and close it without a last checkpoint."""
    store = _open(BASE, num_shards, wal_dir)
    if subscribed:
        StandingQueryManager(store).subscribe(*SUBSCRIBED_RANGE)
        store.maintain(checkpoint=True)  # persists the subscription
    live = set(BASE.ids.tolist())
    deleted = []
    next_id = FIRST_NEW_ID
    for op in ops:
        kind = op[0]
        if kind == "insert":
            store.insert(Interval(next_id, op[1], op[1] + op[2]))
            live.add(next_id)
            next_id += 1
        elif kind == "delete_live" and live:
            victim = sorted(live)[op[1] % len(live)]
            assert store.delete(victim)
            live.discard(victim)
            deleted.append(victim)
        elif kind == "delete_unknown":
            assert not store.delete(next_id + 7)
        elif kind == "reinsert_deleted" and deleted:
            revived = deleted.pop(op[1] % len(deleted))
            store.insert(Interval(revived, op[2], op[2] + 50))
            live.add(revived)
        elif kind == "maintain":
            store.maintain(force=True)
        elif kind == "checkpoint":
            store.maintain(checkpoint=True)
        elif kind == "sync":
            store.updates.sync(bump=op[1])
    store.close()


def _live(store):
    live = store.index.live_collection()
    return sorted(zip(live.ids.tolist(), live.starts.tolist(), live.ends.tolist()))


def _deltas(stream, payload):
    """What a client acked at the checkpoint is handed after recovery."""
    if stream is None:
        return None
    (subscription_id,) = stream.registry.ids()
    result = stream.poll(subscription_id, after_generation=payload["generation"])
    return result.records, result.resync_required


@pytest.mark.parametrize("num_shards", [1, 2])
def test_refused_insert_never_reaches_the_log(tmp_path, num_shards):
    """``hint_cf`` has a fixed domain: an out-of-domain insert raises, is
    never logged, and so never comes back on a reopen."""
    base = IntervalCollection.from_pairs([(10, 20), (100, 200), (300, 400)])

    def reopen():
        return IntervalStore.open(
            IntervalCollection.empty(), "hint_cf", num_shards=num_shards,
            num_bits=9, wal_dir=str(tmp_path), fsync="off",
        )

    store = IntervalStore.open(
        base, "hint_cf", num_shards=num_shards, num_bits=9,
        wal_dir=str(tmp_path), fsync="off",
    )
    store.insert(Interval(7, 50, 60))
    assert store.delete(0)
    with pytest.raises(DomainError):
        store.insert(Interval(8, 450, 600))  # the domain ends at 2^9 - 1
    before = (_live(store), store.result_generation())
    store.close()

    # the recovery replays the insert and the delete; a reopen of the
    # checkpoint it published replays nothing
    for replayed in (2, 0):
        recovered = reopen()
        try:
            assert (_live(recovered), recovered.result_generation()) == before
            assert recovered.durability.replayed_records == replayed
            assert recovered.durability.replay_skipped == 0
        finally:
            recovered.close()


@pytest.mark.parametrize("subscribed", [False, True], ids=["plain", "subscribed"])
@pytest.mark.parametrize("num_shards", [1, 2])
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(ops=OPS)
def test_fold_equals_per_record_replay(num_shards, subscribed, ops):
    with tempfile.TemporaryDirectory() as scratch:
        wal_dir, reference_dir = Path(scratch, "wal"), Path(scratch, "reference")
        _write_history(wal_dir, num_shards, subscribed, ops)
        shutil.copytree(wal_dir, reference_dir)  # recovery rewrites its directory

        # the reference: per-record apply_record over the same checkpoint
        payload = load_checkpoint(reference_dir)
        records, _ = replay_wal(reference_dir, truncate=False)
        tail = [r for r in records if r.generation > payload["generation"]]
        reference = _open(payload["intervals"], num_shards)
        reference.updates.floor(payload["generation"])
        reference_stream = (
            StandingQueryManager.restore(
                reference, payload["subscriptions"], generation=payload["generation"]
            )
            if payload["subscriptions"]
            else None
        )
        outcomes = [
            apply_record(reference, r.op, r.interval_id, r.start, r.end, r.generation)
            for r in tail
        ]

        recovered = _open(IntervalCollection.empty(), num_shards, wal_dir)
        try:
            assert _live(recovered) == _live(reference)
            assert recovered.result_generation() == reference.result_generation()
            durability = recovered.durability
            assert durability.replayed_records == sum(o is True for o in outcomes)
            assert durability.replay_skipped == sum(o is False for o in outcomes)
            assert (recovered.restored_stream is None) == (not subscribed)
            assert _deltas(recovered.restored_stream, payload) == _deltas(
                reference_stream, payload
            )
        finally:
            recovered.close()
            reference.close()
