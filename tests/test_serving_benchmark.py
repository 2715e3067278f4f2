"""Acceptance tests for the serving subsystem's result cache.

Over real JSON-over-HTTP against a served store:

* a cache hit does *no* store work -- zero ``store.run_batch`` /
  ``store.query`` / ``store.index.ids_text`` calls, the pre-encoded body is the answer -- and an
  overlapping update makes the next identical request a miss again.  That is
  the structural fact behind the cached path's throughput win; the win
  itself is measured by ``e2e_bench`` (``serve.cache.hit_rate`` and
  throughput on the ``mixed_rw`` workload), tier-1 does not assert it;
* cached results stay oracle-correct across interleaved inserts, deletes
  and maintenance passes (range eviction on the store's update feed,
  asserted against a live-set oracle).
"""

import collections

import numpy as np

from repro.core.interval import IntervalCollection, Query
from repro.engine import IntervalStore
from repro.serve.client import ServeClient
from repro.serve.server import start_server_thread


def test_cached_serving_beats_uncached_5x(monkeypatch):
    rng = np.random.default_rng(5)
    starts = rng.integers(0, 50_000, 2_000)
    store = IntervalStore.from_pairs(
        [(int(s), int(s) + int(d)) for s, d in zip(starts, rng.integers(0, 2_000, 2_000))],
        backend="hintm_hybrid",
    )
    calls = collections.Counter()
    # a plain /query on a hybrid reads the index's rendered text
    for owner, name in ((store, "run_batch"), (store, "query"), (store.index, "ids_text")):
        real = getattr(owner, name)

        def spy(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, name, spy)

    handle = start_server_thread(store, cache=64)
    client = ServeClient(port=handle.port)
    try:
        cold = client.query(10_000, 30_000)
        filled = sum(calls.values())
        assert filled >= 1, "the cold request never reached the store"
        before = client.stats()["cache"]

        warm = client.query(10_000, 30_000)
        assert sum(calls.values()) == filled, f"a cache hit called the store: {calls}"
        assert sorted(warm["ids"]) == sorted(cold["ids"])
        after = client.stats()["cache"]
        assert (after["hits"], after["misses"]) == (before["hits"] + 1, before["misses"])

        client.insert(9_000_000, 15_000, 15_500)
        fresh = client.query(10_000, 30_000)
        assert sum(calls.values()) > filled, "an update did not force a re-execution"
        assert sorted(fresh["ids"]) == sorted(cold["ids"] + [9_000_000])
        assert client.stats()["cache"]["misses"] == after["misses"] + 1
    finally:
        client.close()
        handle.stop()
        store.close()


def test_cached_results_stay_oracle_correct_across_updates_and_maintenance():
    """Range eviction, end to end against a live-set oracle."""
    rng = np.random.default_rng(31)
    starts = rng.integers(0, 50_000, 3_000)
    ends = starts + rng.integers(0, 2_000, 3_000)
    collection = IntervalCollection.from_pairs(
        [(int(s), int(e)) for s, e in zip(starts, ends)]
    )
    live = {
        int(i): (int(s), int(e))
        for i, s, e in zip(collection.ids, collection.starts, collection.ends)
    }
    store = IntervalStore.open(collection, "hintm_hybrid", num_shards=4)
    handle = start_server_thread(store, cache=256)
    client = ServeClient(port=handle.port)
    hot = [Query(0, 20_000), Query(10_000, 30_000), Query(25_000, 52_000)]

    def oracle(query):
        return {
            i for i, (s, e) in live.items() if s <= query.end and query.start <= e
        }

    def assert_served_fresh():
        for query in hot:
            got = set(client.query(query.start, query.end)["ids"])
            assert got == oracle(query)
            count = client.query(query.start, query.end, count_only=True)["count"]
            assert count == len(got)

    next_id = 1_000_000
    try:
        assert_served_fresh()  # cold fill
        assert_served_fresh()  # repeats must hit the cache, still fresh
        assert client.stats()["cache"]["hits"] > 0
        for round_no in range(5):
            # interleave inserts and deletes through the server...
            for _ in range(10):
                start = int(rng.integers(0, 50_000))
                end = start + int(rng.integers(0, 3_000))
                client.insert(next_id, start, end)
                live[next_id] = (start, end)
                next_id += 1
            for victim in rng.choice(sorted(live), size=5, replace=False):
                assert client.delete(int(victim))["deleted"]
                del live[int(victim)]
            # ...every cached hot answer must reflect them immediately
            assert_served_fresh()
            # maintenance (count folds, rebuilds, possible repartition)
            # must never resurrect a pre-maintenance cached answer either
            client.maintain(force=round_no % 2 == 0)
            assert_served_fresh()
        stats = client.stats()["cache"]
        assert stats["invalidated"] > 0, (
            "updates never invalidated a cached entry -- the cache is not "
            "watching the store's update feed"
        )
    finally:
        client.close()
        handle.stop()
        store.close()
