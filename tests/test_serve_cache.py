"""The range-scoped result cache: LRU, stamps, TTL, range eviction on the
update feed, and a model-based oracle through a served store."""

import sys
import threading

import numpy as np
import pytest

from repro.baselines.naive import NaiveIndex
from repro.core.interval import Interval, IntervalCollection, Query
from repro.core.updates import UpdateFeed
from repro.engine import IntervalStore
from repro.serve.cache import ResultCache, normalize_query_key, resolve_cache
from repro.serve.client import ServeClient
from repro.serve.server import QueryServer, start_server_thread
from repro.stream import parse_relation


class TestNormalizeQueryKey:
    def test_kind_separates_result_shapes(self):
        assert normalize_query_key(1, 5, "ids") != normalize_query_key(1, 5, "count")

    def test_same_query_same_key(self):
        assert normalize_query_key(1, 5) == normalize_query_key(1, 5)


class TestResultCache:
    def test_miss_then_hit(self):
        cache = ResultCache(capacity=4)
        key = normalize_query_key(1, 5)
        assert cache.get(key, 0) is ResultCache.MISS
        cache.put(key, 0, [1, 2, 3])
        assert cache.get(key, 0) == [1, 2, 3]
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (1, 1)

    def test_generation_bump_invalidates_by_construction(self):
        cache = ResultCache(capacity=4)
        key = normalize_query_key(1, 5)
        cache.put(key, 7, "generation-7 answer")
        assert cache.get(key, 7) == "generation-7 answer"
        # an update moved the generation: the entry is dead, dropped, counted
        assert cache.get(key, 8) is ResultCache.MISS
        stats = cache.stats()
        assert stats.invalidated == 1
        assert stats.size == 0
        # refill at the new generation works as usual
        cache.put(key, 8, "generation-8 answer")
        assert cache.get(key, 8) == "generation-8 answer"

    def test_lru_eviction_order(self):
        cache = ResultCache(capacity=2)
        cache.put("a", 0, 1)
        cache.put("b", 0, 2)
        assert cache.get("a", 0) == 1  # refresh a; b becomes the LRU
        cache.put("c", 0, 3)
        assert cache.get("b", 0) is ResultCache.MISS
        assert cache.get("a", 0) == 1
        assert cache.stats().evictions == 1

    def test_capacity_zero_disables_caching(self):
        cache = ResultCache(capacity=0)
        assert not cache.enabled
        cache.put("a", 0, 1)
        assert len(cache) == 0
        assert cache.get("a", 0) is ResultCache.MISS

    def test_capacity_validation(self):
        with pytest.raises(ValueError, match="capacity"):
            ResultCache(capacity=-1)

    def test_cached_falsy_values_are_not_misses(self):
        cache = ResultCache(capacity=4)
        cache.put("empty", 0, [])
        assert cache.get("empty", 0) == []

    def test_clear(self):
        cache = ResultCache(capacity=4)
        cache.put("a", 0, 1)
        cache.clear()
        assert len(cache) == 0

    def test_hit_rate(self):
        cache = ResultCache(capacity=4)
        assert cache.stats().hit_rate == 0.0
        cache.put("a", 0, 1)
        cache.get("a", 0)
        cache.get("b", 0)
        assert cache.stats().hit_rate == pytest.approx(0.5)

    def test_thread_safety_under_mixed_generations(self):
        cache = ResultCache(capacity=64)
        errors = []

        def worker(generation):
            try:
                for i in range(500):
                    key = normalize_query_key(i % 32, i % 32 + 5)
                    cache.put(key, generation, (generation, i))
                    value = cache.get(key, generation)
                    if value is not ResultCache.MISS and value[0] != generation:
                        errors.append(value)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(g,)) for g in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors


class TestResolveCache:
    def test_default_is_enabled(self):
        cache = resolve_cache(None)
        assert cache.enabled and cache.capacity == 1024

    def test_int_is_capacity(self):
        assert resolve_cache(16).capacity == 16
        assert not resolve_cache(0).enabled

    def test_instance_passes_through(self):
        cache = ResultCache(capacity=2)
        assert resolve_cache(cache) is cache

    def test_bad_specs_rejected(self):
        with pytest.raises(TypeError):
            resolve_cache(True)
        with pytest.raises(TypeError):
            resolve_cache("big")


class TestTtl:
    """Wall-clock bounds compose with (and trump) stamp keying."""

    def _cache(self, **kwargs):
        clock = {"now": 0.0}
        cache = ResultCache(capacity=8, clock=lambda: clock["now"], **kwargs)
        return cache, clock

    def test_fresh_entry_hits_until_ttl(self):
        cache, clock = self._cache(ttl=10.0)
        cache.put("a", 0, "answer")
        clock["now"] = 9.9
        assert cache.get("a", 0) == "answer"
        clock["now"] = 10.1
        assert cache.get("a", 0) is ResultCache.MISS
        stats = cache.stats()
        assert stats.ttl_expired == 1
        assert stats.size == 0  # expired entries are dropped, not retained

    def test_refill_restarts_the_clock(self):
        cache, clock = self._cache(ttl=5.0)
        cache.put("a", 0, "v1")
        clock["now"] = 6.0
        assert cache.get("a", 0) is ResultCache.MISS
        cache.put("a", 0, "v2")
        clock["now"] = 10.0
        assert cache.get("a", 0) == "v2"

    def test_within_ttl_generation_keying_is_unchanged(self):
        cache, clock = self._cache(ttl=100.0)
        cache.put("a", 0, "old")
        clock["now"] = 1.0
        assert cache.get("a", 1) is ResultCache.MISS  # plain invalidation
        assert cache.stats().invalidated == 1
        assert cache.stats().ttl_expired == 0

    def test_no_ttl_means_no_expiry(self):
        cache, clock = self._cache()
        cache.put("a", 0, "forever")
        clock["now"] = 1e9
        assert cache.get("a", 0) == "forever"

    def test_ttl_validation(self):
        with pytest.raises(ValueError, match="ttl"):
            ResultCache(capacity=4, ttl=0)


# ---------------------------------------------------------------------- #
# range eviction: a watched cache drops exactly what an update overlaps
# ---------------------------------------------------------------------- #


def _watched(capacity=8):
    feed = UpdateFeed()
    cache = ResultCache(capacity=capacity)
    cache.watch(feed)
    return feed, cache


class TestWatchedCache:
    def test_update_evicts_only_overlapping_ranges(self):
        feed, cache = _watched()
        for start, end in ((0, 10), (20, 30), (40, 50)):
            cache.put(normalize_query_key(start, end), feed.generation, (start, end))
        # closed semantics: touching the end point is an overlap
        feed.commit("insert", Interval(1, 30, 35))
        assert cache.get(normalize_query_key(20, 30), None) is ResultCache.MISS
        assert cache.get(normalize_query_key(0, 10), None) == (0, 10)
        assert cache.get(normalize_query_key(40, 50), None) == (40, 50)
        feed.commit("delete", Interval(2, 9, 41))
        assert len(cache) == 0
        assert cache.stats().invalidated == 3

    def test_any_present_entry_hits_whatever_the_stamp(self):
        feed, cache = _watched()
        key = normalize_query_key(0, 10)
        cache.put(key, feed.generation, "answer")
        feed.commit("insert", Interval(1, 100, 200))  # elsewhere
        assert cache.get(key, "any stamp") == "answer"

    def test_non_range_kinds_drop_on_every_update(self):
        feed, cache = _watched()
        scoped = [normalize_query_key(0, 10, kind)
                  for kind in ("ids", "count", "ids:during", "count:overlaps")]
        volatile = [normalize_query_key(0, 10, kind)
                    for kind in ("ids:before", "count:after", "ids:stats",
                                 "ids:during:stats")]
        for key in scoped + volatile:
            cache.put(key, feed.generation, key)
        feed.commit("insert", Interval(1, 500, 600))
        assert all(cache.get(key, None) == key for key in scoped)
        assert all(cache.get(key, None) is ResultCache.MISS for key in volatile)

    def test_sync_clears_only_on_a_generation_bump(self):
        feed, cache = _watched()
        cache.put(normalize_query_key(0, 10), feed.generation, "a")
        feed.sync(bump=False)  # a rebuild or a maintenance pass
        assert len(cache) == 1
        feed.sync(bump=True)  # an epoch publication
        assert len(cache) == 0

    def test_unresolved_delete_clears(self):
        feed, cache = _watched()
        cache.put(normalize_query_key(0, 10), feed.generation, "a")
        feed.commit("delete", None)
        assert len(cache) == 0

    def test_fill_refused_once_the_generation_moved(self):
        feed, cache = _watched()
        stamp = feed.generation  # read before the query ran
        feed.commit("insert", Interval(1, 500, 600))  # elsewhere, mid-query
        cache.put(normalize_query_key(0, 10), stamp, "pre-update answer")
        assert len(cache) == 0
        cache.put(normalize_query_key(0, 10), feed.generation, "fresh")
        assert len(cache) == 1

    def test_ranges_past_the_int64_domain_are_clamped(self):
        feed, cache = _watched()
        key = normalize_query_key(10**20, 10**30)
        cache.put(key, feed.generation, "empty answer")
        feed.commit("insert", Interval(1, 0, 10))
        assert cache.get(key, None) == "empty answer"
        feed.commit("insert", Interval(2, 0, 2**63 - 1))
        assert cache.get(key, None) is ResultCache.MISS

    def test_lru_churn_frees_and_reuses_slots(self):
        feed, cache = _watched(capacity=2)
        for start in range(0, 100, 10):
            cache.put(normalize_query_key(start, start + 5), feed.generation, start)
        assert cache.stats().evictions == 8
        # only the two survivors occupy slots: an update over the evicted
        # ranges drops nothing, one over a survivor drops exactly it
        feed.commit("insert", Interval(1, 0, 75))
        assert len(cache) == 2
        feed.commit("insert", Interval(2, 85, 85))
        assert cache.get(normalize_query_key(80, 85), None) is ResultCache.MISS
        assert cache.get(normalize_query_key(90, 95), None) == 90

    def test_racing_fills_and_updates_leave_no_stale_entry(self):
        # each range's "answer" is its version; a writer bumps a version and
        # commits an update over that range, fillers read the stamp, then
        # the version, then put -- exactly the server's order.  A lost
        # eviction or an accepted overtaken fill leaves an entry behind its
        # range's version once everything has stopped.
        feed, cache = _watched(capacity=16)
        ranges = [(r * 100, r * 100 + 50) for r in range(8)]
        versions = [0] * len(ranges)
        stop = threading.Event()
        errors = []

        def writer():
            for i in range(3_000):
                r = i % len(ranges)
                with feed.lock:
                    versions[r] += 1
                    feed.commit("insert", Interval(i, ranges[r][0] + 10, ranges[r][0] + 20))
            stop.set()

        def filler(seed):
            try:
                k = seed
                while not stop.is_set():
                    r = k % len(ranges)
                    key = normalize_query_key(*ranges[r])
                    if cache.get(key, None) is ResultCache.MISS:
                        stamp = feed.generation
                        cache.put(key, stamp, versions[r])
                    k += 7
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=filler, args=(n,)) for n in range(4)]
            threads.append(threading.Thread(target=writer))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(previous)
        assert not errors
        for r, span in enumerate(ranges):
            value = cache.get(normalize_query_key(*span), None)
            assert value is ResultCache.MISS or value == versions[r]

    def test_watch_none_unsubscribes_and_capacity_zero_never_listens(self):
        feed, cache = _watched()
        assert feed.listening
        cache.watch(None)
        assert not feed.listening
        ResultCache(capacity=0).watch(feed)
        assert not feed.listening


def _collection(n=300, seed=5):
    rng = np.random.default_rng(seed)
    starts = rng.integers(0, 10_000, n)
    ends = starts + rng.integers(0, 400, n)
    return IntervalCollection.from_pairs(
        [(int(s), int(e)) for s, e in zip(starts, ends)]
    )


def _spied_store(num_shards):
    """A hybrid store whose reads for a plain /query (its index's
    ``ids_text``, the rendered text a server slices) are counted."""
    store = IntervalStore.open(_collection(), "hintm_hybrid", num_shards=num_shards)
    calls = []
    real = store.index.ids_text

    def spy(query):
        calls.append(1)
        return real(query)

    store.index.ids_text = spy
    return store, calls


@pytest.fixture(params=[1, 2], ids=["hybrid-K1", "sharded-K2"])
def spied(request):
    store, calls = _spied_store(request.param)
    handle = start_server_thread(store, cache=64)
    client = ServeClient(port=handle.port)
    yield store, calls, client
    client.close()
    handle.stop()
    store.close()


def _ids(store, start, end):
    return set(store.query().overlapping(start, end).ids())


class TestServedRangeEviction:
    def test_disjoint_update_keeps_the_entry_a_hit(self, spied):
        store, calls, client = spied
        first = client.query(1_000, 1_500)
        client.insert(90_000, 8_000, 8_100)
        client.delete(90_000)
        del calls[:]
        assert client.query(1_000, 1_500) == first
        assert calls == []  # served from the cache: no store call at all

    def test_overlapping_insert_evicts(self, spied):
        store, calls, client = spied
        before = set(client.query(1_000, 1_500)["ids"])
        client.insert(90_001, 1_500, 1_700)  # touches the range's end point
        del calls[:]
        assert set(client.query(1_000, 1_500)["ids"]) == before | {90_001}
        assert calls == [1]

    def test_overlapping_delete_evicts(self, spied):
        store, calls, client = spied
        before = set(client.query(1_000, 1_500)["ids"])
        victim = min(before)
        assert client.delete(victim)["deleted"]
        assert set(client.query(1_000, 1_500)["ids"]) == before - {victim}

    def test_boundary_spanning_interval(self, spied):
        store, calls, client = spied
        index = store.index
        cut = int(index.plan.cuts[0]) if hasattr(index, "plan") else 5_000
        left, right = (cut - 300, cut - 1), (cut, cut + 300)
        answers = {span: set(client.query(*span)["ids"]) for span in (left, right)}
        client.insert(90_002, cut - 10, cut + 10)  # a copy in both shards
        for span in (left, right):
            assert set(client.query(*span)["ids"]) == answers[span] | {90_002}
        assert client.delete(90_002)["deleted"]
        for span in (left, right):
            assert set(client.query(*span)["ids"]) == answers[span]
            assert answers[span] == _ids(store, *span)

    def test_before_after_entries_drop_on_any_update(self, spied):
        store, calls, client = spied
        for relation in ("before", "after"):
            client.query(4_000, 4_100, relation=relation)
        client.insert(90_003, 9_990, 9_995)  # far from [4000, 4100]
        seen = 0
        for relation in ("before", "after"):
            answer = set(client.query(4_000, 4_100, relation=relation)["ids"])
            assert answer == set(
                store.query().overlapping(4_000, 4_100)
                .relation(parse_relation(relation)).ids()
            )
            seen += 90_003 in answer
        assert seen == 1  # the far-away insert changed one of the two

    def test_fill_race_never_serves_the_stale_answer(self, spied):
        # the store's read commits an overlapping insert mid-query: the
        # pre-insert answer goes back to that caller, but the cache must
        # refuse to keep it
        store, calls, client = spied
        real = store.index.ids_text

        def racing(query):
            result = real(query)
            store.index.ids_text = real
            store.insert(Interval(90_004, 2_050, 2_060))
            return result

        store.index.ids_text = racing
        first = client.query(2_000, 2_100)
        assert 90_004 not in first["ids"]
        assert set(client.query(2_000, 2_100)["ids"]) == _ids(store, 2_000, 2_100)
        assert 90_004 in _ids(store, 2_000, 2_100)

    def test_refined_fill_race_never_serves_the_stale_answer(self, spied):
        # the relation twin: the builder's probe runs (a result set keeps
        # its answer), then an overlapping insert commits before the fill
        store, calls, client = spied
        real = store._result_set

        def racing(query, relation, limit):
            result = real(query, relation, limit)
            result.ids()
            store._result_set = real
            store.insert(Interval(90_006, 2_050, 2_060))
            return result

        store._result_set = racing
        first = client.query(2_000, 2_100, relation="during")
        assert 90_006 not in first["ids"]
        during = parse_relation("during")
        fresh = set(
            store.query().overlapping(2_000, 2_100).relation(during).ids()
        )
        assert set(client.query(2_000, 2_100, relation="during")["ids"]) == fresh
        assert 90_006 in fresh


class TestServedEpochsAndRebuilds:
    def test_forced_maintenance_publishes_an_epoch_and_clears(self):
        # five of six intervals left of the equi-width cut: one update of
        # drift and a forced pass re-partitions, publishing a new epoch
        pairs = [(s, s + 50) for s in range(0, 2_500, 10)]
        pairs += [(s, s + 50) for s in range(8_000, 10_000, 40)]
        store = IntervalStore.open(
            IntervalCollection.from_pairs(pairs), "hintm_hybrid", num_shards=2
        )
        with start_server_thread(store, cache=64) as handle, \
                ServeClient(port=handle.port) as client:
            client.query(0, 500)
            client.insert(90_005, 9_000, 9_010)  # far from the cached range
            cache = handle.server.cache
            assert len(cache) == 1
            epoch = store.index.epoch
            assert "re-partitioned" in client.maintain(force=True)["summary"]
            assert store.index.epoch > epoch
            assert len(cache) == 0
        store.close()

    def test_hybrid_rebuild_keeps_entries(self):
        store, calls = _spied_store(1)
        with start_server_thread(store, cache=64) as handle, \
                ServeClient(port=handle.port) as client:
            first = client.query(0, 500)
            rebuilds = store.index.rebuilds
            store.index.rebuild()
            assert store.index.rebuilds == rebuilds + 1
            del calls[:]
            assert client.query(0, 500) == first
            assert calls == []
        store.close()

    def test_adopted_store_moves_the_watch(self):
        # a follower re-bootstrapping swaps the served store: the cache
        # must hear the new store's updates, not the abandoned one's
        from repro.cluster.shard_server import ShardServer

        old = IntervalStore.open(_collection(), "hintm_hybrid")
        new = IntervalStore.open(_collection(seed=6), "hintm_hybrid")
        server = ShardServer(old, cache=8)
        server.cache.put(normalize_query_key(0, 10), old.updates.generation, "old")
        server.adopt_store(new)
        assert not old.updates.listening and new.updates.listening
        assert len(server.cache) == 0

    def test_cache_size_zero_attaches_no_listener(self):
        store = IntervalStore.open(_collection(), "hintm_hybrid", num_shards=2)
        QueryServer(store, cache=ResultCache(capacity=0))
        assert not store.updates.listening
        handle = start_server_thread(store, cache=64)
        assert store.updates.listening
        handle.stop()  # the store outlives the server: it stops listening
        assert not store.updates.listening
        store.close()


class TestCacheOracle:
    """Model-based: a seeded op stream through a small, churning cache;
    after every op each answer equals ``NaiveIndex`` on the same stream."""

    RELATIONS = ("during", "overlaps", "contains", "before", "after")

    @pytest.mark.parametrize("num_shards", [1, 2])
    def test_every_answer_matches_naive(self, num_shards):
        collection = _collection(n=200, seed=11)
        store = IntervalStore.open(collection, "hintm_hybrid", num_shards=num_shards)
        oracle = NaiveIndex(collection)
        rng = np.random.default_rng(28 + num_shards)
        # a few hot ranges (so entries hit and must be evicted) among
        # cold ones (so the 64-slot LRU churns)
        hot = [(int(s), int(s) + 300) for s in rng.integers(0, 9_700, 12)]
        live = set(int(i) for i in collection.ids)
        deleted = []
        next_id = 10_000

        def pick_range():
            if rng.random() < 0.5:
                return hot[int(rng.integers(len(hot)))]
            start = int(rng.integers(0, 10_000))
            return start, start + int(rng.integers(0, 800))

        def expect(start, end, relation=None):
            query = Query(start, end)
            if relation is None:
                return set(oracle.query(query))
            return set(oracle.query_relation(query, parse_relation(relation)))

        with start_server_thread(store, cache=64) as handle, \
                ServeClient(port=handle.port) as client:
            for _ in range(400):
                op = rng.random()
                if op < 0.15:
                    if deleted and rng.random() < 0.4:
                        interval_id = deleted.pop()  # re-insert a deleted id
                    else:
                        interval_id, next_id = next_id, next_id + 1
                    start, end = pick_range()
                    end = start + int(rng.integers(0, 200))
                    client.insert(interval_id, start, end)
                    oracle.insert(Interval(interval_id, start, end))
                    live.add(interval_id)
                elif op < 0.27:
                    interval_id = int(rng.choice(sorted(live)))
                    assert client.delete(interval_id)["deleted"]
                    assert oracle.delete(interval_id)
                    live.discard(interval_id)
                    deleted.append(interval_id)
                elif op < 0.29:
                    client.maintain(force=bool(rng.random() < 0.5))
                elif op < 0.45:
                    pairs = [pick_range() for _ in range(int(rng.integers(1, 6)))]
                    count_only = bool(rng.random() < 0.3)
                    for (start, end), answer in zip(
                        pairs, client.batch(pairs, count_only=count_only)
                    ):
                        expected = expect(start, end)
                        if count_only:
                            assert answer["count"] == len(expected)
                        else:
                            assert set(answer["ids"]) == expected
                elif op < 0.60:
                    start, end = pick_range()
                    relation = self.RELATIONS[int(rng.integers(len(self.RELATIONS)))]
                    answer = client.query(start, end, relation=relation)
                    assert set(answer["ids"]) == expect(start, end, relation)
                elif op < 0.75:
                    start, end = pick_range()
                    answer = client.query(start, end, count_only=True)
                    assert answer["count"] == len(expect(start, end))
                # after every op: the hot ranges still answer exactly
                for start, end in hot[:3] + [pick_range()]:
                    assert set(client.query(start, end)["ids"]) == expect(start, end)
            stats = handle.server.cache.stats()
        store.close()
        # the stream exercised hits, range evictions and LRU churn
        assert stats.hits > 0 and stats.invalidated > 0 and stats.evictions > 0
