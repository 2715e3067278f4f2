"""Sharded-vs-unsharded equivalence through the one store facade.

The central property: sharding is an *execution* detail --
``IntervalStore.open(num_shards=K)`` wraps a :class:`ShardedIndex` in the
same facade and the same lazy :class:`ResultSet` as any other backend, and
for every registered backend, every shard count and both partitioning
strategies it must answer exactly like the naive scan, through updates."""

import numpy as np
import pytest

from repro.core.allen import AllenRelation, satisfies_relation
from repro.core.base import IntervalIndex, QueryStats, _deep_sizeof
from repro.core.errors import InvalidIntervalError, InvalidQueryError
from repro.core.interval import Interval, IntervalCollection, Query
from repro.engine import (
    IntervalStore,
    ProcessExecutor,
    ResultSet,
    ShardedIndex,
    available_backends,
    create_index,
    get_spec,
)

#: every non-composite backend takes part in the equivalence sweep
ALL_BACKENDS = [
    name for name in available_backends() if not get_spec(name).composite
]

#: cheap construction parameters for the sweep
SMALL_KWARGS = {
    "grid1d": {"num_partitions": 32},
    "timeline": {"num_checkpoints": 16},
    "period": {"num_coarse_partitions": 8, "num_levels": 3},
    "hintm": {"num_bits": 7},
    "hintm_sub": {"num_bits": 7},
    "hintm_opt": {"num_bits": 7},
    "hintm_hybrid": {"num_bits": 7},
}


def _random_workload(collection, rng, count=40, within_span=False):
    """Randomized overlap + stabbing queries (optionally clamped to the span,
    for discrete-domain backends that cannot represent outside endpoints)."""
    lo, hi = collection.span()
    margin = 0 if within_span else 50
    queries = []
    for _ in range(count):
        start = int(rng.integers(lo - margin, hi + margin))
        extent = int(rng.integers(0, max((hi - lo) // 3, 1)))
        end = start + extent
        if within_span:
            end = min(end, hi)
        queries.append(Query(start, end))
    for _ in range(count // 2):
        queries.append(
            Query.stabbing(int(rng.integers(lo - margin // 5, hi + margin // 5)))
        )
    return queries


def _assert_matches_live(store, live, workload):
    """Every accessor of the store's fluent queries against a scan of ``live``."""
    for query in workload:
        want = sorted(i for i, iv in live.items() if iv.overlaps(query))

        def builder():
            return store.query().overlapping(query.start, query.end)

        assert sorted(builder().ids().tolist()) == want, query
        assert builder().count() == len(want), query
        assert builder().exists() == bool(want), query
        assert builder().stats().results == len(want), query
        limited = builder().limit(3).ids().tolist()
        assert len(limited) == min(3, len(want)) and set(limited) <= set(want)
        assert builder().limit(3).count() == min(3, len(want)), query
        for relation in AllenRelation:
            related = sorted(
                i for i, iv in live.items() if satisfies_relation(iv, query, relation)
            )
            got = builder().relation(relation).ids().tolist()
            assert sorted(got) == related, (query, relation)
            assert builder().relation(relation).count() == len(related)
            assert builder().relation(relation).exists() == bool(related)


class TestShardedEquivalence:
    """Property-style: a sharded store == naive oracle, for every backend/K/strategy."""

    @pytest.mark.parametrize("num_shards", [2, 4])
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_every_backend_matches_oracle(
        self, synthetic_collection, backend, num_shards, rng
    ):
        """Ids, every Allen relation, limit, count, exists and stats, before
        and after updates that straddle every cut (updatable backends)."""
        kwargs = dict(SMALL_KWARGS.get(backend, {}))
        store = IntervalStore.open(
            synthetic_collection, backend, num_shards=num_shards, **kwargs
        )
        assert type(store) is IntervalStore
        assert isinstance(store.index, ShardedIndex)
        assert store.index.num_shards == num_shards
        live = {interval.id: interval for interval in synthetic_collection}
        workload = _random_workload(
            synthetic_collection, rng, count=8, within_span=True
        )
        _assert_matches_live(store, live, workload)
        if get_spec(backend).cls.insert is IntervalIndex.insert:
            return  # a static backend: nothing to update
        next_id = 10_000_000
        for cut in store.index.plan.cuts:
            straddler = Interval(next_id, cut - 7, cut + 7)
            store.insert(straddler)
            live[straddler.id] = straddler
            next_id += 1
            old = next(i for i in live.values() if i.start < cut <= i.end)
            assert store.delete(old.id)
            del live[old.id]
        # one inserted straddler goes again, so deletes hit recorded copies
        assert store.delete(10_000_000)
        del live[10_000_000]
        _assert_matches_live(store, live, workload)
        store.close()

    @pytest.mark.parametrize("strategy", ["equi_width", "balanced"])
    @pytest.mark.parametrize("k", [1, 2, 4, 7])
    def test_shard_counts_and_strategies(self, synthetic_collection, k, strategy, rng):
        # a ShardedIndex at every K, K = 1 included
        store = IntervalStore(
            ShardedIndex(
                synthetic_collection,
                "hintm_opt",
                num_shards=k,
                strategy=strategy,
                num_bits=7,
            )
        )
        for query in _random_workload(synthetic_collection, rng, count=30):
            builder = store.query().overlapping(query.start, query.end)
            want = sorted(synthetic_collection.query_ids(query).tolist())
            assert sorted(builder.ids()) == want, (k, strategy, query)
            assert store.query().overlapping(query.start, query.end).count() == len(want)
            assert store.query().overlapping(query.start, query.end).exists() == bool(want)

    def test_skewed_data_balanced_strategy(self, taxis_like_collection, rng):
        store = IntervalStore.open(
            taxis_like_collection, "grid1d", num_shards=4, strategy="balanced",
            num_partitions=64,
        )
        for query in _random_workload(taxis_like_collection, rng, count=25):
            got = sorted(store.query().overlapping(query.start, query.end).ids())
            assert got == sorted(taxis_like_collection.query_ids(query).tolist())

    def test_long_intervals_duplicated_not_double_reported(self, books_like_collection, rng):
        """BOOKS-like data: many intervals span shard cuts; dedup must hold."""
        store = IntervalStore.open(books_like_collection, "interval_tree", num_shards=7)
        for query in _random_workload(books_like_collection, rng, count=20):
            ids = store.query().overlapping(query.start, query.end).ids()
            assert len(ids) == len(set(ids))  # no duplicate reports
            assert sorted(ids) == sorted(books_like_collection.query_ids(query).tolist())

    def test_batch_matches_unsharded(self, synthetic_collection, synthetic_queries):
        plain = IntervalStore.open(synthetic_collection, "hintm_opt", num_bits=8)
        sharded = IntervalStore.open(
            synthetic_collection, "hintm_opt", num_shards=4, num_bits=8
        )
        expected = plain.run_batch(synthetic_queries)
        got = sharded.run_batch(synthetic_queries)
        assert [sorted(ids) for ids in got.ids] == [sorted(ids) for ids in expected.ids]
        assert got.counts == expected.counts


class TestPooledExecution:
    def test_store_close_and_context_manager(self, synthetic_collection):
        with IntervalStore.open(
            synthetic_collection, "naive", num_shards=2, executor="processes", workers=2
        ) as store:
            store.run_batch([Query(0, 10**6)])
        assert store.index.executor._pool is None  # closed on exit
        # at K = 1 a pool still means a (one-shard) sharded index, which
        # owns the pool it resolved
        with IntervalStore.open(
            synthetic_collection, "naive", executor="processes", workers=2
        ) as plain:
            assert isinstance(plain.index, ShardedIndex) and plain.index.num_shards == 1
            plain.run_batch([Query(0, 10**6), Query(5, 50)])
            assert plain.index.executor._pool is not None
        assert plain.index.executor._pool is None

    def test_executor_shared_for_build_and_query(self, synthetic_collection):
        with ProcessExecutor(2) as executor:
            index = ShardedIndex(
                synthetic_collection, "grid1d", num_shards=4, executor=executor,
                num_partitions=32,
            )
            assert index.executor is executor
            lo, hi = synthetic_collection.span()
            got = sorted(index.query(Query(lo, hi)))
            assert got == sorted(synthetic_collection.ids.tolist())


class TestShardedResultSet:
    def test_builder_returns_the_one_lazy_handle(
        self, synthetic_collection, forbid_shard_probes
    ):
        store = IntervalStore.open(synthetic_collection, "hintm_opt", num_shards=4, num_bits=7)
        lo, hi = synthetic_collection.span()
        results = store.query().overlapping(lo, hi).build()
        assert type(results) is ResultSet
        assert repr(results).endswith("lazy)")
        forbid_shard_probes(store.index)  # no id list built, no shard probed
        assert results.count() == len(synthetic_collection)

    def test_single_shard_count_reads_the_count_pair(
        self, synthetic_collection, forbid_shard_probes
    ):
        """A query inside one shard counts off the same pair as a query
        spanning several: the shard's own count path is never taken."""
        store = IntervalStore.open(synthetic_collection, "hintm_opt", num_shards=4, num_bits=7)
        point = int(store.index.plan.cuts[0]) + 1
        assert store.index.plan.shard_range(point, point) == (1, 1)
        want = len(synthetic_collection.query_ids(Query.stabbing(point)))
        forbid_shard_probes(store.index)
        assert store.query().stabbing(point).count() == want
        assert store.query().stabbing(point).exists() == (want > 0)

    @pytest.mark.parametrize("num_shards", [1, 2])
    @pytest.mark.parametrize("backend", available_backends())
    def test_store_open_refuses_a_repeated_id(self, backend, num_shards):
        """The backends disagree on a repeated id (some answer both rows,
        some the last), so the store refuses it up front, naming it."""
        collection = IntervalCollection(
            np.array([1, 1, 2, 3]), np.array([0, 50, 10, 70]), np.array([5, 60, 20, 90])
        )
        with pytest.raises(InvalidIntervalError, match="id 1 appears on more than one row"):
            IntervalStore.open(collection, backend, num_shards=num_shards)

    def test_repeated_id_build_counts_what_it_answers(self):
        """A build that repeats an id keeps the last row in the shards and
        in the count pair alike, so every count equals its id answer."""
        collection = IntervalCollection(
            np.array([1, 1, 2, 3]), np.array([0, 50, 10, 70]), np.array([5, 60, 20, 90])
        )
        # IntervalStore.open refuses the repeated id; the index built
        # directly keeps the last row
        store = IntervalStore(ShardedIndex(collection, backend="hintm_opt", num_shards=2))
        assert store.index.num_shards == 2 and len(store) == 3
        assert sorted(store.query().overlapping(0, 100).ids().tolist()) == [1, 2, 3]
        assert store.query().overlapping(0, 5).ids().tolist() == []  # the dropped row
        for start in range(-5, 100, 5):
            for end in range(start, 100, 5):
                results = store.query().overlapping(start, end)
                assert results.count() == len(results.ids()), (start, end)

    def test_limit_applies_after_merge(self, synthetic_collection):
        store = IntervalStore.open(synthetic_collection, "hintm_opt", num_shards=4, num_bits=7)
        lo, hi = synthetic_collection.span()
        ids = store.query().overlapping(lo, hi).limit(5).ids()
        assert len(ids) == len(set(ids)) == 5
        assert store.query().overlapping(lo, hi).limit(5).count() == 5

    def test_relation_refinement_across_shards(self, synthetic_collection):
        store = IntervalStore.open(synthetic_collection, "hintm", num_shards=4, num_bits=7)
        lo, hi = synthetic_collection.span()
        mid = (lo + hi) // 2
        query = Query(mid - 500, mid + 500)
        got = sorted(
            store.query()
            .overlapping(query.start, query.end)
            .relation(AllenRelation.DURING)
            .ids()
        )
        plain = IntervalStore.open(synthetic_collection, "hintm", num_bits=7)
        want = sorted(
            plain.query()
            .overlapping(query.start, query.end)
            .relation(AllenRelation.DURING)
            .ids()
        )
        assert got == want

    @pytest.mark.parametrize("relation", [AllenRelation.BEFORE, AllenRelation.AFTER])
    def test_non_overlap_relations_probe_all_shards(self, synthetic_collection, relation):
        """BEFORE/AFTER answers live in shards the query range never touches."""
        store = IntervalStore.open(synthetic_collection, "naive", num_shards=4)
        plain = IntervalStore.open(synthetic_collection, "naive")
        lo, hi = synthetic_collection.span()
        # a query pinned inside the last shard (BEFORE results are elsewhere)
        query = Query(hi - 100, hi - 50)
        got = sorted(
            store.query().overlapping(query.start, query.end).relation(relation).ids()
        )
        want = sorted(
            plain.query().overlapping(query.start, query.end).relation(relation).ids()
        )
        assert got == want
        assert store.query().overlapping(query.start, query.end).relation(relation).count() == len(want)

    def test_exists_probes_past_an_empty_first_shard(self):
        pairs = [(0, 1)] + [(start, start + 5) for start in range(5_000, 10_000, 10)]
        store = IntervalStore.open(
            IntervalCollection.from_pairs(pairs), "hintm_opt", num_shards=2
        )
        query = Query(10, 6_000)
        first, last = store.index.plan.shard_range(query.start, query.end)
        assert (first, last) == (0, 1)
        assert store.query().overlapping(10, 4_000).count() == 0  # shard 0's part
        assert store.query().overlapping(query.start, query.end).exists()
        assert store.query().overlapping(query.start, query.end).count() == 101

    def test_exists_short_circuits_lazily(self, synthetic_collection):
        store = IntervalStore.open(synthetic_collection, "hintm_opt", num_shards=4, num_bits=7)
        lo, hi = synthetic_collection.span()
        results = store.query().overlapping(lo, hi).build()
        assert results.exists()
        assert results._ids is None  # still lazy: no id list was materialised


class TestShardRoutedUpdates:
    def test_insert_routes_to_owning_shard_delta(self, synthetic_collection):
        store = IntervalStore.open(
            synthetic_collection, "hintm_hybrid", num_shards=4, num_bits=7
        )
        cuts = store.index.plan.cuts
        inside_shard_2 = (cuts[1] + cuts[2]) // 2
        new = Interval(10_000_000, inside_shard_2, inside_shard_2 + 3)
        before = len(store)
        store.insert(new)
        assert len(store) == before + 1
        # only shard 2's delta got the interval
        deltas = [shard.delta_size for shard in store.index.shards]
        assert deltas[2] == 1 and sum(deltas) == 1
        assert 10_000_000 in store.query().stabbing(inside_shard_2 + 1).ids()

    def test_boundary_spanning_insert_lands_in_both_shards(self, synthetic_collection):
        store = IntervalStore.open(
            synthetic_collection, "hintm_hybrid", num_shards=4, num_bits=7
        )
        cut = store.index.plan.cuts[0]
        spanning = Interval(10_000_001, cut - 5, cut + 5)
        store.insert(spanning)
        deltas = [shard.delta_size for shard in store.index.shards]
        assert deltas[0] == 1 and deltas[1] == 1
        # reported once despite two copies
        ids = store.query().overlapping(cut - 2, cut + 2).ids()
        assert ids.tolist().count(10_000_001) == 1

    def test_delete_tombstones_every_copy(self, synthetic_collection):
        store = IntervalStore.open(
            synthetic_collection, "hintm_hybrid", num_shards=4, num_bits=7
        )
        cut = store.index.plan.cuts[1]
        spanning = Interval(10_000_002, cut - 5, cut + 5)
        store.insert(spanning)
        before = len(store)
        assert store.delete(10_000_002)
        assert len(store) == before - 1
        assert 10_000_002 not in store.query().overlapping(cut - 5, cut + 5).ids()
        assert not store.delete(10_000_002)  # already gone

    def test_delete_preexisting_interval(self, synthetic_collection):
        store = IntervalStore.open(
            synthetic_collection, "hintm_hybrid", num_shards=4, num_bits=7
        )
        victim = synthetic_collection[0]
        assert store.delete(victim.id)
        assert victim.id not in store.query().overlapping(victim.start, victim.end).ids()

    def test_mixed_workload_matches_oracle(self, synthetic_collection, rng):
        """Interleaved inserts/deletes/queries stay equivalent to a live oracle."""
        store = IntervalStore.open(
            synthetic_collection, "hintm_hybrid", num_shards=4, num_bits=7
        )
        live = {s.id: s for s in synthetic_collection}
        lo, hi = synthetic_collection.span()
        next_id = 10_000_100
        for step in range(60):
            action = rng.integers(0, 3)
            if action == 0:
                start = int(rng.integers(lo, hi))
                new = Interval(next_id, start, start + int(rng.integers(0, 2000)))
                store.insert(new)
                live[new.id] = new
                next_id += 1
            elif action == 1 and live:
                victim = list(live)[int(rng.integers(0, len(live)))]
                assert store.delete(victim)
                del live[victim]
            else:
                start = int(rng.integers(lo, hi))
                q = Query(start, start + int(rng.integers(0, 5000)))
                got = sorted(store.query().overlapping(q.start, q.end).ids())
                want = sorted(s.id for s in live.values() if s.overlaps(q))
                assert got == want, (step, q)


class TestShardFailureIsolation:
    """A shard is one index: a raising probe fails that call, nothing else."""

    @pytest.mark.parametrize(
        "error",
        [ValueError, InvalidQueryError],
        ids=["poison-ValueError", "semantic-InvalidQueryError"],
    )
    def test_raising_query_fails_only_that_call(
        self, synthetic_collection, monkeypatch, error
    ):
        index = ShardedIndex(synthetic_collection, backend="naive", num_shards=2)
        cut = index.plan.cuts[0]
        poison = Query(cut + 10, cut + 20)  # confined to shard 1
        shard = index.shards[1]
        original = shard.query

        def query(q):
            if q == poison:
                raise error("injected")
            return original(q)

        monkeypatch.setattr(shard, "query", query)
        with pytest.raises(error, match="injected"):
            index.query(poison)
        # the same shard keeps answering every other query, oracle-equal
        neighbour = Query(cut + 10, cut + 21)
        assert index.plan.shard_range(neighbour.start, neighbour.end) == (1, 1)
        assert sorted(index.query(neighbour)) == sorted(
            synthetic_collection.query_ids(neighbour).tolist()
        )
        spanning = Query(cut - 50, cut + 50)
        assert sorted(index.query(spanning)) == sorted(
            synthetic_collection.query_ids(spanning).tolist()
        )
        assert index.recent_failures() == []  # pool-level records only


class TestResultGeneration:
    def test_result_generation_moves_on_updates_and_epochs(self, synthetic_collection):
        store = IntervalStore.open(
            synthetic_collection, "hintm_hybrid", num_shards=2, num_bits=7
        )
        before = store.result_generation()
        store.insert(Interval(10_000_200, 10, 20))
        after_insert = store.result_generation()
        assert after_insert > before
        store.delete(10_000_200)
        after_delete = store.result_generation()
        assert after_delete > after_insert
        if store.index.repartition(strategy="balanced"):
            assert store.result_generation() > after_delete
        store.close()

    def test_plain_store_generation_tracks_store_updates(self):
        store = IntervalStore.from_pairs([(1, 5), (3, 9)], backend="hintm_hybrid")
        before = store.result_generation()
        store.insert(Interval(7, 2, 4))
        assert store.result_generation() == before + 1
        assert store.delete(7)
        assert store.result_generation() == before + 2
        assert not store.delete(12345)  # a miss does not move the generation
        assert store.result_generation() == before + 2


class TestShardedStatsAndMemory:
    def test_query_stats_merge_across_shards(self, synthetic_collection):
        store = IntervalStore.open(synthetic_collection, "hintm_opt", num_shards=4, num_bits=7)
        lo, hi = synthetic_collection.span()
        stats = store.query().overlapping(lo, hi).stats()
        assert stats.results == len(synthetic_collection)
        per_shard = [
            shard.query_with_stats(Query(lo, hi))[1] for shard in store.index.shards
        ]
        assert stats.comparisons == sum(s.comparisons for s in per_shard)
        assert stats.partitions_accessed == sum(s.partitions_accessed for s in per_shard)

    def test_query_stats_merge_and_add(self):
        a = QueryStats(results=2, comparisons=5, candidates=3)
        b = QueryStats(results=1, comparisons=2, candidates=4)
        total = a + b
        assert (total.results, total.comparisons, total.candidates) == (3, 7, 7)
        # __add__ does not mutate its operands
        assert a.comparisons == 5 and b.comparisons == 2
        a += b
        assert a.comparisons == 7
        assert sum([QueryStats(results=1), QueryStats(results=2)]).results == 3

    def test_memory_counted_once_via_memo(self, synthetic_collection):
        """One walk shares one seen-set: the shards and the bookkeeping are
        each counted once, beside under 16 KiB of the facade's own state."""
        index = create_index("sharded", synthetic_collection, backend="hintm_opt",
                             num_shards=4, num_bits=7)
        total = index.memory_bytes()
        parts = (*index.shards, index.count_columns, index._epoch.locator)
        assert 0 < total - _deep_sizeof(parts) < 16 * 1024
        # walking the parts (or the index) a second time adds only headers
        assert _deep_sizeof((index, parts)) - total < 1024
        assert _deep_sizeof((index, index)) - total < 1024

    def test_shared_buffers_counted_once(self, synthetic_collection):
        """Buffers aliased across sub-indexes are counted once per walk."""
        first = create_index("naive", synthetic_collection)
        second = create_index("naive", synthetic_collection)
        # alias the data columns (as a composite sharing one source would)
        second._ids, second._starts, second._ends = (
            first._ids, first._starts, first._ends,
        )
        alone = first.memory_bytes()
        grown = _deep_sizeof((first, second)) - alone
        # only the second index's private liveness mask adds bytes, plus headers
        assert 0 <= grown - second._live.nbytes < 1024
        # walked apart, each index counts the aliased buffers
        assert first.memory_bytes() + second.memory_bytes() == 2 * alone

    def test_hybrid_memory_uses_shared_memo(self, synthetic_collection):
        hybrid = create_index("hintm_hybrid", synthetic_collection, num_bits=7)
        main, delta = hybrid._components
        total = hybrid.memory_bytes()
        assert total >= main.memory_bytes() > 0
        # what the components share is counted once: the hybrid is no more
        # than its two components plus under 1 KiB of its own headers
        assert total - (main.memory_bytes() + delta.memory_bytes()) < 1024
        assert _deep_sizeof((hybrid, main, delta)) - total < 1024


class TestShardedRegistryIntegration:
    def test_sharded_registered_as_composite(self):
        spec = get_spec("sharded")
        assert spec.composite
        assert "sharded" in available_backends()

    def test_create_index_builds_sharded(self, synthetic_collection):
        index = create_index("sharded", synthetic_collection, num_shards=3)
        assert isinstance(index, ShardedIndex)
        assert index.num_shards == 3
        assert index.backend == "hintm_opt"  # default inner backend, auto-tuned

    def test_sharded_cannot_nest(self, synthetic_collection):
        with pytest.raises(ValueError):
            ShardedIndex(synthetic_collection, backend="sharded", num_shards=2)

    def test_store_open_wraps_a_sharded_index(self, synthetic_collection):
        store = IntervalStore.open(synthetic_collection, num_shards=4)
        assert type(store) is IntervalStore
        assert isinstance(store.index, ShardedIndex)
        assert store.backend == "sharded"
        assert store.index.num_shards == 4
        assert store.index.backend == "hintm_opt"
        # no pool was asked for: every shard is built and answers in-process
        assert store.index.executor is None
        plain = IntervalStore.open(synthetic_collection, num_shards=1)
        assert not isinstance(plain.index, ShardedIndex)

    @pytest.mark.parametrize("num_shards", [0, -3])
    def test_store_open_rejects_fewer_than_one_shard(
        self, synthetic_collection, num_shards
    ):
        with pytest.raises(InvalidQueryError, match="num_shards must be >= 1"):
            IntervalStore.open(synthetic_collection, num_shards=num_shards)

    def test_k1_is_degenerate_single_index(self, synthetic_collection, rng):
        """K=1 sharded == the plain unsharded store, query for query."""
        sharded = IntervalStore(
            ShardedIndex(synthetic_collection, "hintm_opt", num_shards=1, num_bits=7)
        )
        assert sharded.index.num_shards == 1
        plain = IntervalStore.open(synthetic_collection, "hintm_opt", num_bits=7)
        for query in _random_workload(synthetic_collection, rng, count=15):
            assert sorted(sharded.query().overlapping(query.start, query.end).ids()) == sorted(
                plain.query().overlapping(query.start, query.end).ids()
            )

    def test_in_process_install_drops_the_source(self, synthetic_collection):
        # every shard is built at install, so nothing can lazily build;
        # pinning the build collection for the index's lifetime would be
        # dead memory
        index = ShardedIndex(synthetic_collection, num_shards=4)
        assert index._epoch.source is None
        assert all(shard is not None for shard in index.built_shards)
        index.close()

    @pytest.mark.parametrize("num_shards", [1, 2])
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_unknown_option_raises_on_every_backend(
        self, synthetic_collection, backend, num_shards
    ):
        # a removed or misspelt option must fail loudly, never be swallowed
        # by a lenient build signature
        with pytest.raises(TypeError, match="bogus_knob"):
            IntervalStore.open(
                synthetic_collection, backend, num_shards=num_shards, bogus_knob=2
            )

    def test_empty_collection(self):
        store = IntervalStore.open(IntervalCollection.empty(), "hintm_opt", num_shards=4)
        assert len(store) == 0
        assert store.query().overlapping(0, 100).ids().tolist() == []
        assert store.query().stabbing(5).count() == 0
