"""Sharded-vs-unsharded equivalence and the sharded execution facade.

The central property: a :class:`ShardedStore` is an *execution* detail --
for every registered backend, every shard count and both partitioning
strategies, it must answer exactly like the unsharded store (whose oracle is
the naive scan)."""

import numpy as np
import pytest

from repro.core.allen import AllenRelation
from repro.core.base import QueryStats
from repro.core.errors import InvalidQueryError
from repro.core.interval import Interval, IntervalCollection, Query
from repro.engine import (
    IntervalStore,
    MergedResultSet,
    ProcessExecutor,
    ShardedIndex,
    ShardedStore,
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


class TestShardedEquivalence:
    """Property-style: ShardedStore == naive oracle, for every backend/K/strategy."""

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_every_backend_matches_oracle_at_k4(self, synthetic_collection, backend, rng):
        kwargs = dict(SMALL_KWARGS.get(backend, {}))
        store = ShardedStore.open(
            synthetic_collection, backend, num_shards=4, **kwargs
        )
        for query in _random_workload(synthetic_collection, rng, count=25, within_span=True):
            got = sorted(store.query().overlapping(query.start, query.end).ids())
            want = sorted(synthetic_collection.query_ids(query).tolist())
            assert got == want, (backend, query)

    @pytest.mark.parametrize("strategy", ["equi_width", "balanced"])
    @pytest.mark.parametrize("k", [1, 2, 4, 7])
    def test_shard_counts_and_strategies(self, synthetic_collection, k, strategy, rng):
        store = ShardedStore.open(
            synthetic_collection,
            "hintm_opt",
            num_shards=k,
            strategy=strategy,
            num_bits=7,
        )
        for query in _random_workload(synthetic_collection, rng, count=30):
            builder = store.query().overlapping(query.start, query.end)
            want = sorted(synthetic_collection.query_ids(query).tolist())
            assert sorted(builder.ids()) == want, (k, strategy, query)
            assert store.query().overlapping(query.start, query.end).count() == len(want)
            assert store.query().overlapping(query.start, query.end).exists() == bool(want)

    def test_skewed_data_balanced_strategy(self, taxis_like_collection, rng):
        store = ShardedStore.open(
            taxis_like_collection, "grid1d", num_shards=4, strategy="balanced",
            num_partitions=64,
        )
        for query in _random_workload(taxis_like_collection, rng, count=25):
            got = sorted(store.query().overlapping(query.start, query.end).ids())
            assert got == sorted(taxis_like_collection.query_ids(query).tolist())

    def test_long_intervals_duplicated_not_double_reported(self, books_like_collection, rng):
        """BOOKS-like data: many intervals span shard cuts; dedup must hold."""
        store = ShardedStore.open(books_like_collection, "interval_tree", num_shards=7)
        for query in _random_workload(books_like_collection, rng, count=20):
            ids = store.query().overlapping(query.start, query.end).ids()
            assert len(ids) == len(set(ids))  # no duplicate reports
            assert sorted(ids) == sorted(books_like_collection.query_ids(query).tolist())

    def test_batch_matches_unsharded(self, synthetic_collection, synthetic_queries):
        plain = IntervalStore.open(synthetic_collection, "hintm_opt", num_bits=8)
        sharded = ShardedStore.open(
            synthetic_collection, "hintm_opt", num_shards=4, num_bits=8
        )
        expected = plain.run_batch(synthetic_queries)
        got = sharded.run_batch(synthetic_queries)
        assert [sorted(ids) for ids in got.ids] == [sorted(ids) for ids in expected.ids]
        assert got.counts == expected.counts


class TestPooledExecution:
    def test_store_close_and_context_manager(self, synthetic_collection):
        with ShardedStore.open(
            synthetic_collection, "naive", num_shards=2, executor="processes", workers=2
        ) as store:
            store.run_batch([Query(0, 10**6)])
        assert store.index.executor._pool is None  # closed on exit
        with IntervalStore.open(
            synthetic_collection, "naive", executor="processes", workers=2
        ) as plain:
            plain.run_batch([Query(0, 10**6), Query(5, 50)])
        assert plain.executor._pool is None

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


class TestMergedResultSet:
    def test_builder_returns_merged_lazy_handle(self, synthetic_collection):
        store = ShardedStore.open(synthetic_collection, "hintm_opt", num_shards=4, num_bits=7)
        lo, hi = synthetic_collection.span()
        results = store.query().overlapping(lo, hi).build()
        assert isinstance(results, MergedResultSet)
        assert len(results.children) == store.num_shards  # all shards overlap
        assert repr(results).endswith("lazy)")
        assert results.count() == len(synthetic_collection)

    def test_single_shard_query_has_one_child(self, synthetic_collection):
        store = ShardedStore.open(synthetic_collection, "hintm_opt", num_shards=4, num_bits=7)
        point = int(store.plan.cuts[0]) + 1
        results = store.query().stabbing(point).build()
        assert len(results.children) == 1

    def test_limit_applies_after_merge(self, synthetic_collection):
        store = ShardedStore.open(synthetic_collection, "hintm_opt", num_shards=4, num_bits=7)
        lo, hi = synthetic_collection.span()
        ids = store.query().overlapping(lo, hi).limit(5).ids()
        assert len(ids) == len(set(ids)) == 5
        assert store.query().overlapping(lo, hi).limit(5).count() == 5

    def test_relation_refinement_across_shards(self, synthetic_collection):
        store = ShardedStore.open(synthetic_collection, "hintm", num_shards=4, num_bits=7)
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
        store = ShardedStore.open(synthetic_collection, "naive", num_shards=4)
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

    def test_exists_short_circuits_lazily(self, synthetic_collection):
        store = ShardedStore.open(synthetic_collection, "hintm_opt", num_shards=4, num_bits=7)
        lo, hi = synthetic_collection.span()
        results = store.query().overlapping(lo, hi).build()
        assert results.exists()
        assert results._ids is None  # still lazy: no id list was materialised


class TestShardRoutedUpdates:
    def test_insert_routes_to_owning_shard_delta(self, synthetic_collection):
        store = ShardedStore.open(
            synthetic_collection, "hintm_hybrid", num_shards=4, num_bits=7
        )
        cuts = store.plan.cuts
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
        store = ShardedStore.open(
            synthetic_collection, "hintm_hybrid", num_shards=4, num_bits=7
        )
        cut = store.plan.cuts[0]
        spanning = Interval(10_000_001, cut - 5, cut + 5)
        store.insert(spanning)
        deltas = [shard.delta_size for shard in store.index.shards]
        assert deltas[0] == 1 and deltas[1] == 1
        # reported once despite two copies
        ids = store.query().overlapping(cut - 2, cut + 2).ids()
        assert ids.tolist().count(10_000_001) == 1

    def test_delete_tombstones_every_copy(self, synthetic_collection):
        store = ShardedStore.open(
            synthetic_collection, "hintm_hybrid", num_shards=4, num_bits=7
        )
        cut = store.plan.cuts[1]
        spanning = Interval(10_000_002, cut - 5, cut + 5)
        store.insert(spanning)
        before = len(store)
        assert store.delete(10_000_002)
        assert len(store) == before - 1
        assert 10_000_002 not in store.query().overlapping(cut - 5, cut + 5).ids()
        assert not store.delete(10_000_002)  # already gone

    def test_delete_preexisting_interval(self, synthetic_collection):
        store = ShardedStore.open(
            synthetic_collection, "hintm_hybrid", num_shards=4, num_bits=7
        )
        victim = synthetic_collection[0]
        assert store.delete(victim.id)
        assert victim.id not in store.query().overlapping(victim.start, victim.end).ids()

    def test_mixed_workload_matches_oracle(self, synthetic_collection, rng):
        """Interleaved inserts/deletes/queries stay equivalent to a live oracle."""
        store = ShardedStore.open(
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
        store = ShardedStore.open(synthetic_collection, "hintm_opt", num_shards=4, num_bits=7)
        lo, hi = synthetic_collection.span()
        stats = store.query().overlapping(lo, hi).stats()
        assert stats.results == len(synthetic_collection)
        per_shard = [
            shard.query_with_stats(Query(lo, hi))[1] for shard in store.index.shards
        ]
        assert stats.comparisons == sum(s.comparisons for s in per_shard)
        assert stats.partitions_accessed == sum(s.partitions_accessed for s in per_shard)

    def test_query_stats_merge_and_add(self):
        a = QueryStats(results=2, comparisons=5, candidates=3, extra={"x": 1.0})
        b = QueryStats(results=1, comparisons=2, candidates=4, extra={"x": 0.5, "y": 2.0})
        total = a + b
        assert (total.results, total.comparisons, total.candidates) == (3, 7, 7)
        assert total.extra == {"x": 1.5, "y": 2.0}
        # __add__ does not mutate its operands
        assert a.comparisons == 5 and b.comparisons == 2
        a += b
        assert a.comparisons == 7
        assert sum([QueryStats(results=1), QueryStats(results=2)]).results == 3

    def test_memory_counted_once_via_memo(self, synthetic_collection):
        index = create_index("sharded", synthetic_collection, backend="hintm_opt",
                             num_shards=4, num_bits=7)
        total = index.memory_bytes()
        assert total > 0
        bookkeeping = index.ingest_journal.nbytes + index._epoch.locator.nbytes
        assert total == sum(s.memory_bytes() for s in index.shards) + bookkeeping
        memo: set = set()
        assert index.memory_bytes(memo) == total
        # everything is already in the memo: a second pass adds nothing
        assert index.memory_bytes(memo) == 0
        assert index.shards[0].memory_bytes(memo) == 0

    def test_shared_buffers_counted_once(self, synthetic_collection):
        """Buffers aliased across sub-indexes are counted once via the memo."""
        first = create_index("naive", synthetic_collection)
        second = create_index("naive", synthetic_collection)
        # alias the data columns (as a composite sharing one source would)
        second._ids, second._starts, second._ends = (
            first._ids, first._starts, first._ends,
        )
        alone = first.memory_bytes()
        memo: set = set()
        combined = first.memory_bytes(memo) + second.memory_bytes(memo)
        # only the second index's private liveness mask adds bytes
        assert combined == alone + second._live.nbytes
        # without a memo, the aliased buffers are double-counted
        assert first.memory_bytes() + second.memory_bytes() == 2 * alone

    def test_hybrid_memory_uses_shared_memo(self, synthetic_collection):
        hybrid = create_index("hintm_hybrid", synthetic_collection, num_bits=7)
        assert hybrid.memory_bytes() > 0
        memo: set = set()
        assert hybrid.memory_bytes(memo) > 0
        assert hybrid.memory_bytes(memo) == 0


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

    def test_store_open_delegates_to_sharded(self, synthetic_collection):
        store = IntervalStore.open(synthetic_collection, num_shards=4)
        assert isinstance(store, ShardedStore)
        assert store.num_shards == 4
        assert store.shard_backend == "hintm_opt"
        plain = IntervalStore.open(synthetic_collection, num_shards=1)
        assert not isinstance(plain, ShardedStore)

    def test_k1_is_degenerate_single_index(self, synthetic_collection, rng):
        """K=1 sharded == the plain unsharded store, query for query."""
        sharded = ShardedStore.open(synthetic_collection, "hintm_opt", num_shards=1, num_bits=7)
        assert sharded.num_shards == 1
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
        store = ShardedStore.open(IntervalCollection.empty(), "hintm_opt", num_shards=4)
        assert len(store) == 0
        assert store.query().overlapping(0, 100).ids().tolist() == []
        assert store.query().stabbing(5).count() == 0
