"""Process-parallel sharded execution: equivalence, transport and lifecycle.

Covers the satellite matrix of the process-executor PR:

* sharded-vs-oracle equivalence under the :class:`ProcessExecutor` across
  every registered backend and K in {1, 2, 4, 7} (and both start methods);
* sharded ``query_count`` -- two bisections over the one count pair --
  against the dedup oracle on duplication-heavy (long-interval)
  collections, including after inserts and deletes;
* pickle and shared-memory round-trips of the core value types;
* executor lifecycle: pools the store created are closed with it, pools the
  caller passed in are not (at K = 1 too), and deletes probe only the
  owning shards.
"""

import multiprocessing
import pickle

import numpy as np
import pytest

from repro.core.interval import (
    HAS_SHARED_MEMORY,
    Interval,
    IntervalCollection,
    Query,
    SharedCollectionBuffer,
    attach_shared_collection,
)
from repro.engine import (
    IntervalStore,
    ProcessExecutor,
    ShardedIndex,
    available_backends,
    get_spec,
)

#: every non-composite backend takes part in the equivalence sweep
ALL_BACKENDS = [name for name in available_backends() if not get_spec(name).composite]

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


@pytest.fixture(scope="module")
def pool():
    """One process pool shared by the whole module (worker-resident caches)."""
    executor = ProcessExecutor(2)
    yield executor
    executor.close()


def _workload(collection, rng, count=20):
    lo, hi = collection.span()
    queries = []
    for _ in range(count):
        start = int(rng.integers(lo - 20, hi + 20))
        queries.append(Query(start, start + int(rng.integers(0, max((hi - lo) // 3, 1)))))
    return queries


class TestProcessShardedEquivalence:
    """A sharded store under the process executor == the brute-force oracle."""

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_every_backend_matches_oracle_at_k4(self, synthetic_collection, backend, rng, pool):
        kwargs = dict(SMALL_KWARGS.get(backend, {}))
        store = IntervalStore.open(
            synthetic_collection, backend, num_shards=4, executor=pool, **kwargs
        )
        lo, hi = synthetic_collection.span()
        queries = [
            Query(int(s), min(int(s) + int(e), hi))
            for s, e in zip(
                rng.integers(lo, hi, size=15), rng.integers(0, (hi - lo) // 3, size=15)
            )
        ]
        batch = store.run_batch(queries)
        for query, ids in zip(queries, batch.ids):
            want = sorted(synthetic_collection.query_ids(query).tolist())
            assert sorted(ids) == want, (backend, query)

    @pytest.mark.parametrize("k", [1, 2, 4, 7])
    def test_shard_counts(self, synthetic_collection, k, rng, pool):
        # a ShardedIndex at every K, K = 1 included
        store = IntervalStore(
            ShardedIndex(
                synthetic_collection, "hintm_opt", num_shards=k, executor=pool, num_bits=7
            )
        )
        queries = _workload(synthetic_collection, rng, count=25)
        batch = store.run_batch(queries)
        for query, ids in zip(queries, batch.ids):
            assert sorted(ids) == sorted(synthetic_collection.query_ids(query).tolist()), (
                k,
                query,
            )

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_start_methods(self, synthetic_collection, rng, method):
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"start method {method!r} unavailable")
        with ProcessExecutor(2, start_method=method) as executor:
            assert executor.start_method == method
            with IntervalStore.open(
                synthetic_collection, "naive", num_shards=4, executor=executor
            ) as store:
                queries = _workload(synthetic_collection, rng, count=10)
                batch = store.run_batch(queries)
                for query, ids in zip(queries, batch.ids):
                    assert sorted(ids) == sorted(
                        synthetic_collection.query_ids(query).tolist()
                    )

    def test_batch_is_deterministic_across_runs(self, synthetic_collection, rng, pool):
        store = IntervalStore.open(
            synthetic_collection, "naive", num_shards=4, executor=pool
        )
        queries = _workload(synthetic_collection, rng, count=15)
        first = [sorted(ids) for ids in store.run_batch(queries).ids]
        second = [sorted(ids) for ids in store.run_batch(queries).ids]
        assert first == second

    def test_updates_invalidate_the_worker_snapshot(self, synthetic_collection, rng, pool):
        """After an insert the process snapshot is stale; batches must still be right."""
        store = IntervalStore.open(
            synthetic_collection, "hintm_hybrid", num_shards=4, executor=pool, num_bits=7
        )
        lo, hi = synthetic_collection.span()
        mid = (lo + hi) // 2
        queries = _workload(synthetic_collection, rng, count=8)
        store.run_batch(queries)  # warm the worker-resident shards
        new = Interval(9_999_999, mid - 50, mid + 50)
        store.insert(new)
        batch = store.run_batch([Query(mid - 10, mid + 10)] + queries)
        assert 9_999_999 in batch.ids[0]
        live = {s.id: s for s in synthetic_collection}
        live[new.id] = new
        for query, ids in zip([Query(mid - 10, mid + 10)] + queries, batch.ids):
            want = sorted(s.id for s in live.values() if s.overlaps(query))
            assert sorted(ids) == want

    def test_insert_into_unbuilt_parent_shard_builds_before_applying(
        self, synthetic_collection, pool
    ):
        """Parent shards stay lazy under a process executor; an update must
        build the shard it touches from the epoch source *first*, or the
        late build would either miss the insert or lose the old rows."""
        index = ShardedIndex(
            synthetic_collection, backend="hintm_hybrid", num_shards=4,
            executor=pool, num_bits=7,
        )
        try:
            assert index.built_shards == [None] * 4
            cuts = index.plan.cuts
            inside_shard_2 = (cuts[1] + cuts[2]) // 2
            index.insert(Interval(9_999_998, inside_shard_2, inside_shard_2 + 3))
            # only the touched shard was built in the parent
            assert [s is not None for s in index.built_shards] == [
                False, False, True, False,
            ]
            query = Query(inside_shard_2 - 200, inside_shard_2 + 200)
            assert index.plan.shard_range(query.start, query.end) == (2, 2)
            want = sorted(synthetic_collection.query_ids(query).tolist() + [9_999_998])
            assert len(want) > 1, "the probe must also cover pre-existing rows"
            assert sorted(index.query(query)) == want
            assert index.query_count(query) == len(want)
        finally:
            index.close()

    def test_unsharded_store_accepts_processes(self, synthetic_collection, rng):
        """K = 1 with a pool is a one-shard index over worker-resident
        shards, never an index shipped to the pool."""
        with IntervalStore.open(
            synthetic_collection, "naive", executor="processes", workers=2
        ) as store:
            assert isinstance(store.index, ShardedIndex) and store.index.num_shards == 1
            assert isinstance(store.index.executor, ProcessExecutor)
            queries = _workload(synthetic_collection, rng, count=8)
            batch = store.run_batch(queries)
            for query, ids in zip(queries, batch.ids):
                assert sorted(ids) == sorted(
                    synthetic_collection.query_ids(query).tolist()
                )


class TestLadderProcessRung:
    """The exact calls of the benchmark ladder's process rung (R3): a CSV
    loaded from disk, a 2-shard store over a 2-worker pool, chunked
    ``run_batch`` / ``count_batch`` and the ``kernel_retries`` read."""

    @pytest.mark.parametrize("backend", ["hintm_opt", "hintm_hybrid"])
    def test_rung_calls_answer_as_naive(self, synthetic_collection, rng, tmp_path, backend):
        from repro.datasets import load_intervals_csv, save_intervals_csv

        csv = tmp_path / "data.csv"
        save_intervals_csv(synthetic_collection, csv)
        queries = _workload(synthetic_collection, rng, count=40)
        oracle = IntervalStore.open(load_intervals_csv(csv), "naive")
        store = IntervalStore.open(
            load_intervals_csv(csv), backend,
            num_shards=2, executor="processes", workers=2,
        )
        try:
            for lo in range(0, len(queries), 16):
                part = queries[lo:lo + 16]
                got = store.run_batch(part).ids
                want = oracle.run_batch(part).ids
                assert [sorted(ids.tolist()) for ids in got] == [
                    sorted(ids.tolist()) for ids in want
                ]
                assert [int(c) for c in store.count_batch(part)] == oracle.count_batch(part)
            retries = getattr(store.index, "kernel_retries")
            assert isinstance(retries, int) and retries == 0
        finally:
            store.close()


class TestShardedCounting:
    """Sharded query_count == dedup oracle, without materialising ids."""

    @pytest.mark.parametrize("k", [2, 4, 7])
    def test_duplication_heavy_counts_match_oracle(
        self, books_like_collection, k, rng, forbid_shard_probes
    ):
        """BOOKS-like data: long intervals, so most intervals span shard
        cuts; every count answers with every shard probe made to raise."""
        index = ShardedIndex(books_like_collection, backend="naive", num_shards=k)
        queries = _workload(books_like_collection, rng, count=30)
        oracle = [len(set(books_like_collection.query_ids(q).tolist())) for q in queries]
        forbid_shard_probes(index)
        assert [index.query_count(q) for q in queries] == oracle, k
        assert [index.query_exists(q) for q in queries] == [c > 0 for c in oracle]

    def test_counts_never_call_query_single_or_multi_shard(
        self, books_like_collection, rng, monkeypatch
    ):
        index = ShardedIndex(books_like_collection, backend="naive", num_shards=4)
        queries = _workload(books_like_collection, rng, count=30)
        spans = [index.plan.shard_range(q.start, q.end) for q in queries]
        assert any(first < last for first, last in spans), "no multi-shard query"
        cut = int(index.plan.cuts[0])
        queries.append(Query(cut, cut + 1))  # inside shard 1 alone
        oracle = [len(set(books_like_collection.query_ids(q).tolist())) for q in queries]

        def _boom(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("a sharded query_count materialised an id list")

        monkeypatch.setattr(ShardedIndex, "query", _boom)
        for shard in index.shards:
            monkeypatch.setattr(type(shard), "query", _boom, raising=False)
        assert [index.query_count(q) for q in queries] == oracle

    def test_counts_track_inserts_and_deletes(self, synthetic_collection, rng):
        index = ShardedIndex(
            synthetic_collection, backend="hintm_hybrid", num_shards=4, num_bits=7
        )
        live = {s.id: s for s in synthetic_collection}
        lo, hi = synthetic_collection.span()
        next_id = 5_000_000
        for step in range(40):
            action = rng.integers(0, 3)
            if action == 0:
                start = int(rng.integers(lo, hi))
                new = Interval(next_id, start, start + int(rng.integers(0, (hi - lo) // 2)))
                index.insert(new)
                live[new.id] = new
                next_id += 1
            elif action == 1 and live:
                victim = list(live)[int(rng.integers(0, len(live)))]
                assert index.delete(victim)
                del live[victim]
            else:
                start = int(rng.integers(lo, hi))
                query = Query(start, start + int(rng.integers(0, (hi - lo) // 2)))
                want = sum(1 for s in live.values() if s.overlaps(query))
                assert index.query_count(query) == want, (step, query)

    def test_fluent_count_reads_the_count_pair(
        self, books_like_collection, forbid_shard_probes
    ):
        store = IntervalStore.open(books_like_collection, "naive", num_shards=4)
        lo, hi = books_like_collection.span()
        forbid_shard_probes(store.index)
        assert store.query().overlapping(lo, hi).count() == len(books_like_collection)
        assert store.query().overlapping(lo, hi).exists()

    def test_stabbing_and_boundary_counts(self, synthetic_collection):
        index = ShardedIndex(synthetic_collection, backend="grid1d", num_shards=4,
                             num_partitions=32)
        for cut in index.plan.cuts:
            for query in (
                Query.stabbing(int(cut)),
                Query(int(cut) - 1, int(cut)),
                Query(int(cut) - 5, int(cut) + 5),
            ):
                assert index.query_count(query) == len(
                    set(synthetic_collection.query_ids(query).tolist())
                ), query


class TestBoundedDeletes:
    def test_delete_probes_only_owning_shards(self, synthetic_collection):
        index = ShardedIndex(synthetic_collection, backend="naive", num_shards=4)
        probed = []
        for shard_id, shard in enumerate(index.shards):
            original = shard.delete

            def spy(interval_id, _original=original, _shard_id=shard_id):
                probed.append(_shard_id)
                return _original(interval_id)

            shard.delete = spy
        # an interval strictly inside shard 2's range: only shard 2 is probed
        cuts = index.plan.cuts
        victim = next(
            s for s in synthetic_collection if cuts[1] < s.start and s.end < cuts[2]
        )
        assert index.delete(victim.id)
        first, last = index.plan.shard_range(victim.start, victim.end)
        assert (first, last) == (2, 2)
        assert probed == [2]

    def test_unknown_id_probes_no_shard(self, synthetic_collection):
        index = ShardedIndex(synthetic_collection, backend="naive", num_shards=4)
        probed = []
        for shard in index.shards:
            shard.delete = lambda interval_id: probed.append(interval_id)
        assert index.delete(123_456_789) is False
        assert probed == []

    def test_delete_after_insert_probes_owning_shards(self, synthetic_collection):
        index = ShardedIndex(
            synthetic_collection, backend="hintm_hybrid", num_shards=4, num_bits=7
        )
        cut = index.plan.cuts[0]
        spanning = Interval(7_000_000, cut - 3, cut + 3)
        index.insert(spanning)
        assert index.delete(7_000_000)
        assert not index.delete(7_000_000)  # second delete: locator already empty


class TestPickleAndSharedMemory:
    def test_interval_and_query_round_trip(self):
        interval = Interval(7, 3, 12)
        query = Query(1, 9)
        assert pickle.loads(pickle.dumps(interval)) == interval
        assert pickle.loads(pickle.dumps(query)) == query

    def test_collection_round_trip(self, synthetic_collection):
        clone = pickle.loads(pickle.dumps(synthetic_collection))
        assert np.array_equal(clone.ids, synthetic_collection.ids)
        assert np.array_equal(clone.starts, synthetic_collection.starts)
        assert np.array_equal(clone.ends, synthetic_collection.ends)

    @pytest.mark.skipif(not HAS_SHARED_MEMORY, reason="no multiprocessing.shared_memory")
    def test_shared_memory_round_trip(self, synthetic_collection):
        buffer = SharedCollectionBuffer(synthetic_collection)
        try:
            assert np.array_equal(buffer.collection.ids, synthetic_collection.ids)
            # the handle is tiny no matter the collection size
            assert len(pickle.dumps(buffer.handle)) < 256
            attached, shm = attach_shared_collection(
                pickle.loads(pickle.dumps(buffer.handle))
            )
            try:
                assert np.array_equal(attached.ids, synthetic_collection.ids)
                assert np.array_equal(attached.starts, synthetic_collection.starts)
                assert np.array_equal(attached.ends, synthetic_collection.ends)
            finally:
                shm.close()
        finally:
            buffer.unlink()
            buffer.unlink()  # idempotent

    def test_sharded_index_publishes_shared_columns(self, synthetic_collection):
        if not HAS_SHARED_MEMORY:
            pytest.skip("no multiprocessing.shared_memory")
        with ProcessExecutor(2) as executor:
            index = ShardedIndex(
                synthetic_collection, backend="naive", num_shards=4, executor=executor
            )
            assert index._shared is not None
            spec = index._residency_spec(index._epoch)
            assert spec.handle is not None
            # the snapshot is part of the index's reported footprint
            assert index.memory_bytes() >= index._shared.nbytes
            index.close()
            assert index._shared is None

    def test_memory_bytes_counts_the_snapshot_by_its_mapped_length(self, synthetic_collection):
        """The walk counts an ``mmap`` by its length: the published snapshot
        adds its bytes plus under 4 KiB of the objects around the mapping."""
        if not HAS_SHARED_MEMORY:
            pytest.skip("no multiprocessing.shared_memory")
        with ProcessExecutor(2) as executor:
            index = ShardedIndex(
                synthetic_collection, backend="naive", num_shards=4, executor=executor
            )
            shared = index._shared
            with_snapshot = index.memory_bytes()
            index._shared = None
            try:
                without = index.memory_bytes()
            finally:
                index._shared = shared
            assert 0 <= with_snapshot - without - shared.nbytes < 4096
            index.close()

    def test_memory_bytes_leaves_the_shared_pool_out(self, synthetic_collection, rng):
        """The pool an index runs on is not its bytes: starting it and
        running a batch through it moves ``memory_bytes()`` by headers only."""
        with ProcessExecutor(2) as executor:
            store = IntervalStore(
                ShardedIndex(
                    synthetic_collection, backend="naive", num_shards=4, executor=executor
                )
            )
            before = store.memory_bytes()
            store.run_batch(_workload(synthetic_collection, rng, count=50))
            assert executor._pool is not None
            assert abs(store.memory_bytes() - before) < 1024
            store.close()


class TestExecutorLifecycle:
    def test_store_closes_executor_it_created(self, synthetic_collection):
        store = IntervalStore.open(
            synthetic_collection, "naive", num_shards=2, executor="processes", workers=2
        )
        executor = store.index.executor
        store.run_batch([Query(0, 10**6)])
        assert executor._pool is not None
        store.close()
        assert executor._pool is None

    def test_store_leaves_borrowed_executor_running(self, synthetic_collection, pool):
        with IntervalStore.open(
            synthetic_collection, "naive", num_shards=2, executor=pool
        ) as store:
            store.run_batch([Query(0, 10**6)])
        assert pool._pool is not None  # still usable by other stores

    def test_batches_after_close_fall_back_locally(self, synthetic_collection, rng):
        """A closed store (snapshot unlinked) still answers, in-process."""
        store = IntervalStore.open(
            synthetic_collection, "naive", num_shards=4, executor="processes", workers=2
        )
        queries = _workload(synthetic_collection, rng, count=6)
        store.run_batch(queries)
        store.close()
        assert not store.index._process_fanout_ready()
        batch = store.run_batch(queries)
        for query, ids in zip(queries, batch.ids):
            assert sorted(ids) == sorted(synthetic_collection.query_ids(query).tolist())

    def test_k1_store_respects_ownership(self, synthetic_collection):
        """At K = 1 too, a pool the caller passed in stays running after
        the store closes, and one the store's index resolved is closed."""
        borrowed = ProcessExecutor(2)
        with IntervalStore.open(synthetic_collection, "naive", executor=borrowed) as store:
            assert store.index.executor is borrowed
            store.run_batch([Query(0, 10**6), Query(5, 50)])
        assert borrowed._pool is not None
        borrowed.close()
        owned = IntervalStore.open(
            synthetic_collection, "naive", executor="processes", workers=2
        )
        owned.run_batch([Query(0, 10**6), Query(5, 50)])
        executor = owned.index.executor
        assert executor._pool is not None
        owned.close()
        assert executor._pool is None
