"""Batched execution on a sharded index: equivalence and per-worker healing.

* batched count/exists answers equal the brute-force oracle across
  backends, shard counts, both executors and both start methods --
  including with pending updates, which the parent's count pair folds --
  and at K > 1 touch neither a shard index nor the pool;
* a killed worker degrades *per worker*: the pool respawns, the id batch
  retries and answers correctly, and the index-wide ``_fanout_disabled``
  flag only trips when every worker path is exhausted;
* an id batch confined to one shard still splits across the pool (the old
  lone-task fallback ran it serially in the parent);
* fan-out health (``fanout_disabled``, ``kernel_retries``, per-worker
  residencies) is surfaced through stats extras and ``maintenance_state``.
"""

import multiprocessing
import os
import signal
import time

import pytest

from repro.core.interval import HAS_SHARED_MEMORY, Query
from repro.engine import (
    IntervalStore,
    ProcessExecutor,
    ShardedIndex,
    available_backends,
    get_spec,
)

pytestmark = pytest.mark.skipif(
    not HAS_SHARED_MEMORY, reason="no multiprocessing.shared_memory"
)

ALL_BACKENDS = [name for name in available_backends() if not get_spec(name).composite]

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
    executor = ProcessExecutor(2)
    yield executor
    executor.close()


def _count_workload(collection, rng, count=40):
    lo, hi = collection.span()
    spread = max((hi - lo) // 2, 1)
    queries = []
    for _ in range(count):
        start = int(rng.integers(lo - 10, hi + 10))
        queries.append(Query(start, start + int(rng.integers(0, spread))))
    return queries


class TestCountingKernelEquivalence:
    """Batched counts/exists == the brute-force oracle under either executor.

    Counts are bisections over the parent's count pair, so the answers must
    not depend on the executor: every case runs serially and over the pool,
    clean and with updates pending, for batch lengths 0, 1 and N.  At K > 1
    each check runs with every shard probe and pool submission made to
    raise.
    """

    @pytest.fixture(autouse=True)
    def _forbid(self, forbid_shard_probes, monkeypatch):
        self.forbid, self.monkeypatch = forbid_shard_probes, monkeypatch

    def _check_batches(self, index, queries, expected):
        if index.num_shards > 1:
            self.forbid(index)
        for batch, want in (([], []), (queries[:1], expected[:1]), (queries, expected)):
            assert index.query_count_batch(batch) == want, index.executor
            assert index.query_exists_batch(batch) == [c > 0 for c in want]
        self.monkeypatch.undo()

    def _check(self, index, collection, queries, pending_updates):
        self._check_batches(index, queries, [len(collection.query_ids(q)) for q in queries])
        oracle = pending_updates(index, collection)
        self._check_batches(index, queries, oracle(queries))

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_every_backend_at_k4(
        self, synthetic_collection, rng, pool, backend, pending_updates
    ):
        kwargs = dict(SMALL_KWARGS.get(backend, {}))
        queries = _count_workload(synthetic_collection, rng)
        for executor in ("serial", pool):
            with ShardedIndex(
                synthetic_collection, backend=backend, num_shards=4,
                executor=executor, **kwargs,
            ) as index:
                self._check(index, synthetic_collection, queries, pending_updates)

    @pytest.mark.parametrize("num_shards", [1, 2, 4, 7])
    def test_shard_counts(self, synthetic_collection, rng, pool, num_shards, pending_updates):
        queries = _count_workload(synthetic_collection, rng)
        for executor in ("serial", pool):
            with ShardedIndex(
                synthetic_collection, backend="naive", num_shards=num_shards,
                executor=executor,
            ) as index:
                self._check(index, synthetic_collection, queries, pending_updates)

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_start_methods_with_pending_updates(
        self, synthetic_collection, rng, method, pending_updates
    ):
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"start method {method!r} unavailable")
        with ProcessExecutor(2, start_method=method) as executor:
            index = ShardedIndex(
                synthetic_collection, backend="naive", num_shards=4, executor=executor
            )
            try:
                queries = _count_workload(synthetic_collection, rng)
                index.query_batch(queries)  # workers up, so there is a pool to bypass
                oracle = pending_updates(index, synthetic_collection)
                assert index.update_dirty  # id fan-out is stale, counts are not
                assert index.query_count_batch(queries) == oracle(queries)
                assert index.query_count_batch(queries) == [
                    index.query_count(q) for q in queries
                ]
                assert not index._fanout_disabled
            finally:
                index.close()

    def test_k1_delete_is_excluded_from_batch_counts(
        self, synthetic_collection, rng, pool
    ):
        """K == 1 has no count pair: batches go to the only shard's own
        hook, which sees the delete."""
        index = ShardedIndex(
            synthetic_collection, backend="naive", num_shards=1, executor=pool
        )
        try:
            assert index.count_columns is None
            victim = int(synthetic_collection.ids[0])
            assert index.delete(victim)
            queries = _count_workload(synthetic_collection, rng, count=10)
            assert index.query_count_batch(queries) == [
                len(set(synthetic_collection.query_ids(q).tolist()) - {victim})
                for q in queries
            ]
        finally:
            index.close()


class _CountingPool(ProcessExecutor):
    """A two-worker pool that counts the tasks submitted to it."""

    def __init__(self):
        super().__init__(workers=2)
        self.submitted = 0

    def submit(self, fn, item):
        self.submitted += 1
        return super().submit(fn, item)


class TestMaterialisingKernels:
    """ids_batch via the kernel dispatcher, including the single-shard split."""

    def test_single_shard_batch_splits_across_workers(self, synthetic_collection, rng):
        executor = _CountingPool()
        index = ShardedIndex(
            synthetic_collection, backend="naive", num_shards=4, executor=executor
        )
        try:
            # confine every query to the first shard's range
            cuts = index.plan.cuts
            lo, _ = synthetic_collection.span()
            hi = int(cuts[0]) - 1
            queries = [
                Query(int(a), min(int(a) + 40, hi))
                for a in rng.integers(lo, hi - 40, size=8)
            ]
            for q in queries:
                first, last = index.plan.shard_range(q.start, q.end)
                assert first == last == 0
            answers = index.query_batch(queries)
            assert executor.submitted >= 2, (
                "a single-shard batch with several queries must split across "
                "the pool, not run serially in the parent"
            )
            for q, ids in zip(queries, answers):
                assert sorted(ids) == sorted(synthetic_collection.query_ids(q).tolist())
        finally:
            index.close()
            executor.close()

    @pytest.mark.parametrize("backend", ["naive", "hintm_opt"])
    def test_k1_pooled_store_submits_its_id_batches(self, synthetic_collection, rng, backend):
        """A K = 1 store asked for processes answers its id batches in the
        workers, split across the pool -- not in the parent, and not by
        shipping the index to the pool."""
        executor = _CountingPool()
        store = IntervalStore.open(synthetic_collection, backend, executor=executor)
        try:
            assert isinstance(store.index, ShardedIndex) and store.index.num_shards == 1
            assert store.index.built_shards == [None]  # the shard lives in the workers
            queries = _count_workload(synthetic_collection, rng, count=12)
            batch = store.run_batch(queries)
            assert executor.submitted >= 2
            assert store.index.built_shards == [None]
            for q, ids in zip(queries, batch.ids):
                assert sorted(ids.tolist()) == sorted(synthetic_collection.query_ids(q).tolist())
        finally:
            store.close()
            executor.close()

    def test_multi_shard_merge_matches_serial_order(self, synthetic_collection, rng, pool):
        index = ShardedIndex(
            synthetic_collection, backend="naive", num_shards=4, executor=pool
        )
        try:
            lo, hi = synthetic_collection.span()
            broad = [Query(lo, hi), Query(lo + 1, hi - 1), Query(lo, (lo + hi) // 2)]
            padding = _count_workload(synthetic_collection, rng, count=5)
            answers = index.query_batch(broad + padding)
            for q, ids in zip(broad, answers):
                assert len(ids) == len(set(ids))  # deduped across shards
                # order-identical to the serial path (merge_unique_ids
                # first-seen order), so answers do not flip ordering when
                # fan-out is disabled or a task degrades
                assert ids.tolist() == index.query(q).tolist()
                assert sorted(ids) == sorted(synthetic_collection.query_ids(q).tolist())
        finally:
            index.close()


class TestPerWorkerHealing:
    """A dead worker degrades per worker, never index-wide."""

    def _index(self, collection, executor):
        return ShardedIndex(collection, backend="naive", num_shards=4, executor=executor)

    def test_killed_worker_heals_and_answers(self, synthetic_collection, rng):
        executor = ProcessExecutor(2)
        index = self._index(synthetic_collection, executor)
        try:
            queries = _count_workload(synthetic_collection, rng)
            expected = [
                sorted(synthetic_collection.query_ids(q).tolist()) for q in queries
            ]
            index.query_batch(queries)  # warm the pool
            pids = list(index.worker_residencies().keys())
            assert pids, "expected worker residencies after a warm batch"
            os.kill(pids[0], signal.SIGKILL)
            time.sleep(0.2)
            assert [sorted(ids) for ids in index.query_batch(queries)] == expected
            assert index.kernel_retries > 0
            assert not index._fanout_disabled, (
                "a single worker kill must heal per-worker, not trip the "
                "index-wide fan-out flag"
            )
            # the healed pool keeps serving
            assert [sorted(ids) for ids in index.query_batch(queries)] == expected
            assert not index._fanout_disabled
        finally:
            index.close()
            executor.close()

    def test_fanout_trips_only_when_every_path_is_exhausted(
        self, synthetic_collection, rng
    ):
        class _DeadPool(ProcessExecutor):
            """Submits fail before and after respawn: no worker path left."""

            def __init__(self):
                super().__init__(workers=2)
                self.respawns = 0

            def submit(self, fn, item):
                raise BrokenPipeError("worker died mid-batch")

            def respawn(self, token=None):
                self.respawns += 1
                super().respawn(token)

        executor = _DeadPool()
        index = self._index(synthetic_collection, executor)
        try:
            queries = _count_workload(synthetic_collection, rng, count=12)
            answers = index.query_batch(queries)
            # the batch still answers -- per (query, shard) fallback ...
            assert [len(ids) for ids in answers] == [
                len(synthetic_collection.query_ids(q)) for q in queries
            ]
            # ... healing was attempted first, then the flag tripped
            assert executor.respawns == 1
            assert index.kernel_retries > 0
            assert index._fanout_disabled
            failures = index.recent_failures()
            assert failures and "worker died mid-batch" in failures[-1]
        finally:
            index.close()
            executor.close()

    def test_broken_pool_fails_over_in_process(self, synthetic_collection, rng):
        """The materialising path over a permanently dead pool: heal once,
        answer in-process, stop retrying, recover on a snapshot refresh."""

        class _BrokenPool(ProcessExecutor):
            """A process executor whose pooled submits always die -- even
            after a respawn, so every worker path is exhausted."""

            def __init__(self):
                super().__init__(workers=2)
                self.broken_submits = 0
                self.respawns = 0

            def submit(self, fn, item):
                self.broken_submits += 1
                raise BrokenPipeError("worker died mid-batch")

            def respawn(self, token=None):
                self.respawns += 1
                super().respawn(token)

        executor = _BrokenPool()
        index = ShardedIndex(
            synthetic_collection, backend="hintm_opt", num_shards=4, executor=executor
        )
        try:
            queries = _count_workload(synthetic_collection, rng, count=8)
            assert index._process_fanout_ready()
            answers = index.query_batch(queries)
            # the batch answered correctly despite the dead pool...
            for query, ids in zip(queries, answers):
                assert sorted(ids) == sorted(
                    synthetic_collection.query_ids(query).tolist()
                )
            assert executor.broken_submits > 0
            # ...per-worker healing respawned the pool and retried first...
            assert executor.respawns == 1
            assert index.kernel_retries > 0
            # ...the failure is recorded as a pool-level failure...
            failures = index.recent_failures()
            assert failures and "worker died" in failures[-1]
            # ...and only once the retry round died too is fan-out disabled
            # (no retry storm on a permanently dead pool)
            assert not index._process_fanout_ready()
            submits = executor.broken_submits
            index.query_batch(queries)
            assert executor.broken_submits == submits
            # a snapshot refresh heals fan-out (fresh pool, fresh residency)
            assert index.refresh_snapshot()
            assert index._process_fanout_ready()
        finally:
            index.close()
            executor.close()

    def test_shared_pool_respawn_is_token_coordinated(self):
        """A stale pool token must not churn a pool another index already
        healed -- the failing index just retries on the fresh workers."""
        executor = ProcessExecutor(2)
        try:
            token = executor.pool_token()
            executor.respawn()  # another index healed the shared pool first
            healed = executor.pool_token()
            assert healed != token
            executor.respawn(token)  # stale observation: must be a no-op
            assert executor.pool_token() == healed
            executor.respawn(healed)  # current observation: heals as usual
            assert executor.pool_token() != healed
        finally:
            executor.close()


class TestKernelObservability:
    def test_state_surfaces_fanout_health(self, synthetic_collection, rng, pool):
        index = ShardedIndex(
            synthetic_collection, backend="naive", num_shards=4, executor=pool
        )
        try:
            state = index.maintenance_state()
            assert state["fanout_disabled"] is False
            assert state["kernel_retries"] == 0
            index.query_batch(_count_workload(synthetic_collection, rng))
            residencies = index.worker_residencies()
            assert residencies, "a warm pool should report resident tokens"
            for pid, tokens in residencies.items():
                assert isinstance(pid, int)
            # the pool is shared across tests, so other uids may be resident
            # too -- but at least one worker must hold *this* index's shards
            assert any(
                index._uid in token
                for tokens in residencies.values()
                for token in tokens
            )
        finally:
            index.close()

    def test_store_count_batches_ride_kernels(
        self, synthetic_collection, rng, pool, forbid_shard_probes
    ):
        """Every store-level count surface is the count pair's batched
        bisections, with no shard probe and no pool submission (the test
        keeps the name it had when that pass ran in workers)."""
        store = IntervalStore.open(
            synthetic_collection, "naive", num_shards=4, executor=pool
        )
        try:
            queries = _count_workload(synthetic_collection, rng, count=16)
            want = [len(synthetic_collection.query_ids(q)) for q in queries]
            forbid_shard_probes(store.index)
            batch = store.run_batch(queries, count_only=True)
            assert batch.counts == want
            # the convenience surfaces route the same way
            assert store.count_batch(queries) == batch.counts
            assert store.exists_batch(queries) == [c > 0 for c in batch.counts]
        finally:
            store.close()
