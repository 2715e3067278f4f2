"""Snapshot refresh across the process-executor residency cache.

Satellite coverage for the maintenance subsystem: after updates stale the
shared-memory snapshot, a maintenance pass republishes it under a new
residency-token generation -- the old token is evicted from worker caches,
the new one attaches, and batches fan out again.  All assertions are
structural (token generations, readiness flags, answer equality), never
timing-based; both the fork and spawn start methods are exercised.
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro.core.interval import (
    HAS_SHARED_MEMORY,
    Interval,
    IntervalCollection,
    Query,
    SharedCollectionBuffer,
)
from repro.engine import MaintenanceCoordinator, ProcessExecutor, ShardedIndex
from repro.engine._procworker import (
    _RESIDENTS,
    ShardResidencySpec,
    _residency_for,
    resident_tokens,
    run_kernel_task,
)

pytestmark = pytest.mark.skipif(
    not HAS_SHARED_MEMORY, reason="no multiprocessing.shared_memory"
)

START_METHODS = [
    method
    for method in ("fork", "spawn")
    if method in multiprocessing.get_all_start_methods()
]


def _workload(collection, count=12):
    lo, hi = collection.span()
    step = max(1, (hi - lo) // (count + 2))
    return [Query(lo + i * step, lo + (i + 2) * step) for i in range(count)]


def _oracle(collection, updates, query):
    live = {
        int(i): (int(s), int(e))
        for i, s, e in zip(collection.ids, collection.starts, collection.ends)
    }
    for kind, payload in updates:
        if kind == "insert":
            live[payload.id] = (payload.start, payload.end)
        else:
            live.pop(payload, None)
    return sorted(
        interval_id
        for interval_id, (start, end) in live.items()
        if start <= query.end and query.start <= end
    )


@pytest.mark.parametrize("start_method", START_METHODS)
class TestRefreshAcrossThePool:
    def test_fanout_restored_with_new_generation(self, taxis_like_collection, start_method):
        executor = ProcessExecutor(2, start_method=start_method)
        index = ShardedIndex(
            taxis_like_collection,
            backend="hintm_hybrid",
            num_shards=4,
            num_bits=6,
            executor=executor,
        )
        coordinator = MaintenanceCoordinator(index)
        try:
            queries = _workload(taxis_like_collection)
            index.query_batch(queries)  # workers build resident shards
            first_token = index._residency_spec(index._epoch).token
            assert index.snapshot_generation == 0
            assert index._process_fanout_ready()

            lo, hi = taxis_like_collection.span()
            updates = [
                ("insert", Interval(10**7, lo + 5, lo + (hi - lo) // 2)),
                ("delete", int(taxis_like_collection.ids[0])),
            ]
            for kind, payload in updates:
                if kind == "insert":
                    index.insert(payload)
                else:
                    assert index.delete(payload)
            assert not index._process_fanout_ready()  # snapshot is stale

            report = coordinator.maintain(force=True)
            assert report.snapshot_refreshed
            assert report.generation == index.snapshot_generation == 1
            assert index._process_fanout_ready()
            second_token = index._residency_spec(index._epoch).token
            assert second_token != first_token

            answers = index.query_batch(queries)
            for query, ids in zip(queries, answers):
                assert sorted(ids) == _oracle(taxis_like_collection, updates, query)

            # no worker may cache both generations: receiving the new token
            # evicts the superseded residency of the same index
            for tokens in executor.map(resident_tokens, list(range(8))):
                assert not (first_token in tokens and second_token in tokens)
        finally:
            index.close()
            executor.close()

    def test_repeated_refresh_cycles_stay_exact(self, taxis_like_collection, start_method):
        executor = ProcessExecutor(2, start_method=start_method)
        index = ShardedIndex(
            taxis_like_collection,
            backend="hintm_hybrid",
            num_shards=4,
            num_bits=6,
            executor=executor,
        )
        coordinator = MaintenanceCoordinator(index)
        try:
            queries = _workload(taxis_like_collection, count=6)
            updates = []
            lo, hi = taxis_like_collection.span()
            for cycle in range(3):
                update = ("insert", Interval(10**7 + cycle, lo + cycle, lo + cycle + 50))
                index.insert(update[1])
                updates.append(update)
                coordinator.maintain(force=True)
                assert index.snapshot_generation == cycle + 1
                assert index._process_fanout_ready()
                answers = index.query_batch(queries)
                for query, ids in zip(queries, answers):
                    assert sorted(ids) == _oracle(taxis_like_collection, updates, query)
        finally:
            index.close()
            executor.close()


class TestResidencyCacheEviction:
    """The in-process (worker-side) eviction rule, exercised directly."""

    def _spec(self, buffer, uid, generation):
        return ShardResidencySpec(
            token=f"{uid}:g{generation}",
            handle=buffer.handle,
            cuts=(50,),
            backend="naive",
            uid=uid,
            generation=generation,
        )

    def test_new_generation_evicts_same_uid_only(self):
        collection = IntervalCollection.from_pairs([(0, 10), (40, 60), (80, 90)])
        buffers = [SharedCollectionBuffer(collection) for _ in range(3)]
        saved = dict(_RESIDENTS)
        _RESIDENTS.clear()
        try:
            _residency_for(self._spec(buffers[0], "idx-a", 0))
            _residency_for(self._spec(buffers[1], "idx-b", 0))
            assert set(_RESIDENTS) == {"idx-a:g0", "idx-b:g0"}
            _residency_for(self._spec(buffers[2], "idx-a", 1))
            # the stale generation of idx-a is gone; idx-b is untouched
            assert set(_RESIDENTS) == {"idx-a:g1", "idx-b:g0"}
        finally:
            for residency in _RESIDENTS.values():
                residency.close()
            _RESIDENTS.clear()
            _RESIDENTS.update(saved)
            for buffer in buffers:
                buffer.unlink()

    def test_task_answers_from_new_snapshot_after_eviction(self):
        old = IntervalCollection.from_pairs([(0, 10)])
        new = IntervalCollection.from_pairs([(0, 10), (20, 30)])
        old_buffer = SharedCollectionBuffer(old)
        new_buffer = SharedCollectionBuffer(new)
        saved = dict(_RESIDENTS)
        _RESIDENTS.clear()
        try:
            spec_old = self._spec(old_buffer, "idx-r", 0)
            spec_new = ShardResidencySpec(
                token="idx-r:g1", handle=new_buffer.handle, cuts=(),
                backend="naive", uid="idx-r", generation=1,
            )
            positions = np.array([0], dtype=np.int64)
            starts = np.array([0], dtype=np.int64)
            ends = np.array([100], dtype=np.int64)
            _, _, before = run_kernel_task((spec_old, 0, positions, starts, ends))
            assert before[0].tolist() == [0]
            _, _, after = run_kernel_task((spec_new, 0, positions, starts, ends))
            assert sorted(after[0].tolist()) == [0, 1]
            assert set(_RESIDENTS) == {"idx-r:g1"}
        finally:
            for residency in _RESIDENTS.values():
                residency.close()
            _RESIDENTS.clear()
            _RESIDENTS.update(saved)
            old_buffer.unlink()
            new_buffer.unlink()


class TestRefreshWithoutProcesses:
    def test_refresh_is_a_noop_in_process_modes(self, synthetic_collection):
        index = ShardedIndex(synthetic_collection, backend="hintm_hybrid",
                             num_shards=4, num_bits=7)
        assert not index.refresh_snapshot()
        assert index.snapshot_generation == 0

    def test_close_after_refresh_unlinks_snapshot(self, taxis_like_collection):
        executor = ProcessExecutor(2)
        index = ShardedIndex(
            taxis_like_collection, backend="hintm_hybrid", num_shards=4,
            num_bits=6, executor=executor,
        )
        lo, _ = taxis_like_collection.span()
        index.insert(Interval(10**7, lo, lo + 10))
        assert index.refresh_snapshot()
        index.close()
        assert index._shared is None
        assert not index._process_fanout_ready()
        executor.close()

    def test_refresh_after_close_publishes_nothing(self, taxis_like_collection):
        """Close is terminal for publication: a background pass racing
        close() must not resurrect a snapshot nothing would ever unlink."""
        executor = ProcessExecutor(2)
        index = ShardedIndex(
            taxis_like_collection, backend="hintm_hybrid", num_shards=4,
            num_bits=6, executor=executor,
        )
        index.close()
        assert not index.refresh_snapshot()
        assert index._shared is None
        assert not index._process_fanout_ready()
        # in-process queries keep working after close
        lo, hi = taxis_like_collection.span()
        assert index.query_count(Query(lo, hi)) == len(taxis_like_collection)
        executor.close()
