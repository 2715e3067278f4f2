"""The maintenance subsystem: ingest journal, policies, coordinator, adaptive K.

Covers the four pieces of :mod:`repro.engine.maintenance` -- the buffered
count-column journal (lazy folds on multi-shard counts), the pluggable
rebuild policies, the coordinator's maintain pass (folds, hybrid rebuilds,
skew-triggered re-partitioning, background thread) and the Section 3.3 cost
model extended to pick the shard count -- plus the locator-atomicity
regression for deletes of duplicated ids.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.baselines.naive import NaiveIndex
from repro.core.interval import Interval, IntervalCollection, Query
from repro.engine import IntervalStore, ShardedIndex, ShardedStore
from repro.engine.maintenance import (
    CostModelRebuildPolicy,
    CountColumns,
    IngestJournal,
    MaintenanceConfig,
    MaintenanceCoordinator,
    MaintenanceReport,
    RebuildPolicy,
    ShardHealth,
    ThresholdRebuildPolicy,
    recommend_shard_count,
    resolve_policy,
)
from repro.engine.sharding import ShardPlan, partition_collection


def _random_updates(collection, rng, count=300, extra_length=2000):
    """Alternating inserts (fresh ids) and deletes (existing ids)."""
    lo, hi = collection.span()
    next_id = int(collection.ids.max()) + 1
    victims = rng.choice(collection.ids, size=count // 2, replace=False)
    stream = []
    for i in range(count):
        if i % 2 == 0:
            start = int(rng.integers(lo, hi))
            stream.append(
                ("insert", Interval(next_id, start, start + int(rng.integers(0, extra_length))))
            )
            next_id += 1
        else:
            stream.append(("delete", int(victims[i // 2])))
    return stream


def _apply(index, stream):
    live_delta = {}
    for kind, payload in stream:
        if kind == "insert":
            index.insert(payload)
            live_delta[payload.id] = (payload.start, payload.end)
        else:
            assert index.delete(payload)
            live_delta[payload] = None
    return live_delta


class TestCountColumns:
    def test_fold_matches_recomputed_sort(self, rng):
        pairs = [(int(v), int(v) + int(rng.integers(0, 50))) for v in rng.integers(0, 10_000, 200)]
        column = CountColumns([s for s, _ in pairs], [e for _, e in pairs])
        for _ in range(150):
            if rng.random() < 0.6 or not pairs:
                start = int(rng.integers(0, 10_000))
                end = start + int(rng.integers(0, 50))
                column.record_insert(start, end)
                pairs.append((start, end))
            else:
                start, end = pairs.pop(int(rng.integers(0, len(pairs))))
                column.record_delete(start, end)
        column.fold()
        assert column.pending_ops == 0
        assert column.starts.tolist() == sorted(s for s, _ in pairs)
        assert column.ends.tolist() == sorted(e for _, e in pairs)
        assert column.live_size == len(pairs)

    def test_fold_exact_under_duplicates_and_cancellation(self):
        column = CountColumns([1, 5, 5, 9], [2, 6, 6, 10])
        column.record_insert(5, 6)       # duplicate of an existing value
        column.record_insert(3, 4)
        column.record_insert(3, 4)       # duplicate among the pending adds
        column.record_delete(5, 6)       # cancels one of the three 5s
        column.record_delete(3, 4)       # cancels a value added this batch
        assert column.pending_ops == 5
        column.fold()
        assert column.pending_ops == 0
        assert column.starts.tolist() == [1, 3, 5, 5, 9]
        assert column.ends.tolist() == [2, 4, 6, 6, 10]

    def test_counts_fold_lazily(self):
        column = CountColumns([1, 4, 8], [2, 6, 9])
        column.record_insert(5, 7)
        assert column.pending_ops == 1
        # the counting accessor folds first, then bisects
        assert column.count_ends_ge(6) == 3
        assert column.pending_ops == 0
        assert column.count_starts_in(4, 5) == 2

    def test_journaled_ops_reallocate_nothing_until_one_fold(self, rng, monkeypatch):
        """The O(1)-per-op property, structurally: N recorded updates leave
        the sorted columns the very same arrays, and one fold replaces each
        column exactly once -- whatever the wall clock says."""
        values = rng.integers(0, 1_000, size=50)
        column = CountColumns(values, values + 2)
        starts, ends = column.starts, column.ends
        live = [(int(v), int(v) + 2) for v in values]
        for _ in range(40):
            start = int(rng.integers(0, 1_000))
            column.record_insert(start, start + 1)
            live.append((start, start + 1))
        for _ in range(10):
            column.record_delete(*live.pop(int(rng.integers(0, len(live)))))
        assert column.starts is starts and column.ends is ends
        assert column.pending_ops == 50

        folded = []
        fold_column = CountColumns._fold_column

        def spy(column_array, adds, removes):
            folded.append(column_array)
            return fold_column(column_array, adds, removes)

        monkeypatch.setattr(CountColumns, "_fold_column", staticmethod(spy))
        assert column.fold() == 50
        assert len(folded) == 2 and folded[0] is starts and folded[1] is ends
        assert column.starts is not starts and column.ends is not ends
        assert column.pending_ops == 0
        # ... and the fold lands on the brute-force reference
        assert column.starts.tolist() == sorted(s for s, _ in live)
        assert column.ends.tolist() == sorted(e for _, e in live)

    def test_fold_threshold_bounds_buffers(self):
        collection = IntervalCollection.from_pairs([(0, 10), (20, 30), (40, 50)])
        journal = IngestJournal([collection], fold_threshold=4)
        for i in range(10):
            journal.record_insert(0, 0, i, i + 1)
        assert max(journal.pending_depths()) < 4


class TestShardedJournal:
    def test_multi_shard_counts_exact_without_maintain(self, synthetic_collection, rng):
        """The acceptance property: counts fold pending updates lazily."""
        index = ShardedIndex(synthetic_collection, backend="hintm_hybrid",
                             num_shards=4, num_bits=7)
        live = {
            int(i): (int(s), int(e))
            for i, s, e in zip(synthetic_collection.ids,
                               synthetic_collection.starts,
                               synthetic_collection.ends)
        }
        for kind, payload in _random_updates(synthetic_collection, rng):
            if kind == "insert":
                index.insert(payload)
                live[payload.id] = (payload.start, payload.end)
            else:
                assert index.delete(payload)
                del live[payload]
        assert sum(index.ingest_journal.pending_depths()) > 0
        starts = np.array([s for s, _ in live.values()])
        ends = np.array([e for _, e in live.values()])
        lo, hi = synthetic_collection.span()
        checked_multi = 0
        for _ in range(30):
            a = int(rng.integers(lo, hi))
            b = a + int(rng.integers(0, hi - lo))
            first, last = index.plan.shard_range(a, b)
            checked_multi += first < last
            assert index.query_count(Query(a, b)) == int(np.sum((starts <= b) & (a <= ends)))
        assert checked_multi > 0
        # the first multi-shard count folded every probed shard's buffer
        assert sum(index.ingest_journal.pending_depths()) == 0

    def test_journaled_index_answers_like_the_naive_reference(
        self, synthetic_collection, rng
    ):
        journal = ShardedIndex(synthetic_collection, backend="hintm_hybrid",
                               num_shards=4, num_bits=7)
        reference = NaiveIndex(synthetic_collection)
        for kind, payload in _random_updates(synthetic_collection, rng):
            for index in (journal, reference):
                if kind == "insert":
                    index.insert(payload)
                else:
                    index.delete(payload)
        lo, hi = synthetic_collection.span()
        probes = [
            Query(a, a + int(rng.integers(0, (hi - lo) // 2)))
            for a in (int(a) for a in rng.integers(lo, hi, 25))
        ]

        def check():
            for query in probes:
                assert journal.query_count(query) == reference.query_count(query)
                assert sorted(journal.query(query)) == sorted(reference.query(query))

        check()
        # a forced pass folds the journal and rebuilds every shard's hybrid
        # delta; counts and ids must come out of it unchanged
        MaintenanceCoordinator(journal).maintain(force=True)
        assert sum(journal.ingest_journal.pending_depths()) == 0
        check()

    def test_concurrent_folds_and_records_lose_nothing(self):
        """Counting folds race recording updates across threads; the journal
        lock must neither drop nor double-apply a journaled operation."""
        import threading

        collection = IntervalCollection.from_pairs(
            [(i * 10, i * 10 + 5) for i in range(100)]
        )
        column = CountColumns(collection.starts, collection.ends)
        inserts_per_thread = 500
        writers = 3

        def write(offset):
            for i in range(inserts_per_thread):
                column.record_insert(offset + i, offset + i + 1)

        def count_hammer(stop):
            while not stop.is_set():
                column.count_ends_ge(0)  # folds under the lock

        stop = threading.Event()
        counter = threading.Thread(target=count_hammer, args=(stop,))
        counter.start()
        threads = [
            threading.Thread(target=write, args=(1_000_000 * (t + 1),))
            for t in range(writers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stop.set()
        counter.join()
        column.fold()
        expected = len(collection) + writers * inserts_per_thread
        assert len(column.starts) == expected
        assert len(column.ends) == expected
        assert column.starts.tolist() == sorted(column.starts.tolist())

    def test_fold_threshold_wired_through_index(self, synthetic_collection, rng):
        """Without multi-shard counts, the threshold alone bounds the buffers."""
        index = ShardedIndex(synthetic_collection, backend="hintm_hybrid",
                             num_shards=4, num_bits=7, fold_threshold=16)
        for kind, payload in _random_updates(synthetic_collection, rng, count=400):
            if kind == "insert":
                index.insert(payload)
            else:
                assert index.delete(payload)
        assert max(index.ingest_journal.pending_depths()) < 16
        # the threshold also survives a repartition's journal rebuild
        assert index.repartition(strategy="balanced")
        lo, _ = synthetic_collection.span()
        for i in range(40):
            index.insert(Interval(2 * 10**6 + i, lo + i, lo + i + 1))
        assert max(index.ingest_journal.pending_depths()) < 16

    def test_memory_bytes_includes_journal(self, synthetic_collection):
        index = ShardedIndex(synthetic_collection, backend="hintm_opt",
                             num_shards=4, num_bits=7)
        assert index.memory_bytes() >= index.ingest_journal.nbytes > 0


class TestDeleteAtomicity:
    """Satellite regression: locator mutation is atomic with per-shard deletes."""

    def _duplicated_interval(self, index):
        for interval in index._epoch.locator.collection():
            first, last = index.plan.shard_range(interval.start, interval.end)
            if first < last:
                return interval.id, (interval.start, interval.end)
        raise AssertionError("no boundary-spanning interval in the fixture")

    def test_failed_shard_delete_leaves_bookkeeping_consistent(
        self, synthetic_collection, monkeypatch
    ):
        index = ShardedIndex(synthetic_collection, backend="hintm_hybrid",
                             num_shards=4, num_bits=7)
        interval_id, span = self._duplicated_interval(index)
        first, last = index.plan.shard_range(*span)
        probe = Query(*span)
        count_before = index.query_count(probe)

        failing_shard = index.shards[last]
        original_delete = type(failing_shard).delete

        def exploding_delete(self, victim_id):
            if self is failing_shard and victim_id == interval_id:
                raise RuntimeError("injected shard failure")
            return original_delete(self, victim_id)

        monkeypatch.setattr(type(failing_shard), "delete", exploding_delete)
        with pytest.raises(RuntimeError, match="injected"):
            index.delete(interval_id)
        # the locator and the count columns were not touched: the id is
        # still addressable and multi-shard counts still include it
        assert interval_id in index._epoch.locator
        assert index.query_count(probe) == count_before
        monkeypatch.undo()

        # the retry completes: every copy tombstoned, bookkeeping updated
        assert index.delete(interval_id)
        assert interval_id not in index._epoch.locator
        assert index.query_count(probe) == count_before - 1
        assert interval_id not in index.query(probe)

    def test_duplicated_delete_updates_every_owning_shard(self, synthetic_collection):
        index = ShardedIndex(synthetic_collection, backend="hintm_hybrid",
                             num_shards=4, num_bits=7)
        interval_id, span = self._duplicated_interval(index)
        first, last = index.plan.shard_range(*span)
        assert index.delete(interval_id)
        for shard in range(first, last + 1):
            assert interval_id not in index.shards[shard].query(Query(*span))
        assert not index.delete(interval_id)  # no copy left anywhere


class TestPolicies:
    def test_threshold_policy(self):
        policy = ThresholdRebuildPolicy(fraction=0.1, min_delta=10)
        assert not policy.should_rebuild(ShardHealth(0, live=1000, delta=5))
        assert not policy.should_rebuild(ShardHealth(0, live=1000, delta=99))
        assert policy.should_rebuild(ShardHealth(0, live=1000, delta=100))
        assert policy.should_rebuild(ShardHealth(0, live=0, delta=10))

    def test_cost_model_policy_amortises(self):
        policy = CostModelRebuildPolicy(
            beta_cmp=1e-6, build_cost_per_interval=1e-4, min_delta=10
        )
        quiet = ShardHealth(0, live=10_000, delta=50, queries_since_maintain=3)
        busy = ShardHealth(0, live=10_000, delta=50, queries_since_maintain=100_000)
        assert not policy.should_rebuild(quiet)
        assert policy.should_rebuild(busy)
        # below min_delta nothing rebuilds, no matter the query pressure
        tiny = ShardHealth(0, live=10_000, delta=5, queries_since_maintain=10**9)
        assert not policy.should_rebuild(tiny)

    def test_resolve_policy(self):
        assert isinstance(resolve_policy(None), ThresholdRebuildPolicy)
        assert isinstance(resolve_policy("cost_model"), CostModelRebuildPolicy)
        assert isinstance(resolve_policy("cost-model"), CostModelRebuildPolicy)
        custom = ThresholdRebuildPolicy(fraction=0.5)
        assert resolve_policy(custom) is custom
        assert resolve_policy("threshold", fraction=0.25).fraction == 0.25
        with pytest.raises(ValueError, match="unknown rebuild policy"):
            resolve_policy("bogus")
        with pytest.raises(ValueError, match="cannot reconfigure"):
            resolve_policy(custom, fraction=0.1)
        with pytest.raises(TypeError):
            resolve_policy(42)


class TestCoordinator:
    def test_maintain_folds_and_rebuilds_hybrid_shards(self, synthetic_collection, rng):
        index = ShardedIndex(synthetic_collection, backend="hintm_hybrid",
                             num_shards=4, num_bits=7)
        # repartition off: this test isolates the per-shard rebuild path (a
        # repartition would preempt it, since fresh builds fold the deltas)
        coordinator = MaintenanceCoordinator(
            index,
            config=MaintenanceConfig(repartition=False),
            policy=ThresholdRebuildPolicy(fraction=0.001, min_delta=1),
        )
        _apply(index, _random_updates(synthetic_collection, rng, count=100))
        pending = sum(index.ingest_journal.pending_depths())
        assert pending > 0
        deltas_before = [s.delta_size for s in index.shards]
        assert any(deltas_before)
        report = coordinator.maintain()
        assert report.folded_ops == pending
        assert report.rebuilt_shards  # the aggressive threshold fired
        for shard_id in report.rebuilt_shards:
            assert index.shards[shard_id].delta_size == 0
        assert coordinator.reports[-1] is report
        state = coordinator.state()
        assert state["pending_per_shard"] == [0, 0, 0, 0]
        assert set(report.rebuilt_shards) <= set(state["last_rebuild"])

    def test_force_rebuilds_only_nonempty_deltas(self, synthetic_collection):
        index = ShardedIndex(synthetic_collection, backend="hintm_hybrid",
                             num_shards=4, num_bits=7)
        coordinator = MaintenanceCoordinator(
            index, config=MaintenanceConfig(repartition=False)
        )
        lo, hi = synthetic_collection.span()
        index.insert(Interval(10**6, lo, lo + 1))  # delta in the first shard only
        report = coordinator.maintain(force=True)
        assert report.rebuilt_shards == [0]

    def test_skew_triggers_repartition(self, rng):
        # heavily clumped data: equi-width cuts leave most copies in shard 0
        starts = np.concatenate([
            rng.integers(0, 1_000, size=2_700),
            rng.integers(1_000, 100_000, size=300),
        ])
        collection = IntervalCollection(
            ids=np.arange(3_000), starts=np.sort(starts), ends=np.sort(starts) + 5
        )
        index = ShardedIndex(collection, backend="hintm_hybrid",
                             num_shards=4, num_bits=7, strategy="equi_width")
        sizes = index.ingest_journal.live_sizes()
        assert max(sizes) / (sum(sizes) / len(sizes)) > 1.5
        coordinator = MaintenanceCoordinator(
            index, config=MaintenanceConfig(skew_threshold=1.5)
        )
        # build-time skew alone never repartitions: the equi-width choice
        # was explicit, and no update has drifted the sizes yet
        assert not coordinator.maintain().repartitioned
        assert index.plan.strategy == "equi_width"
        lo, hi = collection.span()
        index.insert(Interval(10**6, lo, lo + 3))  # now the sizes have drifted
        assert index.delete(10**6)
        oracle = {
            Query(lo, hi): len(collection),
            Query(lo, lo + 500): int(np.sum(
                (collection.starts <= lo + 500) & (lo <= collection.ends)
            )),
        }
        report = coordinator.maintain()
        assert report.repartitioned
        assert report.skew > 1.5
        assert report.cuts == index.plan.cuts
        balanced = index.ingest_journal.live_sizes()
        assert max(balanced) / (sum(balanced) / len(balanced)) < 1.5
        for query, expected in oracle.items():
            assert index.query_count(query) == expected
            assert len(set(index.query(query))) == expected
        # a second pass finds balanced cuts and leaves them alone
        assert not coordinator.maintain().repartitioned

    def test_repartition_disabled_by_config(self, rng):
        starts = np.sort(np.concatenate([
            rng.integers(0, 1_000, size=1_800),
            rng.integers(1_000, 100_000, size=200),
        ]))
        collection = IntervalCollection(
            ids=np.arange(2_000), starts=starts, ends=starts + 5
        )
        index = ShardedIndex(collection, backend="hintm_hybrid", num_shards=4, num_bits=7)
        cuts = index.plan.cuts
        lo, _ = collection.span()
        index.insert(Interval(10**6, lo, lo + 3))  # drift, so only the config gates
        coordinator = MaintenanceCoordinator(
            index, config=MaintenanceConfig(repartition=False)
        )
        assert not coordinator.maintain().repartitioned
        assert index.plan.cuts == cuts

    def test_plain_hybrid_store_maintain(self, synthetic_collection):
        store = IntervalStore.open(synthetic_collection, "hintm_hybrid", num_bits=7)
        lo, _ = synthetic_collection.span()
        for i in range(20):
            store.insert(Interval(10**6 + i, lo + i, lo + i + 5))
        assert store.index.delta_size == 20
        report = store.maintenance(
            policy=ThresholdRebuildPolicy(fraction=0.001, min_delta=1)
        ).maintain()
        assert report.rebuilt_shards == [0]
        assert store.index.delta_size == 0
        assert store.index.rebuilds == 1

    def test_static_backend_maintain_is_noop(self, synthetic_collection):
        store = IntervalStore.open(synthetic_collection, "hintm_opt", num_bits=7)
        report = store.maintain(force=True)
        assert isinstance(report, MaintenanceReport)
        assert report.actions == 0

    def test_store_maintenance_caching_and_replacement(self, synthetic_collection):
        store = IntervalStore.open(synthetic_collection, "hintm_hybrid", num_bits=7)
        first = store.maintenance()
        assert store.maintenance() is first
        replaced = store.maintenance(policy="cost_model")
        assert replaced is not first
        assert store.maintenance() is replaced
        store.close()

    def test_background_thread_maintains_when_idle(self, synthetic_collection, rng):
        index = ShardedIndex(synthetic_collection, backend="hintm_hybrid",
                             num_shards=4, num_bits=7)
        coordinator = MaintenanceCoordinator(
            index,
            config=MaintenanceConfig(idle_seconds=0.0, interval_seconds=0.02),
        )
        _apply(index, _random_updates(synthetic_collection, rng, count=60))
        assert sum(index.ingest_journal.pending_depths()) > 0
        coordinator.start()
        assert coordinator.running
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and not coordinator.reports:
            time.sleep(0.02)
        coordinator.stop()
        assert not coordinator.running
        assert coordinator.reports, "background thread never ran a pass"
        assert sum(index.ingest_journal.pending_depths()) == 0
        coordinator.stop()  # idempotent

    def test_background_maintenance_never_loses_foreground_updates(self, rng):
        """Repartitions and shard rebuilds snapshot-then-swap state; a
        foreground update interleaving with either must never be discarded."""
        starts = np.sort(rng.integers(0, 1_000, size=2_000))
        collection = IntervalCollection(
            ids=np.arange(2_000), starts=starts, ends=starts + 5
        )
        index = ShardedIndex(collection, backend="hintm_hybrid",
                             num_shards=4, num_bits=7)
        coordinator = MaintenanceCoordinator(
            index,
            config=MaintenanceConfig(
                idle_seconds=0.0, interval_seconds=0.005, skew_threshold=1.1
            ),
            policy=ThresholdRebuildPolicy(fraction=0.001, min_delta=1),
        )
        live = {
            int(i): (int(s), int(e))
            for i, s, e in zip(collection.ids, collection.starts, collection.ends)
        }
        coordinator.start()
        try:
            next_id = 10**6
            deadline = time.monotonic() + 1.5
            while time.monotonic() < deadline:
                start = int(rng.integers(0, 200_000))
                index.insert(Interval(next_id, start, start + 100))
                live[next_id] = (start, start + 100)
                next_id += 1
                victim = int(rng.choice(list(live)))
                assert index.delete(victim), f"lost update: delete({victim})"
                del live[victim]
        finally:
            coordinator.stop()
        assert len(index) == len(live)
        starts = np.array([s for s, _ in live.values()])
        ends = np.array([e for _, e in live.values()])
        ids = np.array(list(live.keys()))
        for _ in range(25):
            a = int(rng.integers(0, 200_000))
            b = a + int(rng.integers(0, 200_000))
            expected = sorted(ids[(starts <= b) & (a <= ends)].tolist())
            assert sorted(index.query(Query(a, b))) == expected
            assert index.query_count(Query(a, b)) == len(expected)

    def test_noop_repartition_resets_drift_counter(self, synthetic_collection):
        """A stably-skewed index must not re-materialise the live collection
        on every pass: the no-op repartition re-validates the cuts."""
        index = ShardedIndex(synthetic_collection, backend="hintm_hybrid",
                             num_shards=4, num_bits=7, strategy="balanced")
        lo, _ = synthetic_collection.span()
        index.insert(Interval(10**6, lo, lo + 1))
        assert index.delete(10**6)
        assert index.updates_since_partition == 2
        # balanced cuts over (near-)unchanged data re-plan to themselves
        assert not index.repartition()
        assert index.updates_since_partition == 0

    def test_background_thread_respects_idle_window(self, synthetic_collection):
        index = ShardedIndex(synthetic_collection, backend="hintm_hybrid",
                             num_shards=4, num_bits=7)
        coordinator = MaintenanceCoordinator(
            index,
            config=MaintenanceConfig(idle_seconds=3600.0, interval_seconds=0.02),
        )
        with coordinator:
            coordinator.start()
            lo, hi = synthetic_collection.span()
            deadline = time.monotonic() + 0.3
            while time.monotonic() < deadline:
                index.query_count(Query(lo, hi))  # keeps the index busy
            assert not coordinator.reports  # never idle long enough


class TestQueryStatsSurface:
    def test_sharded_stats_carry_ingest_state(self, synthetic_collection):
        store = ShardedStore.open(synthetic_collection, "hintm_hybrid",
                                  num_shards=4, num_bits=7)
        lo, hi = synthetic_collection.span()
        store.insert(Interval(10**6, lo, lo + 1))
        stats = store.query().overlapping(lo, hi).stats()
        assert stats.extra["ingest_pending"] == 1.0
        assert stats.extra["snapshot_generation"] == 0.0
        # single-shard plans surface the same counters
        narrow = store.query().overlapping(lo, lo).stats()
        assert "ingest_pending" in narrow.extra

    def test_ingest_gauges_merge_as_max_not_sum(self):
        """Summing instrumented stats over a workload must not fabricate a
        snapshot generation (gauges take max; real counters still sum)."""
        from repro.core.base import QueryStats

        rows = [
            QueryStats(comparisons=5, extra={"snapshot_generation": 2.0,
                                             "ingest_pending": 3.0, "x": 1.0})
            for _ in range(4)
        ]
        total = sum(rows)
        assert total.comparisons == 20
        assert total.extra["snapshot_generation"] == 2.0
        assert total.extra["ingest_pending"] == 3.0
        assert total.extra["x"] == 4.0  # free-form extras keep summing

    def test_maintenance_state_shape(self, synthetic_collection):
        index = ShardedIndex(synthetic_collection, backend="hintm_hybrid",
                             num_shards=4, num_bits=7)
        state = index.maintenance_state()
        assert state["num_shards"] == 4
        assert len(state["pending_per_shard"]) == 4
        assert len(state["delta_per_shard"]) == 4
        assert state["snapshot_generation"] == 0
        assert not state["update_dirty"]


class TestAdaptiveShardCount:
    def test_traversal_bound_serial_prefers_one_shard(self, synthetic_collection):
        for backend in ("hintm", "hintm_opt", "hintm_hybrid"):
            assert recommend_shard_count(
                synthetic_collection, backend, executor="serial"
            ) == 1

    def test_traversal_bound_processes_prefers_cores(self, synthetic_collection):
        assert recommend_shard_count(
            synthetic_collection, "hintm", executor="processes", workers=4
        ) == 4
        assert recommend_shard_count(
            synthetic_collection, "hintm", executor="processes", workers=2
        ) == 2

    def test_scan_bound_serial_gains_from_pruning(self, synthetic_collection):
        assert recommend_shard_count(
            synthetic_collection, "naive", executor="serial"
        ) > 1

    def test_max_shards_cap_and_edge_cases(self, synthetic_collection):
        assert recommend_shard_count(
            synthetic_collection, "naive", executor="serial", max_shards=2
        ) <= 2
        assert recommend_shard_count(IntervalCollection.empty(), "naive") == 1
        with pytest.raises(ValueError, match="executor"):
            recommend_shard_count(synthetic_collection, "naive", executor="bogus")

    def test_store_open_auto_shards(self, synthetic_collection):
        serial = IntervalStore.open(synthetic_collection, "hintm", num_shards="auto")
        assert not isinstance(serial, ShardedStore)
        with IntervalStore.open(
            synthetic_collection, "hintm", num_shards="auto",
            executor="processes", workers=4,
        ) as store:
            assert isinstance(store, ShardedStore)
            assert store.num_shards == 4

    def test_store_open_rejects_other_strings(self, synthetic_collection):
        with pytest.raises(ValueError, match="auto"):
            IntervalStore.open(synthetic_collection, "hintm", num_shards="many")


class TestReportSummary:
    def test_summary_mentions_every_action(self):
        report = MaintenanceReport(
            folded_ops=12, rebuilt_shards=[1, 3], repartitioned=True,
            cuts=(10, 20), skew=2.5, snapshot_refreshed=True, generation=2,
            seconds=0.01,
        )
        text = report.summary()
        assert "12" in text and "[1, 3]" in text
        assert "re-partitioned" in text and "generation 2" in text
        assert report.actions == 5
        idle = MaintenanceReport()
        assert "nothing to do" in idle.summary()
        assert idle.actions == 0


class TestCalibration:
    """``MaintenanceConfig.calibrate``: measured betas into the cost model."""

    def test_calibrate_configures_cost_model_policy(self, synthetic_collection):
        index = ShardedIndex(synthetic_collection, backend="hintm_hybrid",
                             num_shards=2, num_bits=7)
        defaults = CostModelRebuildPolicy()
        coordinator = MaintenanceCoordinator(
            index,
            config=MaintenanceConfig(policy="cost_model", calibrate=True),
        )
        beta_cmp, beta_acc = coordinator.calibrated_betas
        assert beta_cmp > 0 and beta_acc > 0
        # the policy now amortises with the measured constant, and a real
        # micro-benchmark essentially never lands on the hard-coded default
        assert coordinator.policy.beta_cmp == beta_cmp
        assert coordinator.policy.beta_cmp != defaults.beta_cmp
        assert coordinator.state()["calibrated_betas"] == (beta_cmp, beta_acc)
        index.close()

    def test_calibrate_leaves_threshold_policy_untouched(self, synthetic_collection):
        index = ShardedIndex(synthetic_collection, backend="hintm_hybrid",
                             num_shards=2, num_bits=7)
        coordinator = MaintenanceCoordinator(
            index, config=MaintenanceConfig(policy="threshold", calibrate=True)
        )
        # the measurement still runs (recorded for display) but the
        # threshold rule has no beta to configure
        assert coordinator.calibrated_betas is not None
        assert not hasattr(coordinator.policy, "beta_cmp")
        index.close()

    def test_no_calibration_by_default(self, synthetic_collection):
        index = ShardedIndex(synthetic_collection, backend="hintm_hybrid",
                             num_shards=2, num_bits=7)
        coordinator = MaintenanceCoordinator(index, policy="cost_model")
        assert coordinator.calibrated_betas is None
        assert coordinator.policy.beta_cmp == CostModelRebuildPolicy().beta_cmp
        index.close()
