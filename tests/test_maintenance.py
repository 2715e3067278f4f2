"""The maintenance subsystem: count pair, coordinator, adaptive K.

Covers the span table's count pair with its buffer of pending updates
(:class:`repro.core.spans.CountPair`, which folds only when the buffer is
full), the two pieces of :mod:`repro.engine.maintenance` -- the
coordinator's explicit maintain pass (the one rebuild rule, skew-triggered
re-partitioning, a pass on another thread beside updates) and the Section
3.3 cost model extended to pick the shard count -- plus the
locator-atomicity regression for deletes of duplicated ids.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.baselines.naive import NaiveIndex
from repro.core.base import _deep_sizeof
from repro.core.interval import Interval, IntervalCollection, Query
from repro.core.spans import CountPair, SpanTable
from repro.engine import IntervalStore, ShardedIndex
from repro.engine.maintenance import (
    REBUILD_FRACTION,
    REBUILD_MIN_DELTA,
    MaintenanceConfig,
    MaintenanceCoordinator,
    MaintenanceReport,
    recommend_shard_count,
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


def _table(pairs, first_id=0):
    """A span table over ``pairs``, ids counting up from ``first_id``."""
    return SpanTable(IntervalCollection(
        ids=np.arange(first_id, first_id + len(pairs)),
        starts=[s for s, _ in pairs],
        ends=[e for _, e in pairs],
    ))


class TestCountPair:
    def test_fold_matches_recomputed_sort(self, rng):
        pairs = [(int(v), int(v) + int(rng.integers(0, 50))) for v in rng.integers(0, 10_000, 200)]
        table = _table(pairs)
        table.count(0, 0)  # builds the pair
        live = dict(enumerate(pairs))
        next_id = len(pairs)
        for _ in range(150):
            if rng.random() < 0.6 or not live:
                start = int(rng.integers(0, 10_000))
                table.add(Interval(next_id, start, start + int(rng.integers(0, 50))))
                live[next_id] = (start, table.get(next_id).end)
                next_id += 1
            else:
                victim = list(live)[int(rng.integers(0, len(live)))]
                assert table.remove(victim) is not None
                del live[victim]
        table.pair.fold()
        assert table.pair.used == 0
        assert table.pair.starts.tolist() == sorted(s for s, _ in live.values())
        assert table.pair.ends.tolist() == sorted(e for _, e in live.values())

    def test_fold_exact_under_duplicates_and_cancellation(self):
        # 25 rows: a buffer of isqrt(25) = 5 slots, which the fifth record fills
        starts = [1, 5, 5, 9] + [100] * 21
        pair = CountPair(np.array(starts), np.array(starts) + 1)
        pair.record(1, 5, 6)       # duplicate of an existing value
        pair.record(1, 3, 4)
        pair.record(1, 3, 4)       # duplicate among the pending adds
        pair.record(-1, 5, 6)      # cancels one of the three 5s
        assert pair.used == 4
        pair.record(-1, 3, 4)      # cancels a value added this round; folds
        assert pair.used == 0
        assert pair.starts.tolist() == [1, 3, 5, 5, 9] + [100] * 21
        assert pair.ends.tolist() == [2, 4, 6, 6, 10] + [101] * 21

    def test_counts_never_fold(self):
        table = _table([(1, 2), (4, 6), (8, 9)] * 3)  # a 3-slot buffer
        assert table.count(6, 6) == 3
        table.add(Interval(100, 5, 7))
        assert table.pair.used == 1
        # the count scans the buffer beside its bisections: [4, 6] x3 and [5, 7]
        assert table.count(6, 6) == 4
        assert table.pair.used == 1
        assert table.count(3, 4) == 3

    def test_count_takes_scalars_or_arrays(self, rng):
        """One rule, ``#(start <= hi) - #(end < lo)`` plus the buffered
        updates, equals the brute-force overlap count for scalar and array
        bounds alike."""
        starts = rng.integers(0, 1_000, size=300)
        ends = starts + rng.integers(0, 60, size=300)
        table = _table(list(zip(starts.tolist(), ends.tolist())))
        table.count(0, 0)
        for victim in range(0, 20, 2):
            table.remove(victim)
        table.add(Interval(1_000, 500, 700))
        assert 0 < table.pair.used < table.pair.state[2].shape[1]
        live = table.collection()
        lows = rng.integers(-50, 1_050, size=200)
        highs = lows + rng.integers(0, 200, size=200)
        want = [int(((live.starts <= b) & (live.ends >= a)).sum()) for a, b in zip(lows, highs)]
        assert table.count(lows, highs).tolist() == want
        assert [int(table.count(int(a), int(b))) for a, b in zip(lows, highs)] == want

    def test_buffered_ops_reallocate_nothing_until_the_buffer_fills(self, rng, monkeypatch):
        """The O(1)-per-op property, structurally: updates that fit the
        buffer leave the sorted columns the very same arrays, and the one
        that fills it folds once."""
        values = rng.integers(0, 1_000, size=2_500)  # a 50-slot buffer
        table = _table(list(zip(values.tolist(), (values + 2).tolist())))
        table.count(0, 0)
        pair = table.pair
        starts, ends = pair.starts, pair.ends
        folds = []
        fold = CountPair.fold
        monkeypatch.setattr(CountPair, "fold", lambda self: folds.append(self) or fold(self))
        for offset in range(40):
            table.add(Interval(10_000 + offset, offset, offset + 1))
        for victim in range(9):
            assert table.remove(victim) is not None
        assert pair.starts is starts and pair.ends is ends
        assert pair.used == 49 and folds == []
        assert table.remove(9) is not None  # the 50th op fills the buffer
        assert folds == [pair] and pair.used == 0
        assert pair.starts is not starts and pair.ends is not ends
        live = table.collection()
        assert pair.starts.tolist() == sorted(live.starts.tolist())
        assert pair.ends.tolist() == sorted(live.ends.tolist())


class TestShardedCountPair:
    def test_multi_shard_counts_exact_without_maintain(self, synthetic_collection, rng):
        """The acceptance property: counts are exact with updates buffered."""
        index = ShardedIndex(synthetic_collection, backend="hintm_hybrid",
                             num_shards=4, num_bits=7)
        index.query_count(Query(0, 0))  # builds the locator's pair
        pair = index._epoch.locator.pair
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
        # one record per update: 300 of them over a 54-slot buffer
        assert pair.used == 300 % 54
        used = pair.used
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
        # counts scan the buffer, they never fold it
        assert pair.used == used

    def test_sharded_index_answers_like_the_naive_reference(
        self, synthetic_collection, rng
    ):
        sharded = ShardedIndex(synthetic_collection, backend="hintm_hybrid",
                               num_shards=4, num_bits=7)
        reference = NaiveIndex(synthetic_collection)
        for kind, payload in _random_updates(synthetic_collection, rng):
            for index in (sharded, reference):
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
                assert sharded.query_count(query) == reference.query_count(query)
                assert sorted(sharded.query(query)) == sorted(reference.query(query))

        check()
        # a forced pass rebuilds every shard's hybrid delta; counts and ids
        # must come out of it unchanged
        MaintenanceCoordinator(sharded).maintain(force=True)
        check()

    def test_concurrent_records_and_counts_lose_nothing(self):
        """Writers add to one span table from three threads while another
        thread counts; the table's lock must neither drop nor double-apply
        a recorded operation, through the buffer's folds."""
        table = _table([(i * 10, i * 10 + 5) for i in range(100)])
        table.count(0, 0)
        inserts_per_thread = 500
        writers = 3

        def write(offset):
            for i in range(inserts_per_thread):
                table.add(Interval(offset + i, offset + i, offset + i + 1))

        def count_hammer(stop):
            while not stop.is_set():
                table.count(0, 10**9)

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
        expected = 100 + writers * inserts_per_thread
        assert table.count(-1, 10**9) == expected
        table.pair.fold()
        assert len(table.pair.starts) == len(table.pair.ends) == expected
        assert table.pair.starts.tolist() == sorted(table.pair.starts.tolist())

    def test_memory_bytes_grow_by_the_pair_on_the_first_count(self, synthetic_collection):
        index = ShardedIndex(synthetic_collection, backend="hintm_opt",
                             num_shards=4, num_bits=7)
        locator = index._epoch.locator
        before = index.memory_bytes()
        assert locator.pair is None  # nothing is sorted until a count asks
        index.query(Query(0, 10_000))
        assert index.memory_bytes() == before
        index.query_count(Query(0, 10_000))
        pair = locator.pair
        # one pair over the distinct intervals, not one per shard's copies
        columns = pair.starts.nbytes + pair.ends.nbytes
        assert columns == 16 * len(synthetic_collection)
        grown = index.memory_bytes() - before
        assert columns <= grown <= _deep_sizeof(pair) + 256
        # the pair is inside the walk, once
        assert _deep_sizeof((index, pair)) - index.memory_bytes() < 1024

    def test_copies_per_shard_match_the_partition(self, synthetic_collection, rng):
        """The skew rule's shard sizes, read off the locator's pair as the
        count over each shard's closed range, equal the copies the
        partitioner puts in each shard -- with updates buffered."""
        index = ShardedIndex(synthetic_collection, backend="hintm_hybrid",
                             num_shards=4, num_bits=7)
        index.query_count(Query(0, 0))
        _apply(index, _random_updates(synthetic_collection, rng, count=40))
        pieces = partition_collection(index.live_collection(), index.plan)
        state = index.maintenance_state()
        assert state["pending"] == 40 == index._epoch.locator.pair.used
        assert state["copies_per_shard"] == [len(piece) for piece in pieces]
        assert sum(state["copies_per_shard"]) > len(index)  # duplication counted


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


class _HybridShape:
    """Just the surface the rebuild rule reads: ``len``, ``delta_size``,
    ``tombstones`` and ``rebuild()``, with ``live`` intervals in the main
    index."""

    updates = None

    def __init__(self, live, delta, tombstones=0):
        self.live, self.delta_size, self.tombstones, self.rebuilds = live, delta, tombstones, 0

    def __len__(self):
        return self.live + self.delta_size

    def rebuild(self):
        self.live += self.delta_size
        self.delta_size = self.tombstones = 0
        self.rebuilds += 1


class TestPolicies:
    def test_threshold_policy(self):
        """The one rule, at its edges: the delta, or the main index's
        tombstones, must reach both the fraction of the live main index and
        the absolute floor."""

        def rebuilds(live, delta, force=False, tombstones=0):
            shape = _HybridShape(live, delta, tombstones)
            report = MaintenanceCoordinator(shape).maintain(force=force)
            assert shape.rebuilds == len(report.rebuilt_shards)
            return bool(shape.rebuilds)

        big = 100 * REBUILD_MIN_DELTA
        at_fraction = int(REBUILD_FRACTION * big)
        assert not rebuilds(big, REBUILD_MIN_DELTA - 1)
        assert not rebuilds(big, at_fraction - 1)
        assert rebuilds(big, at_fraction)
        assert rebuilds(0, REBUILD_MIN_DELTA)
        assert not rebuilds(0, REBUILD_MIN_DELTA - 1)
        # force rebuilds any non-empty delta, and only a non-empty one
        assert rebuilds(big, 1, force=True)
        assert not rebuilds(big, 0, force=True)
        # tombstones count as the delta's inserts do, never summed with them
        assert not rebuilds(big, at_fraction - 1, tombstones=at_fraction - 1)
        assert rebuilds(big, 0, tombstones=at_fraction)
        assert not rebuilds(0, 0, tombstones=REBUILD_MIN_DELTA - 1)
        assert rebuilds(0, 0, tombstones=REBUILD_MIN_DELTA)
        assert rebuilds(big, 0, force=True, tombstones=1)

    def test_maintain_compacts_tombstones(self, synthetic_collection, synthetic_queries):
        """A store that deleted 10 % of its main index and then maintained
        holds no tombstones and answers as the oracle does; a forced pass
        compacts a lone tombstone."""
        store = IntervalStore.open(synthetic_collection, "hintm_hybrid", num_bits=8)
        naive = NaiveIndex.build(synthetic_collection)
        index = store.index
        for interval_id in synthetic_collection.ids[::10].tolist():
            assert store.delete(interval_id) and naive.delete(interval_id)
        assert index.tombstones == len(synthetic_collection.ids[::10]) and not index.delta_size
        assert store.maintain().rebuilt_shards == [0]
        assert index.tombstones == 0 and index.main_index._dead is None
        for query in synthetic_queries:
            assert sorted(index.query(query).tolist()) == sorted(naive.query(query))
        victim = int(synthetic_collection.ids[1])
        assert store.delete(victim) and naive.delete(victim)
        assert store.maintain().rebuilt_shards == []  # one tombstone is below the rule
        assert store.maintain(force=True).rebuilt_shards == [0]
        assert index.tombstones == 0
        for query in synthetic_queries:
            assert sorted(index.query(query).tolist()) == sorted(naive.query(query))
        store.close()


class TestCoordinator:
    def test_maintain_rebuilds_hybrid_shards(self, synthetic_collection, rng):
        index = ShardedIndex(synthetic_collection, backend="hintm_hybrid",
                             num_shards=4, num_bits=7)
        # repartition off: this test isolates the per-shard rebuild path (a
        # repartition would preempt it, since fresh builds fold the deltas)
        coordinator = MaintenanceCoordinator(
            index, config=MaintenanceConfig(repartition=False)
        )
        _apply(index, _random_updates(synthetic_collection, rng, count=100))
        deltas_before = [s.delta_size for s in index.shards]
        assert any(deltas_before)
        report = coordinator.maintain(force=True)
        assert report.rebuilt_shards == [
            shard for shard, delta in enumerate(deltas_before) if delta
        ]
        for shard_id in report.rebuilt_shards:
            assert index.shards[shard_id].delta_size == 0
        assert coordinator.reports[-1] is report
        state = coordinator.state()
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
        sizes = index.maintenance_state()["copies_per_shard"]
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
        balanced = index.maintenance_state()["copies_per_shard"]
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
        report = store.maintain(force=True)
        assert report.rebuilt_shards == [0]
        assert store.index.delta_size == 0
        assert store.index.rebuilds == 1

    def test_rebuild_rule(self):
        """An unforced pass rebuilds once the delta holds 10% of the main
        index *and* at least ``REBUILD_MIN_DELTA`` intervals."""
        main = 1_000
        store = IntervalStore.from_pairs(
            [(10 * i, 10 * i + 5) for i in range(main)], backend="hintm_hybrid",
            num_bits=7,
        )
        next_id = 10**6

        def insert(count):
            nonlocal next_id
            for _ in range(count):
                store.insert(Interval(next_id, next_id % 997, next_id % 997 + 3))
                next_id += 1

        insert(REBUILD_MIN_DELTA)  # past the floor, short of 10% of 1,000
        assert not store.maintain().rebuilt_shards
        insert(main // 10 - REBUILD_MIN_DELTA - 1)  # one short of 10%
        assert not store.maintain().rebuilt_shards
        insert(1)
        assert store.maintain().rebuilt_shards == [0]
        assert store.index.delta_size == 0
        # a small main index still waits for the absolute floor
        small = IntervalStore.from_pairs(
            [(10 * i, 10 * i + 5) for i in range(50)], backend="hintm_hybrid",
            num_bits=7,
        )
        for i in range(REBUILD_MIN_DELTA - 1):
            small.insert(Interval(10**6 + i, i, i + 3))
        assert not small.maintain().rebuilt_shards
        small.insert(Interval(2 * 10**6, 0, 3))
        assert small.maintain().rebuilt_shards == [0]

    def test_rebuild_rule_reads_the_live_main_index(self):
        """Deletes shrink the main index the fraction is taken of: a delta
        too small for the full index is enough once half of it is gone."""
        main = 20 * REBUILD_MIN_DELTA
        store = IntervalStore.from_pairs(
            [(10 * i, 10 * i + 5) for i in range(main)], backend="hintm_hybrid",
            num_bits=7,
        )
        for i in range(REBUILD_MIN_DELTA):
            store.insert(Interval(10**6 + i, 10 * i, 10 * i + 3))
        assert not store.maintain().rebuilt_shards
        for interval_id in range(main // 2):
            assert store.delete(interval_id)
        assert store.maintain().rebuilt_shards == [0]
        assert store.index.delta_size == 0
        assert len(store.index) == main // 2 + REBUILD_MIN_DELTA

    def test_unforced_pass_rebuilds_only_shards_past_the_rule(self):
        """The rule is applied shard by shard, each against its own size."""
        per_shard = 2 * REBUILD_MIN_DELTA
        collection = IntervalCollection.from_pairs(
            [(10 * i, 10 * i + 5) for i in range(4 * per_shard)]
        )
        index = ShardedIndex(collection, backend="hintm_hybrid",
                             num_shards=4, num_bits=7)
        coordinator = MaintenanceCoordinator(
            index, config=MaintenanceConfig(repartition=False)
        )
        lo, hi = collection.span()
        for i in range(REBUILD_MIN_DELTA):  # enough for the first shard
            index.insert(Interval(10**6 + i, lo + i, lo + i + 1))
        for i in range(REBUILD_MIN_DELTA - 1):  # one short in the last
            index.insert(Interval(2 * 10**6 + i, hi - 2, hi - 1))
        assert index.shards[0].delta_size == REBUILD_MIN_DELTA
        assert index.shards[3].delta_size == REBUILD_MIN_DELTA - 1
        report = coordinator.maintain()
        assert report.rebuilt_shards == [0]
        assert index.shards[0].delta_size == 0
        assert index.shards[3].delta_size == REBUILD_MIN_DELTA - 1
        assert coordinator.maintain(force=True).rebuilt_shards == [3]

    def test_static_backend_maintain_is_noop(self, synthetic_collection):
        store = IntervalStore.open(synthetic_collection, "hintm_opt", num_bits=7)
        report = store.maintain(force=True)
        assert isinstance(report, MaintenanceReport)
        assert report.actions == 0

    def test_store_maintenance_caching_and_replacement(self, synthetic_collection):
        store = IntervalStore.open(synthetic_collection, "hintm_hybrid", num_bits=7)
        first = store.maintenance()
        assert store.maintenance() is first
        replaced = store.maintenance(config=MaintenanceConfig(repartition=False))
        assert replaced is not first
        assert store.maintenance() is replaced
        store.close()

    def test_background_maintenance_never_loses_foreground_updates(self, rng):
        """Forced passes loop on a plain thread -- what the query server's
        ``/maintain`` does through ``run_in_executor`` -- while this thread
        inserts and deletes.  Repartitions and shard rebuilds
        snapshot-then-swap state; an update interleaving with either must
        never be discarded."""
        # clumped data: the far-off inserts below drift the shard sizes, so
        # passes repartition as well as rebuild
        starts = np.sort(rng.integers(0, 1_000, size=2_000))
        collection = IntervalCollection(
            ids=np.arange(2_000), starts=starts, ends=starts + 5
        )
        index = ShardedIndex(collection, backend="hintm_hybrid",
                             num_shards=4, num_bits=7)
        coordinator = MaintenanceCoordinator(
            index, config=MaintenanceConfig(skew_threshold=1.1)
        )
        live = {
            int(i): (int(s), int(e))
            for i, s, e in zip(collection.ids, collection.starts, collection.ends)
        }
        done = threading.Event()
        passed = threading.Event()
        errors = []

        def maintain_loop():
            try:
                while not done.is_set():
                    coordinator.maintain(force=True)
                    passed.set()
            except BaseException as exc:  # surfaced by the main thread
                errors.append(exc)
                passed.set()

        thread = threading.Thread(target=maintain_loop)
        thread.start()
        try:
            for op in range(600):
                start = int(rng.integers(0, 200_000))
                index.insert(Interval(10**6 + op, start, start + 100))
                live[10**6 + op] = (start, start + 100)
                victim = int(rng.choice(list(live)))
                assert index.delete(victim), f"lost update: delete({victim})"
                del live[victim]
                if op % 25 == 24:
                    # hand the pass thread the lock at least once per 25 ops:
                    # the interleaving is forced, not left to the scheduler
                    passed.clear()
                    assert passed.wait(timeout=60), "maintenance thread hung"
                    assert not errors, errors
        finally:
            done.set()
            thread.join()
        assert not errors, errors
        reports = coordinator.reports
        assert any(report.repartitioned for report in reports)
        assert any(report.rebuilt_shards for report in reports)
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

class TestMaintenanceStateSurface:
    def test_state_carries_ingest_state(self, synthetic_collection):
        store = IntervalStore.open(synthetic_collection, "hintm_hybrid",
                                   num_shards=4, num_bits=7)
        lo, _ = synthetic_collection.span()
        store.query().overlapping(lo, lo).count()  # builds the locator's pair
        store.insert(Interval(10**6, lo, lo + 1))
        state = store.index.maintenance_state()
        assert state["pending"] == 1
        assert state["snapshot_generation"] == 0

    def test_maintenance_state_shape(self, synthetic_collection):
        index = ShardedIndex(synthetic_collection, backend="hintm_hybrid",
                             num_shards=4, num_bits=7)
        state = index.maintenance_state()
        assert state["num_shards"] == 4
        assert state["pending"] == 0
        assert len(state["copies_per_shard"]) == 4
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
        assert not isinstance(serial.index, ShardedIndex)
        with IntervalStore.open(
            synthetic_collection, "hintm", num_shards="auto",
            executor="processes", workers=4,
        ) as store:
            assert isinstance(store.index, ShardedIndex)
            assert store.index.num_shards == 4

    def test_store_open_rejects_other_strings(self, synthetic_collection):
        with pytest.raises(ValueError, match="auto"):
            IntervalStore.open(synthetic_collection, "hintm", num_shards="many")


class TestReportSummary:
    def test_summary_mentions_every_action(self):
        report = MaintenanceReport(
            rebuilt_shards=[1, 3], repartitioned=True,
            cuts=(10, 20), skew=2.5, snapshot_refreshed=True, generation=2,
            seconds=0.01,
        )
        text = report.summary()
        assert "[1, 3]" in text
        assert "re-partitioned" in text and "generation 2" in text
        assert report.actions == 4
        idle = MaintenanceReport()
        assert "nothing to do" in idle.summary()
        assert idle.actions == 0
