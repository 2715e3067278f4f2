"""Epoch-based read snapshots: atomic partition publication under readers.

The contract under test: every query pins one :class:`repro.engine.sharded.Epoch`
and runs entirely against it, so a query concurrent with ``repartition()``
(or a full maintenance pass) sees either the old partition state or the new
one -- never new cuts with old shards, or count columns that disagree with the
locator.  The stress tests drive continuous readers against a live
maintenance/update mix and assert every answer against a brute-force oracle
over the untouched core of the data.
"""

import threading
import time

import numpy as np
import pytest

from repro.core.interval import Interval, IntervalCollection, Query
from repro.engine import IntervalStore
from repro.engine.sharded import ShardedIndex


def _collection(n=500, span=20_000, seed=9):
    rng = np.random.default_rng(seed)
    starts = rng.integers(0, span, n)
    ends = starts + rng.integers(0, span // 40, n)
    return IntervalCollection.from_pairs(
        [(int(s), int(e)) for s, e in zip(starts, ends)]
    )


def _oracle(live, query):
    return {
        interval_id
        for interval_id, (start, end) in live.items()
        if start <= query.end and query.start <= end
    }


# --------------------------------------------------------------------------- #
# epoch mechanics
# --------------------------------------------------------------------------- #
class TestEpochMechanics:
    def test_epoch_zero_at_build_and_stable_under_queries(self):
        index = ShardedIndex(_collection(), num_shards=4)
        assert index.epoch == 0
        index.query(Query(0, 1_000))
        index.query_count(Query(0, 1_000))
        assert index.epoch == 0
        index.close()

    def test_repartition_publishes_a_new_epoch(self):
        index = ShardedIndex(_collection(), num_shards=4, backend="hintm_hybrid")
        index.insert(Interval(10_000, 0, 50))  # drift, so repartition plans fresh
        old_epoch = index._epoch
        assert index.repartition(strategy="balanced")
        assert index.epoch == old_epoch.epoch_id + 1
        assert index._epoch is not old_epoch

    def test_noop_repartition_keeps_the_epoch(self):
        index = ShardedIndex(_collection(), num_shards=4)
        epoch = index.epoch
        assert not index.repartition()  # same cuts -> nothing installed
        assert index.epoch == epoch
        index.close()

    def test_pinned_epoch_answers_after_repartition(self):
        """A reader holding the old epoch keeps a complete, queryable state."""
        collection = _collection()
        index = ShardedIndex(collection, num_shards=4, backend="hintm_hybrid")
        query = Query(0, 20_500)
        expected = set(index.query(query))
        pinned = index._epoch
        index.insert(Interval(10_000, 3, 20_400))
        assert index.repartition(strategy="balanced")
        # the pinned epoch still has its own consistent plan/shards/counts;
        # in-place updates that preceded the repartition are visible, the
        # new epoch's geometry is not
        got = index._query_epoch(pinned, query)
        assert set(got) == expected | {10_000}
        assert pinned.plan.cuts != index.plan.cuts
        index.close()

    def test_lazy_result_set_survives_concurrent_repartition(self):
        collection = _collection()
        store = IntervalStore.open(
            collection, "hintm_hybrid", num_shards=4, strategy="equi_width"
        )
        handle = store.query().overlapping(0, 20_500).build()  # lazy
        expected = set(
            int(i)
            for i, s, e in zip(collection.ids, collection.starts, collection.ends)
        )
        store.insert(Interval(10_000, 0, 10))
        store.index.repartition(strategy="balanced")
        assert set(handle.ids()) >= expected  # old-epoch shards, still complete
        store.close()


# --------------------------------------------------------------------------- #
# reader/maintenance interleaving stress (the PR's acceptance scenario)
# --------------------------------------------------------------------------- #
class TestReaderMaintenanceStress:
    """Readers never block and never see a half-installed plan.

    The core intervals (ids < 10_000) are never updated, so every query's
    answer must contain exactly the core oracle's ids for its range at all
    times -- a reader catching a half-installed partition would drop a
    shard's worth of core results (or raise).  Churn intervals (ids >=
    10_000) come and go concurrently; results are only required to stay
    inside the known universe.
    """

    CHURN_BASE = 10_000

    def _run_stress(self, store, collection, seconds=2.0, readers=3):
        lo, hi = collection.span()
        core = {
            int(i): (int(s), int(e))
            for i, s, e in zip(collection.ids, collection.starts, collection.ends)
        }
        rng = np.random.default_rng(17)
        queries = []
        for _ in range(25):
            a = int(rng.integers(lo, hi))
            b = a + int(rng.integers(0, hi - lo))
            queries.append(Query(a, b))
        expected = {q: _oracle(core, q) for q in queries}
        stop = threading.Event()
        failures = []

        def reader():
            try:
                while not stop.is_set():
                    for query in queries:
                        got = set(store.index.query(query))
                        core_hits = {i for i in got if i < self.CHURN_BASE}
                        if core_hits != expected[query]:
                            failures.append(
                                (query, sorted(core_hits ^ expected[query]))
                            )
                            stop.set()
                            return
                        count = store.index.query_count(query)
                        if count < len(expected[query]):
                            failures.append((query, "count", count))
                            stop.set()
                            return
                        if not expected[query]:
                            continue
                        if not store.index.query_exists(query):
                            failures.append((query, "exists"))
                            stop.set()
                            return
                    # the batched hooks read the pinned epoch's count columns
                    counts = store.index.query_count_batch(queries)
                    flags = store.index.query_exists_batch(queries)
                    for query, count, flag in zip(queries, counts, flags):
                        if count < len(expected[query]) or (expected[query] and not flag):
                            failures.append((query, "batch", count, flag))
                            stop.set()
                            return
            except Exception as exc:  # noqa: BLE001 - surfaced below
                failures.append(exc)
                stop.set()

        threads = [threading.Thread(target=reader) for _ in range(readers)]
        for thread in threads:
            thread.start()

        churn_rng = np.random.default_rng(23)
        next_id = self.CHURN_BASE
        live_churn = []
        live = dict(core)
        deadline = time.monotonic() + seconds
        try:
            while time.monotonic() < deadline and not stop.is_set():
                # a burst of churn updates...
                for _ in range(20):
                    start = int(churn_rng.integers(lo, hi))
                    end = start + int(churn_rng.integers(0, (hi - lo) // 10))
                    store.insert(Interval(next_id, start, end))
                    live_churn.append(next_id)
                    live[next_id] = (start, end)
                    next_id += 1
                while len(live_churn) > 100:
                    victim = live_churn.pop(0)
                    assert store.delete(victim)
                    del live[victim]
                # ...then the full maintenance surface area under readers
                store.maintain(force=True)
                store.index.repartition(strategy="balanced")
                store.index.repartition(strategy="equi_width")
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert not failures, f"reader diverged: {failures[:3]}"
        # quiesced: the batched counts are exact over core + surviving churn
        quiesced = [len(_oracle(live, query)) for query in queries]
        assert store.index.query_count_batch(queries) == quiesced
        assert store.index.query_exists_batch(queries) == [c > 0 for c in quiesced]

    def test_queries_survive_maintenance_and_repartition(self):
        collection = _collection(n=400)
        store = IntervalStore.open(collection, "hintm_hybrid", num_shards=4)
        try:
            self._run_stress(store, collection)
            assert store.index.epoch > 0, "stress never installed a new epoch"
        finally:
            store.close()

    def test_queries_survive_background_maintenance_daemon(self):
        """Unforced passes loop on a background (daemon) thread while the
        stress churns, maintains and repartitions on this one under
        readers: passes from two threads interleave with every update."""
        collection = _collection(n=300)
        store = IntervalStore.open(collection, "hintm_hybrid", num_shards=4)
        done = threading.Event()
        errors = []

        def maintain_loop():
            try:
                while not done.is_set():
                    store.maintain()
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        thread = threading.Thread(target=maintain_loop, daemon=True)
        thread.start()
        try:
            self._run_stress(store, collection, seconds=1.5, readers=2)
        finally:
            done.set()
            thread.join(timeout=60)
            store.close()
        assert not thread.is_alive(), "maintenance thread hung"
        assert not errors, errors
        assert store.maintenance().reports, "the thread never ran a pass"

    def test_two_shard_stress_survives_maintenance_and_repartition(self):
        collection = _collection(n=300)
        store = IntervalStore.open(collection, "hintm_hybrid", num_shards=2)
        try:
            self._run_stress(store, collection, seconds=1.5, readers=2)
        finally:
            store.close()


class TestResidencySpecPinning:
    """Process-batch residency specs follow the pinned epoch (regression).

    A batch groups its queries by the pinned epoch's cuts; the spec shipped
    to workers must carry those same cuts (and a token distinct from the
    new epoch's), or a concurrent repartition would make workers build
    new-cut shards for old-cut query groupings.
    """

    def test_spec_uses_pinned_epoch_cuts_after_repartition(self):
        pytest.importorskip("multiprocessing.shared_memory")
        from repro.engine.executor import ProcessExecutor

        collection = _collection(n=400)
        executor = ProcessExecutor(workers=2)
        index = ShardedIndex(
            collection,
            backend="hintm_hybrid",
            num_shards=4,
            strategy="equi_width",
            executor=executor,
        )
        try:
            pinned = index._epoch
            index.insert(Interval(10_000, 0, 40))
            assert index.repartition(strategy="balanced")
            assert index._epoch.plan.cuts != pinned.plan.cuts
            old_spec = index._residency_spec(pinned)
            new_spec = index._residency_spec(index._epoch)
            assert old_spec.cuts == pinned.plan.cuts
            assert new_spec.cuts == index._epoch.plan.cuts
            assert old_spec.token != new_spec.token
        finally:
            index.close()
            executor.close()
