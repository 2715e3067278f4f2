"""The one count path: every index counts with two bisections over the
count pair of its id -> span table (``IntervalIndex.query_count``, its
exists and batch forms, :class:`repro.core.spans.CountPair`).

Covers each backend's count against its own ids and the brute-force oracle
-- at K in {1, 2, 4}, through inserts, deletes, a re-inserted id,
``repartition()`` and ``maintain(force=True)`` -- on bounds that are
floats, infinities or past int64; that ``OptimizedHINTm`` counts walk
nothing; the lazy pair (no bytes until the first count, no fold below a
full buffer); a first count racing a writer; and the sharded index's
batched counts, which touch neither a shard index nor the worker pool.
"""

import math
import multiprocessing
import sys
import threading

import numpy as np
import pytest

from repro.baselines.grid1d import Grid1D
from repro.baselines.interval_tree import IntervalTree
from repro.baselines.naive import NaiveIndex
from repro.core.interval import HAS_SHARED_MEMORY, Interval, IntervalCollection, Query
from repro.core.spans import CountPair
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic
from repro.engine import IntervalStore, ProcessExecutor, ShardedIndex, available_backends
from repro.hint.optimized import _BATCH_CROSSOVER, OptimizedHINTm

#: every registered single-index backend
BACKENDS = [name for name in available_backends() if name != "sharded"]


@pytest.fixture(scope="module")
def fastpath_collection():
    rng = np.random.default_rng(11)
    starts = rng.integers(0, 50_000, size=2_000)
    lengths = rng.integers(0, 2_000, size=2_000)
    return IntervalCollection(ids=np.arange(2_000), starts=starts, ends=starts + lengths)


@pytest.fixture(scope="module")
def fastpath_queries():
    rng = np.random.default_rng(12)
    queries = []
    for _ in range(150):
        start = int(rng.integers(0, 52_000))
        queries.append(Query(start, start + int(rng.integers(0, 5_000))))
    queries.append(Query(0, 60_000))
    queries.append(Query.stabbing(25_000))
    queries.append(Query(90_000, 95_000))  # beyond the data span
    return queries


class TestCountCorrectness:
    @pytest.mark.parametrize("sparse", [True, False])
    @pytest.mark.parametrize("columnar", [True, False])
    def test_optimized_hintm_all_variants(
        self, fastpath_collection, fastpath_queries, sparse, columnar
    ):
        index = OptimizedHINTm(
            fastpath_collection, num_bits=9, sparse_directory=sparse, columnar=columnar
        )
        for query in fastpath_queries:
            expected = len(index.query(query))
            assert index.query_count(query) == expected, (sparse, columnar, query)
            assert index.query_exists(query) == bool(expected), (sparse, columnar, query)

    def test_optimized_hintm_with_tombstones(self, fastpath_collection, fastpath_queries):
        index = OptimizedHINTm(fastpath_collection, num_bits=9)
        for interval_id in fastpath_collection.ids[:100]:
            index.delete(int(interval_id))
        for query in fastpath_queries[:40]:
            assert index.query_count(query) == len(index.query(query))

    def test_grid1d(self, fastpath_collection, fastpath_queries):
        index = Grid1D(fastpath_collection, num_partitions=64)
        for query in fastpath_queries:
            expected = len(index.query(query))
            assert index.query_count(query) == expected
            assert index.query_exists(query) == bool(expected)
        index.delete(0)
        index.delete(1)
        for query in fastpath_queries[:40]:
            assert index.query_count(query) == len(index.query(query))

    def test_naive(self, fastpath_collection, fastpath_queries):
        index = NaiveIndex(fastpath_collection)
        for query in fastpath_queries:
            assert index.query_count(query) == len(index.query(query))
            assert index.query_exists(query) == bool(index.query(query))

    def test_base_default_on_backend_without_override(
        self, fastpath_collection, fastpath_queries
    ):
        index = IntervalTree.build(fastpath_collection)
        for query in fastpath_queries[:20]:
            assert index.query_count(query) == len(index.query(query))


@pytest.mark.skipif(not HAS_SHARED_MEMORY, reason="no multiprocessing.shared_memory")
class TestShardedBatchCounts:
    def test_count_batches_build_no_shard_in_the_parent(
        self, fastpath_collection, fastpath_queries
    ):
        """A one-query batch used to take the per-query path, which builds
        the probed shard in the parent under a process executor."""
        expected = [len(fastpath_collection.query_ids(q)) for q in fastpath_queries]
        with IntervalStore.open(
            fastpath_collection, "naive", num_shards=2, executor="processes", workers=2
        ) as store:
            for size in (1, len(fastpath_queries)):
                batch, want = fastpath_queries[:size], expected[:size]
                assert store.count_batch(batch) == want
                assert store.exists_batch(batch) == [count > 0 for count in want]
                assert store.index.built_shards == [None, None]

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_batched_counts_touch_neither_pool_nor_shards(
        self, fastpath_collection, fastpath_queries, pending_updates, monkeypatch, method
    ):
        """After 400 updates, count and exists batches equal the
        brute-force oracle from the locator's count pair alone: built once
        over the live rows, never folded, nothing submitted, no shard
        probed -- also once fan-out has tripped and after ``close()``."""
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"start method {method!r} unavailable")

        def forbidden(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("a count batch left the count pair")

        folds = []
        fold = CountPair.fold

        with ProcessExecutor(2, start_method=method) as executor:
            index = ShardedIndex(
                fastpath_collection, backend="naive", num_shards=4, executor=executor
            )
            oracle = pending_updates(index, fastpath_collection, inserts=200, deletes=200)
            expected = oracle(fastpath_queries)
            for name in ("submit", "map"):
                monkeypatch.setattr(ProcessExecutor, name, forbidden)
            for name in ("query", "query_count", "query_exists"):
                monkeypatch.setattr(NaiveIndex, name, forbidden)
            monkeypatch.setattr(CountPair, "fold", lambda pair: folds.append(pair) or fold(pair))

            def check():
                assert index.query_count_batch(fastpath_queries) == expected
                assert index.query_exists_batch(fastpath_queries) == [
                    count > 0 for count in expected
                ]

            check()
            index._fanout_disabled = True
            check()
            index.close()
            check()
            assert folds == []  # the pair was built over the live rows


class TestCountPath:
    def test_count_gathers_no_id_on_100k(self, monkeypatch):
        """``count()`` on 100k results never builds the id answer: the
        count path sums partition-run lengths and tests boundary rows only.

        Structural rather than timed: the id path is made to fail, so a
        count that fell back to ``len(ids())`` fails on any machine.
        """
        collection = generate_synthetic(
            SyntheticConfig(
                domain_length=10_000_000,
                cardinality=100_000,
                alpha=1.2,
                sigma=1_000_000,
                seed=7,
            )
        )
        store = IntervalStore.open(collection, backend="hintm_opt", num_bits=10)
        lo, hi = collection.span()
        builder = lambda: store.query().overlapping(lo, hi)
        assert len(builder().ids()) == 100_000

        def no_ids(self, query, stats=None):
            raise AssertionError("count() gathered the ids")

        monkeypatch.setattr(OptimizedHINTm, "_answer", no_ids)
        assert builder().count() == 100_000
        assert builder().exists()
        with pytest.raises(AssertionError):
            builder().ids()


# --------------------------------------------------------------------------- #
# bounds: floats, infinities, past int64
# --------------------------------------------------------------------------- #
#: ids 1-4 over [0, 2], [10, 20], [50, 90] and [2, 60]
_FOUR = IntervalCollection(ids=[1, 2, 3, 4], starts=[0, 10, 50, 2], ends=[2, 20, 90, 60])
_ODD_BOUNDS = [
    Query(2.5, 8.0),
    Query(2.5, 2.7),  # no integer inside: [2, 60] still overlaps it
    Query(20.5, 49.5),
    Query(-0.5, 0.5),
    Query(-5, 2**70),
    Query(-math.inf, math.inf),
    Query(-math.inf, 1.5),
    Query(90.5, 1e30),
    Query(-1e30, -0.5),
    Query(2**70, 2**71),
    Query(-(2**70), -(2**69)),
    Query(-5, -3),
]


@pytest.mark.parametrize("num_shards", [1, 2])
@pytest.mark.parametrize("backend", BACKENDS)
def test_counts_are_exact_on_any_bounds(backend, num_shards):
    """Scalar and batched counts share one exact-bounds rule: a float bound
    is rounded inwards and a bound past int64 clamps, so a count equals
    the ids answer (and the oracle) whatever type a query's bounds have,
    at K == 2 too, where a batch must neither truncate a float bound nor
    overflow on 2**70."""
    store = IntervalStore.open(_FOUR, backend, num_shards=num_shards)
    index = store.index
    want = [len(index.query(query)) for query in _ODD_BOUNDS]
    assert want == [len(_FOUR.query_ids(query)) for query in _ODD_BOUNDS]
    assert [index.query_count(query) for query in _ODD_BOUNDS] == want
    assert [index.query_exists(query) for query in _ODD_BOUNDS] == [n > 0 for n in want]
    batch = _ODD_BOUNDS * 2
    assert len(batch) >= _BATCH_CROSSOVER
    assert index.query_count_batch(batch) == want * 2
    assert index.query_exists_batch(batch) == [n > 0 for n in want] * 2
    for query, n in zip(_ODD_BOUNDS, want):
        assert index.query_count_batch([query] * _BATCH_CROSSOVER) == [n] * _BATCH_CROSSOVER
    store.close()


# --------------------------------------------------------------------------- #
# counts through updates, repartitions and maintenance, every backend and K
# --------------------------------------------------------------------------- #
def _small_collection(seed=5, size=600):
    rng = np.random.default_rng(seed)
    starts = rng.integers(0, 40_000, size=size)
    return IntervalCollection(
        ids=np.arange(size), starts=starts, ends=starts + rng.integers(0, 3_000, size=size)
    )


@pytest.mark.parametrize("num_shards", [1, 2, 4])
@pytest.mark.parametrize("backend", BACKENDS)
def test_counts_follow_updates_and_maintenance(backend, num_shards):
    collection = _small_collection()
    rng = np.random.default_rng(6)
    store = IntervalStore.open(collection, backend, num_shards=num_shards)
    index = store.index
    live = {int(i): (int(s), int(e)) for i, s, e in zip(
        collection.ids, collection.starts, collection.ends)}
    queries = [Query(int(a), int(a) + int(w)) for a, w in zip(
        rng.integers(-1_000, 44_000, 30), rng.integers(0, 6_000, 30))]
    queries += [Query(0, 50_000), Query.stabbing(20_000), Query(60_000, 70_000)]

    def check():
        want = [
            sum(1 for s, e in live.values() if s <= q.end and e >= q.start) for q in queries
        ]
        assert [len(index.query(q)) for q in queries] == want
        assert [index.query_count(q) for q in queries] == want
        assert [index.query_exists(q) for q in queries] == [n > 0 for n in want]
        assert index.query_count_batch(queries) == want
        assert index.query_exists_batch(queries) == [n > 0 for n in want]

    check()  # the first count builds the pair; the updates below record into it
    inserts = backend != "hintm_opt"  # the static index deletes only
    for offset in range(40):
        if inserts:
            start = int(rng.integers(0, 38_000))
            interval = Interval(10_000 + offset, start, start + int(rng.integers(0, 2_000)))
            store.insert(interval)
            live[interval.id] = (interval.start, interval.end)
        victim = int(collection.ids[offset * 7])
        assert store.delete(victim)
        del live[victim]
    check()
    if inserts:  # a deleted id comes back with another span
        store.insert(Interval(0, 30_000, 30_500))
        live[0] = (30_000, 30_500)
        check()
    if isinstance(index, ShardedIndex):
        index.repartition(strategy="balanced")
        check()
    store.maintain(force=True)
    check()
    victim = next(iter(live))
    assert store.delete(victim)
    del live[victim]
    check()
    store.close()


# --------------------------------------------------------------------------- #
# the pair: no walk, built lazily, folded only when its buffer is full
# --------------------------------------------------------------------------- #
def test_optimized_counts_walk_nothing(fastpath_collection, fastpath_queries, monkeypatch):
    """Counts, exists and both batch forms answer from the span table while
    the walk, the ids gather and the batch kernel all raise."""
    index = OptimizedHINTm(fastpath_collection, num_bits=9)
    for interval_id in fastpath_collection.ids[:50].tolist():
        assert index.delete(interval_id)
    oracle = NaiveIndex(fastpath_collection)
    for interval_id in fastpath_collection.ids[:50].tolist():
        oracle.delete(interval_id)
    want = [oracle.query_count(query) for query in fastpath_queries]

    def walked(*args, **kwargs):  # pragma: no cover - failure path
        raise AssertionError("a count walked the index")

    for name in ("_walk", "_answer", "_batch_plan"):
        monkeypatch.setattr(OptimizedHINTm, name, walked)
    assert [index.query_count(query) for query in fastpath_queries] == want
    assert [index.query_exists(query) for query in fastpath_queries] == [n > 0 for n in want]
    assert len(fastpath_queries) >= _BATCH_CROSSOVER
    assert index.query_count_batch(fastpath_queries) == want
    assert index.query_exists_batch(fastpath_queries) == [n > 0 for n in want]


def test_memory_grows_by_the_pair_on_the_first_count(fastpath_collection, fastpath_queries):
    store = IntervalStore.open(fastpath_collection, "hintm_opt", num_bits=9)
    before = store.memory_bytes()
    store.run_batch(fastpath_queries)
    store.query().overlapping(0, 10_000).ids()
    assert store.memory_bytes() == before  # no count, no pair
    store.query().overlapping(0, 10_000).count()
    pair = store.index._spans.pair
    grown = store.memory_bytes() - before
    # the sorted starts and ends, 16 B an interval, and a small buffer
    assert pair.starts.nbytes + pair.ends.nbytes == 16 * len(fastpath_collection)
    assert 16 * len(fastpath_collection) <= grown <= 16 * len(fastpath_collection) + 2_048
    store.query().overlapping(0, 20_000).count()
    assert store.memory_bytes() - before == grown  # built once


def test_counts_below_a_full_buffer_never_fold(fastpath_collection, fastpath_queries, monkeypatch):
    index = IntervalStore.open(fastpath_collection, "hintm").index
    oracle = NaiveIndex(fastpath_collection)
    index.query_count(Query(0, 0))
    capacity = math.isqrt(len(fastpath_collection))
    folds = []
    fold = CountPair.fold
    monkeypatch.setattr(CountPair, "fold", lambda pair: folds.append(pair) or fold(pair))
    for offset in range(capacity - 1):  # one short of a full buffer
        if offset % 2:
            interval = Interval(50_000 + offset, offset * 100, offset * 100 + 1_500)
            index.insert(interval)
            oracle.insert(interval)
        else:
            assert index.delete(offset) and oracle.delete(offset)
    assert index._spans.pair.used == capacity - 1
    want = [oracle.query_count(query) for query in fastpath_queries]
    assert [index.query_count(query) for query in fastpath_queries] == want
    assert index.query_count_batch(fastpath_queries) == want
    assert folds == []
    index.insert(Interval(99_999, 5, 6))  # fills the buffer: one fold
    assert len(folds) == 1 and index._spans.pair.used == 0


@pytest.mark.parametrize("backend", ["hintm", "hintm_hybrid"])
def test_a_first_count_races_a_writer(fastpath_collection, backend):
    """One writer inserts and deletes while reader threads take the first
    count -- the pair's build and the table's updates serialise on one
    lock, so no reader raises and the quiescent count is the ids'."""
    queries = [Query(0, 60_000), Query(10_000, 12_000), Query.stabbing(25_000)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often: mid-build, mid-update
    try:
        for round_ in range(4):
            _race_a_first_count(fastpath_collection, backend, queries, round_)
    finally:
        sys.setswitchinterval(interval)


def _race_a_first_count(collection, backend, queries, round_):
    """One round: a fresh index, one writer, three first-count readers."""
    index = IntervalStore.open(collection, backend).index
    start = threading.Barrier(4)
    errors = []

    def write():
        start.wait()
        for offset in range(300):
            index.insert(Interval(100_000 + offset, offset * 50, offset * 50 + 700))
            index.delete(offset)

    def read():
        start.wait()
        try:
            for _ in range(50):
                index.query_count(queries[0])
                index.query_count_batch(queries)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=write)] + [
        threading.Thread(target=read) for _ in range(3)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive(), round_
    assert errors == [], round_
    assert [index.query_count(q) for q in queries] == [len(index.query(q)) for q in queries]
    assert index.query_count_batch(queries) == [len(index.query(q)) for q in queries]
