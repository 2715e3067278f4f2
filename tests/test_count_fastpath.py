"""Tests for the counting fast paths (``IntervalIndex.query_count``).

Covers correctness of every override against the materialising path, that
``OptimizedHINTm``'s count on a 100k-result query builds no id answer (it
sums partition-run lengths), and the sharded index's batched counts:
bisections over the parent's one count pair that touch neither a shard
index nor the worker pool.
"""

import multiprocessing

import numpy as np
import pytest

from repro.baselines.grid1d import Grid1D
from repro.baselines.interval_tree import IntervalTree
from repro.baselines.naive import NaiveIndex
from repro.core.interval import HAS_SHARED_MEMORY, IntervalCollection, Query
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic
from repro.engine import IntervalStore, ProcessExecutor, ShardedIndex
from repro.engine.maintenance import CountColumns
from repro.hint.optimized import OptimizedHINTm


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
        """With 400 updates pending, count and exists batches equal the
        brute-force oracle from the count pair alone: one fold of each of
        its two columns, nothing submitted, no shard probed -- also once
        fan-out has tripped and after ``close()``."""
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"start method {method!r} unavailable")

        def forbidden(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("a count batch left the count pair")

        folds = []

        def counted_fold(column, adds, removes, fold=CountColumns._fold_column):
            folds.append(len(column))
            return fold(column, adds, removes)

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
            monkeypatch.setattr(CountColumns, "_fold_column", staticmethod(counted_fold))

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
            assert len(folds) == 2  # starts + ends, once each


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
