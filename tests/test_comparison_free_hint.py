"""Unit tests for the comparison-free HINT (paper Section 3.1)."""

import numpy as np
import pytest

from repro.baselines.naive import NaiveIndex
from repro.core.errors import DomainError
from repro.core.interval import Interval, IntervalCollection, Query
from repro.hint.comparison_free import ComparisonFreeHINT


@pytest.fixture(scope="module")
def discrete_collection() -> IntervalCollection:
    rng = np.random.default_rng(13)
    starts = rng.integers(0, 1024 - 64, 2_000)
    lengths = rng.integers(0, 64, 2_000)
    return IntervalCollection(ids=np.arange(2_000), starts=starts, ends=starts + lengths)


class TestConstruction:
    def test_invalid_bits(self, tiny_collection):
        with pytest.raises(DomainError):
            ComparisonFreeHINT(tiny_collection, num_bits=0)

    def test_out_of_domain_interval_rejected(self):
        data = IntervalCollection.from_intervals([Interval(0, 0, 40)])
        with pytest.raises(DomainError):
            ComparisonFreeHINT(data, num_bits=4)

    def test_num_levels(self, tiny_collection):
        index = ComparisonFreeHINT(tiny_collection, num_bits=4)
        assert index.num_bits == 4
        assert index.num_levels == 5

    def test_replication_factor_at_least_one(self, discrete_collection):
        index = ComparisonFreeHINT(discrete_collection, num_bits=10)
        assert index.replication_factor >= 1.0
        assert len(index) == len(discrete_collection)

    def test_paper_example_assignment(self):
        data = IntervalCollection.from_intervals([Interval(0, 5, 9)])
        index = ComparisonFreeHINT(data, num_bits=4)
        # [5, 9]: original in P(4,5); replicas in P(3,3), P(3,4)
        assert index._originals[4][5] == [0]
        assert index._replicas_parts[3][3] == [0]
        assert index._replicas_parts[3][4] == [0]
        assert index.replication_factor == pytest.approx(3.0)


class TestQueries:
    @pytest.mark.parametrize("sparse", [True, False])
    def test_matches_naive(self, discrete_collection, sparse):
        index = ComparisonFreeHINT(discrete_collection, num_bits=10, sparse=sparse)
        naive = NaiveIndex.build(discrete_collection)
        rng = np.random.default_rng(7)
        for _ in range(60):
            start = int(rng.integers(0, 1023))
            end = min(1023, start + int(rng.integers(0, 100)))
            q = Query(start, end)
            assert sorted(index.query(q)) == sorted(naive.query(q))

    @pytest.mark.parametrize("sparse", [True, False])
    def test_stabbing_queries(self, discrete_collection, sparse):
        index = ComparisonFreeHINT(discrete_collection, num_bits=10, sparse=sparse)
        naive = NaiveIndex.build(discrete_collection)
        for point in range(0, 1024, 37):
            assert sorted(index.stab(point)) == sorted(naive.stab(point))

    def test_no_duplicates(self, discrete_collection):
        index = ComparisonFreeHINT(discrete_collection, num_bits=10)
        results = index.query(Query(0, 1023))
        assert len(results) == len(set(results)) == len(discrete_collection)

    def test_zero_comparisons_reported(self, discrete_collection):
        """The comparison-free HINT never compares endpoints (Section 3.1)."""
        index = ComparisonFreeHINT(discrete_collection, num_bits=10)
        _, stats = index.query_with_stats(Query(100, 400))
        assert stats.comparisons == 0

    def test_query_clamped_to_domain(self, discrete_collection):
        index = ComparisonFreeHINT(discrete_collection, num_bits=10)
        naive = NaiveIndex.build(discrete_collection)
        assert sorted(index.query(Query(-50, 5000))) == sorted(naive.query(Query(-50, 5000)))

    def test_sparse_and_dense_agree(self, discrete_collection):
        sparse = ComparisonFreeHINT(discrete_collection, num_bits=10, sparse=True)
        dense = ComparisonFreeHINT(discrete_collection, num_bits=10, sparse=False)
        for q in [Query(0, 10), Query(500, 700), Query(1000, 1023), Query(3, 3)]:
            assert sorted(sparse.query(q)) == sorted(dense.query(q))


class TestSparsityOptimization:
    def test_sparse_accesses_fewer_partitions_on_sparse_data(self):
        """Table 6: the optimization skips empty partitions."""
        # data clustered in a tiny region of a large discrete domain
        rng = np.random.default_rng(3)
        starts = rng.integers(0, 100, 500)
        data = IntervalCollection(
            ids=np.arange(500), starts=starts, ends=starts + rng.integers(0, 5, 500)
        )
        sparse = ComparisonFreeHINT(data, num_bits=14, sparse=True)
        dense = ComparisonFreeHINT(data, num_bits=14, sparse=False)
        q = Query(0, 2**14 - 1)
        _, sparse_stats = sparse.query_with_stats(q)
        _, dense_stats = dense.query_with_stats(q)
        assert sparse_stats.partitions_accessed < dense_stats.partitions_accessed
        assert sorted(sparse.query(q)) == sorted(dense.query(q))

    def test_memory_reports_smaller_for_sparse(self):
        rng = np.random.default_rng(3)
        starts = rng.integers(0, 100, 500)
        data = IntervalCollection(
            ids=np.arange(500), starts=starts, ends=starts + rng.integers(0, 5, 500)
        )
        sparse = ComparisonFreeHINT(data, num_bits=14, sparse=True)
        dense = ComparisonFreeHINT(data, num_bits=14, sparse=False)
        assert sparse.memory_bytes() < dense.memory_bytes()

    def test_dense_layout_allocates_every_slot(self, discrete_collection):
        """Section 3.1's layout keeps all ``2^l`` partitions of a level,
        empty ones included, and the same non-empty ones as the sparse one."""
        sparse = ComparisonFreeHINT(discrete_collection, num_bits=10, sparse=True)
        dense = ComparisonFreeHINT(discrete_collection, num_bits=10, sparse=False)
        for parts in (dense._originals, dense._replicas_parts):
            assert [len(level) for level in parts] == [1 << level for level in range(11)]
        assert dense.nonempty_partitions() == sparse.nonempty_partitions()

    def test_dense_delete_empties_the_slot(self):
        data = IntervalCollection.from_intervals([Interval(1, 3, 3), Interval(2, 8, 11)])
        index = ComparisonFreeHINT(data, num_bits=4, sparse=False)
        assert index.delete(1) is True
        assert index.nonempty_partitions() == 1
        assert index._originals[4][3] == []
        assert index.query(Query(0, 15)) == [2]
        index.insert(Interval(1, 3, 3))
        assert sorted(index.query(Query(0, 15))) == [1, 2]

    def test_nonempty_partitions_counted(self, discrete_collection):
        index = ComparisonFreeHINT(discrete_collection, num_bits=10)
        assert 0 < index.nonempty_partitions() <= 2 ** 11


class TestUpdates:
    def test_insert_then_query(self, discrete_collection):
        index = ComparisonFreeHINT(discrete_collection, num_bits=10)
        index.insert(Interval(10_000, 512, 520))
        assert 10_000 in index.query(Query(515, 515))

    def test_delete_tombstone(self, discrete_collection):
        index = ComparisonFreeHINT(discrete_collection, num_bits=10)
        victim = int(discrete_collection.ids[0])
        assert index.delete(victim) is True
        assert victim not in index.query(Query(0, 1023))
        assert index.delete(victim) is False
        assert len(index) == len(discrete_collection) - 1

    def test_delete_unknown(self, discrete_collection):
        index = ComparisonFreeHINT(discrete_collection, num_bits=10)
        assert index.delete(987_654) is False
