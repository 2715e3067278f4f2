"""Unit tests for the fully optimized HINT^m (paper Sections 4.2/4.3)."""

import pytest

from repro.baselines.naive import NaiveIndex
from repro.core.domain import Domain
from repro.core.errors import DomainError
from repro.core.interval import IntervalCollection, Query
from repro.hint.optimized import OptimizedHINTm
from repro.hint.subdivided import SubdividedHINTm

FLAG_VARIANTS = [
    pytest.param(True, True, id="sparse+columnar"),
    pytest.param(True, False, id="sparse-only"),
    pytest.param(False, True, id="columnar-only"),
    pytest.param(False, False, id="neither"),
]


class TestConstruction:
    def test_invalid_bits(self, synthetic_collection):
        with pytest.raises(DomainError):
            OptimizedHINTm(synthetic_collection, num_bits=0)

    def test_mismatched_domain(self, synthetic_collection):
        with pytest.raises(DomainError):
            OptimizedHINTm(synthetic_collection, num_bits=6, domain=Domain.identity(4))

    def test_properties(self, synthetic_collection):
        index = OptimizedHINTm(synthetic_collection, num_bits=8)
        assert index.num_bits == 8
        assert index.num_levels == 9
        assert index.sparse_directory and index.columnar
        assert len(index) == len(synthetic_collection)
        assert 1.0 <= index.replication_factor <= 2 * 9

    def test_empty_collection(self):
        index = OptimizedHINTm(IntervalCollection.empty(), num_bits=5)
        assert len(index) == 0
        assert index.query(Query(0, 100)).tolist() == []

    def test_replication_matches_subdivided(self, synthetic_collection):
        """The merged layout stores exactly the same assignments as the dict layout."""
        optimized = OptimizedHINTm(synthetic_collection, num_bits=8)
        subdivided = SubdividedHINTm(synthetic_collection, num_bits=8)
        assert optimized.replication_factor == pytest.approx(subdivided.replication_factor)
        assert optimized.nonempty_partitions() == subdivided.nonempty_partitions()

    def test_level_occupancy_totals(self, synthetic_collection):
        index = OptimizedHINTm(synthetic_collection, num_bits=8)
        assert sum(index.level_occupancy()) == pytest.approx(
            index.replication_factor * len(index)
        )

    def test_insert_not_supported(self, synthetic_collection):
        from repro.core.interval import Interval

        index = OptimizedHINTm(synthetic_collection, num_bits=6)
        with pytest.raises(NotImplementedError):
            index.insert(Interval(1, 2, 3))


class TestQueryCorrectness:
    @pytest.mark.parametrize("sparse,columnar", FLAG_VARIANTS)
    def test_matches_naive(self, synthetic_collection, synthetic_queries, sparse, columnar):
        index = OptimizedHINTm(
            synthetic_collection, num_bits=8, sparse_directory=sparse, columnar=columnar
        )
        naive = NaiveIndex.build(synthetic_collection)
        for q in synthetic_queries[:60]:
            assert sorted(index.query(q)) == sorted(naive.query(q))

    @pytest.mark.parametrize("dataset_fixture", ["books_like_collection", "taxis_like_collection"])
    def test_matches_naive_on_real_like(self, request, dataset_fixture):
        collection = request.getfixturevalue(dataset_fixture)
        index = OptimizedHINTm(collection, num_bits=10)
        naive = NaiveIndex.build(collection)
        lo, hi = collection.span()
        span = hi - lo
        for i in range(25):
            start = lo + i * span // 25
            for extent in (0, span // 1000, span // 100, span // 10):
                q = Query(start, min(hi, start + extent))
                assert sorted(index.query(q)) == sorted(naive.query(q))

    def test_no_duplicates(self, synthetic_collection, synthetic_queries):
        index = OptimizedHINTm(synthetic_collection, num_bits=8)
        for q in synthetic_queries[:30]:
            results = index.query(q)
            assert len(results) == len(set(results))

    def test_agrees_with_subdivided(self, synthetic_collection, synthetic_queries):
        optimized = OptimizedHINTm(synthetic_collection, num_bits=9)
        subdivided = SubdividedHINTm(synthetic_collection, num_bits=9)
        for q in synthetic_queries[:60]:
            assert sorted(optimized.query(q)) == sorted(subdivided.query(q))

    def test_stabbing_queries(self, synthetic_collection):
        index = OptimizedHINTm(synthetic_collection, num_bits=9)
        naive = NaiveIndex.build(synthetic_collection)
        lo, hi = synthetic_collection.span()
        for i in range(0, 40):
            point = lo + i * (hi - lo) // 40
            assert sorted(index.stab(point)) == sorted(naive.stab(point))


class TestOptimizationEffects:
    def test_sparse_directory_shrinks_directory_on_skewed_data(self, taxis_like_collection):
        """Section 4.2: only non-empty partitions are materialised."""
        sparse = OptimizedHINTm(taxis_like_collection, num_bits=12, sparse_directory=True)
        dense = OptimizedHINTm(taxis_like_collection, num_bits=12, sparse_directory=False)
        assert sparse.memory_bytes() < dense.memory_bytes()

    def test_comparisons_limited_to_boundary_partitions(self, synthetic_collection):
        """Lemma 4 instrumented: few partitions require comparisons."""
        index = OptimizedHINTm(synthetic_collection, num_bits=10)
        lo, hi = synthetic_collection.span()
        span = hi - lo
        compared = []
        for i in range(40):
            start = lo + (i * 97) % span
            q = Query(start, min(hi, start + span // 64))
            _, stats = index.query_with_stats(q)
            compared.append(stats.partitions_compared)
        assert sum(compared) / len(compared) <= 5.0

    def test_tombstone_delete(self, synthetic_collection):
        index = OptimizedHINTm(synthetic_collection, num_bits=8)
        victim = int(synthetic_collection.ids[3])
        assert index.delete(victim) is True
        lo, hi = synthetic_collection.span()
        assert victim not in index.query(Query(lo, hi))
        assert index.delete(victim) is False
        assert len(index) == len(synthetic_collection) - 1

    def test_memory_bytes_positive_and_consistent(self, synthetic_collection):
        columnar = OptimizedHINTm(synthetic_collection, num_bits=8, columnar=True)
        rowwise = OptimizedHINTm(synthetic_collection, num_bits=8, columnar=False)
        assert columnar.memory_bytes() > 0
        assert rowwise.memory_bytes() > 0
