"""Tests for the IntervalStore facade, fluent builder and lazy result sets."""

import numpy as np
import pytest

from repro.core.allen import AllenRelation, filter_by_relation
from repro.core.base import IntervalIndex, QueryStats
from repro.core.errors import InvalidQueryError, ReproError, UnsupportedQueryError
from repro.core.interval import Interval, IntervalCollection, Query
from repro.engine import IntervalStore

#: backends exercised against ground truth (one per implementation family)
CHECKED_BACKENDS = ("naive", "grid1d", "interval_tree", "hintm_opt")


@pytest.fixture(scope="module")
def random_collection():
    rng = np.random.default_rng(42)
    starts = rng.integers(0, 5_000, size=800)
    lengths = rng.integers(0, 400, size=800)
    return IntervalCollection(
        ids=np.arange(800), starts=starts, ends=starts + lengths
    )


@pytest.fixture(scope="module")
def random_queries():
    rng = np.random.default_rng(7)
    queries = []
    for _ in range(60):
        start = int(rng.integers(0, 5_400))
        queries.append(Query(start, start + int(rng.integers(0, 600))))
    queries.append(Query(0, 6_000))          # everything
    queries.append(Query(100_000, 100_100))  # nothing
    queries.append(Query.stabbing(2_500))
    return queries


class TestBuilderAgainstGroundTruth:
    @pytest.mark.parametrize("backend", CHECKED_BACKENDS)
    def test_ids_count_exists_agree_with_oracle(
        self, random_collection, random_queries, backend
    ):
        store = IntervalStore.open(random_collection, backend=backend)
        for query in random_queries:
            oracle = sorted(random_collection.query_ids(query).tolist())
            builder = store.query().overlapping(query.start, query.end)
            assert sorted(builder.ids()) == oracle
            assert store.query().overlapping(query.start, query.end).count() == len(oracle)
            assert store.query().overlapping(query.start, query.end).exists() == bool(oracle)

    @pytest.mark.parametrize("backend", CHECKED_BACKENDS)
    def test_limit(self, random_collection, random_queries, backend):
        store = IntervalStore.open(random_collection, backend=backend)
        for query in random_queries[:20]:
            full = set(random_collection.query_ids(query).tolist())
            limited = store.query().overlapping(query.start, query.end).limit(5).ids()
            assert len(limited) == min(5, len(full))
            assert set(limited) <= full
            count = store.query().overlapping(query.start, query.end).limit(5).count()
            assert count == min(5, len(full))

    def test_stabbing(self, random_collection):
        store = IntervalStore.open(random_collection, backend="hintm_opt")
        oracle = sorted(random_collection.query_ids(Query.stabbing(1_234)).tolist())
        assert sorted(store.query().stabbing(1_234).ids()) == oracle
        assert sorted(store.stab(1_234)) == oracle

    def test_relation_refinement(self, random_collection):
        store = IntervalStore.open(random_collection, backend="hintm_opt")
        query = Query(1_000, 3_000)
        expected = sorted(
            interval.id
            for interval in filter_by_relation(
                list(random_collection), query, AllenRelation.DURING
            )
        )
        got = sorted(
            store.query()
            .overlapping(query.start, query.end)
            .relation(AllenRelation.DURING)
            .ids()
        )
        assert got == expected
        count = (
            store.query()
            .overlapping(query.start, query.end)
            .relation(AllenRelation.DURING)
            .count()
        )
        assert count == len(expected)


class TestBuilderValidation:
    def test_missing_target_rejected(self, random_collection):
        store = IntervalStore.open(random_collection, backend="naive")
        with pytest.raises(InvalidQueryError):
            store.query().ids()

    def test_bad_limit_rejected(self, random_collection):
        store = IntervalStore.open(random_collection, backend="naive")
        with pytest.raises(InvalidQueryError):
            store.query().overlapping(0, 10).limit(0)

    def test_bad_relation_rejected(self, random_collection):
        store = IntervalStore.open(random_collection, backend="naive")
        with pytest.raises(InvalidQueryError):
            store.query().overlapping(0, 10).relation("during")


class _NoLookupIndex(IntervalIndex):
    """A minimal backend that does not retain intervals (no ``_interval_lookup``)."""

    name = "no-lookup"

    def __init__(self, collection):
        self._ids = [int(i) for i in collection.ids]

    @classmethod
    def build(cls, collection, **kwargs):
        return cls(collection)

    def query(self, query):
        return list(self._ids)

    def __len__(self):
        return len(self._ids)


class TestUnsupportedQueries:
    def test_relation_on_lookup_free_backend_raises_clear_error(self, tiny_collection):
        store = IntervalStore(_NoLookupIndex.build(tiny_collection))
        with pytest.raises(UnsupportedQueryError) as excinfo:
            store.query().overlapping(0, 5).relation(AllenRelation.BEFORE).ids()
        assert "no-lookup" in str(excinfo.value)
        assert "BEFORE" in str(excinfo.value)

    def test_unsupported_query_error_hierarchy(self):
        # facade consumers catch ReproError; legacy callers caught NotImplementedError
        assert issubclass(UnsupportedQueryError, ReproError)
        assert issubclass(UnsupportedQueryError, NotImplementedError)

    def test_query_relation_directly_raises_for_before_after(self, tiny_collection):
        index = _NoLookupIndex.build(tiny_collection)
        with pytest.raises(UnsupportedQueryError):
            index.query_relation(Query(0, 5), AllenRelation.AFTER)


class TestResultSet:
    def test_ids_cached_as_one_int64_array(self, random_collection):
        store = IntervalStore.open(random_collection, backend="naive")
        results = store.query().overlapping(0, 2_000).build()
        first = results.ids()  # the backend answers a list: converted once
        assert isinstance(first, np.ndarray) and first.dtype == np.int64
        assert results.ids() is first  # the cached array, not a copy
        count, member = results.count(), int(first[0])
        with pytest.raises(ValueError):
            first[0] = -1  # read-only: caller mutation cannot leak into the cache
        with pytest.raises(ValueError):
            first.sort()
        assert results.count() == count == len(first)
        assert member in results and -1 not in results

    def test_container_protocol(self, random_collection):
        store = IntervalStore.open(random_collection, backend="naive")
        results = store.query().overlapping(0, 2_000).build()
        oracle = set(random_collection.query_ids(Query(0, 2_000)).tolist())
        assert set(results) == oracle
        assert len(results) == len(oracle)
        assert bool(results) is bool(oracle)
        assert next(iter(oracle)) in results

    def test_stats_reports_result_count(self, random_collection):
        store = IntervalStore.open(random_collection, backend="hintm_opt")
        stats = store.query().overlapping(0, 2_000).stats()
        assert isinstance(stats, QueryStats)
        assert stats.results == store.query().overlapping(0, 2_000).count()


class TestStoreLifecycle:
    def test_from_pairs_and_from_intervals(self):
        store = IntervalStore.from_pairs([(1, 5), (3, 9)], backend="naive")
        assert len(store) == 2
        store = IntervalStore.from_intervals(
            [Interval(7, 0, 4), Interval(8, 2, 3)], backend="naive"
        )
        assert sorted(store.query().stabbing(2).ids()) == [7, 8]

    def test_insert_and_delete_passthrough(self):
        store = IntervalStore.from_pairs([(0, 10), (20, 30)], backend="naive")
        store.insert(Interval(99, 5, 25))
        assert 99 in store.query().stabbing(22).build()
        assert store.delete(99) is True
        assert store.delete(99) is False
        assert 99 not in store.query().stabbing(22).build()

    def test_memory_bytes_delegates(self):
        store = IntervalStore.from_pairs([(0, 10)], backend="naive")
        assert store.memory_bytes() == store.index.memory_bytes()

    def test_wrapping_a_prebuilt_index_infers_backend(self, tiny_collection):
        from repro.baselines.grid1d import Grid1D

        store = IntervalStore(Grid1D.build(tiny_collection, num_partitions=8))
        assert store.backend == "grid1d"
