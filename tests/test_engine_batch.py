"""Tests for batch execution: query_batch hooks, execute_batch, run_batch."""

import numpy as np
import pytest

from repro.core.interval import IntervalCollection, Query
from repro.engine import IntervalStore, create_index, execute_batch

BATCH_BACKENDS = ("naive", "grid1d", "timeline", "hintm_opt")


@pytest.fixture(scope="module")
def batch_collection():
    rng = np.random.default_rng(5)
    starts = rng.integers(0, 10_000, size=600)
    lengths = rng.integers(0, 500, size=600)
    return IntervalCollection(ids=np.arange(600), starts=starts, ends=starts + lengths)


@pytest.fixture(scope="module")
def batch_queries():
    rng = np.random.default_rng(6)
    queries = []
    for _ in range(40):
        start = int(rng.integers(0, 10_000))
        queries.append(Query(start, start + int(rng.integers(0, 1_000))))
    queries.append(Query.stabbing(5_000))
    return queries


class TestQueryBatchRegression:
    @pytest.mark.parametrize("backend", BATCH_BACKENDS)
    def test_query_batch_matches_per_query_results(
        self, batch_collection, batch_queries, backend
    ):
        """The batch hook must agree with one-at-a-time evaluation, per position."""
        index = create_index(backend, batch_collection)
        batched = index.query_batch(batch_queries)
        assert len(batched) == len(batch_queries)
        for query, ids in zip(batch_queries, batched):
            assert sorted(ids) == sorted(index.query(query)), (backend, query)

    def test_query_batch_empty_workload(self, batch_collection):
        index = create_index("naive", batch_collection)
        assert index.query_batch([]) == []


class TestExecuteBatch:
    def test_materialising_mode(self, batch_collection, batch_queries):
        index = create_index("hintm_opt", batch_collection)
        result = execute_batch(index, batch_queries)
        assert len(result) == len(batch_queries)
        assert result.counts == [len(ids) for ids in result.ids]
        assert result.total_results == sum(result.counts)
        assert result.seconds >= 0
        assert result.queries_per_second > 0
        assert list(result) == result.ids

    def test_count_only_mode(self, batch_collection, batch_queries):
        index = create_index("hintm_opt", batch_collection)
        result = execute_batch(index, batch_queries, count_only=True)
        assert result.ids is None
        expected = [len(index.query(query)) for query in batch_queries]
        assert result.counts == expected
        with pytest.raises(ValueError):
            iter(result)

    def test_empty_workload(self, batch_collection):
        index = create_index("naive", batch_collection)
        result = execute_batch(index, [])
        assert len(result) == 0
        assert result.queries_per_second == 0.0
        assert result.total_results == 0


class TestStoreRunBatch:
    def test_run_batch_matches_builder(self, batch_collection, batch_queries):
        store = IntervalStore.open(batch_collection, backend="hintm_opt")
        result = store.run_batch(batch_queries)
        for query, ids in zip(batch_queries, result.ids):
            via_builder = store.query().overlapping(query.start, query.end).ids()
            assert sorted(ids) == sorted(via_builder)

    def test_run_batch_count_only_uses_fast_path(self, batch_collection, batch_queries):
        store = IntervalStore.open(batch_collection, backend="hintm_opt")
        result = store.run_batch(batch_queries, count_only=True)
        for query, count in zip(batch_queries, result.counts):
            assert count == store.query().overlapping(query.start, query.end).count()
