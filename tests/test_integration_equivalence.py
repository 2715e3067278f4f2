"""Integration tests: every index returns identical result sets.

This is the reproduction's core correctness claim: HINT, HINT^m (all
variants) and the four baselines are interchangeable with respect to range
and stabbing query results, across datasets with very different interval
length distributions (the paper's Table 4 contrast).
"""

import pytest

from repro.baselines import Grid1D, IntervalTree, NaiveIndex, PeriodIndex, TimelineIndex
from repro.core.interval import Interval, Query
from repro.engine import available_backends, create_index, get_spec
from repro.hint import HINTm, HybridHINTm, OptimizedHINTm, SubdividedHINTm
from repro.queries.generator import QueryWorkloadConfig, generate_queries

INDEX_FACTORIES = {
    "interval-tree": lambda data: IntervalTree.build(data),
    "1d-grid": lambda data: Grid1D.build(data, num_partitions=128),
    "timeline": lambda data: TimelineIndex.build(data, num_checkpoints=64),
    "period-index": lambda data: PeriodIndex.build(data, num_coarse_partitions=16, num_levels=4),
    "hint-m": lambda data: HINTm.build(data, num_bits=9),
    "hint-m-top-down": lambda data: HINTm.build(data, num_bits=9, evaluation="top_down"),
    "hint-m-subs": lambda data: SubdividedHINTm.build(data, num_bits=9),
    "hint-m-opt": lambda data: OptimizedHINTm.build(data, num_bits=9),
    "hint-m-hybrid": lambda data: HybridHINTm.build(data, num_bits=9),
}

DATASET_FIXTURES = ["synthetic_collection", "books_like_collection", "taxis_like_collection"]


@pytest.fixture(scope="module")
def built_indexes(request):
    cache = {}

    def _get(fixture_name, factory_name):
        key = (fixture_name, factory_name)
        if key not in cache:
            data = request.getfixturevalue(fixture_name)
            cache[key] = INDEX_FACTORIES[factory_name](data)
        return cache[key]

    return _get


@pytest.mark.parametrize("dataset_fixture", DATASET_FIXTURES)
@pytest.mark.parametrize("index_name", sorted(INDEX_FACTORIES))
def test_range_queries_match_oracle(request, built_indexes, dataset_fixture, index_name):
    data = request.getfixturevalue(dataset_fixture)
    index = built_indexes(dataset_fixture, index_name)
    oracle = NaiveIndex.build(data)
    queries = generate_queries(
        data, QueryWorkloadConfig(count=25, extent_fraction=0.005, placement="data", seed=71)
    )
    for q in queries:
        assert sorted(index.query(q)) == sorted(oracle.query(q)), (index_name, q)


@pytest.mark.parametrize("dataset_fixture", DATASET_FIXTURES)
@pytest.mark.parametrize("index_name", sorted(INDEX_FACTORIES))
def test_stabbing_queries_match_oracle(request, built_indexes, dataset_fixture, index_name):
    data = request.getfixturevalue(dataset_fixture)
    index = built_indexes(dataset_fixture, index_name)
    oracle = NaiveIndex.build(data)
    queries = generate_queries(
        data, QueryWorkloadConfig(count=20, extent_fraction=0.0, seed=73)
    )
    for q in queries:
        assert sorted(index.query(q)) == sorted(oracle.query(q)), (index_name, q)


@pytest.mark.parametrize("dataset_fixture", DATASET_FIXTURES)
@pytest.mark.parametrize("index_name", sorted(INDEX_FACTORIES))
def test_wide_queries_match_oracle(request, built_indexes, dataset_fixture, index_name):
    """Queries spanning 20% of the domain exercise the comparison-free middle partitions."""
    data = request.getfixturevalue(dataset_fixture)
    index = built_indexes(dataset_fixture, index_name)
    oracle = NaiveIndex.build(data)
    queries = generate_queries(
        data, QueryWorkloadConfig(count=8, extent_fraction=0.2, seed=79)
    )
    for q in queries:
        assert sorted(index.query(q)) == sorted(oracle.query(q)), (index_name, q)


@pytest.mark.parametrize("index_name", sorted(INDEX_FACTORIES))
def test_full_domain_query_returns_everything(request, built_indexes, index_name):
    data = request.getfixturevalue("synthetic_collection")
    index = built_indexes("synthetic_collection", index_name)
    lo, hi = data.span()
    assert sorted(index.query(Query(lo, hi))) == sorted(data.ids.tolist())


@pytest.mark.parametrize("index_name", sorted(INDEX_FACTORIES))
def test_disjoint_query_returns_nothing(request, built_indexes, index_name):
    data = request.getfixturevalue("synthetic_collection")
    index = built_indexes("synthetic_collection", index_name)
    _, hi = data.span()
    assert len(index.query(Query(hi + 10_000, hi + 20_000))) == 0


# backends that take single-interval updates (hintm_opt is static)
UPDATABLE = [
    name
    for name in available_backends()
    if not get_spec(name).composite and name != "hintm_opt"
]


@pytest.mark.parametrize("backend", UPDATABLE)
def test_reinserted_id_answers_with_its_new_span_only(synthetic_collection, backend):
    """Insert an id, delete it, insert it again elsewhere: only the second
    span answers.  A delete that leaves the old entries behind its tombstone
    brings them back when the re-insert lifts the tombstone."""
    index = create_index(backend, synthetic_collection)
    oracle = NaiveIndex.build(synthetic_collection)
    lo, hi = synthetic_collection.span()
    fresh = int(synthetic_collection.ids.max()) + 1
    old_span, new_span = Query(lo + 200, lo + 300), Query(hi - 300, hi - 250)
    victim = int(synthetic_collection.ids[0])
    for target in (index, oracle):
        target.insert(Interval(fresh, old_span.start, old_span.end))
        assert target.delete(fresh)
        target.insert(Interval(fresh, new_span.start, new_span.end))
        # a build row, deleted and re-inserted elsewhere
        span = target._resolve_interval(victim)
        assert target.delete(victim)
        target.insert(Interval(victim, span.end, span.end + 10))
    queries = [old_span, new_span, Query(lo, hi)] + [
        Query(int(start), int(end))
        for start, end in zip(synthetic_collection.starts[:20], synthetic_collection.ends[:20])
    ]
    for query in queries:
        assert sorted(index.query(query)) == sorted(oracle.query(query)), (backend, query)
        assert index.query_count(query) == oracle.query_count(query), (backend, query)
    assert fresh not in index.query(old_span)
    answers = index.query_batch(queries)
    assert [sorted(ids.tolist()) for ids in answers] == [sorted(oracle.query(q)) for q in queries]
