"""Property-based tests (hypothesis) for the core index invariants."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import Grid1D, IntervalTree, NaiveIndex, PeriodIndex, TimelineIndex
from repro.core.interval import Interval, IntervalCollection, Query
from repro.engine import ShardedIndex
from repro.hint import ComparisonFreeHINT, HINTm, OptimizedHINTm, SubdividedHINTm

# strategy: a list of intervals over a small discrete domain plus a query;
# small domains maximise boundary collisions (partition edges, equal
# endpoints), which is where index bugs live
DOMAIN_MAX = 255

intervals_strategy = st.lists(
    st.tuples(st.integers(0, DOMAIN_MAX), st.integers(0, DOMAIN_MAX)).map(
        lambda t: (min(t), max(t))
    ),
    min_size=1,
    max_size=60,
)
query_strategy = st.tuples(st.integers(0, DOMAIN_MAX), st.integers(0, DOMAIN_MAX)).map(
    lambda t: Query(min(t), max(t))
)


def _collection(pairs):
    return IntervalCollection.from_pairs(pairs)


def _oracle_result(pairs, query):
    return sorted(
        i for i, (start, end) in enumerate(pairs) if start <= query.end and query.start <= end
    )


common_settings = settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@common_settings
@given(pairs=intervals_strategy, query=query_strategy, m=st.integers(2, 8))
def test_hintm_bottom_up_matches_oracle(pairs, query, m):
    index = HINTm(_collection(pairs), num_bits=m)
    assert sorted(index.query(query)) == _oracle_result(pairs, query)


@common_settings
@given(pairs=intervals_strategy, query=query_strategy, m=st.integers(2, 8))
def test_hintm_top_down_matches_oracle(pairs, query, m):
    index = HINTm(_collection(pairs), num_bits=m, evaluation="top_down")
    assert sorted(index.query(query)) == _oracle_result(pairs, query)


@common_settings
@given(pairs=intervals_strategy, query=query_strategy, m=st.integers(2, 8))
def test_subdivided_matches_oracle(pairs, query, m):
    index = SubdividedHINTm(_collection(pairs), num_bits=m)
    assert sorted(index.query(query)) == _oracle_result(pairs, query)


@common_settings
@given(
    pairs=intervals_strategy,
    query=query_strategy,
    m=st.integers(2, 8),
    sparse=st.booleans(),
    columnar=st.booleans(),
)
def test_optimized_matches_oracle(pairs, query, m, sparse, columnar):
    index = OptimizedHINTm(
        _collection(pairs), num_bits=m, sparse_directory=sparse, columnar=columnar
    )
    assert sorted(index.query(query)) == _oracle_result(pairs, query)


@common_settings
@given(pairs=intervals_strategy, query=query_strategy)
def test_comparison_free_hint_matches_oracle(pairs, query):
    index = ComparisonFreeHINT(_collection(pairs), num_bits=8)
    assert sorted(index.query(query)) == _oracle_result(pairs, query)


@common_settings
@given(pairs=intervals_strategy, query=query_strategy)
def test_interval_tree_matches_oracle(pairs, query):
    index = IntervalTree(_collection(pairs))
    assert sorted(index.query(query)) == _oracle_result(pairs, query)


@common_settings
@given(pairs=intervals_strategy, query=query_strategy, partitions=st.integers(1, 40))
def test_grid_matches_oracle(pairs, query, partitions):
    index = Grid1D(_collection(pairs), num_partitions=partitions)
    assert sorted(index.query(query)) == _oracle_result(pairs, query)


@common_settings
@given(pairs=intervals_strategy, query=query_strategy, checkpoints=st.integers(1, 20))
def test_timeline_matches_oracle(pairs, query, checkpoints):
    index = TimelineIndex(_collection(pairs), num_checkpoints=checkpoints)
    assert sorted(index.query(query)) == _oracle_result(pairs, query)


@common_settings
@given(
    pairs=intervals_strategy,
    query=query_strategy,
    coarse=st.integers(1, 10),
    levels=st.integers(1, 4),
)
def test_period_index_matches_oracle(pairs, query, coarse, levels):
    index = PeriodIndex(_collection(pairs), num_coarse_partitions=coarse, num_levels=levels)
    assert sorted(index.query(query)) == _oracle_result(pairs, query)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    pairs=intervals_strategy,
    extra=st.lists(
        st.tuples(st.integers(0, DOMAIN_MAX), st.integers(0, DOMAIN_MAX)).map(
            lambda t: (min(t), max(t))
        ),
        max_size=15,
    ),
    deletions=st.lists(st.integers(0, 74), max_size=10),
    query=query_strategy,
    m=st.integers(3, 8),
    num_shards=st.sampled_from([2, 3, 5]),
)
def test_update_sequences_match_oracle(pairs, extra, deletions, query, m, num_shards):
    """Random insert/delete sequences keep HINT^m -- and a K-shard index's
    journal-batched counts -- equivalent to the oracle."""
    collection = _collection(pairs)
    hint = SubdividedHINTm(collection, num_bits=m)
    sharded = ShardedIndex(collection, backend="naive", num_shards=num_shards)
    oracle = NaiveIndex.build(collection)
    next_id = len(pairs)
    for start, end in extra:
        interval = Interval(next_id, start, end)
        for index in (hint, sharded, oracle):
            index.insert(interval)
        next_id += 1
    for victim in deletions:
        assert hint.delete(victim) == sharded.delete(victim) == oracle.delete(victim)
    assert sorted(hint.query(query)) == sorted(oracle.query(query))
    batch = [query, Query.stabbing(query.start), Query.stabbing(query.end), Query(0, DOMAIN_MAX)]
    counts = [oracle.query_count(q) for q in batch]
    assert sharded.query_count_batch(batch) == counts
    assert sharded.query_exists_batch(batch) == [count > 0 for count in counts]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(pairs=intervals_strategy, query=query_strategy, m=st.integers(2, 8))
def test_no_duplicate_results(pairs, query, m):
    """The originals/replicas split never produces duplicates (Section 3.1)."""
    for index in (
        HINTm(_collection(pairs), num_bits=m),
        SubdividedHINTm(_collection(pairs), num_bits=m),
        OptimizedHINTm(_collection(pairs), num_bits=m),
    ):
        results = index.query(query)
        assert len(results) == len(set(results))


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(pairs=intervals_strategy, m=st.integers(2, 8))
def test_replication_factor_within_theoretical_bound(pairs, m):
    """Each interval is assigned to at most two partitions per level."""
    index = HINTm(_collection(pairs), num_bits=m)
    assert 1.0 <= index.replication_factor <= 2.0 * (m + 1)
