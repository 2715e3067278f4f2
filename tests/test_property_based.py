"""Property-based tests (hypothesis) for the core index invariants."""

from bisect import bisect_left

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import Grid1D, IntervalTree, NaiveIndex, PeriodIndex, TimelineIndex
from repro.core.interval import Interval, IntervalCollection, Query
from repro.engine import ShardedIndex
from repro.hint import ComparisonFreeHINT, HINTm, HybridHINTm, OptimizedHINTm, SubdividedHINTm
from repro.hint.optimized import _BATCH_CROSSOVER

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


# queries for the fully optimised index: bounds past the data on both sides,
# float bounds, and int batches long enough to run the batch kernel
_edge_bound = st.integers(-20, DOMAIN_MAX + 20)
_edge_query = st.tuples(_edge_bound, _edge_bound).map(lambda t: Query(min(t), max(t)))
_float_query = st.tuples(
    st.floats(-20, DOMAIN_MAX + 20, allow_nan=False), st.floats(-20, DOMAIN_MAX + 20, allow_nan=False)
).map(lambda t: Query(min(t), max(t)))

#: what a merged run of :meth:`OptimizedHINTm._walk` can meet at a level
#: that stores originals, and where the query's bounds can lie
_MERGED_RUN_EDGES = frozenset((
    "first == last", "no first partition", "no last partition", "Lemma 2 flags off",
    "float bounds", "bounds past the data",
))


def _merged_run_edges(index, pairs, query):
    """The edges of :data:`_MERGED_RUN_EDGES` that ``query`` reaches."""
    edges = set()
    if isinstance(query.start, float) or isinstance(query.end, float):
        edges.add("float bounds")
    if query.start < min(s for s, _ in pairs) or query.end > max(e for _, e in pairs):
        edges.add("bounds past the data")
    keys, originals = index._keys.tolist(), index._pointer_lists[:2]

    def rows(heap):  # originals stored in partition ``heap``
        j = bisect_left(keys, heap)
        if j == len(keys) or keys[j] != heap:
            return 0
        return sum(pointers[j + 1] - pointers[j] for pointers in originals)

    m = index.num_bits
    mq_start, mq_end = index.domain.map_value(query.start), index.domain.map_value(query.end)
    for level in range(m + 1):
        shift, heap = m - level, 1 << level
        below = (1 << shift) - 1
        first, last = heap + (mq_start >> shift), heap + (mq_end >> shift)
        if first == last:
            if rows(first):
                edges.add("first == last")
            continue
        if not sum(rows(key) for key in range(first, last + 1)):
            continue
        if not rows(first):
            edges.add("no first partition")
        if not rows(last):
            edges.add("no last partition")
        if mq_start & below != below and mq_end & below:
            edges.add("Lemma 2 flags off")
    return edges


def test_optimized_matches_oracle():
    """Every answer path of :class:`OptimizedHINTm` -- ids, count, exists,
    the batch kernel, the rendered text -- equals the oracle, before and
    after tombstones, over examples that reach every edge of a merged run,
    with a tombstoned answer among them at each edge (fixed examples, so the
    coverage check cannot fail on luck).  A hybrid over the same intervals
    answers as the oracle while one id is deleted from its main index,
    re-inserted into its delta and deleted again."""
    reached = set()
    reached_past_tombstones = set()

    @settings(common_settings, derandomize=True)
    @given(
        pairs=intervals_strategy,
        batch=st.lists(_edge_query, min_size=_BATCH_CROSSOVER, max_size=_BATCH_CROSSOVER + 3),
        floats=st.lists(_float_query, max_size=3),
        m=st.integers(2, 8),
        sparse=st.booleans(),
        columnar=st.booleans(),
        doomed=st.sets(st.integers(0, 59), max_size=12),
    )
    def check(pairs, batch, floats, m, sparse, columnar, doomed):
        index = OptimizedHINTm(
            _collection(pairs), num_bits=m, sparse_directory=sparse, columnar=columnar
        )
        if columnar:  # a batch this long runs the kernel
            assert index._batch_bounds(batch) is not None
            index.render_ids()
        live = set(range(len(pairs)))
        for tombstoned in (False, True):
            if tombstoned:
                for interval_id in doomed & live:
                    assert index.delete(interval_id)
                live -= doomed
            expected = {
                query: [i for i in _oracle_result(pairs, query) if i in live]
                for query in batch + floats
            }
            for query, ids in expected.items():
                assert sorted(index.query(query)) == ids, (query, tombstoned)
                assert index.query_count(query) == len(ids), (query, tombstoned)
                assert index.query_exists(query) == bool(ids), (query, tombstoned)
                if columnar:
                    text, count = index.ids_text(query)
                    assert count == len(ids), (query, tombstoned)
                    assert sorted(int(i) for i in text.split(b",") if i) == ids, (query, tombstoned)
            want = [expected[query] for query in batch]
            assert [sorted(ids) for ids in index.query_batch(batch)] == want, tombstoned
            assert index.query_count_batch(batch) == [len(ids) for ids in want], tombstoned
            assert index.query_exists_batch(batch) == [bool(ids) for ids in want], tombstoned
        for query in batch + floats:
            edges = _merged_run_edges(index, pairs, query)
            reached.update(edges)
            if doomed.intersection(_oracle_result(pairs, query)):
                reached_past_tombstones.update(edges)

        hybrid = HybridHINTm(_collection(pairs), num_bits=m)
        present = set(range(len(pairs)))
        for step in ("delete", "insert", "delete"):
            if step == "delete":
                assert hybrid.delete(0)
                present.discard(0)
            else:
                hybrid.insert(Interval(0, *pairs[0]))
                present.add(0)
            want = [
                [i for i in _oracle_result(pairs, query) if i in present] for query in batch + floats
            ]
            assert [sorted(hybrid.query(query)) for query in batch + floats] == want, step
            assert [sorted(ids) for ids in hybrid.query_batch(batch)] == want[: len(batch)], step

    check()
    assert reached == _MERGED_RUN_EDGES
    assert reached_past_tombstones == _MERGED_RUN_EDGES


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
    batched counts -- equivalent to the oracle."""
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
