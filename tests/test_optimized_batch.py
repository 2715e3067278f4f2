"""The batched traversal and the array build of the optimized HINT^m.

Everything here is a logical property: a batch answers what the per-query
path and the linear-scan oracle answer, the vectorised build stores what
Algorithm 1 assigns, and batch size alone decides which path runs.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.naive import NaiveIndex
from repro.core.domain import Domain
from repro.core.interval import Interval, IntervalCollection, Query
from repro.hint.optimized import _BATCH_CROSSOVER, _CLASSES, OptimizedHINTm
from repro.hint.partitioning import partition_assignments
from repro.hint.updates import HybridHINTm

# a small raw domain maximises collisions: duplicate endpoints, point
# intervals, queries whose first and last partitions coincide
RAW_MAX = 300
_PAIR = st.tuples(st.integers(0, RAW_MAX), st.integers(0, 40)).map(
    lambda t: (t[0], min(RAW_MAX, t[0] + t[1]))
)
_PAIRS = st.lists(_PAIR, max_size=80)
# queries reach past both edges of the data
_QUERY = st.tuples(st.integers(-60, RAW_MAX + 60), st.integers(0, 120)).map(
    lambda t: Query(t[0], t[0] + t[1])
)
# batches on both sides of the crossover, the empty one included
_BATCH = st.lists(_QUERY, max_size=4 * _BATCH_CROSSOVER)
_M = st.sampled_from([1, 3, 8, 16])

common_settings = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _collection(pairs):
    return IntervalCollection.from_pairs(pairs)


def _sorted(results):
    return [sorted(ids) for ids in results]


def _lists(answers):
    """Int64 id arrays as lists, comparable with ``==``."""
    return [ids.tolist() for ids in answers]


def _oracle(live, queries):
    """``live``: id -> (start, end)."""
    return [
        sorted(i for i, (s, e) in live.items() if s <= q.end and q.start <= e)
        for q in queries
    ]


def _check(index, live, queries):
    expected = _oracle(live, queries)
    assert _sorted(index.query_batch(queries)) == expected
    assert _sorted(index.query(q) for q in queries) == expected
    assert index.query_count_batch(queries) == [len(ids) for ids in expected]
    assert index.query_exists_batch(queries) == [bool(ids) for ids in expected]


@common_settings
@given(pairs=_PAIRS, queries=_BATCH, m=_M, sparse=st.booleans(), columnar=st.booleans())
def test_batch_matches_scalar_path_and_oracle(pairs, queries, m, sparse, columnar):
    index = OptimizedHINTm(
        _collection(pairs), num_bits=m, sparse_directory=sparse, columnar=columnar
    )
    _check(index, dict(enumerate(pairs)), queries)


@common_settings
@given(pairs=_PAIRS, first=_BATCH, second=_BATCH, m=_M, data=st.data())
def test_deletes_before_and_between_batches(pairs, first, second, m, data):
    index = OptimizedHINTm(_collection(pairs), num_bits=m)
    live = dict(enumerate(pairs))
    victims = st.lists(st.sampled_from(range(len(pairs))), unique=True) if pairs else st.just([])
    for queries in (first, second):
        for victim in data.draw(victims):
            assert index.delete(victim) is (live.pop(victim, None) is not None)
        _check(index, live, queries)


@common_settings
@given(pairs=_PAIRS, inserts=_PAIRS, queries=_BATCH, m=_M, data=st.data())
def test_hybrid_batch_after_inserts_deletes_and_rebuild(pairs, inserts, queries, m, data):
    index = HybridHINTm(_collection(pairs), num_bits=m)
    live = dict(enumerate(pairs))
    for interval_id, (start, end) in enumerate(inserts, start=len(pairs)):
        index.insert(Interval(interval_id, start, end))
        live[interval_id] = (start, end)
    ids = sorted(live)
    for victim in data.draw(st.lists(st.sampled_from(ids), unique=True) if ids else st.just([])):
        assert index.delete(victim)
        del live[victim]
    expected = _oracle(live, queries)
    assert _sorted(index.query_batch(queries)) == expected
    index.rebuild()
    assert _sorted(index.query_batch(queries)) == expected
    assert _sorted(index.query(q) for q in queries) == expected


def test_kernel_batch_against_an_empty_index():
    for sparse in (True, False):
        empty = OptimizedHINTm(IntervalCollection.empty(), num_bits=8, sparse_directory=sparse)
        queries = [Query(k, k + 5) for k in range(-3, _BATCH_CROSSOVER)]
        assert empty._batch_bounds(queries) is not None  # the kernel runs
        assert _lists(empty.query_batch(queries)) == [[]] * len(queries)
        assert empty.query_count_batch(queries) == [0] * len(queries)
        assert empty.query_exists_batch(queries) == [False] * len(queries)


def test_empty_collection_and_empty_batch():
    empty = OptimizedHINTm(IntervalCollection.empty(), num_bits=8)
    queries = [Query(k, k + 5) for k in range(2 * _BATCH_CROSSOVER)]
    assert [len(ids) for ids in empty.query_batch(queries)] == [0] * len(queries)
    assert empty.query_count_batch(queries) == [0] * len(queries)
    index = OptimizedHINTm(_collection([(1, 5), (3, 9)]), num_bits=4)
    assert index.query_batch([]) == []
    assert index.query_count_batch([]) == []
    assert index.query_exists_batch([]) == []


def test_endpoints_beyond_int64_keep_the_exact_path(synthetic_collection, synthetic_queries):
    """Only Python compares a float or a 100-bit int with a stored endpoint
    exactly; such a batch is answered one query at a time."""
    index = OptimizedHINTm(synthetic_collection, num_bits=10)
    lo, hi = synthetic_collection.span()
    for odd in (Query(-(10**30), 10**30), Query(lo + 0.5, lo + (hi - lo) / 7)):
        queries = synthetic_queries[:20] + [odd]
        assert index._batch_bounds(queries) is None
        assert _lists(index.query_batch(queries)) == _lists(index.query(q) for q in queries)
        assert index.query_count_batch(queries) == [index.query_count(q) for q in queries]
    assert len(index.query_batch(synthetic_queries[:20] + [Query(-(10**30), 10**30)])[-1]) == len(
        index
    )


@pytest.mark.parametrize("columnar", [True, False])
def test_float_bounds_compare_exactly_past_2_53(columnar):
    """NumPy would compare ``2^53 + 1 <= 2.0^53`` in float64 and say yes;
    the integer it is compared with says no."""
    big = 2**53
    starts, ends = [big + 1, 0, big - 5], [big + 10, 3, big + 1]
    index = OptimizedHINTm(_collection(list(zip(starts, ends))), num_bits=4, columnar=columnar)
    for query in (Query(1.5, float(big)), Query(float(big + 2), float(big + 2))):
        expected = sorted(
            i for i, (s, e) in enumerate(zip(starts, ends)) if s <= query.end and query.start <= e
        )
        assert sorted(index.query(query)) == expected
        assert index.query_count(query) == len(expected)
        assert _sorted(index.query_batch([query])) == [expected]


@pytest.mark.parametrize("backend", [OptimizedHINTm, HybridHINTm])
def test_nanosecond_epoch_collection(backend):
    """``raw_extent * (2^m - 1)`` is past int64 here: the mapped endpoints
    used to wrap around and the build died range-checking them."""
    rng = np.random.default_rng(5)
    starts = 1_700_000_000_000_000_000 + rng.integers(0, 30_000_000_000_000_000, 2_000)
    ends = starts + rng.integers(0, 60_000_000_000_000, 2_000)
    collection = IntervalCollection(np.arange(2_000), starts, ends)
    index = backend(collection, num_bits=16)
    naive = NaiveIndex.build(collection)
    lo, hi = collection.span()
    query_starts = rng.integers(lo - (hi - lo) // 50, hi, 200)
    queries = [
        Query(int(s), int(s + extent))
        for s, extent in zip(query_starts, rng.integers(0, (hi - lo) // 100, 200))
    ]
    expected = [sorted(naive.query(q)) for q in queries]
    assert any(expected)
    assert _sorted(index.query_batch(queries)) == expected
    assert _sorted(index.query(q) for q in queries) == expected


# --------------------------------------------------------------------------- #
# layout: the array build stores what Algorithm 1 assigns
# --------------------------------------------------------------------------- #
def _reference_layout(index, collection):
    m = index.num_bits
    stored = Counter()
    mapped_starts = index.domain.map_values(collection.starts).tolist()
    mapped_ends = index.domain.map_values(collection.ends).tolist()
    for interval_id, ms, me in zip(collection.ids.tolist(), mapped_starts, mapped_ends):
        for assignment in partition_assignments(m, ms, me):
            last_value = ((assignment.offset + 1) << (m - assignment.level)) - 1
            name = ("o" if assignment.is_original else "r") + (
                "_in" if me <= last_value else "_aft"
            )
            stored[(assignment.level, name, assignment.offset, interval_id)] += 1
    return stored


def _class_runs(index):
    """``(class, key, row_lo, row_hi)`` for every non-empty run of a class
    in a directory entry."""
    keys = index._keys.tolist()
    for (name, _, _), pointers in zip(_CLASSES, index._pointers):
        for entry, key in enumerate(keys):
            if pointers[entry] < pointers[entry + 1]:
                yield name, key, int(pointers[entry]), int(pointers[entry + 1])


def _stored_layout(index):
    stored = Counter()
    for name, key, row_lo, row_hi in _class_runs(index):
        level = key.bit_length() - 1
        for row in range(row_lo, row_hi):
            stored[(level, name, key - (1 << level), int(index._ids[row]))] += 1
    return stored


@pytest.mark.parametrize("sparse", [True, False])
@pytest.mark.parametrize("m", [1, 3, 8, 12])
def test_build_stores_the_reference_assignments(taxis_like_collection, m, sparse):
    index = OptimizedHINTm(taxis_like_collection, num_bits=m, sparse_directory=sparse)
    reference = _reference_layout(index, taxis_like_collection)
    assert _stored_layout(index) == reference
    assert index.replication_factor == sum(reference.values()) / len(index)
    per_level = Counter()
    for (level, _name, _offset, _id), copies in reference.items():
        per_level[level] += copies
    assert index.level_occupancy() == [per_level[level] for level in range(m + 1)]
    assert index.nonempty_partitions() == len({(level, offset) for level, _, offset, _ in reference})


@pytest.mark.parametrize("columnar", [True, False])
def test_partition_runs_are_sorted_by_their_sort_column(books_like_collection, columnar):
    index = OptimizedHINTm(books_like_collection, num_bits=9, columnar=columnar)
    keeps = {name: (keep_starts, keep_ends) for name, keep_starts, keep_ends in _CLASSES}
    rows = Counter()
    for name, _key, lo, hi in _class_runs(index):
        rows[name] += hi - lo
        keep_starts, keep_ends = keeps[name]
        if keep_starts:
            assert np.all(np.diff(index._starts[lo:hi]) >= 0)
        elif keep_ends:
            ends = index._ends[lo - index._ends_base : hi - index._ends_base]
            assert np.all(np.diff(ends) >= 0)
    # the starts column serves o_aft and o_in, the ends column o_in and r_in
    assert len(index._starts) == rows["o_aft"] + rows["o_in"]
    assert len(index._ends) == rows["o_in"] + rows["r_in"]
    assert index._ends_base == rows["o_aft"]


# --------------------------------------------------------------------------- #
# structure: batch size decides the path, nothing else does
# --------------------------------------------------------------------------- #
def test_long_batch_never_runs_a_lone_query(synthetic_collection, synthetic_queries, monkeypatch):
    index = OptimizedHINTm(synthetic_collection, num_bits=10)
    queries = synthetic_queries[:64]
    expected = _sorted(index.query(q) for q in queries)

    def lone_query(self, query):
        raise AssertionError("a 64-query batch fell back to the per-query loop")

    monkeypatch.setattr(OptimizedHINTm, "query", lone_query)
    monkeypatch.setattr(OptimizedHINTm, "query_count", lone_query)
    assert _sorted(index.query_batch(queries)) == expected
    assert index.query_count_batch(queries) == [len(ids) for ids in expected]
    assert index.query_exists_batch(queries) == [bool(ids) for ids in expected]


def test_short_batch_and_rowwise_layout_never_enter_the_kernel(
    synthetic_collection, synthetic_queries, monkeypatch
):
    columnar = OptimizedHINTm(synthetic_collection, num_bits=10)
    rowwise = OptimizedHINTm(synthetic_collection, num_bits=10, columnar=False)

    def kernel(self, *args):
        raise AssertionError("the vectorised traversal ran")

    monkeypatch.setattr(OptimizedHINTm, "_batch_segments", kernel)
    one = synthetic_queries[:1]
    assert _lists(columnar.query_batch(one)) == _lists([columnar.query(one[0])])
    assert columnar.query_count_batch(one) == [columnar.query_count(one[0])]
    many = synthetic_queries[:64]
    assert _lists(rowwise.query_batch(many)) == _lists(rowwise.query(q) for q in many)
    with pytest.raises(AssertionError):
        columnar.query_batch(many)


def test_counts_gather_no_ids_without_tombstones(synthetic_collection, synthetic_queries):
    """The count path reads segment lengths and boundary endpoints only."""
    index = OptimizedHINTm(synthetic_collection, num_bits=10)
    expected = [len(index.query(q)) for q in synthetic_queries[:64]]
    index._ids = None  # any id gather would fail
    assert index.query_count_batch(synthetic_queries[:64]) == expected


# --------------------------------------------------------------------------- #
# one traversal: the scalar walk and the batch kernel trim alike, run by run
# --------------------------------------------------------------------------- #
#: per m, sparse or dense directory alike: totals over ``_walk_queries`` of
#: (partitions_accessed, candidates, comparisons, partitions_compared).
#: Pinned: the counters describe which partitions the traversal reads, so a
#: change of layout or of predicate evaluation must leave them where they are
_WALK_COUNTERS = {
    1: (127, 1_260_475, 2_410_550, 123),
    4: (596, 164_096, 148_402, 140),
    10: (1_201, 92_671, 2_691, 139),
    16: (907, 91_722, 508, 27),
}


@pytest.fixture(scope="module")
def walk_collection():
    from repro.datasets.synthetic import SyntheticConfig, generate_synthetic

    return generate_synthetic(
        SyntheticConfig(domain_length=2_000_000, cardinality=20_000, alpha=1.2, sigma=200_000, seed=53)
    )


def _walk_queries(collection):
    """Ranges, stabs, float bounds and bounds beyond both edges of the data."""
    lo, hi = collection.span()
    rng = np.random.default_rng(61)
    starts = rng.integers(lo, hi, 40)
    queries = [Query(int(s), int(s) + int(w)) for s, w in zip(starts, rng.integers(0, 40_000, 40))]
    queries += [Query.stabbing(int(p)) for p in rng.integers(lo, hi, 10)]
    queries += [Query(float(s) + 0.5, float(s) + 900.25) for s in rng.integers(lo, hi, 10)]
    queries += [
        Query(lo - 5_000, lo + 3_000), Query(hi - 2_000, hi + 10_000),
        Query(lo - 10, hi + 10), Query(hi + 1, hi + 50),
    ]
    return queries


@pytest.mark.parametrize("sparse", [True, False])
@pytest.mark.parametrize("m", sorted(_WALK_COUNTERS))
def test_scalar_and_batch_walks_agree(walk_collection, m, sparse):
    index = OptimizedHINTm(walk_collection, num_bits=m, sparse_directory=sparse)
    queries = _walk_queries(walk_collection)
    totals = [0, 0, 0, 0]
    for query in queries:
        runs = index._walk(query)[0]
        assert not any(test_start or test_end for _, _, test_start, test_end in runs)
        _, seg_lo, seg_len, flagged, failed = index._batch_plan(
            np.array([query.start]), np.array([query.end])
        )
        bounds = list(zip(seg_lo.tolist(), (seg_lo + seg_len).tolist()))
        tested = [bounds[k] for k in flagged.tolist()]
        # the kernel's untested runs are the walk's runs, and the rows of its
        # end-tested o_in runs that pass are the rows the walk hands out there
        untested = sorted(bounds[k] for k in sorted(set(range(len(bounds))) - set(flagged.tolist())))
        rows = [row for lo, hi in tested for row in range(lo, hi)]
        passing = sorted(row for row, fails in zip(rows, failed.tolist()) if not fails)

        def inside_tested(lo, hi):
            return any(t_lo <= lo and hi <= t_hi for t_lo, t_hi in tested)

        assert sorted(
            (lo, hi) for lo, hi, _, _ in runs if not inside_tested(lo, hi)
        ) == [(lo, hi) for lo, hi in untested if lo < hi], query
        assert sorted(
            row for lo, hi, _, _ in runs if inside_tested(lo, hi) for row in range(lo, hi)
        ) == passing, query
        _, stats = index.query_with_stats(query)
        for i, value in enumerate((
            stats.partitions_accessed, stats.candidates, stats.comparisons,
            stats.partitions_compared,
        )):
            totals[i] += value
    assert tuple(totals) == _WALK_COUNTERS[m]

    naive = NaiveIndex.build(walk_collection)
    doomed = walk_collection.ids[::7].tolist()
    for tombstoned in (False, True):
        if tombstoned:
            for interval_id in doomed:
                index.delete(interval_id)
                naive.delete(interval_id)
        for query in queries:
            expected = sorted(naive.query(query))
            assert sorted(index.query(query).tolist()) == expected, (query, tombstoned)
            assert index.query_count(query) == len(expected)


# --------------------------------------------------------------------------- #
# one plan: the kernel reads only the populated (level, class) pairs
# --------------------------------------------------------------------------- #
def _populated_pairs(index):
    """``(originals, replicas, o_in pairs)``: how many (level, class) pairs
    the plan of :meth:`OptimizedHINTm._level_plan` lists for the scalar walk."""
    walk, _ = index._level_plan()
    originals = [keeps_end for *_, originals in walk for _, keeps_end in originals]
    replicas = sum(len(replicas) for *_, replicas, _ in walk)
    return len(originals), replicas, sum(originals)


@pytest.mark.parametrize("sparse", [True, False])
@pytest.mark.parametrize("m", [1, 4, 10, 16])
def test_kernel_slots_are_the_populated_pairs(walk_collection, m, sparse):
    index = OptimizedHINTm(walk_collection, num_bits=m, sparse_directory=sparse)
    originals, replicas, o_in = _populated_pairs(index)
    # the pairs the plan lists are exactly those that store rows
    cuts = index._level_cuts
    stored = [
        (level, name)
        for level in range(m + 1)
        for (name, _, _), pointers in zip(_CLASSES, index._pointers)
        if pointers[cuts[level + 1]] > pointers[cuts[level]]
    ]
    assert originals + replicas == len(stored)
    assert originals == sum(name.startswith("o_") for _, name in stored)
    assert o_in == sum(name == "o_in" for _, name in stored)
    # what the kernel builds per query: one slot per pair, and a second one
    # per o_in pair (its first partition, read apart when it is end-tested)
    width = len(index._slots[3])
    assert width == originals + replicas + o_in
    queries = [q for q in _walk_queries(walk_collection) if isinstance(q.start, int)]
    seg_query, _, seg_len, _, _, _ = index._batch_segments(
        np.array([q.start for q in queries]), np.array([q.end for q in queries])
    )
    assert np.all(seg_len > 0)
    assert np.bincount(seg_query).max() <= width


def _sparse_layouts():
    """Layouts that leave whole levels or whole classes empty: ``(pairs,
    domain bounds or None, m)``."""
    rng = np.random.default_rng(83)
    points = rng.integers(0, 5_000, 300)
    half = rng.integers(0, 900, 200)
    return {
        # one original at the root: every other level is empty
        "whole domain": ([(0, 10_000)], None, 10),
        # originals of the bottom level only: no replica anywhere
        "points only": ([(int(p), int(p)) for p in points], None, 12),
        # the right half of the domain holds nothing
        "one half": (
            [(int(s), int(s + w)) for s, w in zip(half, rng.integers(0, 90, 200))], (0, 2_000), 9,
        ),
    }


@pytest.mark.parametrize("sparse", [True, False])
@pytest.mark.parametrize("layout", sorted(_sparse_layouts()))
def test_layouts_with_empty_levels_and_classes(layout, sparse):
    pairs, bounds, m = _sparse_layouts()[layout]
    collection = _collection(pairs)
    domain = None if bounds is None else Domain(num_bits=m, raw_min=bounds[0], raw_max=bounds[1])
    index = OptimizedHINTm(collection, num_bits=m, sparse_directory=sparse, domain=domain)
    originals, replicas, _ = _populated_pairs(index)
    assert originals + replicas < 4 * (m + 1)
    if layout == "points only":
        assert replicas == 0
    lo, hi = collection.span()
    top = hi if bounds is None else bounds[1]
    queries = [Query(lo - 50, top + 50), Query(lo, lo), Query(hi, hi), Query(top, top)]
    queries += [Query(lo + k * (top - lo) // 16, lo + (k + 1) * (top - lo) // 16) for k in range(16)]
    queries += [Query(hi + 1, top + 10), Query(lo - 40, lo - 1)]
    assert len(queries) >= _BATCH_CROSSOVER
    assert index._batch_bounds(queries) is not None  # the kernel answers
    naive = NaiveIndex.build(collection)
    for tombstoned in (False, True):
        if tombstoned:
            for interval_id in collection.ids[::3].tolist():
                assert index.delete(interval_id)
                naive.delete(interval_id)
        expected = [sorted(naive.query(q)) for q in queries]
        assert _sorted(index.query_batch(queries)) == expected, tombstoned
        assert _sorted(index.query(q) for q in queries) == expected, tombstoned
        assert index.query_count_batch(queries) == [len(ids) for ids in expected]
        assert [index.query_count(q) for q in queries] == [len(ids) for ids in expected]
        assert index.query_exists_batch(queries) == [bool(ids) for ids in expected]
        assert [index.query_exists(q) for q in queries] == [bool(ids) for ids in expected]
