"""Tombstones in ``OptimizedHINTm``'s own row space.

A delete marks the rows that hold its id, one byte per row, and every read
drops marked rows inside the row ranges its walk already holds.  These tests
pin what that buys, beside the oracle checks of ``test_property_based.py``:

* no read of a tombstoned index probes the id column (``searchsorted``) or
  filters it by set membership (``np.isin``), and counts gather no id;
* the tombstones are one byte per row and nothing else per row, and
  ``memory_bytes()`` counts them;
* a build that repeats an id indexes its last row only, as the span table
  keeps it, so a delete drops the id whole;
* a tombstoned hybrid runs on the process pool -- as the one shard of a
  sharded index, resident in the workers -- and answers as the serial
  store through updates and ``maintain()``.
"""

import numpy as np
import pytest

from repro.core.base import _deep_sizeof
from repro.core.interval import Interval, IntervalCollection, Query
from repro.engine import IntervalStore
from repro.hint.optimized import _BATCH_CROSSOVER, OptimizedHINTm

CARDINALITY = 3_000
DOMAIN = 200_000


def _collection(seed=5):
    rng = np.random.default_rng(seed)
    starts = rng.integers(0, DOMAIN, CARDINALITY)
    ends = starts + rng.lognormal(6, 2, CARDINALITY).astype(np.int64)
    # ids are neither row positions nor sorted
    return IntervalCollection(rng.permutation(CARDINALITY) * 3 + 11, starts, ends)


def _queries(count=2 * _BATCH_CROSSOVER, seed=6):
    rng = np.random.default_rng(seed)
    return [
        Query(int(a), int(a + w))
        for a, w in zip(rng.integers(-1_000, DOMAIN, count), rng.integers(0, 8_000, count))
    ]


def _oracle(collection, live, query):
    hit = live & (collection.starts <= query.end) & (collection.ends >= query.start)
    return sorted(collection.ids[hit].tolist())


def _tombstoned(collection, every=7):
    index = OptimizedHINTm(collection, num_bits=9)
    index.render_ids()
    doomed = collection.ids[::every]
    for interval_id in doomed.tolist():
        assert index.delete(interval_id)
    return index, ~np.isin(collection.ids, doomed)


class _Unprobed(np.ndarray):
    """An id column that refuses to be searched."""

    def searchsorted(self, *args, **kwargs):
        raise AssertionError("a read searched the id column")


def test_reads_never_probe_the_id_column(monkeypatch):
    collection = _collection()
    index, live = _tombstoned(collection)
    index._ids = index._ids.view(_Unprobed)
    index._spans._base.ids = index._spans._base.ids.view(_Unprobed)

    def isin(*args, **kwargs):
        raise AssertionError("a read filtered ids by membership")

    monkeypatch.setattr(np, "isin", isin)
    queries = _queries()
    want = [_oracle(collection, live, query) for query in queries]
    assert [sorted(index.query(query).tolist()) for query in queries] == want
    assert [index.query_count(query) for query in queries] == [len(ids) for ids in want]
    assert [index.query_exists(query) for query in queries] == [bool(ids) for ids in want]
    assert index._batch_bounds(queries) is not None  # the kernel runs
    assert [sorted(ids.tolist()) for ids in index.query_batch(queries)] == want
    assert index.query_count_batch(queries) == [len(ids) for ids in want]
    assert index.query_exists_batch(queries) == [bool(ids) for ids in want]
    for query, ids in zip(queries, want):
        text, count = index.ids_text(query)
        assert count == len(ids)
        assert sorted(int(i) for i in text.split(b",") if i) == ids


def test_counts_gather_no_id(monkeypatch):
    collection = _collection()
    index, live = _tombstoned(collection)
    queries = _queries()
    want = [len(_oracle(collection, live, query)) for query in queries]

    def no_ids(self, query, stats=None):
        raise AssertionError("a count gathered the ids")

    monkeypatch.setattr(OptimizedHINTm, "_answer", no_ids)
    assert [index.query_count(query) for query in queries] == want
    assert [index.query_exists(query) for query in queries] == [bool(n) for n in want]


def test_tombstones_cost_one_byte_a_row():
    collection = _collection()
    index = OptimizedHINTm(collection, num_bits=9)
    before, table_before = index.memory_bytes(), _deep_sizeof(index._spans)
    held = dict(vars(index))
    victim = int(collection.ids[0])
    assert index.delete(victim)
    assert not index.delete(victim)  # already gone: nothing more marked
    # the mask and the kernel's view of it, and no other per-row structure
    assert {name for name, value in vars(index).items() if held[name] is not value} == {
        "_dead", "_dead_rows",
    }
    assert len(index._dead) == len(index._ids) and index._dead_rows.base.obj is index._dead
    assert index._dead.count(1) == len(index._rows_of(collection[0]))
    grown = index.memory_bytes() - before
    # one byte a row, the table's growth, and under 1 KiB of headers
    headers = grown - len(index._ids) - (_deep_sizeof(index._spans) - table_before)
    assert 0 <= headers < 1024


def test_a_repeated_build_id_is_answered_and_deleted_once():
    # the span table keeps an id's last row, and so does the index: a delete
    # marks the one row set that answers the id
    repeated = IntervalCollection([7, 3, 7, 5], [0, 10, 20, 30], [1, 11, 21, 31])
    index = OptimizedHINTm(repeated, num_bits=4)
    everything = Query(0, 40)
    assert sorted(index.query(everything).tolist()) == [3, 5, 7] and len(index) == 3
    assert index.delete(7)
    assert sorted(index.query(everything).tolist()) == [3, 5]
    assert index.query_count(everything) == 2 and index.query_count(Query(0, 1)) == 0


@pytest.mark.parametrize("tombstoned", [False, True])
def test_a_hybrid_runs_in_the_process_pool(tombstoned):
    """At K = 1 a pool means a one-shard index whose shard lives in the
    workers: it answers as the serial store before and after updates and
    after ``maintain()``, with no index pickled into the pool."""
    collection = _collection()
    queries = _queries()
    pooled = IntervalStore.open(collection, "hintm_hybrid", executor="processes", workers=2)
    serial = IntervalStore.open(collection, "hintm_hybrid")

    def answers_agree():
        answers = pooled.run_batch(queries)
        expected = serial.run_batch(queries)
        assert [sorted(ids.tolist()) for ids in answers.ids] == [
            sorted(ids.tolist()) for ids in expected.ids
        ]
        assert answers.counts == expected.counts
        assert pooled.count_batch(queries) == serial.count_batch(queries)

    try:
        assert pooled.index.num_shards == 1
        answers_agree()
        if tombstoned:
            for store in (pooled, serial):
                for interval_id in collection.ids[::9].tolist():
                    assert store.delete(interval_id)
                for k in range(20):
                    store.insert(Interval(10**6 + k, k * 9_000, k * 9_000 + 700))
            assert pooled.index.shards[0].tombstones == serial.index.tombstones > 0
            assert pooled.index.update_dirty  # answered in-process until maintain
            answers_agree()
        for store in (pooled, serial):
            store.maintain(force=True)
        assert not pooled.index.update_dirty  # the workers answer again
        answers_agree()
    finally:
        pooled.close()
        serial.close()
