"""The one owner of id -> span (:mod:`repro.core.spans`).

* a model check of :class:`SpanTable` against a plain dict,
* the duplicate-id pin (last row wins),
* what an index *retains* per interval, traced -- the test that would have
  caught ``memory_bytes()`` reporting 1/15 of the resident size -- and, for
  every registered backend, that ``memory_bytes()`` is what its build
  retains (Table 8 compares these sizes across backends).
"""

import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.base import _deep_sizeof
from repro.core.interval import Interval, IntervalCollection
from repro.core.spans import SpanTable
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic
from repro.engine.registry import available_backends, create_index

_IDS = st.integers(min_value=0, max_value=40)
_SPANS = st.tuples(st.integers(-50, 50), st.integers(0, 20))


@st.composite
def _base_rows(draw):
    """Build rows with increasing or shuffled ids; half the draws repeat one."""
    ids = draw(st.lists(_IDS, max_size=25, unique=True))
    if draw(st.booleans()):
        ids.sort()  # the no-permutation layout
    rows = [(i, *draw(_SPANS)) for i in ids]
    if rows and draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), (rows[0][0], *draw(_SPANS)))
    return rows


_OPS = st.lists(
    st.tuples(st.sampled_from(("add", "remove", "get")), _IDS, _SPANS), max_size=60
)


def _collection(rows):
    return IntervalCollection(
        [r[0] for r in rows], [r[1] for r in rows], [r[1] + r[2] for r in rows]
    )


def _assert_same(table, model):
    assert len(table) == len(model)
    live = table.collection()
    assert len(live) == len(model)
    assert {s.id: s for s in live} == model
    probe = list(range(-1, 42))
    starts, ends, mask = table.gather(probe)
    for interval_id, start, end, is_live in zip(probe, starts, ends, mask):
        assert (interval_id in table) == (interval_id in model) == bool(is_live)
        assert table.get(interval_id) == model.get(interval_id)
        if is_live:
            assert (start, end) == (model[interval_id].start, model[interval_id].end)


@settings(max_examples=150, deadline=None)
@given(rows=_base_rows(), ops=_OPS)
def test_span_table_answers_like_a_dict(rows, ops):
    table = SpanTable(_collection(rows))
    # dict construction is "last row wins" too
    model = {r[0]: Interval(r[0], r[1], r[1] + r[2]) for r in rows}
    _assert_same(table, model)
    for op, interval_id, (start, length) in ops:
        if op == "add":
            if interval_id in model:
                continue  # ids are unique among live rows: the caller's contract
            interval = Interval(interval_id, start, start + length)
            table.add(interval)
            model[interval_id] = interval
            assert interval_id not in table.removed
        elif op == "remove":
            removed = table.remove(interval_id)
            assert removed == model.pop(interval_id, None)
            if removed is not None:
                assert interval_id in table.removed  # the index's tombstone filter
        else:
            assert table.get(interval_id) == model.get(interval_id)
        _assert_same(table, model)


def test_duplicate_build_ids_keep_the_last_row():
    collection = IntervalCollection([7, 3, 7, 5], [0, 10, 20, 30], [1, 11, 21, 31])
    table = SpanTable(collection)
    assert len(table) == 3
    assert table.get(7) == Interval(7, 20, 21)
    assert sorted(table.collection().ids.tolist()) == [3, 5, 7]
    index = create_index("hintm_opt", collection, num_bits=4)
    assert len(index) == 3 and index._resolve_interval(7) == Interval(7, 20, 21)


def test_untouched_table_shares_the_build_columns():
    collection = generate_synthetic(SyntheticConfig(cardinality=500, seed=3))
    table = SpanTable(collection)
    assert table.collection() is collection  # no copy until something changes
    assert _deep_sizeof(table) >= 3 * collection.ids.nbytes


def _traced_build_bytes(backend, collection):
    """An index over its own copy of ``collection``, and what it retains,
    traced: its structures and its table's three columns."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        own = IntervalCollection(
            collection.ids.copy(), collection.starts.copy(), collection.ends.copy()
        )
        index = create_index(backend, own)
        del own
        gc.collect()
        return index, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_hintm_opt_retains_at_most_80_bytes_per_interval():
    """381 B/interval on this collection before the span table (two per-row
    dicts), ~236 with it while the merged tables kept per-row Python
    mirrors.  Without them what is left is columns: the index's id, start
    and end columns, the table's three, and the per-partition directory."""
    collection = generate_synthetic(SyntheticConfig(cardinality=20_000, seed=17))
    index, retained = _traced_build_bytes("hintm_opt", collection)
    assert retained / len(collection) <= 80
    # the reported size includes the table: at least its three columns
    assert index.memory_bytes() >= _deep_sizeof(index._spans) >= 24 * len(collection)


@pytest.fixture(scope="module")
def collection_20k():
    return generate_synthetic(SyntheticConfig(cardinality=20_000, seed=17))


@pytest.mark.parametrize("backend", available_backends())
def test_every_backend_reports_what_its_build_retains(backend, collection_20k):
    """``memory_bytes()`` is one walk for every backend, so Table 8 compares
    like with like.  The untraced build of 100 intervals first keeps
    one-time imports and registry entries (about 1 MB for a first sharded
    build) out of the traced window."""
    create_index(backend, collection_20k.slice(0, 100))
    index, retained = _traced_build_bytes(backend, collection_20k)
    assert retained / 1.25 <= index.memory_bytes() <= retained * 1.25


def test_every_backend_counts_its_table_once(synthetic_collection):
    for name in available_backends():
        if name == "naive":
            continue  # the oracle keeps its own columns, and no table
        index = create_index(name, synthetic_collection)
        # the hybrid's pair of tables, or the sharded index's locator
        tables = index._span_table()
        floor = _deep_sizeof(tables)
        total = index.memory_bytes()
        assert total >= floor >= 24 * len(synthetic_collection), name
        # the tables are inside the walk, once: walking them beside the
        # index adds only the headers of the tuples around them
        assert _deep_sizeof((index, tables)) - total < 1024, name
