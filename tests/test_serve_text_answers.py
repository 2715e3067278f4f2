"""A plain ``/query`` on a HINT^m store is answered from rendered id text.

The server renders the index's id column as text once, when it starts, and
slices each plain ids answer out of it (``OptimizedHINTm.ids_text``); a
hybrid adds its delta's ids, a sharded index answers from the one shard a
query overlaps or renders the merged ids of the shards it spans.  The rest
of a request is unchanged, so these tests pin what must not move:

* the served body is byte-identical to what ``_encode_answer`` makes of the
  index's ``query`` -- at several ``m``, on int and float bounds, stabbing
  queries, empty answers and bounds past the data;
* a tombstoned index keeps the text path, each slice split at its
  tombstoned rows, and answers what the oracle answers; every refined or
  count query takes the ``run_batch`` path;
* the same counters move and a traced request records the same spans;
* in-process reads never build the column, and a started server's
  ``memory_bytes()`` grows by the column's bytes and its headers;
* hybrid and sharded answers equal ``query`` through inserts, deletes,
  re-inserts, rebuilds and repartitions, which render their fresh indexes
  and drop the old columns; served, they never call ``run_batch``, and a
  backend that cannot render keeps it;
* deletes on another thread (a hopped ``/delete``) racing text answers
  leave every answer between the live sets before and after them.
"""

import gc
import json
import sys
import threading
import weakref
from collections import Counter

import numpy as np
import pytest

from repro.core.base import _deep_sizeof
from repro.core.interval import Interval, IntervalCollection, Query
from repro.engine import IntervalStore
from repro.hint.optimized import OptimizedHINTm
from repro.obs import tracing
from repro.serve.client import ServeClient
from repro.serve.server import _encode_answer, start_server_thread

CARDINALITY = 4_000
DOMAIN = 1_000_000


def _collection(seed=23):
    rng = np.random.default_rng(seed)
    starts = rng.integers(0, DOMAIN, CARDINALITY)
    ends = starts + rng.lognormal(6, 2, CARDINALITY).astype(np.int64)
    # ids are neither row positions nor sorted, and some are negative
    ids = rng.permutation(CARDINALITY) * 7 - 1_000
    return IntervalCollection(ids, starts, ends)


def _oracle(collection, start, end):
    hit = (collection.starts <= end) & (collection.ends >= start)
    return sorted(collection.ids[hit].tolist())


def _queries(seed=3):
    rng = np.random.default_rng(seed)
    ranges = [(int(a), int(a + w)) for a, w in zip(
        rng.integers(-5_000, DOMAIN + 5_000, 60), rng.integers(0, 20_000, 60)
    )]
    stabs = [(int(p), int(p)) for p in rng.integers(0, DOMAIN, 20)]
    beyond = [(3 * DOMAIN, 4 * DOMAIN), (-DOMAIN, -10), (0, 10 * DOMAIN)]
    return ranges + stabs + beyond


def _raw_query(client, start, end):
    return client._request(
        "POST", "/query", {"start": start, "end": end}, raw_body=True
    ).encode()


@pytest.mark.parametrize("num_bits", [1, 4, 9, 14])
def test_text_answer_matches_the_encoded_ids_at_every_m(num_bits):
    collection = _collection()
    index = OptimizedHINTm(collection, num_bits=num_bits)
    assert index.ids_text(Query(0, 10)) is None  # not rendered yet
    index.render_ids()
    queries = [Query(start, end) for start, end in _queries()]
    rng = np.random.default_rng(num_bits)
    queries += [
        Query(float(a) + 0.5, float(a) + float(w) + 0.25)
        for a, w in zip(rng.integers(0, DOMAIN, 30), rng.integers(0, 20_000, 30))
    ]
    queries += [Query(float(p) + 0.5, float(p) + 0.5) for p in rng.integers(0, DOMAIN, 10)]
    for query in queries:
        text, count = index.ids_text(query)
        expected = index.query(query).tolist()
        assert count == len(expected)
        assert _encode_answer(5, (text, count), False) == _encode_answer(5, expected, False)


@pytest.mark.parametrize("num_bits", [4, 11])
def test_served_body_is_byte_identical(num_bits):
    collection = _collection()
    store = IntervalStore.open(collection, "hintm_opt", num_bits=num_bits)
    index = store.index
    handle = start_server_thread(store, cache=0)
    calls = []
    original = index.ids_text
    index.ids_text = lambda query: calls.append(query) or original(query)
    try:
        with ServeClient(port=handle.port) as client:
            for start, end in _queries():
                body = _raw_query(client, start, end)
                expected = _encode_answer(
                    store.result_generation(), index.query(Query(start, end)).tolist(), False
                )
                assert body == expected
            assert len(calls) == len(_queries())  # every one sliced as text
            assert sorted(client.query(0, 50_000)["ids"]) == _oracle(collection, 0, 50_000)
    finally:
        handle.stop()
        store.close()


def test_a_delete_keeps_the_text_path_and_drops_the_deleted_id():
    collection = _collection()
    store = IntervalStore.open(collection, "hintm_opt")
    handle = start_server_thread(store, cache=0)
    batches = []
    original = store.run_batch
    store.run_batch = lambda queries, count_only=False: (
        batches.append(len(queries)) or original(queries, count_only=count_only)
    )
    try:
        with ServeClient(port=handle.port) as client:
            client.query(0, 100_000)
            assert batches == []  # sliced from the column
            victim = _oracle(collection, 0, 100_000)[0]
            assert client.delete(victim)["deleted"] is True
            assert store.index.renders_ids
            text, count = store.index.ids_text(Query(0, 100_000))
            assert victim not in {int(i) for i in text.split(b",")}
            assert count == len(_oracle(collection, 0, 100_000)) - 1
            live = IntervalCollection(
                collection.ids[collection.ids != victim],
                collection.starts[collection.ids != victim],
                collection.ends[collection.ids != victim],
            )
            for start, end in _queries():
                body = _raw_query(client, start, end)
                assert body == _encode_answer(
                    store.result_generation(),
                    store.index.query(Query(start, end)).tolist(),
                    False,
                )
                assert sorted(client.query(start, end)["ids"]) == _oracle(live, start, end)
            assert batches == []  # every answer still sliced from the column
    finally:
        handle.stop()
        store.close()


def test_counters_and_spans_match_the_run_batch_path():
    collection = _collection()
    text_store = IntervalStore.open(collection, "hintm_opt")
    batch_store = IntervalStore.open(collection, "hintm_opt")
    text_handle = start_server_thread(text_store, cache=0, slow_threshold=0.0)
    batch_handle = start_server_thread(batch_store, cache=0, slow_threshold=0.0)
    batch_store.index._id_text = None  # no rendered column: run_batch
    headers = {tracing.TRACE_HEADER: "feedface", tracing.PARENT_HEADER: "caller"}
    seen = []
    try:
        for handle in (text_handle, batch_handle):
            with ServeClient(port=handle.port) as client:
                before = client.stats()
                client._request(
                    "POST", "/query", {"start": 10_000, "end": 60_000}, headers=headers
                )
                after = client.stats()
                (entry,) = client.slow_queries()["slow_queries"]
            moved = {
                name: after[name] - before[name]
                for name in ("requests", "queries", "batches", "batched_queries", "errors")
            }
            (root,) = entry["trace"]
            children = [(child["name"], child["tags"]) for child in root["children"]]
            seen.append((moved, root["name"], children))
        assert text_store.index.renders_ids and not batch_store.index.renders_ids
        assert seen[0] == seen[1]
        moved, name, children = seen[0]
        # the /query itself and the second /stats
        assert moved == {
            "requests": 2, "queries": 1, "batches": 1, "batched_queries": 1, "errors": 0,
        }
        assert name == "server:/query"
        assert children == [("run_batch", {"queries": 1, "count_only": False})]
    finally:
        text_handle.stop()
        batch_handle.stop()
        text_store.close()
        batch_store.close()


def test_in_process_reads_never_render(monkeypatch):
    def refuse(self):
        raise AssertionError("the id column was rendered in process")

    monkeypatch.setattr(OptimizedHINTm, "render_ids", refuse)
    collection = _collection()
    store = IntervalStore.open(collection, "hintm_opt")
    before = store.memory_bytes()
    assert sorted(store.query().overlapping(0, 90_000).ids().tolist()) == _oracle(
        collection, 0, 90_000
    )
    assert store.query().overlapping(0, 90_000).count() == len(_oracle(collection, 0, 90_000))
    store.run_batch([Query(0, 90_000), Query(5, 5)])
    store.run_batch([Query(0, 90_000)] * 20)  # the batch kernel too
    store.run_batch([Query(0, 90_000)], count_only=True)
    assert store.index._id_text is None
    assert not store.index.renders_ids
    # the count built the span table's count pair (16 B an interval); a
    # rendered id column would add its text and offsets beside it
    pair = store.index._spans.pair
    grown = store.memory_bytes() - before
    assert 16 * len(collection) <= grown <= _deep_sizeof(pair) + 1024
    store.close()


def test_a_started_server_counts_the_column_in_memory_bytes():
    collection = _collection()
    store = IntervalStore.open(collection, "hintm_opt")
    before = store.memory_bytes()
    handle = start_server_thread(store, cache=0)
    try:
        text, offsets = store.index._id_text
        rows = len(store.index._ids)
        assert len(text) == sum(len(str(i)) + 1 for i in store.index._ids.tolist())
        assert offsets.dtype == np.int64 and len(offsets) == rows + 1
        # the text and its offsets, and under 1 KiB of headers
        assert 0 <= store.memory_bytes() - before - (len(text) + offsets.nbytes) < 1024
    finally:
        handle.stop()
        store.close()


@pytest.mark.parametrize(
    "backend, shards", [("hintm_hybrid", 1), ("hintm_opt", 2), ("hintm_hybrid", 2)]
)
def test_every_hintm_store_answers_without_run_batch(backend, shards):
    collection = _collection()
    store = IntervalStore.open(collection, backend, num_shards=shards)
    handle = start_server_thread(store, cache=0)

    def refuse(queries, count_only=False):
        raise AssertionError("a plain /query ran run_batch")

    store.run_batch = refuse
    try:
        assert handle.server._rendered is store.index
        assert store.index.renders_ids
        with ServeClient(port=handle.port) as client:
            for start, end in _queries():
                assert sorted(client.query(start, end)["ids"]) == _oracle(collection, start, end)
            assert client.stats()["batches"] == len(_queries())
    finally:
        handle.stop()
        store.close()


@pytest.mark.parametrize("shards", [1, 2])
def test_a_backend_that_cannot_render_keeps_run_batch(shards):
    collection = _collection()
    store = IntervalStore.open(collection, "naive", num_shards=shards)
    handle = start_server_thread(store, cache=0)
    batches = []
    original = store.run_batch
    store.run_batch = lambda queries, count_only=False: (
        batches.append(len(queries)) or original(queries, count_only=count_only)
    )
    try:
        assert handle.server._rendered is None
        assert not getattr(store.index, "renders_ids", False)
        with ServeClient(port=handle.port) as client:
            assert sorted(client.query(0, 70_000)["ids"]) == _oracle(collection, 0, 70_000)
        assert batches == [1]
    finally:
        handle.stop()
        store.close()


def _parsed(answer):
    text, count = answer
    ids = [int(i) for i in text.split(b",")] if text else []
    assert count == len(ids)
    return ids


def _live_oracle(live, start, end):
    return sorted(i for i, (s, e) in live.items() if s <= end and e >= start)


def _check_text(index, live, queries):
    """Every ``ids_text`` answer parses to ``query``'s ids and the oracle's."""
    for query in queries:
        ids = _parsed(index.ids_text(query))
        assert Counter(ids) == Counter(index.query(query).tolist())
        assert sorted(ids) == _live_oracle(live, query.start, query.end)


def _mains(index):
    """The optimized indexes that hold a hybrid or sharded index's text."""
    parts = index.shards if hasattr(index, "shards") else [index]
    return [getattr(part, "main_index", part) for part in parts]


def _columns(index):
    """The rendered id columns an index answers from."""
    return [main._id_text for main in _mains(index)]


def _column_bytes(index):
    return sum(len(text) + offsets.nbytes for text, offsets in _columns(index))


def _bytes_without_columns(store):
    """``memory_bytes()`` with every rendered column set aside."""
    mains = _mains(store.index)
    saved = [main._id_text for main in mains]
    for main in mains:
        main._id_text = None
    try:
        return store.memory_bytes()
    finally:
        for main, column in zip(mains, saved):
            main._id_text = column


@pytest.mark.parametrize("shards", [1, 2])
def test_hybrid_and_sharded_text_matches_query_through_updates(shards):
    collection = _collection()
    store = IntervalStore.open(collection, "hintm_hybrid", num_shards=shards)
    index = store.index
    live = {
        int(i): (int(s), int(e))
        for i, s, e in zip(collection.ids, collection.starts, collection.ends)
    }
    top = int(collection.ends.max())  # nothing lies past it
    empty = Query(top + 1_000, top + 2_000)
    assert index.ids_text(empty) is None  # not rendered yet
    bare = store.memory_bytes()
    index.render_ids()
    assert index.renders_ids
    assert 0 <= store.memory_bytes() - bare - _column_bytes(index) < 1024 * len(_columns(index))
    queries = [Query(start, end) for start, end in _queries()]
    _check_text(index, live, queries)

    # both answers empty: the body's ids are []
    assert index.ids_text(empty) == (b"", 0)
    assert _encode_answer(3, index.ids_text(empty), False) == b'{"ids":[],"count":0,"generation":3}'

    rng = np.random.default_rng(11)
    victims = rng.choice(collection.ids, 300, replace=False).tolist()
    for victim in victims:
        assert store.delete(victim)
        del live[victim]
    for offset in range(200):
        start = int(rng.integers(0, DOMAIN))
        interval = Interval(50_000 + offset, start, start + int(rng.integers(0, 20_000)))
        store.insert(interval)
        live[interval.id] = (interval.start, interval.end)
    # a deleted id comes back, elsewhere: the delta holds it, the main's
    # row stays tombstoned
    store.insert(Interval(victims[0], 500_000, 500_500))
    live[victims[0]] = (500_000, 500_500)
    # the main index answers nothing here, the delta one id
    store.insert(Interval(60_000, top + 1_005, top + 1_010))
    live[60_000] = (top + 1_005, top + 1_010)
    assert index.ids_text(empty) == (b"60000", 1)
    cut = int(index.plan.cuts[0]) if shards > 1 else DOMAIN // 2
    # a long interval held by both shards, and queries spanning the cut
    store.insert(Interval(60_001, cut - 5_000, cut + 5_000))
    live[60_001] = (cut - 5_000, cut + 5_000)
    around = [Query(cut - 100, cut + 100), Query(cut - 1, cut), Query(cut, cut)]
    stabs = [Query(500_200, 500_200), Query(cut + 4_000, cut + 4_000)]
    checked = queries + [empty] + around + stabs
    _check_text(index, live, checked)
    assert _parsed(index.ids_text(Query(500_000, 500_000))).count(victims[0]) == 1

    old_columns = _columns(index)
    if shards > 1:
        epoch = index.epoch
        assert index.repartition(strategy="balanced")  # fresh shards, new cut
        assert index.epoch > epoch and index.renders_ids
        cut = int(index.plan.cuts[0])
        _check_text(index, live, checked + [Query(cut - 100, cut + 100), Query(cut, cut)])
        store.insert(Interval(60_002, cut - 5_000, cut + 5_000))
        live[60_002] = (cut - 5_000, cut + 5_000)
        checked += [Query(cut - 100, cut + 100), Query(cut, cut)]
        _check_text(index, live, checked)
    store.maintain(force=True)  # rebuilds the main index (of each shard)
    assert index.renders_ids
    assert all(new is not old for new, old in zip(_columns(index), old_columns))
    _check_text(index, live, checked)
    # the new columns are counted, the old ones are no longer held
    assert 0 <= store.memory_bytes() - _bytes_without_columns(store) - _column_bytes(index) < (
        1024 * len(_columns(index))
    )
    gone = [weakref.ref(offsets) for _, offsets in old_columns]
    del old_columns
    gc.collect()
    assert all(ref() is None for ref in gone)
    store.close()


@pytest.mark.parametrize("shards", [1, 2])
def test_served_hybrid_answers_without_run_batch_across_maintain(shards):
    collection = _collection()
    store = IntervalStore.open(collection, "hintm_hybrid", num_shards=shards)
    live = {
        int(i): (int(s), int(e))
        for i, s, e in zip(collection.ids, collection.starts, collection.ends)
    }
    handle = start_server_thread(store, cache=0)

    def refuse(queries, count_only=False):
        raise AssertionError("a plain /query ran run_batch")

    store.run_batch = refuse
    try:
        with ServeClient(port=handle.port) as client:
            def check():
                for start, end in _queries():
                    body = json.loads(_raw_query(client, start, end))
                    assert sorted(body["ids"]) == _live_oracle(live, start, end)
                    assert body["count"] == len(body["ids"])

            check()
            rng = np.random.default_rng(5)
            for victim in rng.choice(collection.ids, 100, replace=False).tolist():
                assert client.delete(victim)["deleted"]
                del live[victim]
            for offset in range(100):
                start = int(rng.integers(0, DOMAIN))
                client.insert(70_000 + offset, start, start + 5_000)
                live[70_000 + offset] = (start, start + 5_000)
            check()
            client.maintain(force=True)
            assert store.index.renders_ids
            check()
    finally:
        handle.stop()
        store.close()


def test_deletes_racing_text_answers_stay_between_the_live_sets():
    # a hopped /delete runs on a worker thread beside the loop's ids_text:
    # each answer, text or fallback, holds every id live after the deletes
    # and nothing that was never live, and the walk never trips on the
    # column going away under it
    collection = _collection()
    index = OptimizedHINTm(collection, num_bits=9)
    index.render_ids()
    victims = _oracle(collection, 100_000, 300_000)[::3][:60]
    before = set(_oracle(collection, 100_000, 300_000))
    after = before - set(victims)
    query = Query(100_000, 300_000)
    failures = []
    done = threading.Event()

    def delete_all():
        for victim in victims:
            index.delete(victim)
        done.set()

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    deleter = threading.Thread(target=delete_all)
    try:
        deleter.start()
        answers = 0
        while not done.is_set() or answers < 5:
            answer = index.ids_text(query)
            ids = (
                {int(i) for i in answer[0].split(b",")}
                if answer is not None
                else set(index.query(query).tolist())
            )
            if not after <= ids <= before:
                failures.append(len(ids))
            answers += 1
        deleter.join(timeout=10)
    finally:
        sys.setswitchinterval(previous)
    assert not deleter.is_alive()
    assert not failures
    assert {int(i) for i in index.ids_text(query)[0].split(b",")} == after
    assert set(index.query(query).tolist()) == after
