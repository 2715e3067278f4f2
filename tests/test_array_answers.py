"""Ids are int64 arrays until they are written: the traps of that contract.

A lone query answers one int64 array (``OptimizedHINTm.query``,
``HybridHINTm.query``, ``ShardedIndex.query``, ``ResultSet.ids()``); ids
become Python ints only where they are serialised or hashed.  Each test here
is a place where an array behaves unlike a list: truth value, membership,
slicing, deduplication, JSON.
"""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.core.interval import Interval, IntervalCollection, Query
from repro.datasets.io import save_intervals_csv
from repro.engine import IntervalStore
from repro.serve.client import ServeClient
from repro.serve.server import start_server_thread
from repro.stream.deltas import StandingQueryManager


def _collection(n=400, seed=11):
    rng = np.random.default_rng(seed)
    starts = rng.integers(0, 10_000, n)
    ends = starts + rng.integers(0, 300, n)
    return IntervalCollection(np.arange(n, dtype=np.int64), starts, ends)


def _oracle(collection, start, end):
    return sorted(collection.query_ids(Query(start, end)).tolist())


@pytest.fixture(scope="module")
def collection():
    return _collection()


@pytest.mark.parametrize("backend", ["hintm_opt", "hintm_hybrid", "naive"])
def test_ids_are_one_cached_int64_array(collection, backend):
    store = IntervalStore.open(collection, backend)
    results = store.query().overlapping(2_000, 4_000).build()
    ids = results.ids()
    assert isinstance(ids, np.ndarray) and ids.dtype == np.int64
    assert results.ids() is ids
    assert sorted(ids.tolist()) == _oracle(collection, 2_000, 4_000)


def test_iteration_yields_python_ints(collection):
    results = IntervalStore.open(collection, "hintm_opt").query().overlapping(2_000, 4_000).build()
    assert all(type(interval_id) is int for interval_id in results)
    assert sorted(json.loads(json.dumps(list(results)))) == _oracle(collection, 2_000, 4_000)


def test_single_shard_answer_is_one_read_only_array(collection):
    with IntervalStore.open(collection, "hintm_opt", num_shards=2) as store:
        assert store.index.plan.shard_range(10, 20) == (0, 0)
        results = store.query().overlapping(10, 20).build()
        ids = results.ids()
        assert ids is results.ids() and not ids.flags.writeable
        with pytest.raises(ValueError):
            ids[:] = -1
        shard = store.index.shards[0]
        assert shard.query_count(Query(10, 20)) == results.count() == len(ids)
        assert sorted(ids.tolist()) == _oracle(collection, 10, 20)


def test_exists_and_bool_after_ids_materialised(collection):
    store = IntervalStore.open(collection, "hintm_opt")
    results = store.query().overlapping(2_000, 4_000).build()
    assert len(results.ids()) >= 2  # bool(array) of >= 2 elements would raise
    assert results.exists() is True
    assert bool(results) is True
    empty = store.query().overlapping(50_000, 60_000).build()
    assert len(empty.ids()) == 0
    assert empty.exists() is False
    assert not empty


def test_membership_and_limit(collection):
    store = IntervalStore.open(collection, "hintm_opt")
    results = store.query().overlapping(2_000, 4_000).build()
    expected = _oracle(collection, 2_000, 4_000)
    assert expected[0] in results and int(expected[-1]) in results
    assert -1 not in results
    limited = store.query().overlapping(2_000, 4_000).limit(2).build()
    ids = limited.ids()
    assert ids.dtype == np.int64 and len(ids) == 2
    assert set(ids.tolist()) <= set(expected)
    assert limited.count() == 2 and limited.exists()


def test_hybrid_answer_appends_the_delta_as_int64(collection):
    store = IntervalStore.open(collection, "hintm_hybrid")
    store.insert(Interval(9_000_000, 3_000, 3_010))
    ids = store.index.query(Query(2_000, 4_000))
    assert isinstance(ids, np.ndarray) and ids.dtype == np.int64
    assert 9_000_000 in ids.tolist()
    stats_ids, stats = store.index.query_with_stats(Query(2_000, 4_000))
    assert stats_ids.dtype == np.int64 and stats.results == len(ids)


def test_sharded_answer_dedups_across_two_shards(collection):
    with IntervalStore.open(collection, "hintm_hybrid", num_shards=2) as store:
        cut = store.index.plan.cuts[0]
        store.insert(Interval(9_000_001, cut - 50, cut + 50))  # stored in both shards
        assert store.index.plan.shard_range(cut - 200, cut + 200) == (0, 1)
        results = store.query().overlapping(cut - 200, cut + 200).build()
        ids = results.ids()
        assert ids.dtype == np.int64
        assert len(ids) == len(set(ids.tolist()))
        assert ids.tolist().count(9_000_001) == 1
        assert results.count() == len(ids)


@pytest.mark.parametrize("min_duration", [0, 5])
def test_standing_query_snapshot_is_json(collection, min_duration):
    """``np.int64`` is not JSON-serialisable: the snapshot holds Python ints
    (the filtered path gathers spans for the candidates first)."""
    store = IntervalStore.open(collection, "hintm_opt")
    subscribed = StandingQueryManager(store).subscribe(2_000, 4_000, min_duration=min_duration)
    decoded = json.loads(json.dumps(list(subscribed.ids)))
    assert decoded == list(subscribed.ids)
    assert all(type(interval_id) is int for interval_id in subscribed.ids)


def test_served_relation_stats_and_subscribe_answers_are_json(collection):
    store = IntervalStore.open(collection, "hintm_opt")
    handle = start_server_thread(store, cache=0)
    client = ServeClient(port=handle.port)
    try:
        response = client._request("GET", "/query?start=2000&end=4000&relation=during&stats=1")
        assert response["count"] == len(response["ids"]) >= 2
        assert all(type(interval_id) is int for interval_id in response["ids"])
        assert response["stats"]["results"] == response["count"]
        plain = client.query(2_000, 4_000, stats=True)
        assert sorted(plain["ids"]) == _oracle(collection, 2_000, 4_000)
        subscribed = client.subscribe(2_000, 4_000)
        assert sorted(subscribed["ids"]) == _oracle(collection, 2_000, 4_000)
    finally:
        client.close()
        handle.stop()
        store.close()


def test_cli_query_prints_plain_ids(collection, tmp_path, capsys):
    path = tmp_path / "intervals.csv"
    save_intervals_csv(collection, path)
    assert main(["query", str(path), "--start", "2000", "--end", "4000"]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if not line.startswith("#")]
    assert [int(line) for line in lines] == _oracle(collection, 2_000, 4_000)
    assert all(line.isdigit() for line in lines)
