"""Worker residency cache under pressure: LRU eviction and supersession.

The worker-global residency cache (``_procworker._RESIDENTS``) is what makes
id batches cheap -- shard indexes survive between batches -- but a
long-lived pool serves *many* stores, so the cache is bounded (``_MAX_RESIDENTS``) and a newer snapshot generation of the same
index supersedes every older one (the parent unlinked their shared blocks at
publication time, so keeping them would pin dead memory).

The deterministic halves drive ``_residency_for`` directly in this process
(the worker module is process-agnostic); the integration halves exercise a
real shared :class:`ProcessExecutor` pool across several concurrent stores,
on both start methods.
"""

import multiprocessing
from collections import OrderedDict

import pytest

from repro.core.interval import HAS_SHARED_MEMORY, Interval, Query
from repro.engine import ProcessExecutor, ShardedIndex
from repro.engine import _procworker
from repro.engine._procworker import (
    _MAX_RESIDENTS,
    _residency_for,
    resident_summary,
    resident_tokens,
)

pytestmark = pytest.mark.skipif(
    not HAS_SHARED_MEMORY, reason="no multiprocessing.shared_memory"
)


@pytest.fixture
def clean_residents():
    """Isolate this process's residency cache (normally only workers use it)."""
    saved = OrderedDict(_procworker._RESIDENTS)
    _procworker._RESIDENTS.clear()
    yield _procworker._RESIDENTS
    for residency in _procworker._RESIDENTS.values():
        residency.close()
    _procworker._RESIDENTS.clear()
    _procworker._RESIDENTS.update(saved)


def _indexes(collection, executor, count):
    kwargs = {} if executor is None else {"executor": executor}
    return [
        ShardedIndex(collection, backend="naive", num_shards=4, **kwargs)
        for _ in range(count)
    ]


def _uid_generations(tokens, uid):
    """Generations of every resident token belonging to ``uid``."""
    out = []
    for token in tokens:
        token_uid, gen, _ = token.split(":")
        if token_uid == uid:
            out.append(int(gen.lstrip("g")))
    return out


@pytest.fixture
def lazy_pool():
    """Snapshots only publish under a process executor; this one is never
    actually driven, so no worker processes spawn."""
    executor = ProcessExecutor(2)
    yield executor
    executor.close()


class TestResidencyCacheDeterministic:
    """Drive ``_residency_for`` directly: exact LRU and supersession order."""

    def test_lru_caps_and_evicts_oldest(
        self, synthetic_collection, clean_residents, lazy_pool
    ):
        indexes = _indexes(synthetic_collection, lazy_pool, _MAX_RESIDENTS + 2)
        try:
            specs = [index._residency_spec(index._epoch) for index in indexes]
            for spec in specs:
                _residency_for(spec)
            tokens = resident_tokens()
            assert len(tokens) == _MAX_RESIDENTS
            # the two oldest residencies were evicted, the rest kept in order
            assert tokens == tuple(spec.token for spec in specs[2:])
            # touching the now-oldest survivor refreshes its LRU position ...
            _residency_for(specs[2])
            # ... so the *next* insertion evicts specs[3], not specs[2]
            refreshed = ShardedIndex(
                synthetic_collection, backend="naive", num_shards=4, executor=lazy_pool
            )
            try:
                _residency_for(refreshed._residency_spec(refreshed._epoch))
                survivors = resident_tokens()
                assert specs[2].token in survivors
                assert specs[3].token not in survivors
            finally:
                refreshed.close()
        finally:
            for index in indexes:
                index.close()

    def test_new_generation_supersedes_same_uid(
        self, synthetic_collection, clean_residents, lazy_pool
    ):
        index = ShardedIndex(
            synthetic_collection, backend="naive", num_shards=4, executor=lazy_pool
        )
        try:
            old_spec = index._residency_spec(index._epoch)
            _residency_for(old_spec)
            lo, hi = synthetic_collection.span()
            index.insert(Interval(10**6, lo, hi))
            assert index.refresh_snapshot()
            new_spec = index._residency_spec(index._epoch)
            assert new_spec.generation > old_spec.generation
            _residency_for(new_spec)
            tokens = resident_tokens()
            # the stale generation was evicted eagerly, not left to LRU age-out
            assert old_spec.token not in tokens
            assert _uid_generations(tokens, index._uid) == [new_spec.generation]
        finally:
            index.close()


class TestResidencyInPool:
    """The same pressure through a real pool shared by concurrent stores."""

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_many_stores_stay_under_cap(self, synthetic_collection, method):
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"start method {method!r} unavailable")
        lo, hi = synthetic_collection.span()
        queries = [Query(lo, hi), Query(lo, (lo + hi) // 2), Query((lo + hi) // 2, hi)]
        with ProcessExecutor(2, start_method=method) as executor:
            indexes = _indexes(synthetic_collection, executor, _MAX_RESIDENTS + 2)
            try:
                expected = [len(synthetic_collection.query_ids(q)) for q in queries]
                for index in indexes:
                    assert [len(ids) for ids in index.query_batch(queries)] == expected
                per_worker = dict(
                    executor.map(resident_summary, list(range(executor.workers * 4)))
                )
                assert per_worker, "expected at least one worker to answer"
                for pid, tokens in per_worker.items():
                    assert len(tokens) <= _MAX_RESIDENTS, (
                        f"worker {pid} holds {len(tokens)} residencies; "
                        f"cap is {_MAX_RESIDENTS}"
                    )
                # the most recently served store is resident somewhere
                last_uid = indexes[-1]._uid
                assert any(
                    _uid_generations(tokens, last_uid)
                    for tokens in per_worker.values()
                )
            finally:
                for index in indexes:
                    index.close()

    def test_refresh_supersedes_in_workers(self, synthetic_collection):
        lo, hi = synthetic_collection.span()
        queries = [Query(lo, hi), Query(lo, (lo + hi) // 2), Query((lo + hi) // 2, hi)]
        with ProcessExecutor(2) as executor:
            index = ShardedIndex(
                synthetic_collection, backend="naive", num_shards=4, executor=executor
            )
            try:
                index.query_batch(queries)  # seed generation-0 residencies
                index.insert(Interval(10**6, lo, hi))
                assert index.refresh_snapshot()
                generation = index._generation
                # serve a few batches so every worker sees the new spec
                for _ in range(3):
                    counts = [len(ids) for ids in index.query_batch(queries)]
                assert counts == [
                    len(synthetic_collection.query_ids(q)) + 1 for q in queries
                ]
                for pid, tokens in dict(
                    executor.map(resident_summary, list(range(executor.workers * 4)))
                ).items():
                    generations = _uid_generations(tokens, index._uid)
                    assert all(g == generation for g in generations), (
                        f"worker {pid} still holds stale generations "
                        f"{sorted(set(generations))} after refresh to "
                        f"g{generation}"
                    )
            finally:
                index.close()
