"""Acceptance checks for the process-parallel sharded execution layer.

On a 100k-interval TAXIS-scale collection with a 1k-query workload:

* a multi-shard ``hintm`` id batch under the
  :class:`~repro.engine.executor.ProcessExecutor` really runs in the workers
  (resident shards there, none built in the parent, no retry) and answers
  like the oracle -- what that buys in wall-clock is recorded, not asserted,
  by ladder rung R3 (``engine.executor.processes.batch_us_per_query`` beside
  R2's serial number);
* multi-shard ``query_count`` answers through home-shard sums -- identical
  to the materialise-and-dedup oracle and never building an id list.
"""

import pytest

from repro.core.interval import Query
from repro.datasets.real_like import REAL_DATASET_PROFILES, generate_real_like
from repro.engine import IntervalStore, ShardedIndex, create_index
from repro.queries.generator import QueryWorkloadConfig, generate_queries

CARDINALITY = 100_000
NUM_QUERIES = 1_000


@pytest.fixture(scope="module")
def workload():
    collection = generate_real_like(
        REAL_DATASET_PROFILES["TAXIS"], cardinality=CARDINALITY, seed=7
    )
    queries = generate_queries(
        collection, QueryWorkloadConfig(count=NUM_QUERIES, extent_fraction=0.001, seed=7)
    )
    return collection, queries


def test_process_batch_runs_in_workers_on_multi_shard_hintm(workload):
    collection, queries = workload
    oracle = create_index("naive", collection)
    with IntervalStore.open(
        collection, "hintm", num_shards=4, executor="processes", workers=2
    ) as store:
        batch = store.run_batch(queries)
        for query, ids in zip(queries, batch.ids):
            assert sorted(ids) == sorted(oracle.query(query))
        assert store.index.worker_residencies(), "no worker holds a resident shard"
        assert store.index.built_shards == [None] * 4
        assert store.index.kernel_retries == 0


def test_process_executor_identical_to_unsharded_at_scale(workload):
    """The equivalence half of the acceptance bar, at full scale."""
    collection, queries = workload
    unsharded = create_index("naive", collection)
    with IntervalStore.open(
        collection, "naive", num_shards=4, executor="processes", workers=2
    ) as store:
        sample = queries[:: max(1, len(queries) // 100)]  # ~100 queries
        batch = store.run_batch(sample)
        for query, ids in zip(sample, batch.ids):
            assert sorted(ids) == sorted(unsharded.query(Query(query.start, query.end)))


def test_multi_shard_count_never_materialises_at_scale(workload, monkeypatch):
    """Counting a duplication-heavy multi-shard workload touches no id lists."""
    collection, _ = workload
    index = ShardedIndex(collection, backend="hintm_opt", num_shards=4)
    lo, hi = collection.span()
    step = max(1, (hi - lo) // 50)
    broad = [Query(lo + i * step, lo + i * step + 3 * step) for i in range(40)]
    oracle = [len(set(index.query(q))) for q in broad]

    def _no_materialise(*args, **kwargs):  # pragma: no cover - failure path
        raise AssertionError("query_count materialised an id list")

    before = dict(index.count_ops)
    monkeypatch.setattr(type(index), "query", _no_materialise)
    for shard in index.shards:
        monkeypatch.setattr(type(shard), "query", _no_materialise, raising=False)
    counts = [index.query_count(q) for q in broad]
    monkeypatch.undo()
    assert counts == oracle
    multi_shard = sum(
        1
        for q in broad
        if index.plan.shard_range(q.start, q.end)[0]
        < index.plan.shard_range(q.start, q.end)[1]
    )
    assert multi_shard > 0
    assert index.count_ops["home_shard"] - before["home_shard"] == multi_shard
    index.close()
