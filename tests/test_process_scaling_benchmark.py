"""Acceptance checks for the process-parallel sharded execution layer.

On a 100k-interval TAXIS-scale collection with a 1k-query workload:

* a multi-shard ``hintm`` id batch under the
  :class:`~repro.engine.executor.ProcessExecutor` really runs in the workers
  (resident shards there, none built in the parent, no retry) and answers
  like the oracle -- what that buys in wall-clock is recorded, not asserted,
  by ladder rung R3 (``engine.executor.processes.batch_us_per_query`` beside
  R2's serial number);
* sharded counts and exists, single and batched, are bisections over the
  one count pair -- identical to the brute-force oracle with updates
  pending under the pool, and never probing a shard or reaching the pool.
"""

import pytest

from repro.core.interval import Query
from repro.datasets.real_like import REAL_DATASET_PROFILES, generate_real_like
from repro.engine import IntervalStore, create_index
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


def test_sharded_counts_never_probe_a_shard_at_scale(
    workload, pending_updates, forbid_shard_probes
):
    """Counting a duplication-heavy workload, single- and multi-shard, with
    deletes pending under a process pool: no shard probe, no submission."""
    collection, _ = workload
    with IntervalStore.open(
        collection, "hintm_opt", num_shards=4, executor="processes", workers=2
    ) as store:
        index = store.index
        lo, hi = collection.span()
        step = max(1, (hi - lo) // 50)
        broad = [Query(lo + i * step, lo + i * step + 3 * step) for i in range(40)]
        cut = int(index.plan.cuts[1])
        broad.append(Query(cut, cut + step // 4))  # inside one shard
        spans = [index.plan.shard_range(q.start, q.end) for q in broad]
        assert any(first < last for first, last in spans)
        assert any(first == last for first, last in spans)
        oracle = pending_updates(index, collection)(broad)
        assert index.count_columns.pending_ops > 0
        forbid_shard_probes(index)
        assert [index.query_count(q) for q in broad] == oracle
        assert [index.query_exists(q) for q in broad] == [c > 0 for c in oracle]
        assert store.count_batch(broad) == oracle
        assert store.exists_batch(broad) == [c > 0 for c in oracle]
