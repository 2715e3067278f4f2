"""Acceptance checks for the sharded execution layer at benchmark scale.

On a 100k-interval, 1k-query workload a 4-shard ``IntervalStore`` answers
identically to the unsharded store, and its speed-up on a scan-bound backend
has one source, asserted here as the structure it is rather than as a
wall-clock ratio: planning prunes every small query to the shards it
overlaps, which hold a fraction of the rows."""

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


def test_sharded_k4_prunes_small_queries_to_a_fraction_of_the_rows(workload):
    """Every 0.1 %-extent query plans <= 2 shards, and over the workload the
    probed shards hold <= 0.6 n rows per query (equi-width cuts on skewed
    data: the largest shard alone holds 0.46 n, a query straddling it 0.65 n)."""
    collection, queries = workload
    index = ShardedIndex(collection, backend="naive", num_shards=4)
    sizes = [len(shard) for shard in index.shards]
    probed = []
    for query in queries:
        first, last = index.plan.shard_range(query.start, query.end)
        assert last - first + 1 <= 2, query
        probed.append(sum(sizes[first : last + 1]))
    assert sum(probed) / len(probed) <= 0.6 * len(collection)


def test_sharded_ids_identical_to_unsharded_at_scale(workload):
    """Spot-check the equivalence half of the acceptance bar at full scale."""
    collection, queries = workload
    unsharded = create_index("naive", collection)
    store = IntervalStore.open(collection, "naive", num_shards=4)
    sample = queries[:: max(1, len(queries) // 100)]  # ~100 queries
    batch = store.run_batch(sample)
    for query, ids in zip(sample, batch.ids):
        assert sorted(ids) == sorted(unsharded.query(Query(query.start, query.end)))
