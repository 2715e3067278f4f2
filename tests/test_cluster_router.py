"""Front-tier routing oracle: fan-out/merge == one-store truth.

Every routed answer -- ids, counts (each later shard's [cut, end] count
minus its stab at cut - 1), existence, and batches -- must be byte-equal to the same query against a single
:class:`IntervalStore` over the whole collection, across backends, shard
counts, replica kills mid-workload, and cache hits.  Also covers the
distributed result cache's generation invalidation through router-side
updates and the :class:`NoHealthyReplicaError` terminal path.
"""

import random

import pytest

from repro.cluster import (
    ClusterRouter,
    ClusterTopology,
    NoHealthyReplicaError,
    start_shard_server_thread,
)
from repro.core.interval import Interval, IntervalCollection
from repro.engine import IntervalStore
from repro.engine.sharding import ShardPlan, shard_mask
from repro.serve.cache import ResultCache


def _collection(n=300, seed=17):
    rng = random.Random(seed)
    intervals = []
    for i in range(n):
        start = rng.randrange(0, 10_000)
        # heavy-tailed spans so plenty of rows straddle shard cuts --
        # the hard case for count dedup
        end = start + (rng.randrange(1, 50) if i % 3 else rng.randrange(500, 4_000))
        intervals.append(Interval(i, start, end))
    return IntervalCollection.from_intervals(intervals)


def _queries(collection, n=40, seed=23):
    rng = random.Random(seed)
    lo, hi = (int(v) for v in collection.span())
    pairs = []
    for _ in range(n):
        start = rng.randrange(lo - 100, hi + 100)
        end = start + rng.randrange(0, (hi - lo) // 2)
        pairs.append((start, end))
    return pairs


class _Cluster:
    """K shards x R replicas of in-process shard servers + a topology."""

    def __init__(self, collection, backend, num_shards, replicas=1, **router_kwargs):
        self.plan = ShardPlan.for_collection(collection, num_shards)
        self.handles = []
        addresses = []
        for shard in range(self.plan.num_shards):
            rows = collection.take(shard_mask(collection, self.plan.cuts, shard))
            row = []
            for _ in range(replicas):
                store = IntervalStore.open(rows, backend)
                row.append(
                    start_shard_server_thread(
                        store, host="127.0.0.1", port=0, shard_id=shard
                    )
                )
            self.handles.append(row)
            addresses.append([("127.0.0.1", handle.port) for handle in row])
        self.topology = ClusterTopology.build(self.plan.cuts, addresses)
        self.router = ClusterRouter(self.topology, **router_kwargs)

    def kill(self, shard, replica):
        self.handles[shard][replica].stop()

    def close(self):
        self.router.close()
        for row in self.handles:
            for handle in row:
                handle.stop()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


def _oracle(collection, backend="hintm"):
    return IntervalStore.open(collection, backend)


@pytest.mark.parametrize("num_shards", [1, 4])
@pytest.mark.parametrize("backend", ["hintm", "hintm_hybrid", "timeline"])
def test_routed_queries_match_single_store(backend, num_shards):
    collection = _collection()
    truth = _oracle(collection, backend)
    with _Cluster(collection, backend, num_shards) as cluster:
        assert cluster.plan.num_shards == num_shards
        for start, end in _queries(collection):
            want = list(truth.query().overlapping(start, end).ids())
            got = cluster.router.query(start, end)
            assert sorted(got["ids"]) == sorted(want)
            assert got["count"] == len(want)
            counted = cluster.router.query(start, end, count_only=True)
            assert counted["count"] == len(want), (start, end)
            assert cluster.router.exists(start, end) == bool(want)


def test_routed_counts_match_single_store_through_updates():
    """Later shards count [cut, end] minus one stab at cut - 1 per probe;
    inserts and deletes straddling every cut must keep that exact."""
    collection = _collection()
    truth = _oracle(collection, "hintm_hybrid")
    with _Cluster(collection, "hintm_hybrid", 4, cache=0) as cluster:
        cuts = cluster.plan.cuts
        assert len(cuts) == 3
        lo, hi = (int(v) for v in collection.span())
        inserts = [(lo - 50, hi + 50)]  # one interval over every shard
        for cut in cuts:
            inserts += [(cut - 1, cut), (cut - 40, cut + 40), (cut, cut + 3)]
        for offset, (start, end) in enumerate(inserts):
            cluster.router.insert(10_000 + offset, start, end)
            truth.insert(Interval(10_000 + offset, start, end))
        straddlers = [
            int(i)
            for i, start, end in zip(collection.ids, collection.starts, collection.ends)
            if any(start < cut <= end for cut in cuts)
        ]
        assert len(straddlers) >= 6
        for interval_id in straddlers[::3] + [10_001, 10_005]:
            assert cluster.router.delete(interval_id)["deleted"]
            assert truth.delete(interval_id)
        pairs = _queries(collection) + [(cut - 1, cut) for cut in cuts]
        want = [truth.query().overlapping(start, end).count() for start, end in pairs]
        for (start, end), count in zip(pairs, want):
            assert cluster.router.query(start, end, count_only=True)["count"] == count
        probes = cluster.router.stats()["probes"]
        answers = cluster.router.batch(pairs, count_only=True)
        assert [answer["count"] for answer in answers] == want
        # one probe per shard carries every query of the batch
        assert cluster.router.stats()["probes"] - probes <= 4


def test_batch_fanout_matches_and_caches():
    collection = _collection()
    truth = _oracle(collection)
    pairs = _queries(collection, n=25)
    with _Cluster(collection, "hintm", 4, cache=ResultCache(capacity=256)) as cluster:
        first = cluster.router.batch(pairs)
        for (start, end), answer in zip(pairs, first):
            want = set(truth.query().overlapping(start, end).ids())
            assert set(answer["ids"]) == want
        # an identical workload is answered from the front-tier cache
        probes_before = cluster.router.stats()["probes"]
        second = cluster.router.batch(pairs)
        assert second == first
        assert cluster.router.stats()["probes"] == probes_before
        assert cluster.router.stats()["cache"]["hits"] >= len(pairs)
        # a single routed hit is answered in the front tier: no probe is
        # issued and no shard server sees a request
        servers = [handle.server for row in cluster.handles for handle in row]
        for (start, end), answer in zip(pairs, first):
            stats = cluster.router.stats()
            requests = [server.serving_stats()["requests"] for server in servers]
            assert cluster.router.query(start, end) == answer
            after = cluster.router.stats()
            assert after["probes"] == stats["probes"]
            assert after["cache"]["hits"] == stats["cache"]["hits"] + 1
            assert [server.serving_stats()["requests"] for server in servers] == requests


def test_router_updates_invalidate_the_distributed_cache():
    collection = _collection(n=50)
    with _Cluster(collection, "hintm_hybrid", 2,
                  cache=ResultCache(capacity=64)) as cluster:
        lo, hi = (int(v) for v in collection.span())
        before = cluster.router.query(lo, hi)
        assert cluster.router.query(lo, hi) == before  # cached
        inserted = cluster.router.insert(10_000, lo + 1, lo + 5)
        assert inserted["replicas"] >= 1
        after = cluster.router.query(lo, hi)
        assert 10_000 in after["ids"]  # the generation bump invalidated it
        cluster.router.delete(10_000)
        assert 10_000 not in cluster.router.query(lo, hi)["ids"]


def test_failover_to_surviving_replica_mid_workload():
    collection = _collection()
    truth = _oracle(collection)
    with _Cluster(collection, "hintm", 2, replicas=2,
                  cache=0, retries=1) as cluster:
        pairs = _queries(collection, n=10)
        for start, end in pairs[:5]:
            assert set(cluster.router.query(start, end)["ids"]) == set(
                truth.query().overlapping(start, end).ids()
            )
        cluster.kill(0, 0)  # one replica of shard 0 goes away
        for start, end in pairs:
            assert set(cluster.router.query(start, end)["ids"]) == set(
                truth.query().overlapping(start, end).ids()
            )
        failures = cluster.router.failures()
        assert failures and all(f.shard_id == 0 for f in failures)


def test_no_healthy_replica_is_terminal():
    collection = _collection(n=40)
    with _Cluster(collection, "hintm", 2, cache=0,
                  retries=1, cooldown=0.05) as cluster:
        lo, hi = (int(v) for v in collection.span())
        cluster.kill(1, 0)  # the only replica of shard 1
        with pytest.raises(NoHealthyReplicaError) as excinfo:
            cluster.router.query(lo, hi)
        assert excinfo.value.failures
        # shard 0 alone keeps serving queries that never touch shard 1
        first_cut = cluster.plan.cuts[0]
        assert cluster.router.query(lo, first_cut - 1)["count"] >= 0
