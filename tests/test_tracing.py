"""Cross-tier tracing: one connected span tree from router to kernel worker.

The observability PR's correctness matrix:

* the tracing primitives themselves -- span nesting, tree assembly,
  header round-trips, absorb's trace-id re-stamping, and the explicit
  thread hand-off (:func:`repro.obs.tracing.bind`);
* kernel span propagation across **fork and spawn** process pools: span
  records built worker-side travel back inside task results and land in
  the submitting trace, parented under ``kernel_dispatch``;
* per-worker healing stays traced: a SIGKILLed worker's retry round shows
  up as a ``kernel_retry`` child span whose answers still match the
  serial oracle;
* a query routed through a :class:`ClusterRouter` over two HTTP shard
  servers yields ONE connected span tree with a single shared trace id --
  router root, per-shard probe spans, the shard servers' own
  ``server:/shard-batch`` subtrees, down to the kernel task spans;
* ``/metrics`` parses as Prometheus text on all three server surfaces
  (query server, shard server, router admin) and ``/stats`` is a view
  over the same registry snapshot.
"""

import multiprocessing
import os
import random
import signal
import threading
import time
import urllib.request

import pytest

from repro.core.interval import HAS_SHARED_MEMORY, Interval, IntervalCollection, Query
from repro.engine import IntervalStore, ProcessExecutor, ShardedIndex
from repro.obs import parse_prometheus_text, tracing


def _collection(n=300, seed=11):
    rng = random.Random(seed)
    intervals = []
    for i in range(n):
        start = rng.randrange(0, 10_000)
        end = start + rng.randrange(1, 2_000)
        intervals.append(Interval(i, start, end))
    return IntervalCollection.from_intervals(intervals)


def _queries(collection, n=20, seed=5):
    rng = random.Random(seed)
    lo, hi = (int(v) for v in collection.span())
    return [
        Query(start, start + rng.randrange(0, (hi - lo) // 2))
        for start in (rng.randrange(lo, hi) for _ in range(n))
    ]


def _flatten(nodes):
    for node in nodes:
        yield node
        yield from _flatten(node["children"])


# --------------------------------------------------------------------------- #
# primitives
# --------------------------------------------------------------------------- #
class TestTracePrimitives:
    def test_span_nesting_builds_one_tree(self):
        trace = tracing.Trace()
        with tracing.start_span(trace, "root"):
            with tracing.span("child", k=1):
                with tracing.span("grandchild"):
                    pass
            with tracing.span("sibling"):
                pass
        tree = trace.tree()
        assert [node["name"] for node in tree] == ["root"]
        children = [node["name"] for node in tree[0]["children"]]
        assert children == ["child", "sibling"]
        assert tree[0]["children"][0]["children"][0]["name"] == "grandchild"
        assert {span["trace_id"] for span in trace.spans()} == {trace.trace_id}

    def test_span_is_noop_without_active_trace(self):
        with tracing.span("orphan") as record:
            assert record is None
        assert tracing.current() is None

    def test_absorb_restamps_foreign_trace_ids(self):
        trace = tracing.Trace()
        with tracing.start_span(trace, "root") as root:
            foreign = tracing.new_span_record("someone-else", root["span_id"], "remote")
            trace.absorb([foreign, {"not": "a span"}, None])
        spans = trace.spans()
        assert {span["trace_id"] for span in spans} == {trace.trace_id}
        tree = trace.tree()
        assert [c["name"] for c in tree[0]["children"]] == ["remote"]

    def test_header_round_trip(self):
        trace = tracing.Trace()
        headers = tracing.headers_for(trace, "abc123")
        assert tracing.context_from_headers(headers) == (trace.trace_id, "abc123")
        assert tracing.context_from_headers({}) is None
        assert tracing.context_from_headers(None) is None

    def test_bind_carries_context_across_threads(self):
        trace = tracing.Trace()
        with tracing.start_span(trace, "root") as root:
            ctx = (trace, root["span_id"])

            def work():
                with tracing.span("threaded"):
                    pass

            thread = threading.Thread(target=tracing.bind(ctx, work))
            thread.start()
            thread.join()
        tree = trace.tree()
        assert [c["name"] for c in tree[0]["children"]] == ["threaded"]
        # bind(None, fn) is the untraced pass-through
        sentinel = object()
        assert tracing.bind(None, lambda: sentinel)() is sentinel


# --------------------------------------------------------------------------- #
# kernel span propagation across process pools
# --------------------------------------------------------------------------- #
@pytest.mark.skipif(not HAS_SHARED_MEMORY, reason="no multiprocessing.shared_memory")
class TestKernelSpanPropagation:
    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_worker_spans_travel_back_from_both_start_methods(self, method):
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"start method {method} unavailable")
        collection = _collection()
        queries = _queries(collection)
        with ProcessExecutor(2, start_method=method) as executor:
            index = ShardedIndex(
                collection, backend="naive", num_shards=4, executor=executor
            )
            try:
                trace = tracing.Trace()
                with tracing.start_span(trace, "test_root"):
                    answers = index.query_batch(queries)
                for query, ids in zip(queries, answers):
                    assert sorted(ids) == sorted(collection.query_ids(query).tolist())
            finally:
                index.close()
        spans = trace.spans()
        assert {span["trace_id"] for span in spans} == {trace.trace_id}
        dispatch = [s for s in spans if s["name"] == "kernel_dispatch"]
        assert len(dispatch) == 1
        kernel = [s for s in spans if s["name"].startswith("kernel:")]
        assert kernel, "worker-side kernel spans must ship back in task results"
        assert {s["parent_id"] for s in kernel} == {dispatch[0]["span_id"]}
        pids = {s["tags"]["pid"] for s in kernel}
        assert pids and os.getpid() not in pids, "kernel spans must be worker-side"
        for span in kernel:
            assert span["tags"]["queries"] > 0

    def test_sigkilled_worker_retry_is_a_child_span(self):
        collection = _collection()
        queries = _queries(collection)
        expected = [sorted(collection.query_ids(q).tolist()) for q in queries]
        executor = ProcessExecutor(2)
        index = ShardedIndex(
            collection, backend="naive", num_shards=4, executor=executor
        )
        try:
            index.query_batch(queries)  # warm the pool
            pids = list(index.worker_residencies().keys())
            assert pids, "expected worker residencies after a warm batch"
            os.kill(pids[0], signal.SIGKILL)
            time.sleep(0.2)
            trace = tracing.Trace()
            with tracing.start_span(trace, "test_root"):
                answers = index.query_batch(queries)
            assert [sorted(ids) for ids in answers] == expected
            assert index.kernel_retries > 0
            assert not index._fanout_disabled
        finally:
            index.close()
            executor.close()
        spans = trace.spans()
        assert {span["trace_id"] for span in spans} == {trace.trace_id}
        retries = [s for s in spans if s["name"] == "kernel_retry"]
        assert retries, "the retry round must appear as its own span"
        dispatch_ids = {s["span_id"] for s in spans if s["name"] == "kernel_dispatch"}
        assert {s["parent_id"] for s in retries} <= dispatch_ids
        # the resubmitted tasks' worker spans hang off the retry span
        retry_ids = {s["span_id"] for s in retries}
        retried_kernels = [
            s
            for s in spans
            if s["name"].startswith("kernel:") and s["parent_id"] in retry_ids
        ]
        assert retried_kernels, "retried kernel tasks must parent under kernel_retry"


# --------------------------------------------------------------------------- #
# the acceptance path: router -> HTTP shards -> kernels, one tree
# --------------------------------------------------------------------------- #
@pytest.mark.skipif(not HAS_SHARED_MEMORY, reason="no multiprocessing.shared_memory")
class TestClusterTraceEndToEnd:
    @pytest.fixture()
    def cluster(self):
        from repro.cluster import ClusterTopology, start_shard_server_thread
        from repro.cluster.router import ClusterRouter
        from repro.engine.sharding import ShardPlan, shard_mask

        collection = _collection(n=400, seed=29)
        plan = ShardPlan.for_collection(collection, 2)
        handles, executors, addresses = [], [], []
        for shard in range(plan.num_shards):
            rows = collection.take(shard_mask(collection, plan.cuts, shard))
            executor = ProcessExecutor(2)
            executors.append(executor)
            store = IntervalStore.open(
                rows, "naive", num_shards=2, executor=executor
            )
            handle = start_shard_server_thread(
                store, host="127.0.0.1", port=0, shard_id=shard
            )
            handles.append(handle)
            addresses.append([("127.0.0.1", handle.port)])
        topology = ClusterTopology.build(plan.cuts, addresses)
        router = ClusterRouter(topology, slow_threshold=0.0)
        try:
            yield collection, router, handles
        finally:
            router.close()
            for handle in handles:
                handle.stop()
            for executor in executors:
                executor.close()

    def test_routed_query_yields_one_connected_tree(self, cluster):
        collection, router, _ = cluster
        lo, hi = (int(v) for v in collection.span())
        pairs = [(lo, hi), (lo + 100, lo + 500)]
        answers = router.batch(pairs, count_only=False)
        for (start, end), answer in zip(pairs, answers):
            expected = sorted(
                collection.query_ids(Query(start, end)).tolist()
            )
            assert sorted(answer["ids"]) == expected

        trace = router.last_trace
        assert trace is not None
        spans = trace.spans()
        assert {span["trace_id"] for span in spans} == {trace.trace_id}, (
            "every tier must stamp the router's trace id"
        )
        tree = trace.tree()
        assert len(tree) == 1, "one routed batch == one connected span tree"
        root = tree[0]
        assert root["name"] == "router_batch"
        flat = list(_flatten(tree))
        names = [node["name"] for node in flat]
        probes = [node for node in flat if node["name"] == "shard_probe"]
        assert {node["tags"]["shard"] for node in probes} == {0, 1}
        assert "plan" in names and "merge" in names
        # each probe subtree carries the remote server's execution spans
        for probe in probes:
            probe_names = [node["name"] for node in _flatten([probe])]
            assert "server:/shard-batch" in probe_names
            assert any(name.startswith("kernel:") for name in probe_names), (
                f"shard {probe['tags']['shard']} subtree lost its kernel spans"
            )
        # the slow log (threshold 0) captured the same tree
        entries = router.slow_log.entries()
        assert entries and entries[0]["trace_id"] == trace.trace_id

    def test_metrics_parse_on_all_three_server_surfaces(self, cluster):
        from repro.serve.client import ServeClient
        from repro.serve.server import start_server_thread

        collection, router, handles = cluster
        router.batch([(0, 5_000)])

        # shard servers
        for handle in handles:
            client = ServeClient(port=handle.port)
            try:
                samples = parse_prometheus_text(client.metrics())
            finally:
                client.close()
            assert "repro_requests_total" in samples
            assert "repro_shard_id" in samples

        # router admin surface
        admin = router.start_admin()
        assert router.start_admin() is admin  # idempotent
        with urllib.request.urlopen(f"{admin.address}/metrics") as response:
            assert response.headers["Content-Type"].startswith("text/plain")
            samples = parse_prometheus_text(response.read().decode())
        assert samples["repro_router_queries_total"] >= 1
        assert samples["repro_router_probes_total"] >= 1

        # single-node query server
        store = IntervalStore.open(collection, "hintm_opt")
        handle = start_server_thread(store, host="127.0.0.1", port=0)
        try:
            client = ServeClient(port=handle.port)
            try:
                client.query(0, 1_000)
                samples = parse_prometheus_text(client.metrics())
                assert samples["repro_queries_total"] >= 1
                assert any(
                    name.startswith("repro_request_seconds_bucket")
                    for name in samples
                )
            finally:
                client.close()
        finally:
            handle.stop()
            store.close()


# --------------------------------------------------------------------------- #
# /stats is a named view over the registry snapshot
# --------------------------------------------------------------------------- #
class TestStatsIsRegistrySnapshot:
    def test_stats_counters_equal_snapshot_values(self):
        from repro.serve.client import ServeClient
        from repro.serve.server import start_server_thread

        store = IntervalStore.open(_collection(), "hintm_opt")
        handle = start_server_thread(store, host="127.0.0.1", port=0)
        try:
            client = ServeClient(port=handle.port)
            try:
                client.query(0, 4_000)
                client.batch([(10, 60), (100, 900)])
                stats = client.stats()
                snapshot = handle.server.metrics.snapshot()
            finally:
                client.close()
        finally:
            handle.stop()
            store.close()
        assert stats["queries"] == snapshot["repro_queries_total"]
        assert stats["batches"] == snapshot["repro_batches_total"]
        assert stats["requests"] == snapshot["repro_requests_total"]
        assert stats["cache"]["hits"] == snapshot["repro_cache_hits_total"]
        assert stats["cache"]["misses"] == snapshot["repro_cache_misses_total"]
        for op in ("query", "batch"):
            assert stats["latency"][op]["count"] >= 1
            assert stats["latency"][op]["p99"] >= stats["latency"][op]["p50"]
