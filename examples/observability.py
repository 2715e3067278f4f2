"""Observability quickstart: metrics, tracing and the slow-query log.

Run with::

    PYTHONPATH=src python examples/observability.py

Covers the observability layer end to end in one process:

* scraping ``GET /metrics`` (Prometheus text) off a live query server and
  round-tripping it through :func:`~repro.obs.parse_prometheus_text`,
* ``GET /stats`` as a *snapshot of the same registry* -- the two surfaces
  share sample names, so they can never disagree,
* tracing a batch by hand: a :class:`~repro.obs.Trace` activated around
  ``store.run_batch`` collects a connected span tree,
* the slow-query log: a server started with ``slow_threshold=0.0`` records
  every request with a span tree -- its root span alone, since these
  requests carry no trace headers (a routed query's shard request does,
  and lands with its full subtree) -- served by ``GET /slow-queries``
  (``repro slow-queries`` renders the same payload in the terminal).
"""

import numpy as np

from repro import IntervalStore, ServeClient, start_server_thread
from repro.core.interval import IntervalCollection, Query
from repro.obs import Trace, parse_prometheus_text, start_span


def _print_span(node, depth=0):
    tags = {k: v for k, v in node.get("tags", {}).items()}
    label = f"{'  ' * depth}- {node['name']}"
    if tags:
        label += f"  {tags}"
    print(f"{label}  [{node.get('duration_ms', 0.0):.2f}ms]")
    for child in node.get("children", []):
        _print_span(child, depth + 1)


def main() -> None:
    # ------------------------------------------------------------------ #
    # 1. a sharded store behind the query server (for replica failover
    #    metrics see examples/cluster_quickstart.py); threshold 0
    #    so *every* request lands in the slow-query log for the demo
    # ------------------------------------------------------------------ #
    rng = np.random.default_rng(7)
    starts = rng.integers(0, 100_000, 10_000)
    ends = starts + rng.integers(10, 2_000, 10_000)
    collection = IntervalCollection.from_pairs(
        [(int(s), int(e)) for s, e in zip(starts, ends)]
    )
    store = IntervalStore.open(collection, "hintm_hybrid", num_shards=2)
    handle = start_server_thread(store, cache=128, slow_threshold=0.0)
    client = ServeClient(port=handle.port)
    print(f"serving {len(store)} intervals on {handle.address}")

    # some traffic for the counters: a hot query (second probe is a cache
    # hit), a cold one, and a batch
    client.query(20_000, 40_000)
    client.query(20_000, 40_000)
    client.query(55_000, 60_000, count_only=True)
    client.batch([(10_000, 15_000), (70_000, 80_000)])

    # ------------------------------------------------------------------ #
    # 2. /metrics: Prometheus text, parseable by the bundled parser
    # ------------------------------------------------------------------ #
    samples = parse_prometheus_text(client.metrics())
    for name in (
        "repro_requests_total",
        "repro_queries_total",
        "repro_cache_hits_total",
        "repro_cache_misses_total",
        "repro_intervals",
    ):
        print(f"{name:28s} {samples[name]:g}")

    # ------------------------------------------------------------------ #
    # 3. /stats is a registry snapshot: same names, same numbers
    # ------------------------------------------------------------------ #
    stats = client.stats()
    assert stats["queries"] == samples["repro_queries_total"]
    assert handle.server.metrics.snapshot()["repro_queries_total"] == stats["queries"]
    latency = stats["latency"]["query"]
    print(
        f"query latency: n={latency['count']} p50={latency['p50'] * 1e3:.2f}ms "
        f"p99={latency['p99'] * 1e3:.2f}ms"
    )

    # ------------------------------------------------------------------ #
    # 4. tracing by hand: activate a Trace around a batch and print the
    #    tree (run_batch spans; an id batch over a process pool adds kernel
    #    spans -- see tests/test_tracing.py -- while count_batch bisects the
    #    count columns in this process and adds none)
    # ------------------------------------------------------------------ #
    trace = Trace()
    with start_span(trace, "example_workload", queries=3):
        store.run_batch([Query(5_000, 9_000), Query(30_000, 31_000)])
        store.count_batch([Query(42_000, 47_000)])
    print(f"\ntrace {trace.trace_id}:")
    for root in trace.tree():
        _print_span(root)

    # ------------------------------------------------------------------ #
    # 5. the slow-query log: every request above the threshold, newest
    #    first, each with its span tree (root-only for a local request)
    # ------------------------------------------------------------------ #
    log = client.slow_queries(limit=2)
    print(
        f"\nslow-query log: threshold {log['threshold_s']:g}s, "
        f"{log['recorded']} recorded"
    )
    for entry in log["slow_queries"]:
        print(f"{entry['endpoint']} took {entry['duration_ms']:.2f}ms")
        for root in entry.get("trace", []):
            _print_span(root, depth=1)

    client.close()
    handle.stop()
    store.close()
    print("\ndone")


if __name__ == "__main__":
    main()
