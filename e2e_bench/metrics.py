"""Names, units and directions of every metric the benchmark reports.

``BENCHMARK.json`` at the repository root must list exactly these (a self-test
compares them); bounds live only there.  ``better`` for a plain count says which
way an optimisation would be expected to move it.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

Metric = Tuple[str, str, str]  # name, unit, better

END_TO_END: List[Metric] = [
    ("setup_s", "s", "lower"),
    ("throughput_ops_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

PER_LAYER: List[Metric] = [
    # hint: the index itself (ladder rung R0)
    ("hint.query_us_p50", "us", "lower"),
    ("hint.count_us_p50", "us", "lower"),
    ("hint.build_s", "s", "lower"),
    ("hint.bytes_per_interval", "B", "lower"),
    ("hint.results_per_query", "count", "lower"),
    ("hint.comparisons_per_result", "count", "lower"),
    ("hint.partitions_compared_per_query", "count", "lower"),
    ("hint.beats_baselines", "count", "higher"),
    ("baselines.naive.query_us_p50", "us", "lower"),
    ("baselines.grid1d.query_us_p50", "us", "lower"),
    # engine: store facade, sharding, process pool (R1, R2, R3)
    ("engine.store.query_self_us", "us", "lower"),
    ("engine.store.run_batch_us_per_query", "us", "lower"),
    ("engine.store.count_batch_us_per_query", "us", "lower"),
    ("engine.sharded.query_self_us", "us", "lower"),
    ("engine.sharded.count_us_per_query", "us", "lower"),
    ("engine.executor.processes.batch_us_per_query", "us", "lower"),
    ("engine.executor.processes.count_us_per_query", "us", "lower"),
    ("engine.executor.pool_start_s", "s", "lower"),
    ("engine.executor.kernel_retries", "count", "lower"),
    ("engine.maintenance.maintain_s", "s", "lower"),
    ("engine.maintenance.read_stall_ms", "ms", "lower"),
    # serve: server, client, result cache (R4 and the server's own /stats)
    ("serve.server.request_us_p50", "us", "lower"),
    ("serve.server.request_us_mean", "us", "lower"),
    ("serve.server.self_us", "us", "lower"),
    ("serve.server.cpu_ms_per_req", "ms", "lower"),
    ("serve.server.batch_size_mean", "count", "higher"),
    ("serve.server.rejected_share", "ratio", "lower"),
    ("serve.server.response_bytes_per_req", "B", "lower"),
    ("serve.client.self_us", "us", "lower"),
    ("serve.client.decode_us_per_kid", "us", "lower"),
    ("serve.cache.hit_rate", "ratio", "higher"),
    ("serve.cache.evictions", "count", "lower"),
    ("serve.cache.invalidated", "count", "lower"),
    # durability: WAL, recovery (mixed_rw only; 0 elsewhere)
    ("durability.update_latency_p50_ms", "ms", "lower"),
    ("durability.wal_bytes_per_update", "B", "lower"),
    ("durability.replayed_records", "count", "lower"),
    ("durability.recovery_s", "s", "lower"),
    ("durability.lost_acked_updates", "count", "lower"),
    # cluster: the router over two shard servers (R5)
    ("cluster.router.query_us_p50", "us", "lower"),
    ("cluster.router.self_us", "us", "lower"),
    ("cluster.router.fanout_per_query", "count", "lower"),
    # loadgen: the benchmark's own behaviour, to judge the run by
    ("loadgen.lag_p99_ms", "ms", "lower"),
    ("loadgen.cpu_share", "ratio", "lower"),
    ("loadgen.open_latency_p50_ms", "ms", "lower"),
    ("loadgen.latency_p95_ms", "ms", "lower"),
    ("loadgen.latency_p99_ms", "ms", "lower"),
    ("loadgen.latency_p999_ms", "ms", "lower"),
    ("loadgen.samples", "count", "higher"),
    ("loadgen.max_rate_ok_rps", "1/s", "higher"),
    ("loadgen.trace_overhead_share", "ratio", "lower"),
]

UNITS: Dict[str, str] = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}
