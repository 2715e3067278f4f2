"""Plain-text reporting of benchmark results in the paper's table/figure shapes."""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence, Union

__all__ = [
    "format_table",
    "format_series",
    "render_cluster_routing",
    "render_durable_ingest",
    "render_ingest_maintenance",
    "render_process_scaling",
    "render_serving_throughput",
]

Number = Union[int, float]


def _format_value(value: object) -> str:
    if isinstance(value, float):
        if value >= 1000:
            return f"{value:,.0f}"
        if value >= 1:
            return f"{value:.2f}"
        return f"{value:.4g}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


def format_table(
    title: str,
    columns: Sequence[str],
    rows: Iterable[Sequence[object]],
) -> str:
    """Render an aligned text table (one per paper table)."""
    materialised: List[List[str]] = [[_format_value(v) for v in row] for row in rows]
    widths = [len(c) for c in columns]
    for row in materialised:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [title, "-" * len(title)]
    header = "  ".join(c.ljust(widths[i]) for i, c in enumerate(columns))
    lines.append(header)
    lines.append("  ".join("-" * w for w in widths))
    for row in materialised:
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def render_process_scaling(result: Mapping[str, Sequence[Mapping]]) -> str:
    """Render :func:`repro.bench.experiments.process_scaling`'s two tables.

    Shared by ``scripts/run_experiments.py`` and
    ``benchmarks/bench_process_scaling.py`` so the CI report and the saved
    benchmark report cannot drift apart.
    """
    batch = format_table(
        "Process scaling -- executors over K time-range shards "
        "(speedup vs K=1 serial)",
        ["backend", "K", "executor", "workers", "build [s]", "queries/s", "speedup"],
        [
            [
                r["backend"],
                r["num_shards"],
                r["executor"],
                r["workers"],
                r["build_s"],
                r["throughput"],
                r["speedup"],
            ]
            for r in result["batch"]
        ],
    )
    count = format_table(
        "Home-shard counting -- multi-shard query_count, broad queries "
        "(speedup vs materialise+dedup)",
        ["backend", "K", "method", "counts/s", "speedup"],
        [
            [r["backend"], r["num_shards"], r["method"], r["throughput"], r["speedup"]]
            for r in result["count"]
        ],
    )
    return batch + "\n\n" + count


def render_ingest_maintenance(result: Mapping[str, Sequence[Mapping]]) -> str:
    """Render :func:`repro.bench.experiments.ingest_maintenance`'s two tables.

    Shared by ``scripts/run_experiments.py`` and
    ``benchmarks/bench_ingest_maintenance.py`` so the CI report and the
    saved benchmark report cannot drift apart.
    """
    ingest = format_table(
        "Buffered ingest -- insert/delete throughput on a K-shard hybrid "
        "(journaled count columns, folded lazily)",
        ["backend", "K", "ops", "ops/s", "maintain [ms]", "counts exact"],
        [
            [
                r["backend"],
                r["num_shards"],
                r["ops"],
                r["ops_per_s"],
                r["maintain_ms"],
                r["counts_exact"],
            ]
            for r in result["ingest"]
        ],
    )
    if not result["refresh"]:
        return ingest + "\n\n(snapshot refresh: skipped -- no shared memory)"
    refresh = format_table(
        "Snapshot refresh -- process fan-out across the update/maintain cycle "
        "(asserted via residency-token generation)",
        ["stage", "generation", "fan-out ready", "update dirty"],
        [
            [r["stage"], r["generation"], r["fanout_ready"], r["update_dirty"]]
            for r in result["refresh"]
        ],
    )
    return ingest + "\n\n" + refresh


def render_durable_ingest(rows: Sequence[Mapping]) -> str:
    """Render :func:`repro.bench.experiments.durable_ingest`'s table.

    Shared by ``scripts/run_experiments.py`` and
    ``benchmarks/bench_durable_ingest.py`` so the CI report and the saved
    benchmark report cannot drift apart.
    """
    return format_table(
        "Durable ingest -- WAL overhead on interleaved insert/delete "
        "(slowdown vs the WAL-off baseline)",
        ["mode", "backend", "K", "ops", "ops/s", "recovered exact", "slowdown"],
        [
            [
                r["mode"],
                r["backend"],
                r["num_shards"],
                r["ops"],
                r["ops_per_s"],
                r["recovered_exact"],
                r["slowdown"],
            ]
            for r in rows
        ],
    )


def render_serving_throughput(rows: Sequence[Mapping]) -> str:
    """Render :func:`repro.bench.experiments.serving_throughput`'s table.

    Shared by ``scripts/run_experiments.py`` and
    ``benchmarks/bench_serving.py`` so the CI report and the saved benchmark
    report cannot drift apart.
    """
    return format_table(
        "Serving throughput -- skewed workload through the query server "
        "(speedup of the result cache vs uncached; latency "
        "quantiles are client-observed per-request wall times in ms)",
        ["mode", "requests", "req/s", "cache hit rate", "speedup",
         "p50[ms]", "p95[ms]", "p99[ms]"],
        [
            [r["mode"], r["requests"], r["qps"], r["hit_rate"], r["speedup"],
             r.get("p50_ms", 0.0), r.get("p95_ms", 0.0), r.get("p99_ms", 0.0)]
            for r in rows
        ],
    )


def render_cluster_routing(result: Mapping[str, Sequence[Mapping]]) -> str:
    """Render :func:`repro.bench.experiments.cluster_routing`'s two tables."""
    routing = format_table(
        "Cluster routing -- skewed workload through the front-tier router "
        "over HTTP shard servers (speedup of the generation-stamped "
        "distributed cache vs uncached fan-out)",
        ["mode", "requests", "req/s", "cache hit rate", "speedup"],
        [
            [r["mode"], r["requests"], r["qps"], r["hit_rate"], r["speedup"]]
            for r in result["routing"]
        ],
    )
    failover = format_table(
        "Replica failover -- killing one replica of the hottest shard "
        "mid-workload (correctness asserted against a single store)",
        ["stage", "req/s", "victim shard", "failovers", "correct"],
        [
            [r["stage"], r["qps"], r["victim_shard"], r["failovers"], r["correct"]]
            for r in result["failover"]
        ],
    )
    return routing + "\n\n" + failover


def format_series(
    title: str,
    x_label: str,
    x_values: Sequence[object],
    series: Mapping[str, Sequence[Number]],
) -> str:
    """Render one figure panel as a table: one row per x value, one column per series."""
    columns = [x_label, *series.keys()]
    rows = []
    for position, x in enumerate(x_values):
        row: List[object] = [x]
        for values in series.values():
            row.append(values[position] if position < len(values) else float("nan"))
        rows.append(row)
    return format_table(title, columns, rows)


def render_standing_query(result: Mapping[str, Sequence[Mapping]]) -> str:
    """Render :func:`repro.bench.experiments.standing_query`'s two tables.

    Shared by ``scripts/run_experiments.py`` and
    ``benchmarks/bench_standing_query.py`` so the CI report and the saved
    benchmark report cannot drift apart.
    """
    matching = format_table(
        "Standing-query matching -- per-update cost of discovering affected "
        "subscriptions (speedup vs re-running every standing query)",
        ["mode", "S", "updates", "ms/update", "updates/s", "exact", "speedup"],
        [
            [
                r["mode"],
                r["subscriptions"],
                r["updates"],
                r["ms_per_update"],
                r["updates_per_s"],
                r["exact"],
                r["speedup"],
            ]
            for r in result["matching"]
        ],
    )
    delivery = format_table(
        "Delta delivery -- insert/delete throughput with the delta engine "
        "attached (folded deltas asserted equal to fresh probes)",
        ["mode", "ops", "ops/s", "overhead vs plain", "deltas emitted", "exact"],
        [
            [
                r["mode"],
                r["ops"],
                r["ops_per_s"],
                r["overhead"],
                r["deltas_emitted"],
                r["exact"],
            ]
            for r in result["delivery"]
        ],
    )
    return matching + "\n\n" + delivery
