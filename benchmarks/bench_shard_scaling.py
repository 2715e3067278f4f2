"""Shard-scaling benchmark for the sharded execution layer.

Not a paper figure: it measures how serial batch-query throughput scales as
the collection is split into K time-range shards (equi-width and balanced
strategies).  Query planning prunes shards outside the query range, so
small-extent workloads touch ~1/K of the data per query.

Run with the rest of the suite::

    PYTHONPATH=src python -m pytest benchmarks/bench_shard_scaling.py -q
"""

from conftest import BENCH_CARDINALITY, BENCH_QUERIES, save_report

from repro.bench.experiments import shard_scaling
from repro.bench.reporting import format_table


def test_shard_scaling(results_dir):
    rows = shard_scaling(
        cardinality=BENCH_CARDINALITY,
        num_queries=BENCH_QUERIES,
        shard_counts=(1, 2, 4),
        repeats=2,
    )
    assert rows, "shard_scaling produced no measurements"
    # every row answered the same workload; throughput must be measurable
    assert all(r["throughput"] > 0 for r in rows)
    text = format_table(
        "Shard scaling -- throughput and speedup vs K=1 serial",
        ["backend", "K", "strategy", "build [s]", "queries/s", "speedup"],
        [
            [
                r["backend"],
                r["num_shards"],
                r["strategy"],
                r["build_s"],
                r["throughput"],
                r["speedup"],
            ]
            for r in rows
        ],
    )
    save_report(results_dir, "shard_scaling", text)
