"""Ingest/maintenance benchmark for the maintenance subsystem.

Not a paper figure: it measures (1) interleaved insert/delete throughput on
a K-shard hybrid under the buffered ingest journal -- with multi-shard
counts asserted against the brute-force oracle before and after a forced
maintenance pass -- and (2) the snapshot-refresh cycle that restores process-executor fan-out after
updates, recorded via residency-token generations.

Run with the rest of the suite::

    PYTHONPATH=src python -m pytest benchmarks/bench_ingest_maintenance.py -q
"""

from conftest import BENCH_CARDINALITY, save_report

from repro.bench.experiments import ingest_maintenance
from repro.bench.reporting import render_ingest_maintenance


def test_ingest_maintenance(results_dir):
    result = ingest_maintenance(
        cardinality=BENCH_CARDINALITY,
        num_updates=max(200, BENCH_CARDINALITY // 10),
        repeats=2,
    )
    assert result["ingest"]
    assert all(r["ops_per_s"] > 0 for r in result["ingest"])
    # count-oracle equality is asserted inside the driver before timing
    assert all(r["counts_exact"] for r in result["ingest"])
    if result["refresh"]:
        stages = {r["stage"]: r for r in result["refresh"]}
        assert stages["after maintain"]["generation"] > stages["published"]["generation"]
        assert stages["after maintain"]["fanout_ready"]
    save_report(results_dir, "ingest_maintenance", render_ingest_maintenance(result))
