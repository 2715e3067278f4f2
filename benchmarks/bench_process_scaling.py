"""Process-scaling benchmark for the process-parallel sharded execution layer.

Not a paper figure: it measures (1) batch-query throughput of the same
K-shard index under the serial and process-pool executors -- the process
executor runs worker-resident shards over shared-memory columns, the only
configuration that sidesteps the GIL for the pure-Python HINT^m family --
and (2) multi-shard ``query_count`` via home-shard sums against the old
materialise-and-dedup evaluation.

Run with the rest of the suite::

    PYTHONPATH=src python -m pytest benchmarks/bench_process_scaling.py -q
"""

from conftest import BENCH_CARDINALITY, BENCH_QUERIES, save_report

from repro.bench.experiments import process_scaling
from repro.bench.reporting import render_process_scaling


def test_process_scaling(results_dir):
    result = process_scaling(
        cardinality=BENCH_CARDINALITY,
        num_queries=BENCH_QUERIES,
        backends=("hintm", "hintm_opt"),
        repeats=2,
    )
    assert result["batch"], "process_scaling produced no batch measurements"
    assert all(r["throughput"] > 0 for r in result["batch"])
    # the home-shard counting rows must exist and agree with the oracle
    # (equality is asserted inside the driver before timing)
    home = [r for r in result["count"] if r["method"] == "home-shard sums"]
    assert home and all(r["throughput"] > 0 for r in home)
    save_report(results_dir, "process_scaling", render_process_scaling(result))
