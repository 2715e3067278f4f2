"""Serving benchmark for the query server's result cache.

Not a paper figure: it measures a skewed concurrent workload through the
admission-controlled query server with and without the range-scoped
result cache (a hot query's served answer is asserted against the store's
own evaluation before timing).

Run with the rest of the suite::

    PYTHONPATH=src python -m pytest benchmarks/bench_serving.py -q
"""

from conftest import BENCH_CARDINALITY, save_report

from repro.bench.experiments import serving_throughput
from repro.bench.reporting import render_serving_throughput


def test_serving_throughput(results_dir):
    rows = serving_throughput(
        cardinality=BENCH_CARDINALITY,
        num_queries=max(100, BENCH_CARDINALITY // 100),
        backend="hintm",
    )
    by_mode = {r["mode"]: r for r in rows}
    assert set(by_mode) == {"uncached", "cached"}
    assert all(r["qps"] > 0 for r in rows)
    assert by_mode["cached"]["hit_rate"] > 0.5
    # correctness against the store is asserted inside the driver
    save_report(results_dir, "serving_throughput", render_serving_throughput(rows))
