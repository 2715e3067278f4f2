"""Python-specific ablation: vectorised vs row-wise result collection.

This has no counterpart in the paper (a C++ implementation does not face the
choice); it quantifies how much of the optimized HINT^m's throughput in this
reproduction comes from NumPy's columnar scans versus the index structure
itself, so readers can separate the two effects when comparing against the
paper's absolute numbers (see DESIGN.md, "Design choices called out for
ablation").

The second table is the batch-size sweep: at which ``run_batch`` chunk size
the batched traversal of the columnar layout overtakes the per-query loop.
"""

import time

from conftest import BENCH_QUERIES, save_report

from repro.bench.harness import measure_throughput
from repro.bench.reporting import format_table
from repro.hint import OptimizedHINTm, optimized
from repro.queries.generator import QueryWorkloadConfig, generate_queries


def test_vectorization_ablation(benchmark, synthetic_default, synthetic_queries, results_dir):
    queries = synthetic_queries[:BENCH_QUERIES]
    columnar = OptimizedHINTm(synthetic_default, num_bits=12, columnar=True)
    rowwise = OptimizedHINTm(synthetic_default, num_bits=12, columnar=False)

    columnar_qps = benchmark(measure_throughput, columnar, queries)
    rowwise_qps = measure_throughput(rowwise, queries)

    table = format_table(
        "Ablation -- NumPy columnar scan vs row-wise Python scan (same index structure)",
        ["variant", "throughput [queries/s]"],
        [["columnar (numpy)", columnar_qps], ["row-wise (python)", rowwise_qps]],
    )
    assert columnar_qps > 0 and rowwise_qps > 0
    save_report(results_dir, "ablation_vectorization", table)


BATCH_SIZES = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)


def _us_per_query(index, queries, batch_size, repeats=5):
    """Best-of-``repeats`` time of ``query_batch`` over ``batch_size``-chunks."""
    chunks = [queries[lo:lo + batch_size] for lo in range(0, len(queries), batch_size)]
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        for chunk in chunks:
            index.query_batch(chunk)
        best = min(best, time.perf_counter() - started)
    return best / len(queries) * 1e6


def test_batch_size_sweep(synthetic_default, results_dir, monkeypatch):
    """Per-query loop vs the vectorised traversal, by batch size: the
    measurement behind ``optimized._BATCH_CROSSOVER``.  The kernel pays a
    fixed cost per batch (a few dozen array operations) that the loop does
    not; the constant belongs where the two columns cross."""
    queries = generate_queries(
        synthetic_default,
        QueryWorkloadConfig(count=512, extent_fraction=0.001, placement="data", seed=1),
    )
    index = OptimizedHINTm(synthetic_default, num_bits=12)
    rows = []
    for batch_size in BATCH_SIZES:
        monkeypatch.setattr(optimized, "_BATCH_CROSSOVER", len(queries) + 1)
        loop = _us_per_query(index, queries, batch_size)
        monkeypatch.setattr(optimized, "_BATCH_CROSSOVER", 1)
        kernel = _us_per_query(index, queries, batch_size)
        rows.append([batch_size, loop, kernel, loop / kernel])
    monkeypatch.undo()
    table = format_table(
        "Ablation -- per-query loop vs batched traversal, by run_batch chunk size "
        f"(crossover constant: {optimized._BATCH_CROSSOVER})",
        ["batch size", "loop [us/query]", "kernel [us/query]", "loop / kernel"],
        rows,
    )
    assert all(loop > 0 and kernel > 0 for _, loop, kernel, _ in rows)
    save_report(results_dir, "ablation_batch_size", table)
