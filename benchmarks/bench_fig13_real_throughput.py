"""Figure 13: query throughput vs query extent on the real-like datasets.

Paper shape to reproduce: HINT / HINT^m beat every competitor across all
extents (by about an order of magnitude in the paper's C++ setting); the gap
narrows on GREEND-like data where nearly all results come from the bottom
level and the 1D-grid behaves similarly.
"""

from conftest import BENCH_QUERIES, save_report

from repro.bench.experiments import fig13_real_throughput
from repro.bench.reporting import format_series

EXTENTS = (0.0, 0.0001, 0.001, 0.01)


def test_fig13_real_throughput(benchmark, real_like_datasets, results_dir):
    result = benchmark.pedantic(
        fig13_real_throughput,
        kwargs=dict(
            datasets=real_like_datasets, extents=EXTENTS, num_queries=BENCH_QUERIES
        ),
        rounds=1,
        iterations=1,
    )
    report = []
    for dataset, series in result.items():
        index_names = [k for k in series if k != "extent"]
        report.append(
            format_series(
                f"Figure 13 -- {dataset}: throughput [queries/s] vs extent [% of domain]"
                " (first column = stabbing)",
                "extent%",
                series["extent"],
                {name: series[name] for name in index_names},
            )
        )
        # sanity only: every index answered the workload.  The paper's
        # ordering (HINT^m about an order of magnitude ahead) is a statement
        # about cache-resident C++ scans; at interpreter scale the relative
        # gaps are compressed and are discussed in e2e_bench/README.md rather
        # than asserted here.
        for name in index_names:
            assert all(value > 0 for value in series[name]), (dataset, name)
    save_report(results_dir, "fig13_real_throughput", "\n\n".join(report))
