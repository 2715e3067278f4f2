#!/usr/bin/env python
"""Regenerate every table and figure of the paper's evaluation section.

This is the non-pytest entry point to the paper's experiment drivers
(Figures 10-14, Tables 6-10): it runs each of them at a configurable scale,
prints the paper-shaped tables/series, and writes them under
``benchmark_results/``.  The systems tiers (sharding, maintenance,
durability, serving, standing queries, routing) are measured end to end by
``e2e_bench/`` under fixed, named workloads; see ``e2e_bench/README.md``.

Usage::

    python scripts/run_experiments.py                 # default (quick) scale
    python scripts/run_experiments.py --cardinality 50000 --queries 500
    python scripts/run_experiments.py --only fig13 table7
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.bench import experiments
from repro.bench.reporting import format_series, format_table


def _render_fig10(result):
    parts = []
    for dataset, series in result.items():
        parts.append(
            format_series(
                f"Figure 10 -- {dataset}: throughput [queries/s] vs m",
                "m",
                series["m"],
                {k: v for k, v in series.items() if k != "m"},
            )
        )
    return "\n\n".join(parts)


def _render_metric_sweep(result, figure_name):
    parts = []
    for dataset, metrics in result.items():
        for metric, label in (
            ("size_mb", "index size [MB]"),
            ("build_s", "index time [s]"),
            ("throughput", "throughput [queries/s]"),
        ):
            parts.append(
                format_series(
                    f"{figure_name} -- {dataset}: {label} vs m",
                    "m",
                    metrics["m"],
                    metrics[metric],
                )
            )
    return "\n\n".join(parts)


def _render_table6(rows):
    return format_table(
        "Table 6 -- comparison-free HINT: original vs skew/sparsity-optimized",
        ["dataset", "qps original", "qps optimized", "MB original", "MB optimized"],
        rows,
    )


def _render_table7(rows):
    return format_table(
        "Table 7 -- statistics and parameter setting",
        ["dataset", "m_opt (model)", "m_opt (exps)", "k (model)", "k (exps)", "avg comp. part."],
        [
            [
                r["dataset"],
                r["m_opt_model"],
                r["m_opt_measured"],
                r["k_model"],
                r["k_measured"],
                r["avg_compared_partitions"],
            ]
            for r in rows
        ],
    )


def _render_named_rows(rows, title, unit):
    index_names = sorted(rows[0][1])
    return format_table(
        f"{title} [{unit}]",
        ["dataset", *index_names],
        [[dataset, *[values[name] for name in index_names]] for dataset, values in rows],
    )


def _render_extent_sweep(result, title, x_label):
    parts = []
    for dataset, series in result.items():
        x_key = "extent" if "extent" in series else "value"
        parts.append(
            format_series(
                f"{title} -- {dataset}",
                x_label,
                series[x_key],
                {k: v for k, v in series.items() if k != x_key},
            )
        )
    return "\n\n".join(parts)


def _render_table10(result):
    parts = []
    for dataset, rows in result.items():
        parts.append(
            format_table(
                f"Table 10 -- {dataset}: mixed workload",
                ["index", "queries/s", "insertions/s", "deletions/s", "total [s]"],
                [
                    [
                        r["index"],
                        r["query_throughput"],
                        r["insert_throughput"],
                        r["delete_throughput"],
                        r["total_seconds"],
                    ]
                    for r in rows
                ],
            )
        )
    return "\n\n".join(parts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cardinality", type=int, default=20_000,
                        help="intervals per real-like dataset (paper: 2M-172M)")
    parser.add_argument("--queries", type=int, default=200,
                        help="queries per throughput measurement (paper: 10k)")
    parser.add_argument("--output", type=Path, default=Path("benchmark_results"),
                        help="directory for the generated .txt reports")
    parser.add_argument("--only", nargs="*", default=None,
                        help="run only the named experiments (e.g. fig13 table7)")
    args = parser.parse_args(argv)

    args.output.mkdir(exist_ok=True)
    datasets = experiments.default_real_like_datasets(cardinality=args.cardinality)
    books_taxis = {name: datasets[name] for name in ("BOOKS", "TAXIS")}
    n_queries = args.queries

    runners = {
        "fig10": lambda: _render_fig10(
            experiments.fig10_evaluation_approaches(books_taxis, num_queries=n_queries)
        ),
        "fig11": lambda: _render_metric_sweep(
            experiments.fig11_subdivision_variants(books_taxis, num_queries=n_queries),
            "Figure 11",
        ),
        "table6": lambda: _render_table6(
            experiments.table6_hint_sparsity(datasets, num_queries=n_queries)
        ),
        "fig12": lambda: _render_metric_sweep(
            experiments.fig12_optimizations(books_taxis, num_queries=n_queries), "Figure 12"
        ),
        "table7": lambda: _render_table7(
            experiments.table7_parameter_setting(datasets, num_queries=n_queries)
        ),
        "table8": lambda: _render_named_rows(
            experiments.table8_index_sizes(datasets), "Table 8 -- index size", "MB"
        ),
        "table9": lambda: _render_named_rows(
            experiments.table9_index_times(datasets), "Table 9 -- index time", "s"
        ),
        "fig13": lambda: _render_extent_sweep(
            experiments.fig13_real_throughput(datasets, num_queries=n_queries),
            "Figure 13 -- throughput [queries/s] vs extent [%]",
            "extent%",
        ),
        "fig14": lambda: _render_extent_sweep(
            experiments.fig14_synthetic_throughput(num_queries=n_queries),
            "Figure 14 -- synthetic sweeps",
            "value",
        ),
        "table10": lambda: _render_table10(
            experiments.table10_updates(books_taxis, num_queries=n_queries)
        ),
    }

    selected = args.only if args.only else list(runners)
    unknown = [name for name in selected if name not in runners]
    if unknown:
        parser.error(f"unknown experiments: {unknown}; available: {sorted(runners)}")

    for name in selected:
        start = time.perf_counter()
        print(f"=== running {name} ...", flush=True)
        text = runners[name]()
        elapsed = time.perf_counter() - start
        print(text)
        print(f"--- {name} finished in {elapsed:.1f}s\n", flush=True)
        (args.output / f"{name}.txt").write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
