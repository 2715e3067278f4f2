#!/usr/bin/env python
"""Regenerate every table and figure of the paper's evaluation section.

The one entry point to the paper's experiment drivers (Figures 10-14,
Tables 6-10 and the ``batch_crossover`` sweep): it runs each of them at a
configurable scale, prints every (experiment, dataset, metric) group as a
table, and writes all records to ``<output>/paper_ledger.json``.  The
systems tiers (sharding, maintenance, durability, serving, standing
queries, routing) are measured end to end by ``e2e_bench/`` under fixed,
named workloads; see ``e2e_bench/README.md``.

Usage::

    python scripts/run_experiments.py                 # default (quick) scale
    python scripts/run_experiments.py --cardinality 50000 --queries 500
    python scripts/run_experiments.py --only fig13 table7
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.bench import experiments


def _cell(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:,.0f}" if abs(value) >= 1000 else f"{value:.4g}"
    return str(value)


def pivot(records) -> str:
    """One text table per (experiment, dataset, metric) group: a row per
    ``x``, a column per ``series``."""
    groups = {}
    for record in records:
        key = (record["experiment"], record["dataset"], record["metric"])
        groups.setdefault(key, []).append(record)
    tables = []
    for (experiment, dataset, metric), group in groups.items():
        series = list(dict.fromkeys(r["series"] for r in group))
        xs = list(dict.fromkeys(r["x"] for r in group))
        values = {(r["x"], r["series"]): r["value"] for r in group}
        rows = [[group[0]["x_name"], *series]]
        rows += [[_cell(x), *(_cell(values.get((x, s))) for s in series)] for x in xs]
        widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
        lines = [f"{experiment} -- {dataset}: {metric}"]
        lines += ["  ".join(c.rjust(w) for c, w in zip(row, widths)) for row in rows]
        tables.append("\n".join(lines))
    return "\n\n".join(tables)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cardinality", type=int, default=20_000,
                        help="intervals per real-like dataset (paper: 2M-172M)")
    parser.add_argument("--queries", type=int, default=200,
                        help="queries per throughput measurement (paper: 10k)")
    parser.add_argument("--output", type=Path, default=Path("benchmark_results"),
                        help="directory for paper_ledger.json")
    parser.add_argument("--only", nargs="*", default=None,
                        help="run only the named experiments (e.g. fig13 table7)")
    args = parser.parse_args(argv)

    datasets = experiments.default_real_like_datasets(cardinality=args.cardinality)
    books_taxis = {name: datasets[name] for name in ("BOOKS", "TAXIS")}
    n_queries = args.queries

    runners = {
        "fig10": lambda: experiments.fig10_evaluation_approaches(
            books_taxis, num_queries=n_queries
        ),
        "fig11": lambda: experiments.fig11_subdivision_variants(
            books_taxis, num_queries=n_queries
        ),
        "table6": lambda: experiments.table6_hint_sparsity(datasets, num_queries=n_queries),
        "fig12": lambda: experiments.fig12_optimizations(books_taxis, num_queries=n_queries),
        "table7": lambda: experiments.table7_parameter_setting(datasets, num_queries=n_queries),
        "table8": lambda: experiments.table8_index_sizes(datasets),
        "table9": lambda: experiments.table9_index_times(datasets),
        "fig13": lambda: experiments.fig13_real_throughput(datasets, num_queries=n_queries),
        "fig14": lambda: experiments.fig14_synthetic_throughput(
            args.cardinality, num_queries=n_queries
        ),
        "table10": lambda: experiments.table10_updates(books_taxis, num_queries=n_queries),
        "batch_crossover": lambda: experiments.batch_crossover(args.cardinality),
    }

    selected = args.only if args.only else list(runners)
    unknown = [name for name in selected if name not in runners]
    if unknown:
        parser.error(f"unknown experiments: {unknown}; available: {sorted(runners)}")

    args.output.mkdir(parents=True, exist_ok=True)
    records = []
    for name in selected:
        start = time.perf_counter()
        print(f"=== running {name} ...", flush=True)
        produced = runners[name]()
        print(pivot(produced))
        print(f"--- {name} finished in {time.perf_counter() - start:.1f}s\n", flush=True)
        records.extend(produced)
        # rewritten after every experiment, so a run cut short keeps what
        # finished; one record per line, so two ledgers diff record by record
        lines = ",\n".join(json.dumps(record) for record in records)
        (args.output / "paper_ledger.json").write_text(f"[\n{lines}\n]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
