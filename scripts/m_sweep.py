#!/usr/bin/env python
"""The m-sweep: what HINT^m costs per query at every m, on the gated datasets.

For each dataset of the benchmark's gated workloads (``e2e_bench/workloads.py``,
one seed) the sweep builds ``hintm_opt`` at every ``m`` in a range and
measures, in paired rounds:

* the lone query -- one ``store.query().overlapping(s, e).ids()`` at a time,
  the ``core_scan`` latency path (mean microseconds per query);
* the batch -- ``store.run_batch`` over chunks of 500 queries, the
  ``core_scan`` throughput path (microseconds per query).

Each round measures every ``m`` once, in a rotated order, and divides each
result by the same round's result at the reference ``m`` (the largest one);
the reported ratios are the medians of those per-round ratios, so a slow
round moves both sides of a ratio alike.  Every row also holds the index's
bytes per interval and the ``m`` that ``num_bits="auto"`` picks for the
dataset.  The ``mixed_rw`` dataset is one shard (the first) of the 2-shard
split the workload's server makes.

Usage::

    PYTHONPATH=src python scripts/m_sweep.py --rounds 30 --out sweep.json
    PYTHONPATH=src python scripts/m_sweep.py --datasets core_scan --m 12 16 --rounds 5
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from e2e_bench.workloads import WORKLOADS, dataset, rng_for, uniform_queries  # noqa: E402
from repro.core.interval import IntervalCollection, Query  # noqa: E402
from repro.engine import IntervalStore  # noqa: E402
from repro.engine.registry import create_index  # noqa: E402
from repro.hint.optimized import OptimizedHINTm  # noqa: E402

GATED = ("core_scan", "serve_uniform", "mixed_rw")
CHUNK = 500


def sweep_collection(name: str, seed: int) -> IntervalCollection:
    """The collection one gated workload indexes per ``hintm_opt`` build."""
    workload = WORKLOADS[name]
    starts, ends = dataset(workload.intervals, seed)
    collection = IntervalCollection(
        np.arange(workload.intervals, dtype=np.int64), starts, ends
    )
    if workload.shards == 1:
        return collection
    with IntervalStore.open(collection, workload.backend, num_shards=workload.shards) as store:
        return store.index.shards[0].live_collection()


def _lone_us(store: IntervalStore, queries: List[Query]) -> float:
    start = time.perf_counter()
    for query in queries:
        store.query().overlapping(query.start, query.end).ids()
    return (time.perf_counter() - start) / len(queries) * 1e6


def _batch_us(store: IntervalStore, queries: List[Query]) -> float:
    start = time.perf_counter()
    for lo in range(0, len(queries), CHUNK):
        store.run_batch(queries[lo : lo + CHUNK])
    return (time.perf_counter() - start) / len(queries) * 1e6


def sweep(name: str, seed: int, m_values: List[int], rounds: int, lone: int, batch: int) -> List[dict]:
    """One row per ``m`` for the dataset of workload ``name``."""
    collection = sweep_collection(name, seed)
    qs, qe = uniform_queries(rng_for(seed, 2, 99), lone + batch, WORKLOADS[name].extent)
    queries = [Query(int(s), int(e)) for s, e in zip(qs, qe)]
    lone_queries, batch_queries = queries[:lone], queries[lone:]
    auto = create_index("hintm_opt", collection, num_bits="auto").num_bits
    stores: Dict[int, IntervalStore] = {}
    rows = {}
    for m in m_values:
        start = time.perf_counter()
        index = OptimizedHINTm(collection, num_bits=m)
        build_s = time.perf_counter() - start
        stores[m] = IntervalStore(index)
        rows[m] = {
            "dataset": name, "seed": seed, "intervals": len(collection), "m": m,
            "auto_m": auto, "build_s": round(build_s, 3),
            "bytes_per_interval": round(index.memory_bytes() / len(collection), 1),
            "lone": [], "batch": [],
        }
    reference = max(m_values)
    gc.collect()
    gc.freeze()
    for round_index in range(rounds):
        order = m_values[round_index % len(m_values):] + m_values[: round_index % len(m_values)]
        measured = {m: (_lone_us(stores[m], lone_queries), _batch_us(stores[m], batch_queries))
                    for m in order}
        for m, (lone_us, batch_us) in measured.items():
            rows[m]["lone"].append((lone_us, lone_us / measured[reference][0]))
            rows[m]["batch"].append((batch_us, batch_us / measured[reference][1]))
    gc.unfreeze()
    out = []
    for m in m_values:
        row = rows[m]
        lone_runs, batch_runs = row.pop("lone"), row.pop("batch")
        row["lone_us"] = round(statistics.median(us for us, _ in lone_runs), 1)
        row["batch_us_per_query"] = round(statistics.median(us for us, _ in batch_runs), 2)
        row["lone_ratio_to_m%d" % reference] = round(statistics.median(r for _, r in lone_runs), 3)
        row["batch_ratio_to_m%d" % reference] = round(statistics.median(r for _, r in batch_runs), 3)
        row["rounds"] = rounds
        out.append(row)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--datasets", nargs="+", choices=GATED, default=list(GATED))
    parser.add_argument("--m", nargs="+", type=int, default=list(range(8, 17)))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=30)
    parser.add_argument("--lone", type=int, default=400, help="lone queries per round")
    parser.add_argument("--batch", type=int, default=1000, help="batched queries per round")
    parser.add_argument("--out", type=Path, default=None, help="write the rows as JSON here")
    args = parser.parse_args(argv)
    m_values = sorted(set(args.m))
    rows = []
    for name in args.datasets:
        for row in sweep(name, args.seed, m_values, args.rounds, args.lone, args.batch):
            rows.append(row)
            print(json.dumps(row), flush=True)
    if args.out is not None:
        args.out.write_text(json.dumps(rows, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
