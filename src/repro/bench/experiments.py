"""Experiment drivers -- one function per table/figure of the paper's Section 5.

Each driver takes interval collections (and scale parameters) and returns
plain dictionaries/lists that the ``benchmarks/`` suite renders with
:mod:`repro.bench.reporting` and that ``scripts/run_experiments.py`` writes
under ``benchmark_results/``.

The drivers deliberately measure the same quantities as the paper (query
throughput, index size, build time, replication factors, compared partitions)
but at interpreter-friendly scales; every driver accepts the workload size as
a parameter so larger runs are a matter of passing bigger numbers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.bench.harness import measure_throughput
from repro.core.base import IntervalIndex
from repro.core.interval import HAS_SHARED_MEMORY, Interval, IntervalCollection, Query
from repro.engine.executor import ProcessExecutor, SerialExecutor
from repro.engine.maintenance import MaintenanceCoordinator
from repro.engine.registry import create_index
from repro.engine.sharded import ShardedIndex
from repro.datasets.real_like import REAL_DATASET_PROFILES, generate_real_like
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic
from repro.hint import (
    ComparisonFreeHINT,
    DatasetStatistics,
    HINTm,
    HybridHINTm,
    OptimizedHINTm,
    SubdividedHINTm,
    collect_workload_statistics,
    estimate_m_opt,
    measure_betas,
    replication_factor,
)
from repro.queries.generator import QueryWorkloadConfig, generate_queries
from repro.queries.workload import Operation, generate_mixed_workload

__all__ = [
    "default_real_like_datasets",
    "fig10_evaluation_approaches",
    "fig11_subdivision_variants",
    "table6_hint_sparsity",
    "fig12_optimizations",
    "table7_parameter_setting",
    "table8_index_sizes",
    "table9_index_times",
    "fig13_real_throughput",
    "fig14_synthetic_throughput",
    "table10_updates",
    "shard_scaling",
    "process_scaling",
    "ingest_maintenance",
    "durable_ingest",
    "serving_throughput",
    "COMPETITOR_CONFIGS",
]


# --------------------------------------------------------------------------- #
# shared configuration
# --------------------------------------------------------------------------- #

#: builder configurations for the paper's competitor indexes, scaled to the
#: reproduction's dataset sizes (the paper's Table 7 lists the full-scale ones)
COMPETITOR_CONFIGS: Dict[str, dict] = {
    "interval-tree": {},
    "period-index": {"num_coarse_partitions": 100, "num_levels": 4},
    "timeline": {"num_checkpoints": 500},
    "1d-grid": {"num_partitions": 500},
}


def default_real_like_datasets(cardinality: int = 20_000, seed: int = 7) -> Dict[str, IntervalCollection]:
    """The four Table 4 stand-ins at a configurable scale."""
    return {
        name: generate_real_like(profile, cardinality=cardinality, seed=seed)
        for name, profile in REAL_DATASET_PROFILES.items()
    }


def _query_workload(
    collection: IntervalCollection,
    count: int,
    extent_fraction: float,
    placement: str = "uniform",
    seed: int = 123,
) -> List[Query]:
    return generate_queries(
        collection,
        QueryWorkloadConfig(
            count=count,
            extent_fraction=extent_fraction,
            placement=placement,  # type: ignore[arg-type]
            seed=seed,
        ),
    )


def _build_competitors(
    collection: IntervalCollection, overrides: Optional[Mapping[str, dict]] = None
) -> Dict[str, IntervalIndex]:
    """Build the four baselines through the engine registry."""
    config = {name: dict(params) for name, params in COMPETITOR_CONFIGS.items()}
    if overrides:
        for name, params in overrides.items():
            config.setdefault(name, {}).update(params)
    return {
        name: create_index(name, collection, **params) for name, params in config.items()
    }


# --------------------------------------------------------------------------- #
# Figure 10 -- top-down vs bottom-up query evaluation on HINT^m
# --------------------------------------------------------------------------- #
def fig10_evaluation_approaches(
    datasets: Mapping[str, IntervalCollection],
    m_values: Sequence[int] = (5, 8, 11, 14, 17),
    num_queries: int = 200,
    extent_fraction: float = 0.001,
) -> Dict[str, Dict[str, List[float]]]:
    """Throughput of the two HINT^m evaluation strategies as ``m`` varies.

    Returns ``{dataset: {"m": [...], "top-down": [...], "bottom-up": [...]}}``.
    """
    results: Dict[str, Dict[str, List[float]]] = {}
    for name, collection in datasets.items():
        queries = _query_workload(collection, num_queries, extent_fraction)
        series = {"m": list(m_values), "top-down": [], "bottom-up": []}
        for m in m_values:
            top_down = HINTm(collection, num_bits=m, evaluation="top_down")
            bottom_up = HINTm(collection, num_bits=m, evaluation="bottom_up")
            series["top-down"].append(measure_throughput(top_down, queries))
            series["bottom-up"].append(measure_throughput(bottom_up, queries))
        results[name] = series
    return results


# --------------------------------------------------------------------------- #
# Figure 11 -- subdivisions + sorting + storage optimization ablation
# --------------------------------------------------------------------------- #
def fig11_subdivision_variants(
    datasets: Mapping[str, IntervalCollection],
    m_values: Sequence[int] = (5, 8, 11, 14),
    num_queries: int = 200,
    extent_fraction: float = 0.001,
) -> Dict[str, Dict[str, Dict[str, List[float]]]]:
    """Size, build time and throughput of the four Section 4.1 configurations.

    Returns ``{dataset: {metric: {variant: [values per m]}}}`` with metrics
    ``size_mb``, ``build_s`` and ``throughput``.
    """
    variants = {
        "base": dict(kind="base"),
        "subs+sort": dict(kind="subs", sort=True, sopt=False),
        "subs+sopt": dict(kind="subs", sort=False, sopt=True),
        "subs+sort+sopt": dict(kind="subs", sort=True, sopt=True),
    }
    results: Dict[str, Dict[str, Dict[str, List[float]]]] = {}
    for name, collection in datasets.items():
        queries = _query_workload(collection, num_queries, extent_fraction)
        per_metric = {
            metric: {variant: [] for variant in variants}
            for metric in ("size_mb", "build_s", "throughput")
        }
        for m in m_values:
            for variant, spec in variants.items():
                start = time.perf_counter()
                if spec["kind"] == "base":
                    index: IntervalIndex = HINTm(collection, num_bits=m)
                else:
                    index = SubdividedHINTm(
                        collection,
                        num_bits=m,
                        sort_subdivisions=spec["sort"],
                        storage_optimization=spec["sopt"],
                    )
                build_seconds = time.perf_counter() - start
                per_metric["build_s"][variant].append(build_seconds)
                per_metric["size_mb"][variant].append(index.memory_bytes() / 2**20)
                per_metric["throughput"][variant].append(measure_throughput(index, queries))
        per_metric["m"] = list(m_values)  # type: ignore[assignment]
        results[name] = per_metric
    return results


# --------------------------------------------------------------------------- #
# Table 6 -- skewness & sparsity optimization for the comparison-free HINT
# --------------------------------------------------------------------------- #
def table6_hint_sparsity(
    datasets: Mapping[str, IntervalCollection],
    num_bits: int = 18,
    num_queries: int = 200,
    extent_fraction: float = 0.001,
) -> List[Tuple[str, float, float, float, float]]:
    """Rows ``(dataset, original qps, optimized qps, original MB, optimized MB)``.

    The comparison-free HINT requires a discrete domain, so each dataset is
    first discretised to ``num_bits`` bits (the paper's real datasets already
    fit in memory at full resolution; the behaviour contrasted here -- skipping
    empty partitions -- is unaffected by the discretisation).
    """
    from repro.core.domain import Domain

    rows = []
    for name, collection in datasets.items():
        domain = Domain.for_collection(collection.starts, collection.ends, num_bits)
        discretised = IntervalCollection(
            ids=collection.ids,
            starts=domain.map_values(collection.starts),
            ends=domain.map_values(collection.ends),
        )
        queries = [
            Query(domain.map_value(q.start), domain.map_value(q.end))
            for q in _query_workload(collection, num_queries, extent_fraction)
        ]
        original = ComparisonFreeHINT(discretised, num_bits=num_bits, sparse=False)
        optimized = ComparisonFreeHINT(discretised, num_bits=num_bits, sparse=True)
        rows.append(
            (
                name,
                measure_throughput(original, queries),
                measure_throughput(optimized, queries),
                original.memory_bytes() / 2**20,
                optimized.memory_bytes() / 2**20,
            )
        )
    return rows


# --------------------------------------------------------------------------- #
# Figure 12 -- skewness & sparsity + cache-miss optimizations for HINT^m
# --------------------------------------------------------------------------- #
def fig12_optimizations(
    datasets: Mapping[str, IntervalCollection],
    m_values: Sequence[int] = (5, 8, 11, 14),
    num_queries: int = 200,
    extent_fraction: float = 0.001,
) -> Dict[str, Dict[str, Dict[str, List[float]]]]:
    """Size, build time and throughput of the Section 4.2/4.3 configurations.

    Variants: ``subs+sort+sopt`` (the Figure 11 winner), ``+sparsity``
    (merged tables + auxiliary index), ``+cache`` (columnar ids/endpoints)
    and ``all`` (both).
    """
    variants = {
        "subs+sort+sopt": dict(kind="subs"),
        "skew&sparsity": dict(kind="opt", sparse=True, columnar=False),
        "cache misses": dict(kind="opt", sparse=False, columnar=True),
        "all optimizations": dict(kind="opt", sparse=True, columnar=True),
    }
    results: Dict[str, Dict[str, Dict[str, List[float]]]] = {}
    for name, collection in datasets.items():
        queries = _query_workload(collection, num_queries, extent_fraction)
        per_metric = {
            metric: {variant: [] for variant in variants}
            for metric in ("size_mb", "build_s", "throughput")
        }
        for m in m_values:
            for variant, spec in variants.items():
                start = time.perf_counter()
                if spec["kind"] == "subs":
                    index: IntervalIndex = SubdividedHINTm(collection, num_bits=m)
                else:
                    index = OptimizedHINTm(
                        collection,
                        num_bits=m,
                        sparse_directory=spec["sparse"],
                        columnar=spec["columnar"],
                    )
                build_seconds = time.perf_counter() - start
                per_metric["build_s"][variant].append(build_seconds)
                per_metric["size_mb"][variant].append(index.memory_bytes() / 2**20)
                per_metric["throughput"][variant].append(measure_throughput(index, queries))
        per_metric["m"] = list(m_values)  # type: ignore[assignment]
        results[name] = per_metric
    return results


# --------------------------------------------------------------------------- #
# Table 7 -- statistics and parameter setting
# --------------------------------------------------------------------------- #
def table7_parameter_setting(
    datasets: Mapping[str, IntervalCollection],
    candidate_m: Sequence[int] = (5, 7, 9, 11, 13, 15, 17),
    num_queries: int = 150,
    extent_fraction: float = 0.001,
) -> List[dict]:
    """Rows with m_opt (model & measured), replication factor k (model &
    measured) and the average number of partitions compared per query."""
    beta_cmp, beta_acc = measure_betas(sample_size=100_000, repeats=2)
    rows = []
    for name, collection in datasets.items():
        stats = DatasetStatistics.from_collection(collection)
        extent = extent_fraction * stats.domain_length
        m_model = estimate_m_opt(stats, extent, beta_cmp=beta_cmp, beta_acc=beta_acc)
        queries = _query_workload(collection, num_queries, extent_fraction)
        best_m, best_throughput = None, -1.0
        for m in candidate_m:
            index = OptimizedHINTm(collection, num_bits=m)
            throughput = measure_throughput(index, queries)
            if throughput > best_throughput:
                best_m, best_throughput = m, throughput
        chosen_m = best_m if best_m is not None else m_model
        index = OptimizedHINTm(collection, num_bits=chosen_m)
        workload_stats = collect_workload_statistics(index, queries)
        rows.append(
            {
                "dataset": name,
                "m_opt_model": m_model,
                "m_opt_measured": chosen_m,
                "k_model": replication_factor(stats, chosen_m),
                "k_measured": index.replication_factor,
                "avg_compared_partitions": workload_stats.avg_partitions_compared,
            }
        )
    return rows


# --------------------------------------------------------------------------- #
# Tables 8 and 9 -- index size and construction time comparison
# --------------------------------------------------------------------------- #
def _hint_configs_for(collection: IntervalCollection) -> Dict[str, dict]:
    stats = DatasetStatistics.from_collection(collection)
    m_opt = estimate_m_opt(stats, 0.001 * stats.domain_length)
    m_opt = max(5, min(m_opt, 16))
    return {
        "hint": {"num_bits": min(stats.domain_bits, 18)},
        "hint-m": {"num_bits": m_opt},
    }


def table8_index_sizes(
    datasets: Mapping[str, IntervalCollection]
) -> List[Tuple[str, Dict[str, float]]]:
    """Rows ``(dataset, {index: size in MB})`` for every index in the comparison."""
    rows = []
    for name, collection in datasets.items():
        sizes: Dict[str, float] = {}
        for index_name, index in _build_competitors(collection).items():
            sizes[index_name] = index.memory_bytes() / 2**20
        hint_cfg = _hint_configs_for(collection)
        from repro.core.domain import Domain

        cf_bits = hint_cfg["hint"]["num_bits"]
        domain = Domain.for_collection(collection.starts, collection.ends, cf_bits)
        discretised = IntervalCollection(
            ids=collection.ids,
            starts=domain.map_values(collection.starts),
            ends=domain.map_values(collection.ends),
        )
        sizes["hint"] = ComparisonFreeHINT(
            discretised, num_bits=cf_bits
        ).memory_bytes() / 2**20
        sizes["hint-m"] = OptimizedHINTm(
            collection, num_bits=hint_cfg["hint-m"]["num_bits"]
        ).memory_bytes() / 2**20
        rows.append((name, sizes))
    return rows


def table9_index_times(
    datasets: Mapping[str, IntervalCollection]
) -> List[Tuple[str, Dict[str, float]]]:
    """Rows ``(dataset, {index: build seconds})``."""
    competitor_builders = {
        name: (lambda c, _name=name: create_index(_name, c, **COMPETITOR_CONFIGS[_name]))
        for name in COMPETITOR_CONFIGS
    }
    rows = []
    for name, collection in datasets.items():
        times: Dict[str, float] = {}
        for index_name, builder in competitor_builders.items():
            start = time.perf_counter()
            builder(collection)
            times[index_name] = time.perf_counter() - start
        hint_cfg = _hint_configs_for(collection)
        from repro.core.domain import Domain

        cf_bits = hint_cfg["hint"]["num_bits"]
        domain = Domain.for_collection(collection.starts, collection.ends, cf_bits)
        discretised = IntervalCollection(
            ids=collection.ids,
            starts=domain.map_values(collection.starts),
            ends=domain.map_values(collection.ends),
        )
        start = time.perf_counter()
        ComparisonFreeHINT(discretised, num_bits=cf_bits)
        times["hint"] = time.perf_counter() - start
        start = time.perf_counter()
        OptimizedHINTm(collection, num_bits=hint_cfg["hint-m"]["num_bits"])
        times["hint-m"] = time.perf_counter() - start
        rows.append((name, times))
    return rows


# --------------------------------------------------------------------------- #
# Figure 13 -- throughput vs query extent on the real-like datasets
# --------------------------------------------------------------------------- #
def fig13_real_throughput(
    datasets: Mapping[str, IntervalCollection],
    extents: Sequence[float] = (0.0, 0.0001, 0.0005, 0.001, 0.005, 0.01),
    num_queries: int = 200,
) -> Dict[str, Dict[str, List[float]]]:
    """Throughput of every index for each query extent (first extent 0 = stabbing).

    Returns ``{dataset: {index: [qps per extent], "extent": [...]}}``.
    """
    results: Dict[str, Dict[str, List[float]]] = {}
    for name, collection in datasets.items():
        hint_cfg = _hint_configs_for(collection)
        indexes: Dict[str, IntervalIndex] = dict(_build_competitors(collection))
        from repro.core.domain import Domain

        cf_bits = hint_cfg["hint"]["num_bits"]
        domain = Domain.for_collection(collection.starts, collection.ends, cf_bits)
        discretised = IntervalCollection(
            ids=collection.ids,
            starts=domain.map_values(collection.starts),
            ends=domain.map_values(collection.ends),
        )
        hint_cf = ComparisonFreeHINT(discretised, num_bits=cf_bits)
        indexes["hint-m"] = OptimizedHINTm(collection, num_bits=hint_cfg["hint-m"]["num_bits"])
        series: Dict[str, List[float]] = {index_name: [] for index_name in indexes}
        series["hint"] = []
        series["extent"] = [e * 100 for e in extents]  # report as % like the paper
        for extent in extents:
            queries = _query_workload(collection, num_queries, extent)
            discrete_queries = [
                Query(domain.map_value(q.start), domain.map_value(q.end)) for q in queries
            ]
            for index_name, index in indexes.items():
                series[index_name].append(measure_throughput(index, queries))
            series["hint"].append(measure_throughput(hint_cf, discrete_queries))
        results[name] = series
    return results


# --------------------------------------------------------------------------- #
# Figure 14 -- throughput on synthetic data, one sweep per panel
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class SyntheticSweep:
    """One panel of Figure 14: vary one generator parameter, keep the rest default."""

    parameter: str
    values: Sequence[object]
    base: SyntheticConfig = field(
        default_factory=lambda: SyntheticConfig(
            domain_length=2_000_000, cardinality=20_000, alpha=1.2, sigma=200_000, seed=42
        )
    )


DEFAULT_SWEEPS: Tuple[SyntheticSweep, ...] = (
    SyntheticSweep("domain_length", (500_000, 1_000_000, 2_000_000, 4_000_000, 8_000_000)),
    SyntheticSweep("cardinality", (5_000, 10_000, 20_000, 40_000, 80_000)),
    SyntheticSweep("alpha", (1.01, 1.1, 1.2, 1.4, 1.8)),
    SyntheticSweep("sigma", (20_000, 100_000, 200_000, 500_000, 1_000_000)),
    SyntheticSweep("query_extent", (0.0001, 0.0005, 0.001, 0.005, 0.01)),
)


def fig14_synthetic_throughput(
    sweeps: Sequence[SyntheticSweep] = DEFAULT_SWEEPS,
    num_queries: int = 150,
    hint_m_bits: int = 12,
) -> Dict[str, Dict[str, List[float]]]:
    """Throughput of every index across the five synthetic parameter sweeps.

    Returns ``{sweep parameter: {index: [qps per value], "value": [...]}}``.
    Queries follow the data distribution, as in the paper.
    """
    results: Dict[str, Dict[str, List[float]]] = {}
    for sweep in sweeps:
        series: Dict[str, List[float]] = {"value": list(sweep.values)}
        for value in sweep.values:
            import dataclasses

            config = sweep.base
            extent_fraction = 0.001
            if sweep.parameter == "query_extent":
                extent_fraction = float(value)  # type: ignore[arg-type]
            else:
                config = dataclasses.replace(config, **{sweep.parameter: value})
            collection = generate_synthetic(config)
            queries = _query_workload(
                collection, num_queries, extent_fraction, placement="data"
            )
            indexes: Dict[str, IntervalIndex] = dict(_build_competitors(collection))
            indexes["hint-m"] = OptimizedHINTm(collection, num_bits=hint_m_bits)
            for index_name, index in indexes.items():
                series.setdefault(index_name, []).append(measure_throughput(index, queries))
        results[sweep.parameter] = series
    return results


# --------------------------------------------------------------------------- #
# Shard scaling -- beyond the paper: the sharded parallel execution layer
# --------------------------------------------------------------------------- #
def shard_scaling(
    collection: Optional[IntervalCollection] = None,
    *,
    cardinality: int = 100_000,
    num_queries: int = 1_000,
    shard_counts: Sequence[int] = (1, 2, 4),
    backends: Sequence[str] = ("naive", "grid1d", "hintm_opt"),
    strategies: Sequence[str] = ("equi_width", "balanced"),
    extent_fraction: float = 0.001,
    repeats: int = 2,
    seed: int = 7,
) -> List[dict]:
    """Batch-query throughput of a serially driven :class:`ShardedIndex` as K varies.

    For every backend the baseline row is the unsharded (K=1) index; each
    further row shards the same collection into K time ranges (per
    strategy) and runs the same workload.  ``speedup`` is relative to that
    backend's K=1 baseline.  Query planning prunes non-overlapping shards,
    so small queries touch ~1/K of the data -- the source of the scaling on
    scan-bound backends.  The default dataset is the TAXIS stand-in
    (short intervals, so per-query cost is scan-bound rather than
    result-bound, which is where sharding is designed to pay off).

    Returns one dict per row:
    ``{"backend", "num_shards", "strategy", "build_s", "throughput",
    "speedup"}``.
    """
    if collection is None:
        collection = generate_real_like(
            REAL_DATASET_PROFILES["TAXIS"], cardinality=cardinality, seed=seed
        )
    queries = _query_workload(collection, num_queries, extent_fraction, seed=seed)
    rows: List[dict] = []
    for backend in backends:
        backend_rows: List[dict] = []
        for num_shards in shard_counts:
            shard_strategies = strategies if num_shards > 1 else (strategies[0],)
            for strategy in shard_strategies:
                start = time.perf_counter()
                index = ShardedIndex(
                    collection, backend=backend, num_shards=num_shards, strategy=strategy
                )
                build_seconds = time.perf_counter() - start
                backend_rows.append(
                    {
                        "backend": backend,
                        "num_shards": index.num_shards,
                        "strategy": strategy,
                        "build_s": build_seconds,
                        "throughput": measure_throughput(index, queries, repeats=repeats),
                    }
                )
        baseline = _unsharded_baseline(backend_rows)
        for row in backend_rows:
            row["speedup"] = row["throughput"] / baseline if baseline else 0.0
        rows.extend(backend_rows)
    return rows


def _unsharded_baseline(rows: Sequence[dict]) -> float:
    """The K=1 (serial) throughput, falling back to the first row measured."""
    for row in rows:
        if row["num_shards"] == 1:
            return row["throughput"]
    return rows[0]["throughput"] if rows else 0.0


# --------------------------------------------------------------------------- #
# Process scaling -- worker-resident shards vs serial, plus home-shard
# counting vs materialise-and-dedup
# --------------------------------------------------------------------------- #
def process_scaling(
    collection: Optional[IntervalCollection] = None,
    *,
    cardinality: int = 100_000,
    num_queries: int = 1_000,
    num_shards: int = 4,
    backends: Sequence[str] = ("hintm", "hintm_opt"),
    workers: Optional[int] = None,
    extent_fraction: float = 0.001,
    count_extent_fraction: float = 0.1,
    repeats: int = 3,
    seed: int = 7,
) -> Dict[str, List[dict]]:
    """The process-parallel execution layer's two headline measurements.

    **Batch fan-out** (``"batch"`` rows): the same K-shard index driven by
    the serial and process-pool executors, per backend, with the unsharded
    serial index as the baseline.  The process rows use
    worker-resident shards over shared-memory columns
    (:mod:`repro.engine._procworker`): the parent never builds its shard
    indexes, workers build theirs during the first measured pass (hidden by
    best-of-``repeats``), and per-task payloads are ``(shard_id, query
    arrays)``.  For pure-Python backends (the HINT^m family) this is the
    only executor that sidesteps the GIL, so on an N-core machine the
    process rows are where shard pruning *times* hardware parallelism shows
    up.  ``speedup`` is relative to the backend's K=1 serial row.

    **Home-shard counting** (``"count"`` rows): multi-shard ``query_count``
    via the grid-trick home-shard sums (O(log n) bisections per shard)
    against the old materialise-and-dedup evaluation, on broad queries
    (``count_extent_fraction`` of the domain, so every query spans several
    shards).  Both methods are asserted to agree before timing.

    Returns ``{"batch": [...], "count": [...]}`` row dicts.
    """
    if collection is None:
        collection = generate_real_like(
            REAL_DATASET_PROFILES["TAXIS"], cardinality=cardinality, seed=seed
        )
    queries = _query_workload(collection, num_queries, extent_fraction, seed=seed)
    broad_queries = _query_workload(
        collection, max(1, num_queries // 20), count_extent_fraction, seed=seed + 1
    )
    if workers is None:
        import os

        workers = max(2, min(os.cpu_count() or 1, num_shards))
    serial = SerialExecutor()
    processes = ProcessExecutor(workers)
    batch_rows: List[dict] = []
    count_rows: List[dict] = []
    try:
        for backend in backends:
            configs = [(1, serial), (num_shards, serial), (num_shards, processes)]
            backend_rows: List[dict] = []
            for shards, executor in configs:
                start = time.perf_counter()
                index = ShardedIndex(
                    collection, backend=backend, num_shards=shards, executor=executor
                )
                build_seconds = time.perf_counter() - start
                # steady-state throughput: one untimed pass warms pools and
                # (for the process executor) builds the worker-resident shards
                index.query_batch(queries)
                backend_rows.append(
                    {
                        "backend": backend,
                        "num_shards": index.num_shards,
                        "executor": executor.name,
                        "workers": executor.workers if shards > 1 else 1,
                        "build_s": build_seconds,
                        "throughput": measure_throughput(index, queries, repeats=repeats),
                    }
                )
                index.close()
            baseline = _unsharded_baseline(backend_rows)
            for row in backend_rows:
                row["speedup"] = row["throughput"] / baseline if baseline else 0.0
            batch_rows.extend(backend_rows)

            # --- counting: home-shard sums vs materialise-and-dedup ---
            # restricted to queries spanning >= 2 shards: single-shard counts
            # take the same backend fast path in both methods, multi-shard is
            # exactly the case the home-shard trick replaces
            index = ShardedIndex(
                collection, backend=backend, num_shards=num_shards, executor=serial
            )
            multi_shard = [
                query
                for query in broad_queries
                if index.plan.shard_range(query.start, query.end)[0]
                < index.plan.shard_range(query.start, query.end)[1]
            ]
            if not multi_shard:  # degenerate plan/domain: nothing to compare
                index.close()
                continue
            for query in multi_shard:  # correctness first, timing second
                counted, materialised = index.query_count(query), len(index.query(query))
                if counted != materialised:  # explicit: must survive python -O
                    raise RuntimeError(
                        f"home-shard count diverged from the dedup oracle on "
                        f"{query}: {counted} != {materialised}"
                    )
            materialise = _measure_op_throughput(
                lambda q: len(index.query(q)), multi_shard, repeats
            )
            home_shard = _measure_op_throughput(
                index.query_count, multi_shard, repeats
            )
            if not index.count_ops["home_shard"]:
                raise RuntimeError("the home-shard counting path never ran")
            for method, throughput in (
                ("materialise+dedup", materialise),
                ("home-shard sums", home_shard),
            ):
                count_rows.append(
                    {
                        "backend": backend,
                        "num_shards": index.num_shards,
                        "method": method,
                        "throughput": throughput,
                        "speedup": throughput / materialise if materialise else 0.0,
                    }
                )
            index.close()
    finally:
        processes.close()
    return {"batch": batch_rows, "count": count_rows}


def _interleaved_update_stream(
    collection: IntervalCollection, num_updates: int, seed: int
) -> List[Tuple[str, object]]:
    """Alternating insert/delete ops: fresh data-shaped intervals in, random
    indexed ids out.  Calls with distinct seeds produce disjoint inserted
    ids, and the delete victims are drawn from a ``seed % 8`` stride slice
    of the id space -- so up to 8 consecutive seeds applied to one
    cumulative index delete disjoint ids and every delete actually
    exercises the ingest path under test (a repeated victim would return
    False at the locator lookup before touching either count-column mode)."""
    import numpy as np

    rng = np.random.default_rng(seed)
    lo, hi = collection.span()
    durations = collection.durations()
    next_id = int(collection.ids.max()) + 1 + seed * num_updates
    candidates = np.sort(collection.ids)[seed % 8 :: 8]
    if len(candidates) < num_updates // 2:
        raise ValueError(
            f"collection too small for {num_updates} updates: stride slice has "
            f"{len(candidates)} delete candidates, need {num_updates // 2}"
        )
    victims = rng.choice(candidates, size=num_updates // 2, replace=False)
    stream: List[Tuple[str, object]] = []
    for i in range(num_updates):
        if i % 2 == 0:
            start = int(rng.integers(lo, hi))
            length = int(durations[int(rng.integers(0, len(durations)))])
            stream.append(("insert", Interval(next_id, start, min(start + length, hi))))
            next_id += 1
        else:
            stream.append(("delete", int(victims[i // 2])))
    return stream


def ingest_maintenance(
    collection: Optional[IntervalCollection] = None,
    *,
    cardinality: int = 150_000,
    num_updates: int = 2_000,
    num_shards: int = 4,
    backend: str = "hintm_hybrid",
    num_bits: int = 10,
    count_queries: int = 20,
    count_extent_fraction: float = 0.1,
    repeats: int = 3,
    workers: int = 2,
    seed: int = 7,
) -> Dict[str, List[dict]]:
    """The maintenance subsystem's two headline measurements.

    **Buffered ingest** (the ``"ingest"`` row): interleaved insert/delete
    throughput on a K-shard hybrid index, whose count-column journal
    appends to per-shard pending buffers (O(1) per op) and folds them
    lazily on the next multi-shard count.  After timing, and again after a
    forced :meth:`~repro.engine.maintenance.MaintenanceCoordinator.maintain`
    pass, every broad multi-shard ``query_count`` is asserted identical to the
    brute-force oracle over the live intervals -- the journal buys
    throughput, never exactness.

    **Snapshot refresh** (``"refresh"`` rows, shared-memory platforms only):
    a process-executor index is driven through the update -> fallback ->
    maintain -> fan-out-restored cycle, recording the residency-token
    generation and the fan-out readiness flag at each stage -- the
    assertions are structural (generation bumped, readiness restored), not
    timing-based.

    Returns ``{"ingest": [...], "refresh": [...]}`` row dicts.
    """
    import numpy as np

    if collection is None:
        collection = generate_real_like(
            REAL_DATASET_PROFILES["TAXIS"], cardinality=cardinality, seed=seed
        )

    def oracle_counts(index: ShardedIndex, queries: Sequence[Query]) -> None:
        """Assert multi-shard counts equal the live-set brute force."""
        live = index.live_collection()
        for query in queries:
            got = index.query_count(query)
            want = int(
                np.sum((live.starts <= query.end) & (query.start <= live.ends))
            )
            if got != want:  # explicit: must survive python -O
                raise RuntimeError(
                    f"multi-shard count diverged from the oracle on {query}: "
                    f"{got} != {want}"
                )

    broad = _query_workload(collection, count_queries, count_extent_fraction, seed=seed + 1)
    index = ShardedIndex(
        collection, backend=backend, num_shards=num_shards, num_bits=num_bits
    )
    best = 0.0
    for repeat in range(max(1, repeats)):
        stream = _interleaved_update_stream(collection, num_updates, seed=repeat)
        start = time.perf_counter()
        for kind, payload in stream:
            if kind == "insert":
                index.insert(payload)
            else:
                index.delete(payload)
        elapsed = time.perf_counter() - start
        if elapsed > 0:
            best = max(best, len(stream) / elapsed)
    # correctness brackets the timing: exact before and after maintain().
    # The coordinator is created only now -- its activity tracking adds a
    # clock read to every update, which must stay out of the timed loop.
    oracle_counts(index, broad)
    coordinator = MaintenanceCoordinator(index)
    report = coordinator.maintain(force=True)
    oracle_counts(index, broad)
    ingest_rows = [
        {
            "backend": backend,
            "num_shards": index.num_shards,
            "ops": num_updates * max(1, repeats),
            "ops_per_s": best,
            "maintain_ms": report.seconds * 1000.0,
            "counts_exact": True,
        }
    ]
    index.close()

    refresh_rows: List[dict] = []
    if HAS_SHARED_MEMORY:
        executor = ProcessExecutor(max(2, workers))
        index = ShardedIndex(
            collection,
            backend=backend,
            num_shards=num_shards,
            num_bits=num_bits,
            executor=executor,
        )
        coordinator = MaintenanceCoordinator(index)
        warm = _query_workload(collection, 32, 0.001, seed=seed + 2)

        def stage(name: str) -> None:
            refresh_rows.append(
                {
                    "stage": name,
                    "generation": index.snapshot_generation,
                    "fanout_ready": index._process_fanout_ready(),
                    "update_dirty": index.update_dirty,
                }
            )

        index.query_batch(warm)  # workers build their resident shards
        stage("published")
        for kind, payload in _interleaved_update_stream(collection, 50, seed=97):
            if kind == "insert":
                index.insert(payload)
            else:
                index.delete(payload)
        stage("after updates")
        coordinator.maintain(force=True)
        index.query_batch(warm)  # workers re-attach at the new generation
        stage("after maintain")
        oracle_counts(index, broad)
        index.close()
        executor.close()
    return {"ingest": ingest_rows, "refresh": refresh_rows}


def durable_ingest(
    collection: Optional[IntervalCollection] = None,
    *,
    cardinality: int = 60_000,
    num_updates: int = 1_500,
    backend: str = "hintm_hybrid",
    num_shards: int = 1,
    repeats: int = 3,
    seed: int = 7,
) -> List[dict]:
    """WAL overhead on interleaved insert/delete ingest throughput.

    One ``no-wal`` baseline row plus one row per fsync policy
    (``off``/``interval``/``always``), each the best-of-``repeats``
    ops/second over the same :func:`_interleaved_update_stream` against a
    fresh store.  Every row carries ``slowdown`` -- the baseline throughput
    divided by the row's -- recorded, not gated: what keeps
    ``fsync="interval"`` near WAL-off ingest (at most one append-path fsync
    per tick) is asserted structurally by
    ``tests/test_durable_ingest_benchmark.py``.

    Correctness brackets the timing, as everywhere in this module: after
    each durable mode's final repeat the WAL directory is reopened and the
    recovered live id set must equal the stream applied to the base
    collection -- the WAL buys crash-safety, never a divergent replay.
    """
    import shutil
    import tempfile

    from repro.engine import IntervalStore

    if collection is None:
        collection = generate_real_like(
            REAL_DATASET_PROFILES["TAXIS"], cardinality=cardinality, seed=seed
        )

    def expected_live_ids(stream) -> set:
        live = {int(i) for i in collection.ids}
        for kind, payload in stream:
            if kind == "insert":
                live.add(payload.id)
            else:
                live.discard(payload)
        return live

    def recovered_live_ids(wal_dir: str) -> set:
        lo, hi = collection.span()
        store = IntervalStore.open(
            collection,
            backend,
            num_shards=num_shards,
            wal_dir=wal_dir,
            fsync="off",
        )
        try:
            return {int(i) for i in store.query().overlapping(lo, hi).ids()}
        finally:
            store.close()

    modes = [("no-wal", None)] + [
        (f"fsync-{policy}", policy) for policy in ("off", "interval", "always")
    ]
    rows: List[dict] = []
    for mode, fsync in modes:
        best = 0.0
        recovered_exact = True
        for repeat in range(max(1, repeats)):
            stream = _interleaved_update_stream(collection, num_updates, seed=repeat)
            wal_dir = tempfile.mkdtemp(prefix="repro-durable-bench-") if fsync else None
            try:
                kwargs = {"wal_dir": wal_dir, "fsync": fsync} if fsync else {}
                store = IntervalStore.open(
                    collection, backend, num_shards=num_shards, **kwargs
                )
                start = time.perf_counter()
                for kind, payload in stream:
                    if kind == "insert":
                        store.insert(payload)
                    else:
                        store.delete(payload)
                elapsed = time.perf_counter() - start
                store.close()
                if elapsed > 0:
                    best = max(best, len(stream) / elapsed)
                # recovery exactness check on the last repeat of each
                # durable mode: replaying the WAL must rebuild the stream
                if fsync and repeat == max(1, repeats) - 1:
                    if recovered_live_ids(wal_dir) != expected_live_ids(stream):
                        raise RuntimeError(
                            f"durable_ingest[{mode}]: recovered live set "
                            f"diverged from the applied stream"
                        )
            finally:
                if wal_dir:
                    shutil.rmtree(wal_dir, ignore_errors=True)
        rows.append(
            {
                "mode": mode,
                "fsync": fsync,
                "backend": backend,
                "num_shards": num_shards,
                "ops": num_updates * max(1, repeats),
                "ops_per_s": best,
                "recovered_exact": recovered_exact,
            }
        )
    baseline = rows[0]["ops_per_s"]
    for row in rows:
        row["slowdown"] = baseline / row["ops_per_s"] if row["ops_per_s"] else 0.0
    return rows


def _measure_op_throughput(fn, queries: Sequence[Query], repeats: int) -> float:
    """Calls/second of ``fn`` over ``queries`` (best of ``repeats`` passes)."""
    best = 0.0
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        for query in queries:
            fn(query)
        elapsed = time.perf_counter() - start
        if elapsed > 0:
            best = max(best, len(queries) / elapsed)
    return best


# --------------------------------------------------------------------------- #
# Table 10 -- mixed workload (queries + insertions + deletions)
# --------------------------------------------------------------------------- #
def table10_updates(
    datasets: Mapping[str, IntervalCollection],
    num_queries: int = 300,
    num_insertions: int = 150,
    num_deletions: int = 50,
    extent_fraction: float = 0.001,
    hint_m_bits: int = 12,
) -> Dict[str, List[dict]]:
    """Per-dataset rows of query/insert/delete throughput and total cost.

    Compared indexes follow the paper's Table 10: interval tree, period
    index, 1D-grid, the update-friendly ``subs+sopt`` HINT^m, and the hybrid
    HINT^m.  (The timeline index is excluded, as in the paper.)
    """
    results: Dict[str, List[dict]] = {}
    for name, collection in datasets.items():
        workload = generate_mixed_workload(
            collection,
            num_queries=num_queries,
            num_insertions=num_insertions,
            num_deletions=num_deletions,
            query_extent_fraction=extent_fraction,
            seed=99,
        )
        contenders: Dict[str, IntervalIndex] = {
            "interval-tree": create_index("interval-tree", workload.preload),
            "period-index": create_index(
                "period-index", workload.preload, **COMPETITOR_CONFIGS["period-index"]
            ),
            "1d-grid": create_index(
                "1d-grid", workload.preload, **COMPETITOR_CONFIGS["1d-grid"]
            ),
            "subs+sopt hint-m": SubdividedHINTm(
                workload.preload,
                num_bits=hint_m_bits,
                sort_subdivisions=False,
                storage_optimization=True,
            ),
            "hybrid hint-m": HybridHINTm(workload.preload, num_bits=hint_m_bits),
        }
        rows = []
        for index_name, index in contenders.items():
            timings = {Operation.QUERY: 0.0, Operation.INSERT: 0.0, Operation.DELETE: 0.0}
            counts = {Operation.QUERY: 0, Operation.INSERT: 0, Operation.DELETE: 0}
            start_total = time.perf_counter()
            for operation, payload in workload.operations:
                start = time.perf_counter()
                if operation is Operation.QUERY:
                    index.query(payload)
                elif operation is Operation.INSERT:
                    index.insert(payload)
                else:
                    index.delete(payload)
                timings[operation] += time.perf_counter() - start
                counts[operation] += 1
            total = time.perf_counter() - start_total
            rows.append(
                {
                    "index": index_name,
                    "query_throughput": counts[Operation.QUERY] / timings[Operation.QUERY]
                    if timings[Operation.QUERY]
                    else 0.0,
                    "insert_throughput": counts[Operation.INSERT] / timings[Operation.INSERT]
                    if timings[Operation.INSERT]
                    else 0.0,
                    "delete_throughput": counts[Operation.DELETE] / timings[Operation.DELETE]
                    if timings[Operation.DELETE]
                    else 0.0,
                    "total_seconds": total,
                }
            )
        results[name] = rows
    return results


# --------------------------------------------------------------------------- #
# Serving throughput -- the query server's cache and admission control
# under a skewed concurrent workload
# --------------------------------------------------------------------------- #
def _serve_workloads(
    collection: IntervalCollection,
    num_queries: int,
    distinct: int,
    extent_fraction: float,
    num_clients: int,
    seed: int,
) -> Tuple[List[Query], List[List[Query]]]:
    """A skewed (Zipf-ish) request stream over ``distinct`` hot queries.

    Returns the hot-query pool and one per-client request list; every client
    fires ``num_queries // num_clients`` requests drawn with probability
    proportional to ``1/rank`` -- the repeated-hot-query shape a result
    cache exists for.
    """
    import numpy as np

    hot = _query_workload(collection, distinct, extent_fraction, seed=seed)
    rng = np.random.default_rng(seed + 1)
    weights = 1.0 / np.arange(1, len(hot) + 1)
    weights /= weights.sum()
    per_client = max(1, num_queries // num_clients)
    streams = [
        [hot[i] for i in rng.choice(len(hot), size=per_client, p=weights)]
        for _ in range(num_clients)
    ]
    return hot, streams


def _drive_clients(
    port: int, streams: Sequence[Sequence[Query]]
) -> Tuple[float, int, "Histogram"]:
    """Fire every client stream concurrently; ``(seconds, requests, latency)``.

    Each client thread owns one keep-alive connection and backs off briefly
    on an admission-control 503 (that rejected request still counts as
    server work, not client progress).  Per-request wall times -- including
    any 503 backoff rounds, the latency the client actually experienced --
    land in a shared observability :class:`~repro.obs.Histogram` so callers
    can report the same p50/p95/p99 the serving tier's ``/stats`` exposes.
    """
    import threading

    from repro.obs import Histogram
    from repro.serve.client import ServeClient, ServerOverloaded

    errors: List[BaseException] = []
    latency = Histogram()

    def _worker(stream: Sequence[Query]) -> None:
        client = ServeClient(port=port)
        try:
            for query in stream:
                t0 = time.perf_counter()
                while True:
                    try:
                        client.query(query.start, query.end)
                        break
                    except ServerOverloaded:
                        time.sleep(0.002)
                latency.observe(time.perf_counter() - t0)
        except BaseException as exc:  # noqa: BLE001 - surfaced after join
            errors.append(exc)
        finally:
            client.close()

    threads = [
        threading.Thread(target=_worker, args=(stream,), daemon=True)
        for stream in streams
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    seconds = time.perf_counter() - started
    if errors:
        raise RuntimeError(f"serving client failed: {errors[0]!r}") from errors[0]
    return seconds, sum(len(stream) for stream in streams), latency


def serving_throughput(
    collection: Optional[IntervalCollection] = None,
    *,
    cardinality: int = 20_000,
    num_queries: int = 400,
    distinct: int = 12,
    extent_fraction: float = 0.05,
    num_clients: int = 4,
    num_shards: int = 4,
    cache_capacity: int = 512,
    backend: str = "hintm_hybrid",
    seed: int = 7,
) -> List[dict]:
    """Cached vs uncached serving, one row per mode.

    The same skewed concurrent workload (``distinct`` broad hot queries,
    Zipf-weighted, ``num_clients`` keep-alive connections) is driven through
    the query server twice -- once with the result cache, once with caching
    disabled (capacity 0).  Every request round-trips real HTTP through the
    admission-controlled batching path; the cached leg answers repeats with
    pre-encoded bodies, which is where the recorded >= 5x ratio comes from.
    Before timing, one hot query's server answer is asserted identical to
    the store's direct evaluation.
    """
    from repro.engine.store import IntervalStore
    from repro.serve.client import ServeClient
    from repro.serve.server import start_server_thread

    if collection is None:
        collection = generate_real_like(
            REAL_DATASET_PROFILES["TAXIS"], cardinality=cardinality, seed=seed
        )
    hot, streams = _serve_workloads(
        collection, num_queries, distinct, extent_fraction, num_clients, seed
    )

    serving_rows: List[dict] = []
    baseline = 0.0
    for mode, capacity in (("uncached", 0), ("cached", cache_capacity)):
        store = IntervalStore.open(collection, backend, num_shards=num_shards)
        handle = start_server_thread(store, cache=capacity)
        try:
            probe = ServeClient(port=handle.port)
            # correctness before timing: the served answer must match the
            # store's own evaluation of the same hot query
            served = sorted(probe.query(hot[0].start, hot[0].end)["ids"])
            direct = sorted(store.query().overlapping(hot[0].start, hot[0].end).ids())
            if served != direct:
                raise RuntimeError(
                    f"served ids diverged from the store on {hot[0]} "
                    f"({len(served)} vs {len(direct)} ids)"
                )
            seconds, requests, latency = _drive_clients(handle.port, streams)
            stats = probe.stats()
            probe.close()
        finally:
            handle.stop()
            store.close()
        throughput = requests / seconds if seconds else 0.0
        if mode == "uncached":
            baseline = throughput
        quantiles = latency.summary()
        serving_rows.append(
            {
                "mode": mode,
                "requests": requests,
                "qps": throughput,
                "hit_rate": stats["cache"]["hit_rate"],
                "speedup": throughput / baseline if baseline else 0.0,
                "p50_ms": quantiles["p50"] * 1000.0,
                "p95_ms": quantiles["p95"] * 1000.0,
                "p99_ms": quantiles["p99"] * 1000.0,
            }
        )
    return serving_rows


# --------------------------------------------------------------------------- #
# Standing queries -- matching cost and delta-delivery overhead
# --------------------------------------------------------------------------- #
def standing_query(
    collection: Optional[IntervalCollection] = None,
    *,
    cardinality: int = 20_000,
    num_subscriptions: int = 10_000,
    num_updates: int = 200,
    reeval_updates: int = 3,
    extent_fraction: float = 0.005,
    sample_folds: int = 10,
    backend: str = "hintm_hybrid",
    seed: int = 7,
) -> Dict[str, List[dict]]:
    """The standing-query subsystem's two headline measurements.

    **Matching cost** (``"matching"`` rows): with ``num_subscriptions``
    standing queries registered, the per-update cost of discovering which
    subscriptions an insert/delete affects, three ways -- the
    interval-indexed :class:`~repro.stream.registry.SubscriptionRegistry`
    probe (one overlap query plus per-candidate refinement, O(affected)),
    a linear scan of every subscription, and the naive standing-query
    implementation that re-runs all ``S`` queries against the store and
    diffs each result with its previous answer.  Before timing, the
    indexed and linear ``affected()`` sets are asserted identical on every
    probe, and the re-evaluation diff is asserted to discover exactly the
    indexed ``affected()`` set -- the index buys speed, never a different
    notification set.

    **Delta delivery** (``"delivery"`` rows): the same interleaved
    insert/delete stream driven through a store bare and through one with a
    :class:`~repro.stream.deltas.StandingQueryManager` carrying all
    ``num_subscriptions`` subscriptions, recording the end-to-end update
    throughput with delta emission attached.  A sample of subscriptions is
    then folded (snapshot + polled deltas) and asserted equal to a fresh
    probe of the final store -- the delivery path stays exact under load.

    Returns ``{"matching": [...], "delivery": [...]}`` row dicts.
    """
    import numpy as np

    from repro.engine.store import IntervalStore
    from repro.stream import StandingQueryManager
    from repro.stream.registry import SubscriptionRegistry

    if collection is None:
        collection = generate_real_like(
            REAL_DATASET_PROFILES["TAXIS"], cardinality=cardinality, seed=seed
        )
    sub_queries = _query_workload(
        collection, num_subscriptions, extent_fraction, seed=seed + 1
    )

    indexed = SubscriptionRegistry()
    linear = SubscriptionRegistry(index_threshold=10**9)
    for query in sub_queries:
        indexed.register(query)
        linear.register(query)
    if not indexed.indexed or linear.indexed:
        raise RuntimeError(
            "registry setup inverted: the indexed registry must build its "
            "interval index and the linear one must not"
        )

    # probe updates: fresh data-shaped intervals (a delete probes with the
    # stored interval -- identical matching cost, so inserts suffice here)
    rng = np.random.default_rng(seed + 2)
    lo, hi = collection.span()
    durations = collection.durations()
    next_id = int(collection.ids.max()) + 1
    probes = [
        Interval(
            next_id + i,
            (start := int(rng.integers(lo, hi))),
            min(start + int(durations[int(rng.integers(0, len(durations)))]), hi),
        )
        for i in range(num_updates)
    ]

    # correctness before timing: indexed and linear discover the same set
    affected_by_probe: List[set] = []
    for probe in probes:
        got = {s.subscription_id for s in indexed.affected(probe)}
        want = {s.subscription_id for s in linear.affected(probe)}
        if got != want:  # explicit: must survive python -O
            raise RuntimeError(
                f"indexed affected() diverged from the linear scan on "
                f"{probe}: {len(got)} vs {len(want)} subscriptions"
            )
        affected_by_probe.append(got)

    def _per_update_seconds(registry: SubscriptionRegistry) -> float:
        started = time.perf_counter()
        for probe in probes:
            registry.affected(probe)
        return (time.perf_counter() - started) / len(probes)

    indexed_s = _per_update_seconds(indexed)
    linear_s = _per_update_seconds(linear)

    # the naive baseline: apply the update, re-run every standing query,
    # diff with the previous answer to find the changed subscriptions
    store = IntervalStore.open(collection, backend)
    try:
        previous = [
            frozenset(store.query().overlapping(q.start, q.end).ids())
            for q in sub_queries
        ]
        reeval_probes = probes[: max(1, reeval_updates)]
        started = time.perf_counter()
        changed_sets: List[set] = []
        for probe in reeval_probes:
            store.insert(probe)
            changed = set()
            for position, query in enumerate(sub_queries):
                result = frozenset(
                    store.query().overlapping(query.start, query.end).ids()
                )
                if result != previous[position]:
                    changed.add(position)
                    previous[position] = result
            changed_sets.append(changed)
        reeval_s = (time.perf_counter() - started) / len(reeval_probes)
    finally:
        store.close()
    # subscription ids are assigned in registration order, so the diff's
    # positional set compares directly against affected() ids
    for position, changed in enumerate(changed_sets):
        if changed != affected_by_probe[position]:
            raise RuntimeError(
                f"re-evaluation diff found {len(changed)} changed standing "
                f"queries but affected() notified {len(affected_by_probe[position])} "
                f"on {probes[position]}"
            )

    matching_rows = [
        {
            "mode": mode,
            "subscriptions": num_subscriptions,
            "updates": measured,
            "ms_per_update": seconds * 1000.0,
            "updates_per_s": 1.0 / seconds if seconds else 0.0,
            "exact": True,
            "speedup": reeval_s / seconds if seconds else 0.0,
        }
        for mode, seconds, measured in (
            ("re-evaluate all", reeval_s, len(reeval_probes)),
            ("linear scan", linear_s, len(probes)),
            ("indexed registry", indexed_s, len(probes)),
        )
    ]

    # ---- delta delivery: update throughput with the engine attached ----- #
    stream = _interleaved_update_stream(
        collection, min(num_updates, len(collection.ids) // 4), seed=seed % 8
    )

    def _drive(with_manager: bool) -> dict:
        store = IntervalStore.open(collection, backend)
        manager = None
        subscribed: List[Tuple[int, int, set]] = []
        try:
            if with_manager:
                manager = StandingQueryManager(store)
                for query in sub_queries:
                    result = manager.subscribe(query.start, query.end)
                    subscribed.append(
                        (
                            result.subscription.subscription_id,
                            result.generation,
                            set(result.ids),
                        )
                    )
            started = time.perf_counter()
            for kind, payload in stream:
                if kind == "insert":
                    store.insert(payload)
                else:
                    store.delete(payload)
            elapsed = time.perf_counter() - started
            deltas = 0.0
            if manager is not None:
                deltas = manager.gauges()["deltas_emitted"]
                # fold a sample: snapshot + deltas must equal a fresh probe
                step = max(1, len(subscribed) // max(1, sample_folds))
                for sid, generation, ids in subscribed[::step][:sample_folds]:
                    poll = manager.poll(sid, after_generation=generation)
                    if poll.resync_required:
                        ids = set(manager.resync(sid).ids)
                    else:
                        for record in poll.records:
                            ids.difference_update(record.removed)
                            ids.update(record.added)
                    query = manager.registry.get(sid).query
                    fresh = set(
                        store.query().overlapping(query.start, query.end).ids()
                    )
                    if ids != fresh:
                        raise RuntimeError(
                            f"folded subscription {sid} diverged from a fresh "
                            f"probe: {len(ids)} vs {len(fresh)} ids"
                        )
            return {
                "ops": len(stream),
                "ops_per_s": len(stream) / elapsed if elapsed else 0.0,
                "deltas_emitted": deltas,
                "exact": True,
            }
        finally:
            store.close()

    bare = _drive(with_manager=False)
    attached = _drive(with_manager=True)
    delivery_rows = [
        {
            "mode": "plain store",
            **bare,
            "overhead": 1.0,
        },
        {
            "mode": f"{num_subscriptions} subscribers",
            **attached,
            "overhead": (
                bare["ops_per_s"] / attached["ops_per_s"]
                if attached["ops_per_s"]
                else 0.0
            ),
        },
    ]
    return {"matching": matching_rows, "delivery": delivery_rows}


# --------------------------------------------------------------------------- #
# Cluster routing -- front-tier fan-out, distributed cache, replica failover
# --------------------------------------------------------------------------- #
def cluster_routing(
    collection: Optional[IntervalCollection] = None,
    *,
    cardinality: int = 20_000,
    num_queries: int = 240,
    distinct: int = 12,
    extent_fraction: float = 0.05,
    num_shards: int = 2,
    replicas: int = 2,
    cache_capacity: int = 512,
    backend: str = "hintm",
    seed: int = 7,
) -> Dict[str, List[dict]]:
    """The cluster tier's two headline measurements.

    **Routed throughput** (``"routing"`` rows): the same skewed hot-query
    workload driven through a :class:`~repro.cluster.router.ClusterRouter`
    over real HTTP shard servers twice -- once with the front-tier result
    cache disabled and once enabled.  Every miss fans out one
    ``/shard-batch`` round-trip per overlapping shard and merges in domain
    order; every hit is answered at the front tier, keyed on the per-shard
    generation tokens piggybacked by the shard servers.  Before timing,
    one hot answer is asserted equal to a single whole-collection store's.

    **Replica failover** (``"failover"`` rows): the cached workload again,
    killing one replica of the hottest shard halfway through.  The router
    fails over to the surviving replica; afterwards every hot query is
    re-asserted against the single-store truth.

    Returns ``{"routing": [...], "failover": [...]}`` row dicts.
    """
    import numpy as np

    from repro.cluster import ClusterRouter, ClusterTopology, start_shard_server_thread
    from repro.engine.sharding import ShardPlan, shard_mask
    from repro.engine.store import IntervalStore

    if collection is None:
        collection = generate_real_like(
            REAL_DATASET_PROFILES["TAXIS"], cardinality=cardinality, seed=seed
        )
    hot = _query_workload(collection, distinct, extent_fraction, seed=seed)
    rng = np.random.default_rng(seed + 1)
    weights = 1.0 / np.arange(1, len(hot) + 1)
    weights /= weights.sum()
    stream = [hot[i] for i in rng.choice(len(hot), size=num_queries, p=weights)]

    plan = ShardPlan.for_collection(collection, num_shards)
    handles: List[List[object]] = []
    addresses: List[List[Tuple[str, int]]] = []
    truth = IntervalStore.open(collection, backend)
    try:
        for shard in range(plan.num_shards):
            rows = collection.take(shard_mask(collection, plan.cuts, shard))
            row = []
            for _ in range(replicas):
                row.append(
                    start_shard_server_thread(
                        IntervalStore.open(rows, backend),
                        host="127.0.0.1",
                        port=0,
                        shard_id=shard,
                    )
                )
            handles.append(row)
            addresses.append([("127.0.0.1", handle.port) for handle in row])
        topology = ClusterTopology.build(plan.cuts, addresses)
        expected = {
            (q.start, q.end): sorted(truth.query().overlapping(q.start, q.end).ids())
            for q in hot
        }

        def drive(router: ClusterRouter, queries: Sequence[Query]) -> float:
            began = time.perf_counter()
            for query in queries:
                router.query(query.start, query.end)
            return time.perf_counter() - began

        routing_rows: List[dict] = []
        baseline = 0.0
        for mode, capacity in (("uncached", 0), ("cached", cache_capacity)):
            with ClusterRouter(topology, cache=capacity) as router:
                served = sorted(router.query(hot[0].start, hot[0].end)["ids"])
                if served != expected[(hot[0].start, hot[0].end)]:
                    raise RuntimeError(
                        f"routed ids diverged from the single store on {hot[0]} "
                        f"({len(served)} ids)"
                    )
                seconds = drive(router, stream)
                stats = router.stats()
            throughput = len(stream) / seconds if seconds else 0.0
            if mode == "uncached":
                baseline = throughput
            routing_rows.append(
                {
                    "mode": mode,
                    "requests": len(stream),
                    "qps": throughput,
                    "hit_rate": stats["cache"]["hits"]
                    / max(1, stats["cache"]["hits"] + stats["cache"]["misses"]),
                    "speedup": throughput / baseline if baseline else 0.0,
                }
            )

        failover_rows: List[dict] = []
        victim_shard = plan.shard_of(hot[0].start)
        # cache disabled so every request actually probes replicas -- a
        # cached front tier would ride out the kill without ever noticing
        with ClusterRouter(topology, cache=0, cooldown=0.2) as router:
            half = len(stream) // 2
            first_seconds = drive(router, stream[:half])
            handles[victim_shard][0].stop()  # the kill lands mid-workload
            second_seconds = drive(router, stream[half:])
            correct = all(
                sorted(router.query(q.start, q.end)["ids"])
                == expected[(q.start, q.end)]
                for q in hot
            )
            failovers = router.stats()["failovers"]
        for stage, seconds, requests in (
            ("all replicas", first_seconds, half),
            ("one replica killed", second_seconds, len(stream) - half),
        ):
            failover_rows.append(
                {
                    "stage": stage,
                    "qps": requests / seconds if seconds else 0.0,
                    "victim_shard": victim_shard,
                    "failovers": failovers,
                    "correct": correct,
                }
            )
    finally:
        truth.close()
        for row in handles:
            for handle in row:
                handle.stop()
    return {"routing": routing_rows, "failover": failover_rows}
