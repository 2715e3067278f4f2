"""Experiment drivers -- one function per table/figure of the paper's Section 5.

Each driver takes interval collections (and scale parameters) and returns
plain dictionaries/lists that the ``benchmarks/bench_fig*`` / ``bench_table*``
suite renders with :mod:`repro.bench.reporting` and that
``scripts/run_experiments.py`` writes under ``benchmark_results/``.  The
systems tiers (sharding, maintenance, durability, serving, standing queries,
routing) are measured by ``e2e_bench/`` under fixed, named workloads, not
here.

The drivers deliberately measure the same quantities as the paper (query
throughput, index size, build time, replication factors, compared partitions)
but at interpreter-friendly scales; every driver accepts the workload size as
a parameter so larger runs are a matter of passing bigger numbers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.bench.harness import measure_throughput
from repro.core.base import IntervalIndex
from repro.core.interval import IntervalCollection, Query
from repro.engine.registry import create_index
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
    rows = []
    for name, collection in datasets.items():
        stats = DatasetStatistics.from_collection(collection)
        extent = extent_fraction * stats.domain_length
        m_model = estimate_m_opt(stats, extent)
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
