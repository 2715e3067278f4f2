"""Experiment drivers -- one function per table/figure of the paper's Section 5.

Every driver returns flat records, one per measured value: the key fields
``experiment, dataset, series, x_name, x, metric`` and the result field
``value`` (keyfields -> resultfields, SNIPPETS.md Snippet 3).
``scripts/run_experiments.py`` runs them into one ``paper_ledger.json`` and
prints each (experiment, dataset, metric) group as a table.  The systems
tiers (sharding, maintenance, durability, serving, standing queries,
routing) are measured by ``e2e_bench/`` under fixed, named workloads, not
here.

Throughput is timed the paper's way, one ``index.query`` call per query
(:func:`repro.bench.harness.measure_throughput`).  Only the series labelled
batched -- Fig. 13's ``hint-m (batched)`` and the ``batch_crossover`` sweep
behind ``optimized._BATCH_CROSSOVER`` -- go through ``query_batch``.

The drivers measure the paper's quantities (query throughput, index size,
build time, replication factors, compared partitions) at interpreter-friendly
scales; every driver takes the workload size as a parameter.
"""

from __future__ import annotations

import dataclasses
import statistics
import time
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.bench.harness import measure_throughput
from repro.core.base import IntervalIndex
from repro.core.domain import Domain
from repro.core.interval import IntervalCollection, Query
from repro.datasets.real_like import REAL_DATASET_PROFILES, generate_real_like
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic
from repro.engine.registry import create_index
from repro.hint import (
    DatasetStatistics,
    collect_workload_statistics,
    estimate_m_opt,
    optimized,
    replication_factor,
)
from repro.queries.generator import QueryWorkloadConfig, generate_queries
from repro.queries.workload import Operation, generate_mixed_workload

__all__ = [
    "COMPETITOR_CONFIGS",
    "batch_crossover",
    "default_real_like_datasets",
    "fig10_evaluation_approaches",
    "fig11_subdivision_variants",
    "fig12_optimizations",
    "fig13_real_throughput",
    "fig14_synthetic_throughput",
    "table6_hint_sparsity",
    "table7_parameter_setting",
    "table8_index_sizes",
    "table9_index_times",
    "table10_updates",
]

Record = Dict[str, object]

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


def _synthetic_base(cardinality: int) -> SyntheticConfig:
    """The Table 5 defaults, scaled to ``cardinality`` intervals."""
    return SyntheticConfig(
        domain_length=2_000_000, cardinality=cardinality, alpha=1.2, sigma=200_000, seed=42
    )


def _record(
    experiment: str, dataset: str, series: str, x_name: str, x, metric: str, value
) -> Record:
    return {
        "experiment": experiment, "dataset": dataset, "series": series,
        "x_name": x_name, "x": x, "metric": metric, "value": float(value),
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


def _qps(index: IntervalIndex, queries: Sequence[Query]) -> float:
    return measure_throughput(index, queries)["qps"]


def _batched_seconds(index: IntervalIndex, queries: Sequence[Query], batch_size: int) -> float:
    """Time of ``query_batch`` over ``batch_size`` chunks of ``queries``."""
    chunks = [queries[lo:lo + batch_size] for lo in range(0, len(queries), batch_size)]
    start = time.perf_counter()
    for chunk in chunks:
        index.query_batch(chunk)
    return time.perf_counter() - start


def _discretise(
    collection: IntervalCollection, num_bits: int
) -> Tuple[IntervalCollection, Domain]:
    """``collection`` mapped onto the ``num_bits`` discrete domain the
    comparison-free HINT needs, and the domain that maps queries likewise.

    The paper's real datasets fit in memory at full resolution; what the
    comparison-free HINT is contrasted on (e.g. skipping empty partitions)
    is unaffected by the discretisation.
    """
    domain = Domain.for_collection(collection.starts, collection.ends, num_bits)
    discretised = IntervalCollection(
        ids=collection.ids,
        starts=domain.map_values(collection.starts),
        ends=domain.map_values(collection.ends),
    )
    return discretised, domain


def _discrete_queries(domain: Domain, queries: Sequence[Query]) -> List[Query]:
    return [Query(domain.map_value(q.start), domain.map_value(q.end)) for q in queries]


# --------------------------------------------------------------------------- #
# Figure 10 -- top-down vs bottom-up query evaluation on HINT^m
# --------------------------------------------------------------------------- #
def fig10_evaluation_approaches(
    datasets: Mapping[str, IntervalCollection],
    m_values: Sequence[int] = (5, 8, 11, 14, 17),
    num_queries: int = 200,
    extent_fraction: float = 0.001,
) -> List[Record]:
    """Throughput of the two HINT^m evaluation strategies as ``m`` varies."""
    records = []
    for name, collection in datasets.items():
        queries = _query_workload(collection, num_queries, extent_fraction)
        for m in m_values:
            for series in ("top-down", "bottom-up"):
                index = create_index(
                    "hintm", collection, num_bits=m, evaluation=series.replace("-", "_")
                )
                records.append(
                    _record("fig10", name, series, "m", m, "throughput_qps", _qps(index, queries))
                )
    return records


# --------------------------------------------------------------------------- #
# Figures 11 and 12 -- the Section 4 optimizations, one variant sweep
# --------------------------------------------------------------------------- #
#: Figure 11: subdivisions, sorting and the storage optimization (Sec. 4.1)
FIG11_VARIANTS: Dict[str, Tuple[str, dict]] = {
    "base": ("hintm", {}),
    "subs+sort": ("hintm_sub", {"sort_subdivisions": True, "storage_optimization": False}),
    "subs+sopt": ("hintm_sub", {"sort_subdivisions": False, "storage_optimization": True}),
    "subs+sort+sopt": ("hintm_sub", {}),
}

#: Figure 12: skewness & sparsity (Sec. 4.2) and cache misses (Sec. 4.3)
#: over the Figure 11 winner
FIG12_VARIANTS: Dict[str, Tuple[str, dict]] = {
    "subs+sort+sopt": ("hintm_sub", {}),
    "skew&sparsity": ("hintm_opt", {"sparse_directory": True, "columnar": False}),
    "cache misses": ("hintm_opt", {"sparse_directory": False, "columnar": True}),
    "all optimizations": ("hintm_opt", {}),
}


def _variant_sweep(
    experiment: str,
    variants: Mapping[str, Tuple[str, dict]],
    datasets: Mapping[str, IntervalCollection],
    m_values: Sequence[int],
    num_queries: int,
    extent_fraction: float,
) -> List[Record]:
    """Size, build time and throughput of every variant at every ``m``."""
    records = []
    for name, collection in datasets.items():
        queries = _query_workload(collection, num_queries, extent_fraction)
        for m in m_values:
            for variant, (backend, params) in variants.items():
                start = time.perf_counter()
                index = create_index(backend, collection, num_bits=m, **params)
                build_s = time.perf_counter() - start
                for metric, value in (
                    ("size_mb", index.memory_bytes() / 2**20),
                    ("build_s", build_s),
                    ("throughput_qps", _qps(index, queries)),
                ):
                    records.append(_record(experiment, name, variant, "m", m, metric, value))
    return records


def fig11_subdivision_variants(
    datasets: Mapping[str, IntervalCollection],
    m_values: Sequence[int] = (5, 8, 11, 14),
    num_queries: int = 200,
    extent_fraction: float = 0.001,
) -> List[Record]:
    """Size, build time and throughput of the four Section 4.1 configurations."""
    return _variant_sweep(
        "fig11", FIG11_VARIANTS, datasets, m_values, num_queries, extent_fraction
    )


def fig12_optimizations(
    datasets: Mapping[str, IntervalCollection],
    m_values: Sequence[int] = (5, 8, 11, 14),
    num_queries: int = 200,
    extent_fraction: float = 0.001,
) -> List[Record]:
    """Size, build time and throughput of the Section 4.2/4.3 configurations."""
    return _variant_sweep(
        "fig12", FIG12_VARIANTS, datasets, m_values, num_queries, extent_fraction
    )


# --------------------------------------------------------------------------- #
# Table 6 -- skewness & sparsity optimization for the comparison-free HINT
# --------------------------------------------------------------------------- #
def table6_hint_sparsity(
    datasets: Mapping[str, IntervalCollection],
    num_bits: int = 18,
    num_queries: int = 200,
    extent_fraction: float = 0.001,
) -> List[Record]:
    """Throughput and size of the comparison-free HINT, original vs sparse,
    on each dataset discretised to ``num_bits`` bits."""
    records = []
    for name, collection in datasets.items():
        discretised, domain = _discretise(collection, num_bits)
        queries = _discrete_queries(
            domain, _query_workload(collection, num_queries, extent_fraction)
        )
        for series, sparse in (("original", False), ("optimized", True)):
            index = create_index("hint_cf", discretised, num_bits=num_bits, sparse=sparse)
            for metric, value in (
                ("throughput_qps", _qps(index, queries)),
                ("size_mb", index.memory_bytes() / 2**20),
            ):
                records.append(
                    _record("table6", name, series, "cardinality", len(collection), metric, value)
                )
    return records


# --------------------------------------------------------------------------- #
# Table 7 -- statistics and parameter setting
# --------------------------------------------------------------------------- #
def table7_parameter_setting(
    datasets: Mapping[str, IntervalCollection],
    candidate_m: Sequence[int] = (5, 7, 9, 11, 13, 15, 17),
    num_queries: int = 150,
    extent_fraction: float = 0.001,
) -> List[Record]:
    """m_opt and the replication factor k (model vs measured), the average
    number of partitions compared per query, and the throughput per
    candidate ``m`` the measured m_opt is picked from."""
    records = []
    for name, collection in datasets.items():
        stats = DatasetStatistics.from_collection(collection)
        m_model = estimate_m_opt(stats, extent_fraction * stats.domain_length)
        queries = _query_workload(collection, num_queries, extent_fraction)
        measured = {}
        for m in candidate_m:
            measured[m] = _qps(create_index("hintm_opt", collection, num_bits=m), queries)
            records.append(
                _record("table7", name, "hint-m", "m", m, "throughput_qps", measured[m])
            )
        chosen_m = max(measured, key=measured.get) if measured else m_model
        index = create_index("hintm_opt", collection, num_bits=chosen_m)
        n = len(collection)
        for series, metric, value in (
            ("model", "m_opt", m_model),
            ("measured", "m_opt", chosen_m),
            ("model", "k", replication_factor(stats, chosen_m)),
            ("measured", "k", index.replication_factor),
            (
                "measured",
                "avg_compared_partitions",
                collect_workload_statistics(index, queries).avg_partitions_compared,
            ),
        ):
            records.append(_record("table7", name, series, "cardinality", n, metric, value))
    return records


# --------------------------------------------------------------------------- #
# Tables 8 and 9, Figure 13 -- every index of the comparison
# --------------------------------------------------------------------------- #
def _paper_indexes(
    collection: IntervalCollection,
) -> Iterator[Tuple[str, IntervalIndex, float, Optional[Domain]]]:
    """Build every compared index: ``(label, index, build seconds, domain)``.

    ``domain`` is set for the comparison-free HINT, which indexes the
    collection discretised to at most 18 bits and answers queries mapped
    onto that domain; HINT^m uses the model's ``m`` (clamped to 5..16).
    """
    stats = DatasetStatistics.from_collection(collection)
    hint_bits = min(stats.domain_bits, 18)
    m_opt = max(5, min(estimate_m_opt(stats, 0.001 * stats.domain_length), 16))
    discretised, domain = _discretise(collection, hint_bits)
    builds = [
        (name, name, collection, params, None) for name, params in COMPETITOR_CONFIGS.items()
    ]
    builds.append(("hint", "hint_cf", discretised, {"num_bits": hint_bits}, domain))
    builds.append(("hint-m", "hintm_opt", collection, {"num_bits": m_opt}, None))
    for label, backend, data, params, query_domain in builds:
        start = time.perf_counter()
        index = create_index(backend, data, **params)
        yield label, index, time.perf_counter() - start, query_domain


def table8_index_sizes(datasets: Mapping[str, IntervalCollection]) -> List[Record]:
    """Size in MB of every index in the comparison."""
    return [
        _record("table8", name, label, "cardinality", len(collection), "size_mb",
                index.memory_bytes() / 2**20)
        for name, collection in datasets.items()
        for label, index, _, _ in _paper_indexes(collection)
    ]


def table9_index_times(datasets: Mapping[str, IntervalCollection]) -> List[Record]:
    """Construction time in seconds of every index in the comparison."""
    return [
        _record("table9", name, label, "cardinality", len(collection), "build_s", seconds)
        for name, collection in datasets.items()
        for label, _, seconds, _ in _paper_indexes(collection)
    ]


def fig13_real_throughput(
    datasets: Mapping[str, IntervalCollection],
    extents: Sequence[float] = (0.0, 0.0001, 0.0005, 0.001, 0.005, 0.01),
    num_queries: int = 200,
) -> List[Record]:
    """Throughput of every index for each query extent (first extent 0 =
    stabbing), reported in % of the domain like the paper.  Every series is
    timed one query at a time; ``hint-m (batched)`` times the same HINT^m
    index through one ``query_batch`` call per extent."""
    records = []
    for name, collection in datasets.items():
        indexes = [(label, index, domain) for label, index, _, domain in _paper_indexes(collection)]
        for extent in extents:
            queries = _query_workload(collection, num_queries, extent)
            for label, index, domain in indexes:
                workload = queries if domain is None else _discrete_queries(domain, queries)
                records.append(
                    _record("fig13", name, label, "extent_pct", extent * 100, "throughput_qps",
                            _qps(index, workload))
                )
                if label == "hint-m":
                    qps = len(queries) / _batched_seconds(index, queries, len(queries))
                    records.append(
                        _record("fig13", name, "hint-m (batched)", "extent_pct", extent * 100,
                                "throughput_qps", qps)
                    )
    return records


# --------------------------------------------------------------------------- #
# Figure 14 -- throughput on synthetic data, one sweep per panel
# --------------------------------------------------------------------------- #
def fig14_synthetic_throughput(
    cardinality: int = 20_000,
    num_queries: int = 150,
    hint_m_bits: int = 12,
    sweeps: Optional[Mapping[str, Sequence[float]]] = None,
) -> List[Record]:
    """Throughput of every index across the five synthetic parameter sweeps.

    Each panel varies one generator parameter (or the query extent) around
    the Table 5 defaults at ``cardinality`` intervals; the cardinality panel
    spans 1/4x..4x of it.  Queries follow the data distribution, as in the
    paper.  Records use ``dataset="synthetic:<parameter>"``.
    """
    if sweeps is None:
        sweeps = {
            "domain_length": (500_000, 1_000_000, 2_000_000, 4_000_000, 8_000_000),
            "cardinality": tuple(int(cardinality * f) for f in (0.25, 0.5, 1, 2, 4)),
            "alpha": (1.01, 1.1, 1.2, 1.4, 1.8),
            "sigma": (20_000, 100_000, 200_000, 500_000, 1_000_000),
            "query_extent": (0.0001, 0.0005, 0.001, 0.005, 0.01),
        }
    base = _synthetic_base(cardinality)
    records = []
    for parameter, values in sweeps.items():
        for value in values:
            config, extent_fraction = base, 0.001
            if parameter == "query_extent":
                extent_fraction = float(value)
            else:
                config = dataclasses.replace(base, **{parameter: value})
            collection = generate_synthetic(config)
            queries = _query_workload(collection, num_queries, extent_fraction, placement="data")
            indexes = {
                name: create_index(name, collection, **params)
                for name, params in COMPETITOR_CONFIGS.items()
            }
            indexes["hint-m"] = create_index("hintm_opt", collection, num_bits=hint_m_bits)
            for label, index in indexes.items():
                records.append(
                    _record("fig14", f"synthetic:{parameter}", label, parameter, value,
                            "throughput_qps", _qps(index, queries))
                )
    return records


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
) -> List[Record]:
    """Query/insert/delete throughput and total cost of a mixed workload.

    Compared indexes follow the paper's Table 10: interval tree, period
    index, 1D-grid, the update-friendly ``subs+sopt`` HINT^m, and the hybrid
    HINT^m.  (The timeline index is excluded, as in the paper.)
    """
    contenders = {
        "interval-tree": ("interval-tree", {}),
        "period-index": ("period-index", COMPETITOR_CONFIGS["period-index"]),
        "1d-grid": ("1d-grid", COMPETITOR_CONFIGS["1d-grid"]),
        "subs+sopt hint-m": (
            "hintm_sub",
            {"num_bits": hint_m_bits, "sort_subdivisions": False, "storage_optimization": True},
        ),
        "hybrid hint-m": ("hintm_hybrid", {"num_bits": hint_m_bits}),
    }
    records = []
    for name, collection in datasets.items():
        workload = generate_mixed_workload(
            collection,
            num_queries=num_queries,
            num_insertions=num_insertions,
            num_deletions=num_deletions,
            query_extent_fraction=extent_fraction,
            seed=99,
        )
        for label, (backend, params) in contenders.items():
            index = create_index(backend, workload.preload, **params)
            apply = {
                Operation.QUERY: index.query,
                Operation.INSERT: index.insert,
                Operation.DELETE: index.delete,
            }
            timings = dict.fromkeys(apply, 0.0)
            counts = dict.fromkeys(apply, 0)
            start_total = time.perf_counter()
            for operation, payload in workload.operations:
                start = time.perf_counter()
                apply[operation](payload)
                timings[operation] += time.perf_counter() - start
                counts[operation] += 1
            total = time.perf_counter() - start_total
            rates = {
                metric: counts[operation] / timings[operation] if timings[operation] else 0.0
                for metric, operation in (
                    ("query_qps", Operation.QUERY),
                    ("insert_ops", Operation.INSERT),
                    ("delete_ops", Operation.DELETE),
                )
            }
            for metric, value in (*rates.items(), ("total_s", total)):
                records.append(
                    _record("table10", name, label, "cardinality", len(collection), metric, value)
                )
    return records


# --------------------------------------------------------------------------- #
# Batch crossover -- the measurement behind optimized._BATCH_CROSSOVER
# --------------------------------------------------------------------------- #
def batch_crossover(cardinality: int = 20_000) -> List[Record]:
    """Per-query loop vs the vectorised traversal of ``OptimizedHINTm``, by
    ``query_batch`` chunk size, on the Table 5 synthetic defaults at m = 12.

    This has no counterpart in the paper (a C++ implementation does not
    face the choice).  The kernel pays a fixed cost per batch that the loop
    does not; ``optimized._BATCH_CROSSOVER`` belongs where the
    ``us_per_query`` columns cross, so the sweep sets it to force each path.
    At each chunk size the two paths are timed in turn, seven times each,
    the first path alternating, and each point is a median: a swing of the
    host's speed lands on both series.  The columnar layout against
    row-wise records, one query at a time, is Fig. 12's ``all
    optimizations`` against ``skew&sparsity``.
    """
    collection = generate_synthetic(_synthetic_base(cardinality))
    batch_sizes = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512)
    queries = _query_workload(collection, max(batch_sizes), 0.001, placement="data", seed=1)
    index = create_index("hintm_opt", collection, num_bits=12)
    paths = (("loop", len(queries) + 1), ("kernel", 1))
    records = []
    saved = optimized._BATCH_CROSSOVER
    try:
        for size in batch_sizes:
            seconds: Dict[str, List[float]] = {series: [] for series, _ in paths}
            for turn in range(7):
                for series, crossover in paths if turn % 2 == 0 else paths[::-1]:
                    optimized._BATCH_CROSSOVER = crossover
                    seconds[series].append(_batched_seconds(index, queries, size))
            for series, _ in paths:
                records.append(
                    _record("batch_crossover", "synthetic", series, "batch_size", size,
                            "us_per_query", statistics.median(seconds[series]) / len(queries) * 1e6)
                )
    finally:
        optimized._BATCH_CROSSOVER = saved
    return records
