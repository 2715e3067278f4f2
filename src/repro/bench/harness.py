"""Throughput / size / build-time measurement used by every benchmark.

The paper reports query *throughput* (queries/second over a 10k-query
workload), index size and index construction time.  This module provides the
equivalent measurements plus a registry mapping the paper's index names to
constructors with the parameters used in Section 5 (scaled to this
reproduction's dataset sizes).
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence

from repro.core.base import IntervalIndex
from repro.core.interval import IntervalCollection, Query
from repro.engine.executor import Executor, split_chunks
from repro.engine.registry import backend_specs, create_index
from repro.obs import Histogram

__all__ = [
    "BenchmarkResult",
    "INDEX_BUILDERS",
    "build_index",
    "measure_build_time",
    "measure_index_size",
    "measure_latency",
    "measure_throughput",
]


#: Paper-comparable index builders, keyed by the paper's index names.  Kept
#: as a thin shim over :mod:`repro.engine.registry` for backwards
#: compatibility; new code should call :func:`repro.engine.create_index`.
#: Composite backends (the sharded store) wrap the paper's indexes rather
#: than compete with them, so they stay out of this table.
INDEX_BUILDERS: Dict[str, Callable[..., IntervalIndex]] = {
    spec.legacy_name: functools.partial(create_index, spec.name)
    for spec in backend_specs()
    if not spec.composite
}


@dataclass
class BenchmarkResult:
    """One measurement row.

    Attributes:
        index_name: registry name of the index.
        throughput: queries per second (0 when not measured).
        build_seconds: index construction time (0 when not measured).
        size_bytes: estimated index footprint (0 when not measured).
        extra: free-form extra columns (e.g. the sweep parameter value).
    """

    index_name: str
    throughput: float = 0.0
    build_seconds: float = 0.0
    size_bytes: int = 0
    extra: Dict[str, float] = field(default_factory=dict)


def build_index(name: str, collection: IntervalCollection, **overrides) -> IntervalIndex:
    """Build a registered index over ``collection``.

    Accepts both the paper's legacy names (``"hint-m-opt"``) and the engine
    registry's canonical names (``"hintm_opt"``); unknown names raise
    :class:`repro.core.errors.UnknownBackendError` (a ``KeyError``).
    """
    return create_index(name, collection, **overrides)


def measure_build_time(name: str, collection: IntervalCollection, **overrides) -> BenchmarkResult:
    """Measure index construction time and size."""
    t0 = time.perf_counter()
    index = build_index(name, collection, **overrides)
    elapsed = time.perf_counter() - t0
    return BenchmarkResult(
        index_name=name,
        build_seconds=elapsed,
        size_bytes=index.memory_bytes(),
    )


def measure_index_size(index: IntervalIndex) -> int:
    """Estimated footprint of a built index in bytes."""
    return index.memory_bytes()


def measure_throughput(
    index: IntervalIndex,
    queries: Sequence[Query],
    repeats: int = 1,
    executor: Optional[Executor] = None,
) -> float:
    """Queries per second over ``queries`` (best of ``repeats`` passes).

    Drives the engine's batch entry point
    (:meth:`repro.core.base.IntervalIndex.query_batch`), so backends with a
    genuinely batched evaluation are measured through it.  A parallel
    ``executor`` splits the workload into per-worker chunks, mirroring how
    :func:`repro.engine.batch.execute_batch` runs it in production; sharded
    indexes already parallelise internally (worker-resident processes,
    per their own executor) and need no executor here.  A
    :class:`repro.engine.executor.ProcessExecutor` passed for an unsharded
    index ships the index to the pool once per chunk -- prefer measuring a
    sharded index, whose process transport is shared-memory based.
    """
    workload = list(queries)
    if not workload:
        return 0.0
    parallel = executor is not None and executor.workers > 1 and len(workload) > 1
    chunks = split_chunks(workload, executor.workers) if parallel else None
    best = 0.0
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        if chunks is not None:
            executor.map(index.query_batch, chunks)
        else:
            index.query_batch(workload)
        elapsed = time.perf_counter() - t0
        if elapsed <= 0:
            continue
        best = max(best, len(workload) / elapsed)
    return best


def measure_latency(
    index: IntervalIndex, queries: Sequence[Query], repeats: int = 1
) -> Dict[str, float]:
    """Per-query latency quantiles over ``queries``.

    Runs the workload one query at a time through an observability
    :class:`~repro.obs.Histogram` (the same quantile machinery the serving
    tier's ``/stats`` reports) and returns its summary:
    ``{"count", "sum", "mean", "p50", "p95", "p99"}`` in seconds.
    Throughput stays a batch measurement (:func:`measure_throughput`);
    this measures the single-query tail the batch number hides.
    """
    histogram = Histogram()
    for _ in range(max(1, repeats)):
        for query in queries:
            t0 = time.perf_counter()
            index.query(query)
            histogram.observe(time.perf_counter() - t0)
    return histogram.summary()
