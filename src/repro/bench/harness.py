"""The one timing loop every paper experiment and ``repro bench`` share.

The paper reports query *throughput* over a workload evaluated one query at
a time, so that is the execution model here: :func:`measure_throughput`
calls ``index.query`` once per query and returns both the pass throughput
and the per-query latency quantiles from the same pass.  A backend's batch
kernel is timed only where an experiment labels it as its own series.
"""

from __future__ import annotations

import time
from typing import Dict, Sequence

import numpy as np

from repro.core.base import IntervalIndex
from repro.core.interval import Query

__all__ = ["measure_throughput"]


def measure_throughput(
    index: IntervalIndex, queries: Sequence[Query], repeats: int = 1
) -> Dict[str, float]:
    """Time ``queries`` through ``index.query``, one query at a time.

    Returns ``{"qps", "p50", "p95", "p99"}``: the best pass's queries per
    second over ``repeats`` passes, and per-query latency quantiles in
    seconds over every query of every pass.  An empty workload reads 0.
    """
    workload = list(queries)
    if not workload:
        return {"qps": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}
    query = index.query
    clock = time.perf_counter
    seconds = np.empty((max(1, repeats), len(workload)))
    for row in seconds:
        last = clock()
        for position, item in enumerate(workload):
            query(item)
            now = clock()
            row[position] = now - last
            last = now
    p50, p95, p99 = np.quantile(seconds, (0.5, 0.95, 0.99)).tolist()
    best = seconds.sum(axis=1).min()
    return {"qps": len(workload) / best, "p50": p50, "p95": p95, "p99": p99}
