"""Batch query execution.

Bulk API consumers hand the engine a whole workload at once;
:func:`execute_batch` drives it through the backend's
:meth:`repro.core.base.IntervalIndex.query_batch` hook (or the
``query_count`` fast path in count-only mode) and reports results together
with wall-clock metrics, so the CLI and library users exercise the same
entry point.

Execution routes through a pluggable :class:`repro.engine.executor.Executor`:
the serial executor (the default) evaluates the batch inline, while a
parallel executor carves the workload into per-worker chunks and runs them
concurrently, preserving result order.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence

import numpy as np

from repro.core.base import IntervalIndex
from repro.core.interval import Query
from repro.engine.executor import Executor, split_chunks

__all__ = ["BatchResult", "execute_batch"]


def _count_chunk(index: IntervalIndex, chunk: List[Query]) -> List[int]:
    """Per-worker count evaluation; module-level so process pools can pickle it."""
    return index.query_count_batch(chunk)


@dataclass
class BatchResult:
    """The answers and timing of one batch execution.

    Attributes:
        queries: the executed workload, in order.
        ids: per-query result ids, one int64 array each that owns its
            memory (positionally aligned with ``queries``); ``None`` when
            the batch ran in count-only mode.
        counts: per-query result counts.
        seconds: wall-clock time spent answering the batch.
    """

    queries: List[Query]
    ids: Optional[List[np.ndarray]]
    counts: List[int]
    seconds: float

    @property
    def queries_per_second(self) -> float:
        """Throughput of the batch (0.0 for an empty or unmeasurable batch)."""
        if not self.queries or self.seconds <= 0:
            return 0.0
        return len(self.queries) / self.seconds

    @property
    def total_results(self) -> int:
        """Total number of reported (or counted) results across the batch."""
        return sum(self.counts)

    def __len__(self) -> int:
        return len(self.queries)

    def __iter__(self) -> Iterator[np.ndarray]:
        """Iterate per-query id arrays (materialising mode only)."""
        if self.ids is None:
            raise ValueError("batch ran in count-only mode; iterate .counts instead")
        return iter(self.ids)


def execute_batch(
    index: IntervalIndex,
    queries: Sequence[Query],
    count_only: bool = False,
    executor: Optional[Executor] = None,
) -> BatchResult:
    """Answer ``queries`` against ``index`` in one batched call.

    With ``count_only`` the per-query ``query_count`` fast path runs instead
    and no ids are materialised.  A parallel ``executor`` splits the
    workload into per-worker chunks and evaluates them concurrently; results
    stay positionally aligned with ``queries``.
    """
    workload = list(queries)
    parallel = executor is not None and executor.workers > 1 and len(workload) > 1
    start = time.perf_counter()
    if count_only:
        ids: Optional[List[np.ndarray]] = None
        if parallel:
            chunks = split_chunks(workload, executor.workers)
            counted = executor.map(functools.partial(_count_chunk, index), chunks)
            counts = [count for chunk in counted for count in chunk]
        else:
            # the batched hook, not a per-query loop: composite indexes
            # (sharded) answer it in one vectorised pass
            counts = index.query_count_batch(workload)
    else:
        if parallel:
            chunks = split_chunks(workload, executor.workers)
            ids = [result for chunk in executor.map(index.query_batch, chunks) for result in chunk]
        else:
            ids = index.query_batch(workload)
        counts = [len(result) for result in ids]
    elapsed = time.perf_counter() - start
    return BatchResult(queries=workload, ids=ids, counts=counts, seconds=elapsed)
