"""Batch query execution.

Bulk API consumers hand the engine a whole workload at once;
:func:`execute_batch` drives it through the backend's
:meth:`repro.core.base.IntervalIndex.query_batch` hook (or the
``query_count`` fast path in count-only mode) and reports results together
with wall-clock metrics, so the CLI and library users exercise the same
entry point.

The batch runs in the calling thread.  Parallelism, when a store asked for
a process pool, lives inside the index: a
:class:`repro.engine.sharded.ShardedIndex` fans its ``query_batch`` out to
worker-resident shards, so no index is ever shipped to a worker.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence

import numpy as np

from repro.core.base import IntervalIndex
from repro.core.interval import Query

__all__ = ["BatchResult", "execute_batch"]


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
    index: IntervalIndex, queries: Sequence[Query], count_only: bool = False
) -> BatchResult:
    """Answer ``queries`` against ``index`` in one batched call.

    With ``count_only`` the batched count hook runs instead and no ids are
    materialised.  Results stay positionally aligned with ``queries``.
    """
    workload = list(queries)
    start = time.perf_counter()
    if count_only:
        ids: Optional[List[np.ndarray]] = None
        # the batched hook, not a per-query loop: composite indexes
        # (sharded) answer it in one vectorised pass
        counts = index.query_count_batch(workload)
    else:
        ids = index.query_batch(workload)
        counts = [len(result) for result in ids]
    elapsed = time.perf_counter() - start
    return BatchResult(queries=workload, ids=ids, counts=counts, seconds=elapsed)
