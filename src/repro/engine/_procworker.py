"""Worker-process runtime for the :class:`~repro.engine.executor.ProcessExecutor`.

The sharded layer's process fan-out keeps the expensive state **resident in
the workers**: each worker process attaches to the collection's
shared-memory columns once, builds the shard indexes it is asked about
once, and caches them for the lifetime of the pool.  A task is one shard's
slice of a materialising batch

    ``(spec, shard_id, positions, query_starts, query_ends)``

where ``spec`` is a ~100-byte :class:`ShardResidencySpec` (a shared-memory
handle plus the shard plan and backend configuration) and the arrays
describe the queries routed to that shard; each is answered against the
worker-built shard index.  Results travel back as compact ``int64`` id
arrays -- no :class:`~repro.core.interval.Interval` objects, no index
structures, no re-pickled collections ever cross the process boundary.
Counts are not a worker's business: the parent bisects its one count pair
(:class:`repro.engine.maintenance.CountColumns`), so workers hold no count
columns and nothing here depends on updates.

Everything here is module-level so that it imports cleanly under the
``spawn`` start method (workers re-import this module instead of inheriting
the parent's memory).
"""

from __future__ import annotations

import os
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.core.interval import Query, SharedCollectionHandle, attach_shared_collection
from repro.obs import tracing

__all__ = [
    "ShardResidencySpec",
    "resident_summary",
    "resident_tokens",
    "run_kernel_task",
]

#: worker-global cache of residencies, keyed by the owning index's token;
#: bounded so a long-lived pool serving many stores cannot grow unboundedly
_RESIDENTS: "OrderedDict[str, _Residency]" = OrderedDict()
_MAX_RESIDENTS = 4

@dataclass(frozen=True)
class ShardResidencySpec:
    """Everything a worker needs to (re)create one index's shard state.

    Attributes:
        token: unique id of the owning :class:`~repro.engine.sharded.ShardedIndex`
            *snapshot*; the worker-side cache key.  The token embeds the
            index uid and the snapshot generation, so a maintenance pass that
            republishes the snapshot produces a fresh token.
        handle: shared-memory handle of the collection's columns -- the only
            data transport (the sharded layer falls back to in-process
            execution when shared memory is unavailable, so collections are
            never shipped by value).
        cuts: the shard plan's interior cut points.
        backend: registry name of the per-shard backend.
        opts: backend constructor options (must be picklable).
        uid: stable id of the owning index across snapshot generations; a
            worker that receives a newer generation evicts every older
            residency of the same uid (their shared blocks were unlinked by
            the parent's refresh, so keeping them would only pin dead pages).
        generation: snapshot generation the handle belongs to.
    """

    token: str
    handle: SharedCollectionHandle
    cuts: Tuple[int, ...]
    backend: str
    opts: Tuple[Tuple[str, object], ...] = ()
    uid: str = ""
    generation: int = 0


class _Residency:
    """One index's worker-resident state: attached columns, cached shard indexes."""

    def __init__(self, spec: ShardResidencySpec) -> None:
        self._collection, self._shm = attach_shared_collection(spec.handle)
        self._cuts = np.asarray(spec.cuts, dtype=np.int64)
        self._backend = spec.backend
        self._opts = dict(spec.opts)
        self._shards: Dict[int, object] = {}
        self.uid = spec.uid
        self.generation = spec.generation

    def shard_index(self, shard_id: int):
        """Build (once) and return the backend index for one shard."""
        index = self._shards.get(shard_id)
        if index is None:
            # local imports keep module import light for spawn start-up
            from repro.engine.registry import create_index
            from repro.engine.sharding import shard_mask

            piece = self._collection
            if len(self._cuts):
                piece = piece.take(shard_mask(piece, self._cuts, shard_id))
            index = create_index(self._backend, piece, **self._opts)
            self._shards[shard_id] = index
        return index

    def close(self) -> None:
        self._shards.clear()
        self._collection = None
        if self._shm is not None:
            self._shm.close()
            self._shm = None


def _residency_for(spec: ShardResidencySpec) -> _Residency:
    residency = _RESIDENTS.get(spec.token)
    if residency is None:
        # a newer snapshot generation supersedes every older residency of
        # the same index: the parent's refresh unlinked their shared blocks,
        # so evict them now instead of waiting for LRU pressure
        if spec.uid:
            stale = [
                token
                for token, resident in _RESIDENTS.items()
                if resident.uid == spec.uid and resident.generation < spec.generation
            ]
            for token in stale:
                _RESIDENTS.pop(token).close()
        residency = _Residency(spec)
        _RESIDENTS[spec.token] = residency
        while len(_RESIDENTS) > _MAX_RESIDENTS:
            _, evicted = _RESIDENTS.popitem(last=False)
            evicted.close()
    else:
        _RESIDENTS.move_to_end(spec.token)
    return residency


def resident_tokens(_: object = None) -> Tuple[str, ...]:
    """Tokens currently cached by *this* process's residency cache.

    A diagnostic for tests and the maintenance tooling: map it over a
    process pool to sample which snapshot generations the workers still
    hold (the dummy argument exists so ``ProcessExecutor.map`` can drive it).
    """
    return tuple(_RESIDENTS.keys())


def resident_summary(_: object = None) -> Tuple[int, Tuple[str, ...]]:
    """``(pid, resident tokens)`` of *this* worker process.

    Like :func:`resident_tokens` but keyed by worker pid, so mapping it
    over a pool yields a per-worker view of residency generations (the
    ``/stats`` endpoint and ``maintenance_state`` surface it; repeats from
    the same worker deduplicate on pid).
    """
    return os.getpid(), tuple(_RESIDENTS.keys())


def run_kernel_task(task: Tuple) -> Tuple:
    """Answer one shard's slice of a materialising batch inside a worker.

    ``task`` is ``(spec, shard_id, positions, query_starts, query_ends)``;
    ``positions`` are the batch positions of the routed queries.  Returns
    ``(shard_id, positions, id_arrays)`` with one compact ``int64`` array of
    result ids per routed query, from the worker-built shard index (the
    parent never routes a batch here while the snapshot is update-dirty).

    A traced task carries an optional 6th element ``(trace_id,
    parent_span_id)``; the worker then returns ``(shard_id, positions,
    id_arrays, span_record)`` -- the span is built locally and shipped back
    in the result, so fork and spawn pools trace identically.
    """
    spec, shard_id, positions, query_starts, query_ends = task[:5]
    trace_ctx = task[5] if len(task) > 5 else None
    started = time.perf_counter()
    index = _residency_for(spec).shard_index(shard_id)
    answers = index.query_batch(
        [Query(int(start), int(end)) for start, end in zip(query_starts, query_ends)]
    )
    if trace_ctx is None:
        return shard_id, positions, answers
    trace_id, parent_id = trace_ctx
    record = tracing.new_span_record(
        trace_id,
        parent_id,
        "kernel:ids_batch",
        {"pid": os.getpid(), "shard": shard_id, "queries": len(positions)},
    )
    record["duration_ms"] = (time.perf_counter() - started) * 1000.0
    return shard_id, positions, answers, record
