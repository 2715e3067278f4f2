"""The process pool behind a sharded index's worker-resident shards.

HINT answers each query on one thread, so the engine runs inline unless a
caller asks for processes, and then the pool has exactly one user:
:class:`repro.engine.sharded.ShardedIndex`, whose shard indexes live inside
the workers over shared-memory columns (see :mod:`repro.engine._procworker`),
so per-task payloads stay tiny and no index is ever pickled.
:class:`ProcessExecutor` is that pool: lazy, reusable across batches and
healed per worker.  :func:`resolve_executor` turns the user-facing spec
(``None``/``"serial"``, ``"processes"`` sized by ``workers``, or a
:class:`ProcessExecutor` instance) into a pool, or ``None`` for inline
execution.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from concurrent.futures import Future
from concurrent.futures import ProcessPoolExecutor as _ProcessPool
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar, Union

from repro.obs import global_registry

#: process-global healing counter: every coordinated pool replacement,
#: whoever triggered it (shared executors heal each other)
_POOL_RESPAWNS = global_registry().counter(
    "repro_pool_respawns_total", "worker pools replaced by per-worker healing"
)

__all__ = ["EXECUTOR_KINDS", "ProcessExecutor", "available_cores", "resolve_executor"]

T = TypeVar("T")
R = TypeVar("R")

#: polite ceiling for the default worker count; interval queries are short,
#: so more workers than this just fight over the scheduler
_MAX_DEFAULT_WORKERS = 8

#: environment variable overriding the multiprocessing start method used by
#: :class:`ProcessExecutor` (``fork``/``spawn``/``forkserver``); the CI matrix
#: uses it to run the whole suite under ``spawn``
START_METHOD_ENV = "REPRO_MP_START_METHOD"

#: ``(name, one-line description)`` of every executor kind, in the order the
#: CLI help and ``list-backends`` present them
EXECUTOR_KINDS: Tuple[Tuple[str, str], ...] = (
    ("serial", "inline execution in the calling thread (the default)"),
    ("processes", "process pool over worker-resident shards, one shard included"),
)


def available_cores() -> int:
    """Cores this process may actually run on (affinity-aware).

    ``os.cpu_count()`` reports the machine; containers and batch schedulers
    often pin processes to a subset, which is what parallel speedups are
    bounded by.  It caps the pool's one default worker count,
    :func:`_default_workers`, which the adaptive shard-count model
    (:func:`repro.engine.maintenance.recommend_shard_count`) and the CLI's
    ``maintain --recommend-only`` read too.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _default_workers() -> int:
    """The pool's worker count when none is given: ``min(available_cores(), 8)``."""
    return min(available_cores(), _MAX_DEFAULT_WORKERS)


def _validated_workers(workers: Optional[int]) -> Optional[int]:
    """Reject non-positive or non-integral worker counts with a clear error."""
    if workers is None:
        return None
    if isinstance(workers, bool) or not isinstance(workers, int):
        raise TypeError(f"worker count must be an int, got {workers!r}")
    if workers < 1:
        raise ValueError(f"executor worker count must be >= 1, got {workers}")
    return workers


class ProcessExecutor:
    """A ``ProcessPoolExecutor`` with a lazy, reusable, healable pool.

    The pool is created on first use and reused for the executor's
    lifetime -- worker processes therefore *persist across batches*, which
    is what makes worker-resident state (attached shared-memory columns,
    cached shard indexes; see :mod:`repro.engine._procworker`) pay off: the
    first task per shard builds the shard's index inside the worker, every
    later task reuses it.

    Submitted functions and items must be picklable (module-level
    functions); tasks ship *references* -- a
    :class:`repro.core.interval.SharedCollectionHandle` instead of a
    collection -- so they stay small.

    Args:
        workers: process count; defaults to ``min(available_cores(), 8)``.
        start_method: multiprocessing start method (``"fork"``, ``"spawn"``,
            ``"forkserver"``).  Defaults to the ``REPRO_MP_START_METHOD``
            environment variable, falling back to the platform default.
    """

    name = "processes"

    def __init__(
        self, workers: Optional[int] = None, start_method: Optional[str] = None
    ) -> None:
        self._workers = _validated_workers(workers) or _default_workers()
        if start_method is None:
            start_method = os.environ.get(START_METHOD_ENV) or None
        self._context = (
            multiprocessing.get_context(start_method)
            if start_method
            else multiprocessing.get_context()
        )
        self._pool: Optional[_ProcessPool] = None
        #: bumped whenever the pool is replaced; see :meth:`pool_token`
        self._pool_epoch = 0
        self._heal_lock = threading.Lock()

    @property
    def workers(self) -> int:
        """Degree of parallelism: the pool's process count."""
        return self._workers

    @property
    def start_method(self) -> str:
        """The multiprocessing start method the pool uses."""
        return self._context.get_start_method()

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        """Apply ``fn`` to every item on the pool, preserving order (inline
        for a one-worker pool or a single item)."""
        work = list(items)
        if self._workers == 1 or len(work) <= 1:
            return [fn(item) for item in work]
        return list(self._ensure_pool().map(fn, work))

    def submit(self, fn: Callable[[T], R], item: T) -> "Future[R]":
        """Submit one task to the pool and return its future.

        The per-task entry point the sharded layer's kernel dispatcher
        drives: unlike :meth:`map`, a failed task surfaces on *its own*
        future, so the dispatcher can retry or fail over individual tasks
        instead of losing the whole batch.  A lone task still goes to the
        pool: kernel tasks must run *in a worker* (that is where the
        resident shard state lives), never build duplicate residencies in
        the parent.
        """
        return self._ensure_pool().submit(fn, item)

    def _ensure_pool(self) -> _ProcessPool:
        if self._pool is None:
            self._pool = _ProcessPool(
                max_workers=self._workers, mp_context=self._context
            )
        return self._pool

    def pool_token(self) -> int:
        """Opaque identity of the current pool.

        Callers capture it before submitting work and hand it back to
        :meth:`respawn` on failure, so healing can tell "my pool broke"
        from "someone already replaced the pool while my batch was in
        flight".
        """
        return self._pool_epoch

    def respawn(self, token: Optional[int] = None) -> None:
        """Replace the worker pool, coordinated across sharing indexes.

        The per-worker healing hook: after a worker process dies (killed,
        OOM, broken pipe) the pool is unusable, but the *executor* is not --
        respawning discards the broken pool and the next submit lazily
        brings up fresh workers, which rebuild their resident state on
        demand.  When ``token`` (the :meth:`pool_token` the caller read
        before its failed submit) no longer matches, another user of this
        executor already healed the pool -- skip the shutdown so their fresh
        workers (and any in-flight batches) survive, and let the caller
        simply retry.  Without a token the respawn is unconditional.
        """
        with self._heal_lock:
            if token is not None and token != self._pool_epoch:
                return
            self._pool_epoch += 1
            pool, self._pool = self._pool, None
        _POOL_RESPAWNS.inc()
        if pool is not None:
            pool.shutdown(wait=True)

    def close(self) -> None:
        """Shut the worker pool down (idempotent; a later use starts a
        fresh one)."""
        with self._heal_lock:
            self._pool_epoch += 1
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "ProcessExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"ProcessExecutor(workers={self._workers})"


def _not_an_executor(spec: object) -> ValueError:
    """The error for every spec that is neither serial nor the process pool."""
    return ValueError(
        f"unknown executor {spec!r}: an executor is 'serial' or 'processes', "
        'and a worker pool is spelled executor="processes", workers=N'
    )


def resolve_executor(
    spec: Union[ProcessExecutor, str, None] = None, workers: Optional[int] = None
) -> Optional[ProcessExecutor]:
    """The process pool a user-facing executor spec names, or ``None``.

    * ``None``/``"serial"`` -> ``None``: run inline;
    * ``"processes"`` -> a :class:`ProcessExecutor` sized by ``workers``
      (the default worker count when omitted);
    * a :class:`ProcessExecutor` instance passes through unchanged.

    ``workers`` is an int that sizes the process pool and nothing else: a
    worker count above 1 without ``executor="processes"`` is an error that
    names the fix, as is any other executor spec.
    """
    if isinstance(spec, ProcessExecutor):
        if workers is not None and workers != spec.workers:
            raise ValueError(
                f"executor instance already has {spec.workers} workers; "
                f"cannot resize it with workers={workers!r}"
            )
        return spec
    if spec not in (None, "serial", "processes"):
        raise _not_an_executor(spec)
    count = _validated_workers(workers)
    if spec == "processes":
        return ProcessExecutor(count)
    if count not in (None, 1):
        raise ValueError(f'workers={count} sizes the process pool: add executor="processes"')
    return None
