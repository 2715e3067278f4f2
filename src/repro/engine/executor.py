"""Pluggable query executors: how the engine runs work, not what it runs.

Every execution entry point in the engine -- :class:`repro.engine.store.IntervalStore`
batches, :class:`repro.engine.sharded.ShardedIndex` shard fan-out, the
benchmark harness -- routes through an :class:`Executor`.  An executor maps a
function over a list of work items; the two implementations are

* :class:`SerialExecutor` -- runs everything inline.  The single-index,
  single-thread store is just this degenerate case, so adding parallelism
  never forks the code path.
* :class:`ProcessExecutor` -- a ``concurrent.futures.ProcessPoolExecutor``
  with a lazy, reusable pool: the one way past the GIL for the pure-Python
  backends.  The sharded layer pairs it with worker-resident shard indexes
  and shared-memory columns (see :mod:`repro.engine._procworker`) so
  per-task payloads stay tiny.

:func:`resolve_executor` turns the user-facing spec (``None``, ``"serial"``,
``"processes"`` sized by ``workers``, or an :class:`Executor` instance) into
an executor, and :func:`split_chunks` is the shared helper for carving a
workload into per-worker chunks without reordering it.
"""

from __future__ import annotations

import abc
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

__all__ = [
    "EXECUTOR_KINDS",
    "Executor",
    "ProcessExecutor",
    "SerialExecutor",
    "available_cores",
    "resolve_executor",
    "split_chunks",
]

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
    ("processes", "process pool; multi-core scaling via worker-resident shards"),
)


def available_cores() -> int:
    """Cores this process may actually run on (affinity-aware).

    ``os.cpu_count()`` reports the machine; containers and batch schedulers
    often pin processes to a subset, which is what parallel speedups are
    bounded by.  Used by the executors' default worker counts and by the
    adaptive shard-count model (:func:`repro.engine.maintenance.recommend_shard_count`).
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _default_workers() -> int:
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


class Executor(abc.ABC):
    """Strategy object deciding how a list of independent tasks is run."""

    #: human-readable name used in benchmark rows and reprs
    name: str = "abstract"

    @property
    def workers(self) -> int:
        """Degree of parallelism (1 for serial execution)."""
        return 1

    @abc.abstractmethod
    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        """Apply ``fn`` to every item, preserving order."""

    def submit(self, fn: Callable[[T], R], item: T) -> "Future[R]":
        """Schedule one task and return its future.

        The per-task entry point the sharded layer's kernel dispatcher
        drives: unlike :meth:`map`, a failed task surfaces on *its own*
        future, so the dispatcher can retry or fail over individual tasks
        instead of losing the whole batch.  The default runs inline and
        returns an already-completed future; pooled executors submit to
        their pool.
        """
        future: "Future[R]" = Future()
        try:
            future.set_result(fn(item))
        except BaseException as exc:  # the future carries it, mirroring pools
            future.set_exception(exc)
        return future

    def pool_token(self) -> int:
        """Opaque identity of the current pooled state.

        Callers capture it before submitting work and hand it back to
        :meth:`respawn` on failure, so healing can tell "my pool broke"
        from "someone already replaced the pool while my batch was in
        flight".  The default (poolless) executor never changes state.
        """
        return 0

    def respawn(self, token: Optional[int] = None) -> None:
        """Drop pooled workers so the next use starts fresh ones (idempotent).

        The per-worker healing hook: after a worker process dies (killed,
        OOM, broken pipe) the pool is unusable, but the *executor* is not --
        respawning discards the broken pool and the next ``map``/``submit``
        lazily brings up fresh workers, which rebuild their resident state
        on demand.  ``token`` (from :meth:`pool_token`, captured before the
        failed submit) coordinates healing on *shared* executors: when the
        pool was already replaced since the token was read, the call is a
        no-op -- the caller just retries on the fresh pool instead of
        shutting down a pool other indexes are actively using.  The default
        simply delegates to :meth:`close` (pools here are created lazily,
        so a closed executor respawns on use).
        """
        self.close()

    def close(self) -> None:
        """Release any pooled resources (idempotent)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}(workers={self.workers})"


class SerialExecutor(Executor):
    """Inline execution; the K=1, single-thread degenerate case."""

    name = "serial"

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        return [fn(item) for item in items]


class ProcessExecutor(Executor):
    """A ``ProcessPoolExecutor``-backed parallel executor.

    The pool is created lazily on first parallel ``map`` and reused for the
    executor's lifetime -- worker processes therefore *persist across
    batches*, which is what makes worker-resident state (attached
    shared-memory columns, cached shard indexes; see
    :mod:`repro.engine._procworker`) pay off: the first task per shard builds
    the shard's index inside the worker, every later task reuses it.

    Mapped functions and items must be picklable (module-level functions or
    bound methods of picklable objects).  Prefer shipping *references* --
    a :class:`repro.core.interval.SharedCollectionHandle` instead of a
    collection -- so tasks stay small.

    Args:
        workers: process count; defaults to ``min(cpu_count, 8)``.
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
        return self._workers

    @property
    def start_method(self) -> str:
        """The multiprocessing start method the pool uses."""
        return self._context.get_start_method()

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        work = list(items)
        if self._workers == 1 or len(work) <= 1:
            return [fn(item) for item in work]
        return list(self._ensure_pool().map(fn, work))

    def submit(self, fn: Callable[[T], R], item: T) -> "Future[R]":
        """Submit one task to the pool (inline only in the 1-worker case).

        Unlike :meth:`map`'s trivial-work path, a lone submitted task still
        goes to the pool: kernel tasks must run *in a worker* (that is
        where the resident shard state lives), never build duplicate
        residencies in the parent.
        """
        if self._workers == 1:
            return super().submit(fn, item)
        return self._ensure_pool().submit(fn, item)

    def _ensure_pool(self) -> _ProcessPool:
        if self._pool is None:
            self._pool = _ProcessPool(
                max_workers=self._workers, mp_context=self._context
            )
        return self._pool

    def pool_token(self) -> int:
        return self._pool_epoch

    def respawn(self, token: Optional[int] = None) -> None:
        """Replace the worker pool, coordinated across sharing indexes.

        When ``token`` (the :meth:`pool_token` the caller read before its
        failed submit) no longer matches, another user of this executor
        already healed the pool -- skip the shutdown so their fresh workers
        (and any in-flight batches) survive, and let the caller simply
        retry.  Without a token the respawn is unconditional.
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
        with self._heal_lock:
            self._pool_epoch += 1
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)


def _not_an_executor(spec: object) -> ValueError:
    """The error for every spec that is neither serial nor the process pool."""
    return ValueError(
        f"unknown executor {spec!r}: an executor is 'serial' or 'processes', "
        'and a worker pool is spelled executor="processes", workers=N'
    )


def resolve_executor(
    spec: Union[Executor, int, str, None] = None,
    workers: Union[int, str, "Executor", None] = None,
) -> Executor:
    """Turn a user-facing executor spec into an :class:`Executor`.

    * ``None``/``"serial"``/``1`` -> :class:`SerialExecutor`;
    * ``"processes"`` -> :class:`ProcessExecutor`, sized by ``workers``
      (default worker count when omitted);
    * an :class:`Executor` instance passes through unchanged.

    ``workers`` sizes the process pool and nothing else: a worker count
    above 1 without ``executor="processes"`` is an error that names the
    fix, as is any other executor name.
    """
    if spec is None and workers is not None:
        # single-argument form: open(workers=pool) / open(workers="processes")
        spec, workers = workers, None
    if spec is None:
        return SerialExecutor()
    if isinstance(spec, Executor):
        if workers is not None and workers != spec.workers:
            raise ValueError(
                f"executor instance already has {spec.workers} workers; "
                f"cannot resize it with workers={workers!r}"
            )
        return spec
    if isinstance(spec, bool):  # guard: True would otherwise mean 1 worker
        raise TypeError("executor spec must be an Executor, int, str or None")
    if isinstance(spec, int):
        if workers is not None and workers != spec:
            raise ValueError(
                f"conflicting worker counts: executor spec {spec} vs workers={workers!r}"
            )
        if _validated_workers(spec) != 1:
            raise _not_an_executor(spec)
        return SerialExecutor()
    if isinstance(spec, str):
        if spec not in ("serial", "processes"):
            raise _not_an_executor(spec)
        if isinstance(workers, (str, Executor)):
            raise TypeError(
                f"workers must be an int worker count when the executor is "
                f"named by string, got {workers!r}"
            )
        count = _validated_workers(workers)
        if spec == "processes":
            return ProcessExecutor(count)
        if count is not None and count != 1:
            raise ValueError(
                f"the serial executor is single-threaded; got workers={count}"
            )
        return SerialExecutor()
    raise TypeError(f"executor spec must be an Executor, int, str or None, got {spec!r}")


def split_chunks(items: Sequence[T], num_chunks: int) -> List[List[T]]:
    """Carve ``items`` into at most ``num_chunks`` contiguous, near-equal chunks.

    Order is preserved (concatenating the chunks restores the input) and no
    chunk is empty, so ``executor.map(worker, split_chunks(queries, workers))``
    keeps results positionally aligned.
    """
    work = list(items)
    if not work:
        return []
    num_chunks = max(1, min(num_chunks, len(work)))
    size, remainder = divmod(len(work), num_chunks)
    chunks: List[List[T]] = []
    start = 0
    for i in range(num_chunks):
        stop = start + size + (1 if i < remainder else 0)
        chunks.append(work[start:stop])
        start = stop
    return chunks
