"""The :class:`IntervalStore` facade and its fluent query builder.

This is the primary public API of the library::

    from repro import IntervalStore

    store = IntervalStore.from_pairs([(1, 5), (3, 9), (12, 14)])
    store.query().overlapping(4, 12).ids()      # -> array([0, 1, 2])
    store.query().stabbing(4).count()           # no id list materialised
    store.query().overlapping(0, 20).limit(2).ids()
    store.run_batch([Query(1, 2), Query(5, 9)]).counts

A store wraps one registered backend (default: the fully optimized HINT^m
with a model-tuned ``m``) behind construction helpers, the
:meth:`IntervalStore.query` builder and batch execution; the underlying
:class:`repro.core.base.IntervalIndex` stays reachable via
:attr:`IntervalStore.index` for anything not yet surfaced here.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.allen import AllenRelation
from repro.core.base import IntervalIndex, QueryStats
from repro.core.errors import InvalidQueryError
from repro.core.interval import Interval, IntervalCollection, Query, _reject_repeated_ids
from repro.core.updates import UpdateFeed, UpdateListener
from repro.engine.batch import BatchResult, execute_batch
from repro.engine.executor import ProcessExecutor, resolve_executor
from repro.engine.registry import create_index, get_spec, resolve_backend
from repro.engine.results import ResultSet
from repro.obs import tracing

__all__ = ["DEFAULT_BACKEND", "IntervalStore", "QueryBuilder"]

#: backend used when the caller does not pick one
DEFAULT_BACKEND = "hintm_opt"


class QueryBuilder:
    """Fluent specification of one query against an :class:`IntervalStore`.

    Build up the query with :meth:`overlapping`/:meth:`stabbing`,
    optionally refine with :meth:`relation`/:meth:`limit`, then finish with
    a terminal accessor (:meth:`ids`, :meth:`count`, :meth:`exists`,
    :meth:`stats`) or take the lazy :meth:`build` handle.
    """

    __slots__ = ("_store", "_query", "_relation", "_limit")

    def __init__(self, store: "IntervalStore") -> None:
        self._store = store
        self._query: Optional[Query] = None
        self._relation: Optional[AllenRelation] = None
        self._limit: Optional[int] = None

    # ------------------------------------------------------------------ #
    # refinements (each returns self for chaining)
    # ------------------------------------------------------------------ #
    def overlapping(self, start: int, end: int) -> "QueryBuilder":
        """Select intervals overlapping the closed range ``[start, end]``."""
        self._query = Query(start, end)
        return self

    def stabbing(self, point: int) -> "QueryBuilder":
        """Select intervals containing ``point``."""
        self._query = Query.stabbing(point)
        return self

    def relation(self, relation: AllenRelation) -> "QueryBuilder":
        """Keep only intervals in the given Allen relation with the query."""
        if not isinstance(relation, AllenRelation):
            raise InvalidQueryError(f"expected an AllenRelation, got {relation!r}")
        self._relation = relation
        return self

    def limit(self, k: int) -> "QueryBuilder":
        """Report at most ``k`` ids."""
        if k < 1:
            raise InvalidQueryError(f"limit must be >= 1, got {k}")
        self._limit = k
        return self

    # ------------------------------------------------------------------ #
    # terminals
    # ------------------------------------------------------------------ #
    def build(self) -> ResultSet:
        """The lazy :class:`ResultSet` for the built query."""
        if self._query is None:
            raise InvalidQueryError(
                "no query target: call .overlapping(start, end) or .stabbing(point) first"
            )
        return self._store._result_set(self._query, self._relation, self._limit)

    def ids(self) -> np.ndarray:
        """Materialised result ids: the read-only int64 array
        :meth:`ResultSet.ids` returns.  A plain range or stab skips the
        handle, which only this call would ever read."""
        query = self._query
        if query is None or self._relation is not None or self._limit is not None:
            return self.build().ids()
        found = np.asarray(self._store._index.query(query), dtype=np.int64)
        found.setflags(write=False)  # half the cost of ``flags.writeable``
        return found

    def count(self) -> int:
        """Result count via the backend's counting fast path."""
        return self.build().count()

    def exists(self) -> bool:
        """True iff at least one interval matches."""
        return self.build().exists()

    def stats(self) -> QueryStats:
        """Instrumented counters of the underlying range query."""
        return self.build().stats()

    def __iter__(self):
        return iter(self.build())


class IntervalStore:
    """Facade tying a collection, a registered backend and the query API.

    Args:
        index: a pre-built index to wrap.
        backend: registry name for display/error messages (inferred from the
            index's own ``name`` when omitted).
    """

    def __init__(self, index: IntervalIndex, backend: Optional[str] = None) -> None:
        self._index = index
        if backend is None:
            try:
                backend = resolve_backend(index.name)
            except KeyError:
                backend = index.name
        self._backend = backend
        self._maintenance = None  # lazily created MaintenanceCoordinator
        #: the WAL/checkpoint manager of a durable store (``open(wal_dir=...)``)
        self._durability = None
        #: a StandingQueryManager recovered from a checkpoint's subscription
        #: registry (hand it to ``QueryServer(stream=...)`` so StreamClients
        #: catch up from their last ack instead of resyncing)
        self._restored_stream = None
        #: the one update contract for this store (generation, listeners,
        #: write lock), decided here and nowhere else: the index's own feed
        #: when it serialises its updates itself (hybrid, sharded), else a
        #: feed the store creates -- and then commits to -- for a plain backend
        self._commits_updates = index.updates is None
        self.updates = UpdateFeed() if self._commits_updates else index.updates

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def open(
        cls,
        collection: IntervalCollection,
        backend: str = DEFAULT_BACKEND,
        *,
        num_shards: "int | str" = 1,
        strategy: str = "equi_width",
        workers: "int | None" = None,
        executor: "ProcessExecutor | str | None" = None,
        wal_dir: "str | None" = None,
        fsync: str = "interval",
        **opts,
    ) -> "IntervalStore":
        """Index ``collection`` with a registered backend.

        A collection that repeats an id raises
        :class:`~repro.core.errors.InvalidIntervalError` naming the id: the
        backends would disagree on which rows answer it.

        On the HINT^m family, ``num_bits`` defaults to ``"auto"`` (the
        analytical model of Section 3.3 picks ``m``); pass an explicit value
        to override.

        With ``num_shards > 1`` the collection is split into time-range
        shards (see :mod:`repro.engine.sharding`) and the store wraps a
        :class:`repro.engine.sharded.ShardedIndex` -- the same facade, the
        same lazy :class:`ResultSet` handles, over a composite index.
        ``num_shards`` below 1 raises :class:`InvalidQueryError`.
        ``num_shards="auto"`` routes the choice of K through the extended
        Section 3.3 cost model
        (:func:`repro.engine.maintenance.recommend_shard_count`), which
        accounts for the backend's cost shape and the pool's size -- e.g.
        K=1 for a serially-driven HINT^m, K=workers with a process pool.

        ``executor="processes"`` (or a
        :class:`~repro.engine.executor.ProcessExecutor` instance, which
        stays the caller's to close) always means worker-resident shards:
        the store wraps a :class:`~repro.engine.sharded.ShardedIndex` at
        every K, one shard included, whose id batches run against shards
        built inside the workers over shared-memory columns; counts stay
        bisections in the calling process.  ``workers`` sizes that pool and
        means nothing without it.  No index is ever pickled into the pool.

        ``wal_dir`` makes the store *durable*: every insert/delete is
        appended to a checksummed write-ahead log in that directory before
        it mutates the index, and an existing directory is **recovered** --
        the log tail folded into the checkpoint's columns and the store built
        once over them, ``result_generation`` and standing-query
        subscriptions restored -- in which case the durable
        state wins over the passed ``collection``.  ``fsync`` picks the
        durability/throughput trade (``"always"``/``"interval"``/``"off"``,
        see :mod:`repro.durability.wal`).
        """
        if not isinstance(num_shards, str) and num_shards < 1:
            raise InvalidQueryError(f"num_shards must be >= 1, got {num_shards}")
        _reject_repeated_ids(collection.ids, "the collection")
        build_kwargs = dict(
            num_shards=num_shards, strategy=strategy, workers=workers, executor=executor, **opts
        )
        if wal_dir is not None:
            from repro.durability.manager import open_durable

            return open_durable(
                cls._build,
                collection,
                backend,
                wal_dir=wal_dir,
                fsync=fsync,
                open_kwargs=build_kwargs,
            )
        return cls._build(collection, backend, **build_kwargs)

    @classmethod
    def _build(
        cls,
        collection: IntervalCollection,
        backend: str,
        *,
        num_shards: "int | str",
        strategy: str,
        workers: "int | None",
        executor: "ProcessExecutor | str | None",
        **opts,
    ) -> "IntervalStore":
        """The store :meth:`open` describes, over ``collection`` as given: a
        durable store recovers through here, so a log tail that re-inserted
        a live id still opens."""
        # validates the spec; a pool starts lazily, so this one starts nothing
        pool = resolve_executor(executor, workers)
        if num_shards == "auto":
            from repro.engine.maintenance import recommend_shard_count

            num_shards = recommend_shard_count(
                collection,
                backend,
                executor="serial" if pool is None else "processes",
                workers=None if pool is None else pool.workers,
            )
        elif isinstance(num_shards, str):
            raise ValueError(
                f"num_shards must be an int or 'auto', got {num_shards!r}"
            )
        if num_shards > 1 or pool is not None:
            from repro.engine.sharded import ShardedIndex

            # the index resolves the spec again and so owns a pool it names
            return cls(
                ShardedIndex(
                    collection,
                    backend=backend,
                    num_shards=num_shards,
                    strategy=strategy,
                    executor=executor,
                    workers=workers,
                    **opts,
                )
            )
        spec = get_spec(backend)
        if spec.tunable and "num_bits" not in opts:
            opts["num_bits"] = "auto"
        return cls(create_index(backend, collection, **opts), backend=spec.name)

    @classmethod
    def from_intervals(
        cls, intervals: Iterable[Interval], backend: str = DEFAULT_BACKEND, **opts
    ) -> "IntervalStore":
        """Index :class:`Interval` records."""
        return cls.open(IntervalCollection.from_intervals(intervals), backend, **opts)

    @classmethod
    def from_pairs(
        cls,
        pairs: Iterable[Tuple[int, int]],
        backend: str = DEFAULT_BACKEND,
        first_id: int = 0,
        **opts,
    ) -> "IntervalStore":
        """Index ``(start, end)`` pairs with sequential ids."""
        return cls.open(
            IntervalCollection.from_pairs(pairs, first_id=first_id), backend, **opts
        )

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def index(self) -> IntervalIndex:
        """The wrapped :class:`IntervalIndex`."""
        return self._index

    @property
    def backend(self) -> str:
        """Registry name of the wrapped backend."""
        return self._backend

    @property
    def durability(self):
        """The :class:`~repro.durability.manager.DurabilityManager` of a
        durable store (``open(wal_dir=...)``), ``None`` otherwise."""
        return self._durability

    @property
    def restored_stream(self):
        """A :class:`~repro.stream.deltas.StandingQueryManager` recovered
        from the checkpoint's subscription registry, ``None`` when the
        store was not recovered (or had no subscriptions).  Hand it to
        ``QueryServer(stream=...)`` so reconnecting ``StreamClient``\\s
        catch up from their last acked generation instead of resyncing."""
        return self._restored_stream

    def __len__(self) -> int:
        return len(self._index)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"IntervalStore(backend={self._backend!r}, n={len(self._index)})"

    def memory_bytes(self) -> int:
        """Bytes the underlying index retains (its :meth:`memory_bytes` walk)."""
        return self._index.memory_bytes()

    def close(self) -> None:
        """Release the durable log and the index's resources.

        An index that owns resources -- a sharded index's pooled workers
        and shared-memory snapshot -- is closed too.  Long-lived
        applications that open many stores with a process pool should close
        them (or use the store as a context manager) so idle worker
        processes do not accumulate; a closed pooled store still answers,
        in-process.  A :class:`~repro.engine.executor.ProcessExecutor`
        instance the caller passed in is left running -- whoever created it
        owns its lifecycle.
        """
        if self._durability is not None:
            self._durability.close()
        close_index = getattr(self._index, "close", None)
        if close_index is not None:
            close_index()

    def __enter__(self) -> "IntervalStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def query(self) -> QueryBuilder:
        """Start a fluent query."""
        return QueryBuilder(self)

    def _result_set(
        self,
        query: Query,
        relation: Optional[AllenRelation],
        limit: Optional[int],
    ) -> ResultSet:
        """The lazy result handle for one query."""
        return ResultSet(
            self._index, query, relation=relation, limit=limit, backend=self._backend
        )

    def stab(self, point: int) -> np.ndarray:
        """Shorthand for ``store.query().stabbing(point).ids()``."""
        return self.query().stabbing(point).ids()

    def run_batch(
        self, queries: Sequence[Query], count_only: bool = False
    ) -> BatchResult:
        """Answer a whole workload in one batched call (a sharded index with a
        process pool fans its id batches out to the workers)."""
        with tracing.span(
            "run_batch", queries=len(queries), count_only=count_only
        ):
            return execute_batch(self._index, queries, count_only=count_only)

    def count_batch(self, queries: Sequence[Query]) -> List[int]:
        """Per-query overlap counts for a workload, positionally aligned.

        Routes through the index's batched hook: one vectorised bisection
        pair over its span table's count pair.
        """
        return self._index.query_count_batch(list(queries))

    def exists_batch(self, queries: Sequence[Query]) -> List[bool]:
        """Per-query existence probes for a workload, positionally aligned."""
        return self._index.query_exists_batch(list(queries))

    # ------------------------------------------------------------------ #
    # updates (delegated; backends may not support them)
    # ------------------------------------------------------------------ #
    def insert(self, interval: Interval) -> None:
        """Insert one interval (raises on static backends).

        Durable stores append the op to the write-ahead log *before* the
        index mutates: a crash after the append replays it on the next
        open, a crash before it means the insert was never acknowledged.
        ``updates.lock`` is held from the append to the commit, so
        concurrent writers log and apply in one order and the generation
        the WAL record predicts is the one the commit announces.  An interval
        the index would refuse is refused before the append, so the log only
        holds inserts that took effect.
        """
        with self.updates.lock:
            if self._durability is not None:
                self._index.validate(interval)
                self._durability.log_insert(interval)
            self._index.insert(interval)
            if self._commits_updates:
                self.updates.commit("insert", interval)

    def delete(self, interval_id: int) -> bool:
        """Delete an interval by id; True when the id was live."""
        with self.updates.lock:
            victim: Optional[Interval] = None
            if self._durability is not None or (
                self._commits_updates and self.updates.listening
            ):
                # resolve the span before the index forgets it: listeners
                # (the standing-query delta engine) route the delta by the
                # deleted interval's range, and the WAL records it for
                # debuggability
                victim = self._index._resolve_interval(interval_id)
            if self._durability is not None:
                self._durability.log_delete(interval_id, victim)
            found = self._index.delete(interval_id)
            if found and self._commits_updates:
                self.updates.commit("delete", victim)
            return found

    # ------------------------------------------------------------------ #
    # the update contract, by its public names (see repro.core.updates)
    # ------------------------------------------------------------------ #
    def add_update_listener(self, listener: UpdateListener) -> None:
        """Observe this store's updates: ``listener(op, interval, generation)``.

        ``op`` is ``"insert"``/``"delete"`` (fired after the mutation
        committed, with the post-commit :meth:`result_generation`) or
        ``"sync"`` (``interval`` is ``None``: an epoch publication moved the
        generation, or a rebuild / maintenance pass re-announced it, without
        changing the queryable contents).  Listeners run under
        ``updates.lock``, so they see events in exact generation order; they
        must not block or re-enter update methods.
        """
        self.updates.subscribe(listener)

    def remove_update_listener(self, listener: UpdateListener) -> None:
        self.updates.unsubscribe(listener)

    def result_generation(self) -> int:
        """Monotonic token identifying the current queryable contents.

        The token moves on every insert/delete and (for sharded indexes) on
        every epoch publication; the query server's result cache reads it
        before a query to refuse a fill an update overtook -- see
        :class:`repro.serve.cache.ResultCache`.  A plain backend's
        generation is counted by the store, which is why cache consumers
        must route its updates through the store (or the query server), not
        the raw index.
        """
        return self.updates.generation

    # ------------------------------------------------------------------ #
    # maintenance (rebuilds, re-partitions, snapshot refresh)
    # ------------------------------------------------------------------ #
    def maintenance(self, config=None):
        """This store's :class:`~repro.engine.maintenance.MaintenanceCoordinator`.

        Created lazily and cached; passing ``config`` replaces the cached
        coordinator.  The coordinator rebuilds hybrid
        deltas by the one rebuild rule, re-balances skewed cuts and
        refreshes the process pool's snapshot -- see :meth:`maintain` for
        the one-call form.
        """
        from repro.engine.maintenance import MaintenanceCoordinator

        if config is not None or self._maintenance is None:
            # hand the coordinator the store, not the raw index: checkpoint
            # integration needs the store's durability manager
            self._maintenance = MaintenanceCoordinator(self, config=config)
        return self._maintenance

    def maintain(self, force: bool = False, checkpoint: bool = False):
        """Run one maintenance pass; returns the
        :class:`~repro.engine.maintenance.MaintenanceReport`.

        ``checkpoint=True`` additionally writes the live collection's
        columns + generation + subscription registry to the durable store's
        checkpoint file and truncates dead WAL segments (requires
        ``open(wal_dir=...)``).
        """
        return self.maintenance().maintain(force=force, checkpoint=checkpoint)
