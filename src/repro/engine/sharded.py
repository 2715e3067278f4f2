"""Horizontally sharded execution over any registered backend.

:class:`ShardedIndex` composes the execution-layer pieces into one
:class:`repro.core.base.IntervalIndex`:

* the **partitioner** (:mod:`repro.engine.sharding`) splits the collection
  into K time-range shards, duplicating intervals that span shard
  boundaries;
* each shard is served by one index of **any registered backend** (default:
  the optimized HINT^m with per-shard model-tuned ``m``) -- copies for
  availability are whole processes behind :mod:`repro.cluster`, not
  in-process state;
* an optional **process pool** (:mod:`repro.engine.executor`) fans id
  batches out to worker-resident shards; without one everything runs
  inline.

Queries are *planned*: only the shards overlapping the query range are
probed, and multi-shard answers are deduplicated by id.  Updates are
*routed*: an insert goes to every shard whose range the new
interval overlaps (so with ``backend="hintm_hybrid"`` it lands in the owning
shard's delta index), and a delete probes only the shards its span overlaps
(a *locator* :class:`~repro.core.spans.SpanTable` is kept from build time).

Three consistency/execution mechanisms deserve detail:

**Epoch-based read snapshots.**  All partition-dependent state -- the plan,
the per-shard indexes and the locator table --
lives in one :class:`Epoch` object, and the index holds a single reference
to the current epoch.  Every query pins that reference *once* on entry and
runs entirely against the pinned epoch, so maintenance operations that
replace partition state (:meth:`ShardedIndex.repartition`) build a complete
fresh epoch off to the side and publish it with one atomic reference
assignment.  Readers therefore never observe a half-installed plan (new cuts
with old shards, or a locator that disagrees with the shards) and never
take a lock: a query racing a repartition sees either the old epoch or the
new one, both complete.  In-place updates (insert/delete) mutate the current
epoch under the update lock; a reader pinned to that epoch sees them
with the usual single-object update visibility, exactly as before.

**Counts read the locator.**  Boundary-spanning intervals are duplicated
across shards, but a count is taken over the *distinct* intervals: the
index has no count methods of its own, and the base class's count reads
:meth:`ShardedIndex._span_table` -- at K > 1 the locator, whose one count
pair (:class:`repro.core.spans.CountPair`, built on the first count)
answers ``[a, b]`` with two bisections however many shards the query
spans; at K == 1 the only shard's own table.  Counts run in the calling
process with or without a pool and, at K > 1, touch neither a shard index
nor the pool.

**Process fan-out: id batches.**  With a
:class:`~repro.engine.executor.ProcessExecutor` -- at any K, one shard
included -- the shard indexes live
inside the worker processes (:mod:`repro.engine._procworker`): the
collection's columns are published once through
``multiprocessing.shared_memory``, each worker attaches and builds the
shards it is asked about on first use, and a task is one shard's slice of
a materialising batch, answered with compact id arrays.  Updates stale the
worker-resident indexes, so an update-dirty index answers id batches
in-process until :meth:`ShardedIndex.refresh_snapshot`.  A task that fails
is retried against a respawned pool (fresh workers re-attach the snapshot
and rebuild their residencies -- per-worker healing), and only when every
worker path is exhausted does the task fall back to the epoch's in-process
shard indexes and the index-wide fan-out flag trip until the next refresh.

Maintenance -- rebuilding hybrid shard deltas by the one rebuild rule,
re-balancing cuts on skew and republishing the shared-memory snapshot so a
process executor regains fan-out after updates -- runs only when
:meth:`repro.engine.maintenance.MaintenanceCoordinator.maintain` is called;
the hooks it drives (:meth:`ShardedIndex.refresh_snapshot`,
:meth:`ShardedIndex.repartition`, :meth:`ShardedIndex.maintenance_state`)
live here.

``IntervalStore.open(num_shards=K)`` with K > 1 wraps a sharded index in
the same :class:`repro.engine.store.IntervalStore` facade as any other
backend: its lazy :class:`repro.engine.results.ResultSet` handles read the
merged ids from this index's own query methods, the count and
``exists`` from the locator, and :meth:`IntervalIndex.query_relation`
answers every Allen relation through the locator table.
"""

from __future__ import annotations

import itertools
import os
import time
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.base import IntervalIndex, QueryStats
from repro.core.errors import ReproError
from repro.core.interval import (
    HAS_SHARED_MEMORY,
    Interval,
    IntervalCollection,
    Query,
    SharedCollectionBuffer,
)
from repro.core.spans import SpanTable
from repro.core.updates import UpdateFeed
from repro.engine._procworker import (
    ShardResidencySpec,
    resident_summary,
    run_kernel_task,
)
from repro.engine.executor import ProcessExecutor, resolve_executor
from repro.engine.registry import create_index, get_spec, register_backend, resolve_backend
from repro.engine.results import merge_unique_ids
from repro.engine.sharding import ShardPlan, partition_collection, shard_mask
from repro.engine.store import DEFAULT_BACKEND
from repro.obs import global_registry, tracing

__all__ = ["Epoch", "ShardedIndex"]

#: process-unique source of residency tokens (see :mod:`repro.engine._procworker`)
_TOKENS = itertools.count()

#: engine-wide health counters on the process-global registry -- every
#: server's /metrics shows them via parent-chaining, and tests/operators
#: can watch worker-pool failures without holding a reference to any index
_KERNEL_RETRIES = global_registry().counter(
    "repro_kernel_retries_total",
    "kernel tasks resubmitted after a worker-pool failure",
)
_FANOUT_TRIPS = global_registry().counter(
    "repro_fanout_disabled_total",
    "times kernel fan-out tripped off after healing was exhausted",
)

#: how many worker-pool failures the index keeps for diagnostics
_FAILURE_HISTORY = 64


def _route(epoch: "Epoch", workload: Sequence[Query]) -> Dict[int, List[int]]:
    """Batch positions of the queries each shard of ``epoch`` overlaps."""
    per_shard: Dict[int, List[int]] = {}
    for position, query in enumerate(workload):
        first, last = epoch.plan.shard_range(query.start, query.end)
        for shard in range(first, last + 1):
            per_shard.setdefault(shard, []).append(position)
    return per_shard


def _merge_shard_answers(parts: List[Tuple[int, np.ndarray]]) -> np.ndarray:
    """One query's answer from its ``(shard, ids)`` parts: shard-ordered
    first-seen dedup, matching ``merge_unique_ids`` on the lone paths
    (parts arrive out of shard order when a failed kernel task degraded to
    the in-process fallback)."""
    if len(parts) == 1:
        return parts[0][1]
    parts.sort(key=lambda part: part[0])
    return merge_unique_ids(ids for _, ids in parts)


def _render_shards(shards: List[Optional[IntervalIndex]]) -> bool:
    """Render each built shard's id column; True when every shard then
    answers as text (an unbuilt shard or a backend without text cannot)."""
    for shard in shards:
        render = getattr(shard, "render_ids", None)
        if render is not None:
            render()
    return all(getattr(shard, "renders_ids", False) for shard in shards)


class Epoch:
    """One complete, consistent generation of a sharded index's partition state.

    Everything a reader needs to answer a query against one version of the
    partitioning -- the plan, the per-shard indexes and the locator table
    -- travels
    together in one object.  Queries pin the owning index's current epoch
    with a single reference read and never look back at the index for
    partition state, so maintenance replaces the whole epoch atomically
    (build aside, publish with one assignment) instead of mutating the parts
    under readers.

    Attributes:
        epoch_id: monotonically increasing generation number (0 at build).
        plan: the :class:`~repro.engine.sharding.ShardPlan` of this epoch.
        shards: one backend index per shard, in domain order.  ``None``
            marks a shard not yet built in this process (a process executor
            keeps shards worker-resident); :meth:`ShardedIndex._shard`
            builds it on demand from ``source``.  An update always builds
            the shards it touches *before* applying, so an unbuilt slot has
            absorbed no update since the epoch was installed and the source
            still reproduces it exactly.
        locator: the :class:`~repro.core.spans.SpanTable` of every live
            interval, and the owner of the epoch's count pair (``None`` at
            K == 1: the only shard's own table serves).
        source: the collection this epoch's lazy shard builds draw from;
            kept content-equivalent to the build state of the epoch (updates
            route through built shards, and snapshot refreshes replace it
            with the equivalent live collection).  ``None`` when every shard
            was built at install (no pool) -- nothing would ever
            read it, and pinning the build collection for the index's
            lifetime would be dead memory.
    """

    __slots__ = ("epoch_id", "plan", "shards", "locator", "source")

    def __init__(
        self,
        epoch_id: int,
        plan: ShardPlan,
        shards: List[Optional[IntervalIndex]],
        locator: Optional[SpanTable],
        source: Optional[IntervalCollection],
    ) -> None:
        self.epoch_id = epoch_id
        self.plan = plan
        self.shards = shards
        self.locator = locator
        self.source = source

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Epoch(id={self.epoch_id}, K={self.plan.num_shards})"


@register_backend(
    "sharded",
    aliases=("sharded-store",),
    description="K time-range shards over any registered backend, parallel executors",
    paper_section="--",
    composite=True,
)
class ShardedIndex(IntervalIndex):
    """K time-range shards, each backed by a registered index.

    Args:
        collection: the intervals to index.
        backend: registry name of the per-shard backend (aliases accepted).
            Tunable backends default to ``num_bits="auto"``, so each shard's
            ``m`` is model-tuned for *its* sub-collection.
        num_shards: requested shard count K; degenerate domains may yield
            fewer (see :meth:`ShardPlan.for_collection`).
        strategy: ``"equi_width"`` or ``"balanced"`` cut selection.
        executor: ``None``/``"serial"`` builds and answers every shard in
            this process; ``"processes"`` or a
            :class:`repro.engine.executor.ProcessExecutor` instance keeps
            the shards worker-resident and fans id batches out to them.
        workers: size of the process pool (``executor="processes",
            workers=4``).
        **opts: forwarded to every shard's backend constructor.
    """

    name = "sharded"

    def __init__(
        self,
        collection: IntervalCollection,
        backend: str = DEFAULT_BACKEND,
        num_shards: int = 4,
        strategy: str = "equi_width",
        executor: "ProcessExecutor | str | None" = None,
        workers: "int | None" = None,
        **opts,
    ) -> None:
        self._backend = resolve_backend(backend)
        spec = get_spec(self._backend)
        if spec.composite:
            raise ValueError("sharded indexes cannot nest another composite backend")
        opts = dict(opts)
        if spec.tunable and "num_bits" not in opts:
            opts["num_bits"] = "auto"
        self._opts = opts
        # a caller-supplied pool stays the caller's to close; one the index
        # resolved from a spec is its own
        self._owns_executor = not isinstance(executor, ProcessExecutor)
        self._executor = resolve_executor(executor, workers)
        #: the update contract (generation, listeners, write lock).  The
        #: lock serialises updates against maintenance operations that
        #: replace the partition state (repartition, snapshot refresh,
        #: close): an insert landing between a concurrent repartition's
        #: live-collection snapshot and its install would otherwise be
        #: silently discarded -- a lost update, not a visibility glitch.
        #: The coordinator holds it across a whole pass so per-shard
        #: rebuilds cannot discard a concurrent foreground update.  Queries
        #: stay lock-free: they pin the current epoch and never take it.
        #: The generation is bumped by every insert/delete and every epoch
        #: publication, so result caches keyed on it invalidate by
        #: construction (see :mod:`repro.serve.cache`).
        self.updates = UpdateFeed()
        self._dirty = False  # set by updates; disables the process snapshot
        self._closed = False  # close() is terminal for snapshot publication
        #: stable identity of this index across snapshot generations (the
        #: worker residency cache evicts older generations of the same uid)
        self._uid = f"{os.getpid()}-{next(_TOKENS)}"
        self._generation = 0
        self._publications = 0  # how many snapshots this index ever published
        self._epochs_installed = 0  # source of Epoch.epoch_id values
        #: worker-pool failures disable process fan-out until the next
        #: snapshot refresh replaces the pool's resident state -- but only
        #: after per-worker healing (respawn + retry) is exhausted
        self._fanout_disabled = False
        #: kernel tasks that failed once and were retried against a healed
        #: pool (cumulative; surfaced by ``maintenance_state`` and /stats)
        self.kernel_retries = 0
        #: error strings of the most recent worker-pool failures
        self._failures: Deque[str] = deque(maxlen=_FAILURE_HISTORY)
        #: :func:`time.time` of the last snapshot publication, ``None``
        #: before the first one (surfaced by ``maintenance_state``)
        self.last_refresh: Optional[float] = None
        self._shared: Optional[SharedCollectionBuffer] = None
        self._residency: Optional[ShardResidencySpec] = None
        #: True once :meth:`render_ids` rendered every shard; each epoch
        #: installed after it renders its fresh shards before publishing
        self._renders_ids = False
        plan = ShardPlan.for_collection(collection, num_shards, strategy)
        self._install_partition(collection, plan)

    def _install_partition(
        self, collection: IntervalCollection, plan: ShardPlan
    ) -> None:
        """Build a complete fresh :class:`Epoch` for ``collection`` and publish it.

        Shared by construction and :meth:`repartition`: the plan, the
        locator, and the per-shard indexes -- built
        here in-process, lazy (worker-resident over a fresh shared-memory
        snapshot) under a process executor -- are assembled
        off to the side and installed with one atomic reference assignment,
        so concurrent readers see either the previous epoch or this one,
        never a mix.  At K > 1 the shards, the locator's count pair and the
        snapshot all draw from the locator's rows, so a build that repeats
        an id keeps its last row everywhere.
        """
        #: updates absorbed since this partition was installed; skew-driven
        #: re-partitioning only triggers once this is non-zero (build-time
        #: skew reflects the caller's explicit strategy choice, drift does not)
        self.updates_since_partition = 0
        locator: Optional[SpanTable] = None
        if plan.num_shards > 1:
            locator = SpanTable(collection)
            collection = locator.collection()
        self._size = len(collection)
        pieces = partition_collection(collection, plan)

        # --- shard construction: built here in-process, lazy for process fan-out ---
        lazy = self._executor is not None
        if lazy:
            # shard indexes are built worker-resident on first task; the
            # parent keeps only a reference to the source collection (the
            # masked pieces above are dropped) and builds a local index
            # lazily when a non-batch code path needs one (single queries,
            # updates, stats)
            shards: List[Optional[IntervalIndex]] = [None] * plan.num_shards
        else:
            shards = [create_index(self._backend, piece, **self._opts) for piece in pieces]
        if self._renders_ids:
            # before the publish: no reader finds a fresh shard without text
            self._renders_ids = _render_shards(shards)
        epoch = Epoch(
            epoch_id=self._epochs_installed,
            plan=plan,
            shards=shards,
            locator=locator,
            # lazy builds draw from the source; an in-process install has no
            # lazy build left, so pinning the collection would be dead memory
            source=collection if lazy else None,
        )
        self._epochs_installed += 1
        # the publish: one reference assignment -- in-flight readers keep
        # the epoch they pinned, new readers get this one, nobody sees a mix
        self._epoch = epoch
        # the generation moved but the contents did not: a "sync", not a
        # delta -- standing queries must not see phantom changes from an
        # epoch publication
        self.updates.sync(bump=True)
        if lazy:
            self._republish_snapshot(collection)

    def _shard(self, epoch: Epoch, shard_id: int) -> IntervalIndex:
        """One shard's index of ``epoch``, built from the source if still lazy.

        Only a process executor leaves shards unbuilt in the parent.  The
        build runs under the update lock so it serialises against
        whole update operations -- a half-applied insert can neither be
        missed nor double-counted by the fresh index -- and updates build
        the shards they touch before applying (see :class:`Epoch`), so the
        source still equals the live contents of any shard built here.
        """
        index = epoch.shards[shard_id]
        if index is None:
            with self.updates.lock:
                index = epoch.shards[shard_id]
                if index is None:
                    source, plan = epoch.source, epoch.plan
                    if plan.num_shards > 1:
                        source = source.take(shard_mask(source, plan.cuts, shard_id))
                    index = create_index(self._backend, source, **self._opts)
                    epoch.shards[shard_id] = index
        return index

    def _republish_snapshot(self, collection: IntervalCollection) -> None:
        """Publish ``collection`` as the shared-memory snapshot (process mode).

        Every publication gets a fresh residency-token generation so pooled
        workers never mistake a new snapshot for a cached one -- including
        the close-then-refresh case, where the previous generation's tokens
        may still be resident in workers while their block is gone.
        """
        old, self._shared = self._shared, None
        if HAS_SHARED_MEMORY and len(collection) and not self._closed:
            self._shared = SharedCollectionBuffer(collection)
            self._generation = self._publications
            self._publications += 1
            self.last_refresh = time.time()
        self._residency = None
        self._dirty = False
        self._fanout_disabled = False  # a fresh pool/snapshot heals dead workers
        if old is not None:
            old.unlink()

    @classmethod
    def build(cls, collection: IntervalCollection, **kwargs) -> "ShardedIndex":
        return cls(collection, **kwargs)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def backend(self) -> str:
        """Canonical registry name of the per-shard backend."""
        return self._backend

    @property
    def num_shards(self) -> int:
        """Actual shard count (may be below the requested K on tiny domains)."""
        return self._epoch.plan.num_shards

    @property
    def shards(self) -> List[IntervalIndex]:
        """The per-shard indexes, in domain order (built on demand)."""
        epoch = self._epoch
        return [self._shard(epoch, shard) for shard in range(epoch.plan.num_shards)]

    @property
    def plan(self) -> ShardPlan:
        """The current epoch's partitioning plan (cut points + strategy)."""
        return self._epoch.plan

    @property
    def epoch(self) -> int:
        """Generation number of the current read epoch (0 at build).

        Bumped by every :meth:`repartition` that installs a new plan --
        which is what lets tests assert that readers never saw a
        half-installed partition, and what result caches key on.
        """
        return self._epoch.epoch_id

    @property
    def executor(self) -> Optional[ProcessExecutor]:
        """The process pool id batches fan out to (``None``: all inline)."""
        return self._executor

    @property
    def built_shards(self) -> List[Optional[IntervalIndex]]:
        """Per-shard indexes already built in this process (``None`` = lazy).

        Unlike :attr:`shards` this never forces a build -- maintenance uses
        it so a process-executor index with worker-resident shards is not
        duplicated into the parent just to inspect delta sizes.
        """
        return list(self._epoch.shards)

    @property
    def snapshot_generation(self) -> int:
        """Residency-token generation of the current shared-memory snapshot.

        Bumped every time the snapshot is republished
        (:meth:`refresh_snapshot`, :meth:`repartition`), which is what lets
        tests and operators assert that process fan-out was restored without
        relying on timing.
        """
        return self._generation

    @property
    def update_dirty(self) -> bool:
        """True when updates since the last publication staled the snapshot."""
        return self._dirty

    def recent_failures(self) -> List[str]:
        """Error strings of the most recent worker-pool failures, oldest first."""
        return list(self._failures)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"ShardedIndex(backend={self._backend!r}, K={self.num_shards}, "
            f"strategy={self.plan.strategy!r}, executor={self._executor!r}, "
            f"n={self._size})"
        )

    # ------------------------------------------------------------------ #
    # maintenance hooks (driven by MaintenanceCoordinator)
    # ------------------------------------------------------------------ #
    def live_collection(self) -> IntervalCollection:
        """The current live intervals: one vectorised pass over the table,
        serialised against updates.  An update-clean K == 1 index under a
        process executor answers from the epoch source instead of building
        its worker-resident shard in the parent."""
        with self.updates.lock:
            epoch = self._epoch
            if epoch.locator is None and not self._dirty and epoch.source is not None:
                return epoch.source
            return super().live_collection()

    def refresh_snapshot(self) -> bool:
        """Republish the live collection so process fan-out resumes.

        Updates stale the worker-resident shards, demoting batches to
        in-process execution.  Refreshing publishes a new shared-memory
        snapshot of the live collection and bumps the residency-token
        generation: the next batch hands workers the new token, they rebuild
        their shards from the fresh columns and evict the superseded
        residency.  True when a new snapshot was published (requires a
        process executor and platform shared memory); False otherwise.
        """
        if self._executor is None or not HAS_SHARED_MEMORY:
            return False
        with self.updates.lock:
            if self._closed:
                # a pass on another thread racing close() must not resurrect the
                # snapshot: nothing would ever unlink the fresh segment
                return False
            live = self.live_collection()
            # content-equivalent replacement: lazy builds against this epoch
            # draw the same shard contents from the refreshed collection
            self._epoch.source = live
            self._republish_snapshot(live)
            return self._shared is not None

    def repartition(
        self, num_shards: Optional[int] = None, strategy: Optional[str] = None
    ) -> bool:
        """Re-balance the shard cuts from the live collection, online.

        Plans fresh cuts over the *live* data (default: the current K and
        strategy -- pass ``strategy="balanced"`` to rebalance skew), then
        builds a complete fresh epoch from it: every shard and the
        locator.  Hybrid deltas are folded into the fresh
        shard builds, and under a process executor a new snapshot generation
        is published.  The new epoch is installed with one atomic reference
        assignment, so concurrent queries see either the old partition state
        or the new one -- never a half-installed plan.  False when the fresh
        plan matches the current cuts (nothing to do) -- which also resets
        the drift counter, so a stably-skewed index does not pay this
        live-collection materialisation on every maintenance pass.  Updates
        serialise against the install through the update lock.
        """
        with self.updates.lock:
            live = self.live_collection()
            plan = ShardPlan.for_collection(
                live,
                num_shards if num_shards is not None else self.plan.num_shards,
                strategy if strategy is not None else self.plan.strategy,
            )
            if plan.cuts == self.plan.cuts:
                self.updates_since_partition = 0  # re-validated against live data
                return False
            self._install_partition(live, plan)
            self._dirty = False
            return True

    def maintenance_state(self) -> Dict[str, object]:
        """Ingest/maintenance snapshot: pending updates, shard sizes, deltas,
        generations.

        ``copies_per_shard`` is each shard's interval copies, read off the
        locator's count pair (building it on first use) as the count over
        the shard's closed domain range; ``pending`` is the updates then
        buffered in that pair, not yet folded into its sorted columns.
        """
        epoch = self._epoch
        locator = epoch.locator
        if locator is None:
            pending, copies = 0, [len(self)]
        else:
            cuts = np.asarray(epoch.plan.cuts, dtype=np.int64)
            limits = np.iinfo(np.int64)
            copies = locator.count(
                np.append(limits.min, cuts), np.append(cuts - 1, limits.max)
            ).tolist()
            pending = locator.pair.used
        return {
            "num_shards": epoch.plan.num_shards,
            "cuts": tuple(epoch.plan.cuts),
            "pending": pending,
            "copies_per_shard": copies,
            "delta_per_shard": [
                int(getattr(shard, "delta_size", 0)) if shard is not None else None
                for shard in self.built_shards
            ],
            "epoch": epoch.epoch_id,
            "result_generation": self.updates.generation,
            "snapshot_generation": self._generation,
            "snapshot_published": self._shared is not None,
            "update_dirty": self._dirty,
            "updates_since_partition": self.updates_since_partition,
            "last_refresh": self.last_refresh,
            "fanout_disabled": self._fanout_disabled,
            "kernel_retries": self.kernel_retries,
        }

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Release pooled workers (if owned) and the shared-memory snapshot.

        Idempotent.  A pool that was *passed in* is left running -- its
        owner decides when to close it; one the index created itself (from
        ``executor="processes"``) is shut down here.
        """
        with self.updates.lock:
            self._closed = True
            if self._owns_executor and self._executor is not None:
                self._executor.close()
            if self._shared is not None:
                self._shared.unlink()
                self._shared = None
                self._residency = None

    def __enter__(self) -> "ShardedIndex":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # queries (pin the epoch, plan to the overlapping shards, merge+dedup)
    # ------------------------------------------------------------------ #
    def query(self, query: Query) -> Sequence[int]:
        return self._query_epoch(self._epoch, query)

    def render_ids(self) -> None:
        """Render every shard's id column as text, for :meth:`ids_text`
        (see :meth:`OptimizedHINTm.render_ids
        <repro.hint.optimized.OptimizedHINTm.render_ids>`).  Shards a
        process executor keeps worker-resident, and backends that cannot
        render, leave :attr:`renders_ids` False."""
        with self.updates.lock:  # not between a repartition's build and publish
            self._renders_ids = _render_shards(self._epoch.shards)

    @property
    def renders_ids(self) -> bool:
        """True while :meth:`ids_text` answers: every shard renders."""
        return self._renders_ids

    def ids_text(self, query: Query) -> Optional[Tuple[bytes, int]]:
        """``(text, count)`` of :meth:`query`'s answer, in its order: the
        text of the one shard the query overlaps, or the merged ids of the
        shards it spans rendered here -- or None unless :attr:`renders_ids`."""
        if not self._renders_ids:
            return None
        epoch = self._epoch
        first, last = epoch.plan.shard_range(query.start, query.end)
        if first == last:
            shard = epoch.shards[first]
            return None if shard is None else shard.ids_text(query)
        ids = self._query_epoch(epoch, query)
        return ",".join(map(str, ids.tolist())).encode(), len(ids)

    def _query_epoch(self, epoch: Epoch, query: Query) -> Sequence[int]:
        first, last = epoch.plan.shard_range(query.start, query.end)
        if first == last:
            return self._shard(epoch, first).query(query)
        return merge_unique_ids(
            self._shard(epoch, shard).query(query)
            for shard in range(first, last + 1)
        )

    def _process_fanout_ready(self) -> bool:
        """True while worker-resident id batches are sound.

        Requires a process executor with real parallelism, a live
        shared-memory snapshot to hand to workers (absent on platforms
        without ``multiprocessing.shared_memory``, and gone once
        :meth:`close` unlinked it -- collections are never re-pickled per
        task), a clean snapshot (worker-resident shard indexes are stale
        after an update), and no unhealed worker-pool failure (healing is
        per-worker: the flag only trips once respawn-and-retry is
        exhausted).
        """
        return (
            self._executor is not None
            and self._executor.workers > 1
            and not self._dirty
            and not self._fanout_disabled
            and self._shared is not None
        )

    def query_batch(self, queries: Sequence[Query]) -> List[np.ndarray]:
        workload = list(queries)
        epoch = self._epoch
        if workload and self._process_fanout_ready():
            return self._query_batch_processes(epoch, workload)
        # a pool that cannot use the worker-resident path runs in-process:
        # no index is ever shipped to a worker
        return self._query_batch_local(epoch, workload)

    def _query_batch_local(self, epoch: Epoch, workload: List[Query]) -> List[np.ndarray]:
        """In-process batch: each shard answers the queries it overlaps with
        one call of its own batched hook."""
        per_query: List[List[Tuple[int, np.ndarray]]] = [[] for _ in workload]
        for shard, positions in sorted(_route(epoch, workload).items()):
            answers = self._shard(epoch, shard).query_batch([workload[p] for p in positions])
            for position, ids in zip(positions, answers):
                per_query[position].append((shard, ids))
        return [_merge_shard_answers(parts) for parts in per_query]

    # ------------------------------------------------------------------ #
    # process fan-out: worker-resident shards, compact id-array transport
    # ------------------------------------------------------------------ #
    def _residency_spec(self, epoch: Epoch) -> ShardResidencySpec:
        """The worker-residency spec for a batch pinned to ``epoch``.

        The cuts MUST come from the pinned epoch -- the batch grouped its
        queries by them -- and the token carries the epoch id, so a reader
        still on the previous epoch during a repartition gets its own
        residency (old-cut shards over the content-equivalent fresh
        snapshot) instead of colliding with new-cut residencies in the
        workers.
        """
        spec = self._residency
        if (
            spec is None
            or spec.generation != self._generation
            or spec.cuts != epoch.plan.cuts
        ):
            spec = ShardResidencySpec(
                token=f"{self._uid}:g{self._generation}:e{epoch.epoch_id}",
                handle=self._shared.handle,
                cuts=epoch.plan.cuts,
                backend=self._backend,
                opts=tuple(sorted(self._opts.items())),
                uid=self._uid,
                generation=self._generation,
            )
            self._residency = spec
        return spec

    def _dispatch_kernel_tasks(
        self, tasks: List[Tuple]
    ) -> Tuple[List[Optional[Tuple]], List[int]]:
        """Run kernel tasks on the worker pool with per-worker healing.

        Returns ``(results, failed)``: per-task results positionally
        aligned with ``tasks`` (``None`` where a task failed), plus the
        indices of tasks no worker path could answer.  A first failure
        round records the error, respawns the pool (fresh workers
        re-attach the shared snapshot and rebuild their residencies on
        first use) and resubmits only the failed tasks; the index-wide
        fan-out flag trips only when the retry round fails too.  On a
        *shared* pool the respawn is token-coordinated (see
        :meth:`ProcessExecutor.respawn`): if another index already replaced the
        pool while this batch was in flight -- which is exactly what made
        our submits fail -- we skip the redundant shutdown and just retry
        on the fresh pool, so sharing indexes heal each other instead of
        tripping each other's kill-switches.  Callers answer the
        still-failed tasks against the epoch's in-process shard indexes,
        so a mid-batch worker kill degrades per worker, never to a wrong
        or missing answer.
        """
        results: List[Optional[Tuple]] = [None] * len(tasks)
        pending = list(range(len(tasks)))
        # trace context at submit time: tasks stay 4-tuples in `tasks` (the
        # failed-task fallback unpacks them), the optional 5th element rides
        # only on the submitted copy.  The retry round gets its own
        # "kernel_retry" parent span, so a SIGKILLed worker's resubmission
        # shows up as a distinct subtree in the query's trace.
        trace_ctx = tracing.current()
        with tracing.span("kernel_dispatch", tasks=len(tasks)) as dispatch_span:
            for attempt in (0, 1):
                if trace_ctx is None:
                    task_ctx = None
                elif attempt == 0:
                    task_ctx = (trace_ctx[0].trace_id, dispatch_span["span_id"])
                else:
                    retry_record = tracing.new_span_record(
                        trace_ctx[0].trace_id,
                        dispatch_span["span_id"],
                        "kernel_retry",
                        {"tasks": len(pending)},
                    )
                    trace_ctx[0].add(retry_record)
                    task_ctx = (trace_ctx[0].trace_id, retry_record["span_id"])
                pool_token = self._executor.pool_token()
                failed: List[int] = []
                error: Optional[str] = None
                try:
                    futures = [
                        (
                            index,
                            self._executor.submit(
                                run_kernel_task,
                                tasks[index] + (task_ctx,)
                                if task_ctx is not None
                                else tasks[index],
                            ),
                        )
                        for index in pending
                    ]
                except ReproError:
                    raise
                except Exception as exc:  # pool already broken at submit time
                    failed = list(pending)
                    error = f"{type(exc).__name__}: {exc}"
                else:
                    for index, future in futures:
                        try:
                            result = future.result()
                        except ReproError:
                            raise
                        except Exception as exc:
                            failed.append(index)
                            if error is None:
                                error = f"{type(exc).__name__}: {exc}"
                        else:
                            if trace_ctx is not None and len(result) > 3:
                                trace_ctx[0].absorb([result[3]])
                            results[index] = result[:3]
                if not failed:
                    return results, []
                self._failures.append(error or "worker kernel task failed")
                pending = failed
                if attempt == 0:
                    self.kernel_retries += len(failed)
                    _KERNEL_RETRIES.inc(len(failed))
                    self._executor.respawn(pool_token)
        self._fanout_disabled = True
        _FANOUT_TRIPS.inc()
        return results, pending

    def _query_batch_processes(
        self, epoch: Epoch, workload: List[Query]
    ) -> List[np.ndarray]:
        """Fan a materialising batch out as worker-resident kernel tasks.

        Queries are grouped by the shard they overlap; each task ships only
        ``(spec, shard_id, positions, queries)`` and returns compact
        id arrays, merged per query by :func:`_merge_shard_answers`.  Tasks
        that exhaust every worker path (see :meth:`_dispatch_kernel_tasks`)
        fall back per (query, shard) to the epoch's in-process shard
        indexes: the batch still answers, degraded only where the pool
        failed.
        """
        per_shard = _route(epoch, workload)
        spec = self._residency_spec(epoch)
        # split each shard's slice so there is work for every pool worker
        # even when K < workers -- a batch confined to one shard still fans
        # its queries out instead of serialising in the parent
        slices_per_shard = max(1, -(-self._executor.workers // max(1, len(per_shard))))
        tasks: List[Tuple] = []
        for shard, positions in sorted(per_shard.items()):
            pos = np.asarray(positions, dtype=np.int64)
            for piece in np.array_split(pos, min(slices_per_shard, len(pos))):
                if len(piece):
                    tasks.append((spec, shard, piece, [workload[p] for p in piece.tolist()]))
        if len(tasks) <= 1 and len(workload) <= 1:
            # a lone single-shard query is not worth a pool round trip; the
            # local shards answer it with no transport at all.  A lone task
            # holding *several* queries (a batch confined to one shard) was
            # already split above, and a surviving lone task still runs in a
            # worker -- ProcessExecutor.submit never inlines pooled work
            return self._query_batch_local(epoch, workload)
        mapped, failed = self._dispatch_kernel_tasks(tasks)
        per_query: List[List[Tuple[int, np.ndarray]]] = [[] for _ in workload]
        for result in mapped:
            if result is None:
                continue
            shard, positions, answers = result
            for position, ids in zip(positions, answers):
                per_query[int(position)].append((shard, ids))
        for task_index in failed:
            # every worker path was exhausted for this slice: answer its
            # (query, shard) pairs against the epoch's in-process shards
            _, shard, positions, queries = tasks[task_index]
            for position, query in zip(positions, queries):
                ids = self._shard(epoch, shard).query(query)
                per_query[int(position)].append(
                    (shard, np.asarray(ids, dtype=np.int64))
                )
        return [_merge_shard_answers(parts) for parts in per_query]

    def worker_residencies(self) -> Dict[int, Tuple[str, ...]]:
        """Best-effort per-worker map of resident snapshot tokens, by pid.

        Samples the pool by mapping :func:`resident_summary` over more
        items than there are workers; no pool, a one-worker pool or a
        broken pool yields ``{}`` (observability must never take the
        serving path down).
        """
        if self._executor is None or self._executor.workers < 2:
            return {}
        try:
            samples = self._executor.map(
                resident_summary, list(range(self._executor.workers * 2))
            )
        except Exception:
            return {}
        return {int(pid): tuple(tokens) for pid, tokens in samples}

    def query_with_stats(self, query: Query) -> Tuple[Sequence[int], QueryStats]:
        epoch = self._epoch
        first, last = epoch.plan.shard_range(query.start, query.end)
        if first == last:
            return self._shard(epoch, first).query_with_stats(query)
        answers = [
            self._shard(epoch, shard).query_with_stats(query)
            for shard in range(first, last + 1)
        ]
        stats = QueryStats()
        for _, shard_stats in answers:
            stats.merge(shard_stats)
        merged = merge_unique_ids(ids for ids, _ in answers)
        stats.results = len(merged)
        return merged, stats

    # ------------------------------------------------------------------ #
    # updates (routed to the owning shards)
    # ------------------------------------------------------------------ #
    def insert(self, interval: Interval) -> None:
        """Insert into every shard the interval overlaps.

        With a hybrid backend each copy lands in the owning shard's delta
        index; static backends raise ``NotImplementedError`` as usual.
        A still-lazy owning shard is built first (from the epoch source,
        which still equals its live contents), so no shard is ever built
        after an update it should hold.  The locator entry (and with it the
        count pair's O(1) record) is made once, and only after every owning
        shard accepted the copy, so a failing shard leaves the bookkeeping
        untouched.
        Updates invalidate the process-executor snapshot: later batches run
        in-process until :meth:`refresh_snapshot` republishes it.
        """
        with self.updates.lock:
            epoch = self._epoch
            first, last = epoch.plan.shard_range(interval.start, interval.end)
            for shard in range(first, last + 1):
                self._shard(epoch, shard).insert(interval)
            # bookkeeping only after *all* owning shards took the copy: a
            # raise above (static backend, bad interval) must not desync the
            # locator from the shard contents
            if epoch.locator is not None:
                epoch.locator.add(interval)
            self._size += 1
            self._dirty = True
            self.updates_since_partition += 1
            self.updates.commit("insert", interval)

    def validate(self, interval: Interval) -> None:
        """Every shard the interval overlaps must accept it."""
        epoch = self._epoch
        first, last = epoch.plan.shard_range(interval.start, interval.end)
        for shard in range(first, last + 1):
            self._shard(epoch, shard).validate(interval)

    def delete(self, interval_id: int) -> bool:
        """Tombstone ``interval_id`` in the shards holding a copy.

        One table probe (the locator; at K == 1 the only shard's own table)
        resolves the victim's span, which bounds the delete to the owning
        shards instead of all K; an id the index never saw returns False
        without touching any shard.  The locator entry is only removed
        after every owning shard was probed, so a
        shard raising mid-delete leaves the bookkeeping consistent and the
        delete retryable.  True when any copy was live.
        """
        with self.updates.lock:
            epoch = self._epoch
            victim = self._resolve_interval(interval_id)
            if victim is None:
                return False
            first, last = epoch.plan.shard_range(victim.start, victim.end)
            found = False
            for shard in range(first, last + 1):
                found = self._shard(epoch, shard).delete(interval_id) or found
            if found:
                if epoch.locator is not None:
                    epoch.locator.remove(interval_id)
                self._size -= 1
                self._dirty = True
                self.updates_since_partition += 1
                self.updates.commit("delete", victim)
            return found

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        """Number of live *distinct* intervals (duplicates counted once)."""
        return self._size

    def _span_table(self) -> SpanTable:
        """K > 1 reads the locator; K == 1 delegates to the only shard."""
        epoch = self._epoch
        if epoch.locator is not None:
            return epoch.locator
        return self._shard(epoch, 0)._span_table()
