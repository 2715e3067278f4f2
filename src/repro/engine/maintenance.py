"""Index-lifecycle maintenance: shard-count model, coordinator.

The hybrid HINT^m of the paper (Sections 3.4/4.4) has one update rule: a
delta index absorbs the inserts and the main index is rebuilt from time to
time in one batch.  This module carries that rule across the shard
boundary.  Two pieces compose:

* :func:`recommend_shard_count` -- the Section 3.3 cost model **extended to
  choose K**: scan-bound backends gain ~K from shard pruning even serially,
  traversal-bound backends (the HINT^m family) only win when a process
  executor divides the work across cores -- so the model prefers K=1 for
  ``hintm`` serially and K=cores under processes.
* :class:`MaintenanceCoordinator` -- owns the lifecycle of one
  :class:`~repro.engine.sharded.ShardedIndex` (or a plain hybrid index).
  Nothing runs in the background: each explicit
  :meth:`~MaintenanceCoordinator.maintain` call rebuilds every hybrid
  shard whose delta or tombstones reached the rebuild rule (at least
  :data:`REBUILD_FRACTION` of its main index and at least
  :data:`REBUILD_MIN_DELTA` intervals), re-balances cuts when skew drifts
  past a threshold (**adaptive re-partitioning**), and republishes the
  shared-memory snapshot so a process executor regains fan-out
  (**snapshot refresh**).

Counts need no pass: every index counts through the count pair of its id
-> span table (:class:`repro.core.spans.CountPair`), which folds its own
buffered updates once the buffer is full.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.interval import IntervalCollection
from repro.engine.executor import _default_workers, _not_an_executor
from repro.engine.registry import resolve_backend
from repro.obs import global_registry

#: process-global maintenance health: pass count and wall-time distribution
_MAINTENANCE_PASSES = global_registry().counter(
    "repro_maintenance_passes_total", "maintenance passes completed"
)
_MAINTENANCE_SECONDS = global_registry().histogram(
    "repro_maintenance_seconds", "wall time of one maintenance pass"
)

__all__ = [
    "MaintenanceConfig",
    "MaintenanceCoordinator",
    "MaintenanceReport",
    "recommend_shard_count",
]

#: the rebuild rule: an unforced pass rebuilds a hybrid shard once its delta's
#: inserts, or its main index's tombstones, reach this fraction of the main
#: index ...
REBUILD_FRACTION = 0.1
#: ... and at least this many intervals, so tiny shards do not churn
REBUILD_MIN_DELTA = 64

#: backends whose per-query cost scales with the amount of data scanned --
#: shard pruning alone buys ~K on these, even serially.  Everything else is
#: treated as traversal-/result-bound (the HINT family, the interval tree):
#: per-query cost barely shrinks with shard size, so sharding only pays when
#: an executor adds real parallelism.
SCAN_BOUND_BACKENDS = frozenset({"naive", "grid1d"})


# --------------------------------------------------------------------------- #
# adaptive shard count (Section 3.3 cost model, extended to K)
# --------------------------------------------------------------------------- #
def recommend_shard_count(
    collection: IntervalCollection,
    backend: str = "hintm_opt",
    *,
    executor: str = "serial",
    workers: Optional[int] = None,
    query_extent_fraction: float = 0.001,
    max_shards: int = 16,
) -> int:
    """Model-recommended shard count K for a workload and execution strategy.

    Extends the Section 3.3 per-index cost model across the sharding axis.
    For each candidate K the expected per-query cost is

    ``probed(K) * (tau + work_per_shard(K)) / parallelism(K)``

    where ``probed(K) = 1 + extent * K / domain`` is the expected number of
    shards a query overlaps, ``tau`` is the fixed Python dispatch cost per
    probed shard, and duplication inflates each shard to
    ``n * (1 + mean_len * K / domain) / K`` intervals.  ``work_per_shard``
    is a scan term (``beta_cmp * shard_n``) for scan-bound backends and, for
    the HINT family, the model's priced ``query_cost`` at the shard's own
    ``m_opt`` plus ``log2(K)`` walked levels for the routing (the plan
    replaces the top levels a shard's index no longer has) -- which barely
    shrinks with K, so serially the dispatch and duplication overheads win
    and the model prefers **K=1 for traversal-bound backends**.
    A process pool divides the work term by ``min(K, workers)`` (worker-
    resident shards run truly in parallel), so there the model prefers
    **K=workers**; ``workers`` defaults to the pool's own default,
    ``min(available_cores(), 8)``.

    Returns the smallest candidate K (1, 2, 4, ... up to ``max_shards``,
    plus the worker count) with the lowest modeled cost.
    """
    from repro.hint.model import BETA_LEVEL, CostModel, DatasetStatistics, estimate_m_opt

    if not len(collection):
        return 1
    backend = resolve_backend(backend)
    if executor not in ("serial", "processes"):
        raise _not_an_executor(executor)
    cores = max(1, workers if workers is not None else _default_workers())
    stats = DatasetStatistics.from_collection(collection)
    extent = max(1.0, query_extent_fraction * stats.domain_length)
    scan_bound = backend in SCAN_BOUND_BACKENDS
    beta_cmp = 2.0e-8
    tau = 5.0e-6  # per-shard Python dispatch (plan, call, merge bookkeeping)

    candidates = sorted(
        {k for k in (1, 2, 4, 8, 16, cores) if 1 <= k <= max(1, max_shards)}
    )

    def modeled_cost(num_shards: int) -> float:
        probed = 1.0 + extent * num_shards / max(stats.domain_length, 1)
        duplication = 1.0 + stats.mean_interval_length * num_shards / max(
            stats.domain_length, 1
        )
        shard_n = max(1.0, stats.cardinality * duplication / num_shards)
        shard_domain = max(1, stats.domain_length // num_shards)
        if scan_bound:
            work = beta_cmp * shard_n
        else:
            shard_stats = DatasetStatistics(
                cardinality=int(shard_n),
                mean_interval_length=stats.mean_interval_length,
                domain_length=shard_domain,
                domain_bits=max(1, int(shard_domain).bit_length()),
            )
            shard_extent = min(extent, float(shard_domain))
            m = estimate_m_opt(shard_stats, shard_extent)
            model = CostModel(stats=shard_stats)
            # the plan's cuts stand in for the top log2(K) levels a shard's
            # own index no longer has: routing prices them as walked levels
            work = model.query_cost(m, shard_extent) + BETA_LEVEL * math.log2(num_shards)
        per_query = probed * (tau + work)
        if num_shards > 1 and executor == "processes":
            per_query /= min(num_shards, cores)
        return per_query

    return min(candidates, key=lambda k: (modeled_cost(k), k))


# --------------------------------------------------------------------------- #
# the coordinator
# --------------------------------------------------------------------------- #
@dataclass
class MaintenanceConfig:
    """Tuning knobs of a :class:`MaintenanceCoordinator`.

    Attributes:
        repartition: allow cut re-balancing when skew drifts.
        skew_threshold: trigger re-partitioning when the largest shard holds
            more than this multiple of the mean shard size *and* updates
            happened since the current partition was installed (build-time
            skew never triggers -- it reflects the chosen strategy).
    """

    repartition: bool = True
    skew_threshold: float = 1.5


def _needs_rebuild(index, force: bool) -> bool:
    """The rebuild rule for one hybrid index (a shard, or a plain store's).

    Two things a rebuild clears pile up between rebuilds: the delta's
    inserts and the main index's tombstones.  ``force`` rebuilds when either
    is non-empty.  Otherwise one of them must reach
    :data:`REBUILD_FRACTION` of the main index's live intervals and
    :data:`REBUILD_MIN_DELTA` intervals.
    """
    pending = (index.delta_size, index.tombstones)
    if force:
        return any(pending)
    live = max(len(index) - index.delta_size, 1)
    return any(
        count >= REBUILD_MIN_DELTA and count >= REBUILD_FRACTION * live for count in pending
    )


@dataclass
class MaintenanceReport:
    """What one :meth:`MaintenanceCoordinator.maintain` pass did.

    Attributes:
        rebuilt_shards: shard ids whose hybrid delta was merged into a fresh
            main index.
        repartitioned: True when cut skew triggered a re-balance.
        cuts: the (possibly new) interior cut points after the pass.
        skew: measured shard-size skew (max/mean) before the pass.
        snapshot_refreshed: True when a new shared-memory snapshot was
            published (process fan-out restored).
        checkpointed: True when the pass wrote a durability checkpoint.
        checkpoint_generation: the checkpointed ``result_generation``
            (meaningful only when ``checkpointed``).
        wal_segments_truncated: dead WAL segments unlinked by the
            checkpoint's retention pass.
        generation: snapshot residency-token generation after the pass.
        seconds: wall-clock duration of the pass.
    """

    rebuilt_shards: List[int] = field(default_factory=list)
    repartitioned: bool = False
    cuts: Tuple[int, ...] = ()
    skew: float = 0.0
    snapshot_refreshed: bool = False
    checkpointed: bool = False
    checkpoint_generation: int = -1
    wal_segments_truncated: int = 0
    generation: int = 0
    seconds: float = 0.0

    @property
    def actions(self) -> int:
        """Number of maintenance actions the pass performed."""
        return (
            len(self.rebuilt_shards)
            + (1 if self.repartitioned else 0)
            + (1 if self.snapshot_refreshed else 0)
            + (1 if self.checkpointed else 0)
        )

    def summary(self) -> str:
        """One-line human-readable description of the pass."""
        parts = []
        if self.rebuilt_shards:
            parts.append(f"rebuilt shards {self.rebuilt_shards}")
        if self.repartitioned:
            parts.append(f"re-partitioned (skew {self.skew:.2f}, cuts {list(self.cuts)})")
        if self.snapshot_refreshed:
            parts.append(f"snapshot refreshed (generation {self.generation})")
        if self.checkpointed:
            parts.append(
                f"checkpointed @ generation {self.checkpoint_generation} "
                f"({self.wal_segments_truncated} WAL segments truncated)"
            )
        if not parts:
            parts = ["nothing to do"]
        return "; ".join(parts) + f" in {self.seconds * 1000:.1f}ms"


class MaintenanceCoordinator:
    """Owns index lifecycle for a sharded (or plain hybrid) index.

    Args:
        target: a :class:`~repro.engine.sharded.ShardedIndex`, a plain
            :class:`~repro.core.base.IntervalIndex` (hybrid backends get
            the rebuild rule, static ones a no-op pass), or any store
            exposing ``.index``.
        config: tuning knobs; a fresh default config when omitted.

    One coordinator serves one index and never acts on its own: each
    :meth:`maintain` call runs one full pass inline, on the calling thread.
    Concurrent :meth:`maintain` calls serialise on an internal lock, and a
    pass never loses a foreground update (see :meth:`maintain`).
    """

    def __init__(self, target, config: Optional[MaintenanceConfig] = None) -> None:
        self._index = getattr(target, "index", target)
        # keep the store too (when one was passed): checkpoint integration
        # reaches the durability manager through it
        self._target = target
        #: where a finished pass is announced: the store's feed, a raw
        #: hybrid/sharded index's own, ``None`` for a raw static index
        #: (nothing to reorganise, nobody to tell)
        self._updates = target.updates
        self._config = config if config is not None else MaintenanceConfig()
        self._lock = threading.Lock()
        self._last_rebuild: Dict[int, float] = {}
        self._reports: List[MaintenanceReport] = []

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def index(self):
        """The maintained index."""
        return self._index

    @property
    def config(self) -> MaintenanceConfig:
        return self._config

    @property
    def reports(self) -> List[MaintenanceReport]:
        """Every pass this coordinator ran, oldest first."""
        return list(self._reports)

    def _is_sharded(self) -> bool:
        return hasattr(self._index, "maintenance_state")

    def state(self) -> Dict[str, object]:
        """Maintenance/ingest state snapshot (the `repro maintain` display)."""
        index = self._index
        state: Dict[str, object] = {
            "backend": getattr(index, "backend", getattr(index, "name", "?")),
            "last_rebuild": dict(self._last_rebuild),
            "passes": len(self._reports),
        }
        if self._is_sharded():
            state.update(index.maintenance_state())
        else:
            state["delta_size"] = int(getattr(index, "delta_size", 0))
        durability = self._durability_manager()
        if durability is not None:
            # WAL/checkpoint gauges of a durable store (open(wal_dir=...))
            state.update(durability.state())
        return state

    # ------------------------------------------------------------------ #
    # the maintenance pass
    # ------------------------------------------------------------------ #
    def maintain(self, force: bool = False, checkpoint: bool = False) -> MaintenanceReport:
        """Run one full maintenance pass; returns what it did.

        ``force`` rebuilds every shard with a non-empty delta, re-publishes
        the snapshot even when clean, but still re-partitions only on skew.
        ``checkpoint`` ends the pass by writing a durability checkpoint and
        truncating dead WAL segments -- a silent no-op when the target
        store is not durable.
        """
        with self._lock:
            started = time.perf_counter()
            report = MaintenanceReport()
            if self._is_sharded():
                # the index's update lock is held for the whole pass:
                # per-shard rebuilds snapshot-then-swap hybrid components, so
                # a foreground insert interleaving with them would be
                # silently discarded (the lock is re-entrant --
                # repartition/refresh take it again inside)
                with self._index.updates.lock:
                    self._maintain_sharded(report, force)
            else:
                self._maintain_plain(report, force)
            # tell update listeners the pass finished -- a "sync", never a
            # delta: rebuilds and refreshes reorganise state without
            # changing the queryable contents, but standing-query clients
            # long-polling the serving tier want the wakeup so their acked
            # generation can advance past any epoch publication the pass
            # made (a repartition already announced its own; hearing one
            # generation twice is idempotent for every listener)
            if self._updates is not None:
                self._updates.sync(bump=False)
            if checkpoint:
                self._checkpoint(report)
            report.seconds = time.perf_counter() - started
            self._reports.append(report)
            _MAINTENANCE_PASSES.inc()
            _MAINTENANCE_SECONDS.observe(report.seconds)
            return report

    def _durability_manager(self):
        """The target store's durability manager, when the store is durable
        (a raw index target has none)."""
        return getattr(self._target, "durability", None)

    def _checkpoint(self, report: MaintenanceReport) -> None:
        """Checkpoint the durable store after the pass reorganised it.

        Runs *after* the pass announced its ``sync`` so the checkpointed
        generation includes the pass's own sync advance -- a client acked
        at the post-maintenance generation is covered by this checkpoint.
        """
        manager = self._durability_manager()
        if manager is None:
            return
        result = manager.checkpoint()
        report.checkpointed = True
        report.checkpoint_generation = int(result["generation"])
        report.wal_segments_truncated = int(result["wal_segments_removed"])

    def _maintain_plain(self, report: MaintenanceReport, force: bool) -> None:
        index = self._index
        if hasattr(index, "rebuild") and _needs_rebuild(index, force):
            index.rebuild()
            self._last_rebuild[0] = time.time()
            report.rebuilt_shards.append(0)

    def _maintain_sharded(self, report: MaintenanceReport, force: bool) -> None:
        index = self._index
        config = self._config
        # adaptive re-partitioning first: it rebuilds every shard from the
        # live collection anyway (folding all deltas), so per-shard rebuilds
        # in the same pass would be paid twice.  Rebalance only when shard
        # sizes *drift*: build-time skew reflects the caller's explicit
        # strategy choice, so the trigger additionally requires updates
        # since the current partition was installed -- a freshly built (or
        # freshly re-balanced) index is never torn down by its first pass;
        # use ShardedIndex.repartition() directly to rebalance a static
        # build.
        if config.repartition and index.num_shards > 1:
            sizes = index.maintenance_state()["copies_per_shard"]
            mean = sum(sizes) / len(sizes)
            report.skew = (max(sizes) / mean) if mean else 0.0
            drifted = getattr(index, "updates_since_partition", 0) > 0
            if drifted and report.skew >= config.skew_threshold:
                if index.repartition(strategy="balanced"):
                    report.repartitioned = True
                    self._last_rebuild = {
                        shard: time.time() for shard in range(index.num_shards)
                    }
        report.cuts = tuple(index.plan.cuts)
        if report.repartitioned:
            # repartition republishes internally (process executors on
            # shared-memory platforms); a live snapshot after the install
            # is that publication.  The fresh shard builds have empty
            # deltas, so no per-shard rebuild follows.
            report.snapshot_refreshed = bool(
                index.maintenance_state().get("snapshot_published")
            )
        else:
            # rebuild the hybrid shards the rule flags (only shards already
            # built in this process -- worker-resident copies rebuild from
            # the next snapshot publication instead)
            for shard_id, shard in enumerate(index.built_shards):
                if shard is None or not hasattr(shard, "rebuild"):
                    continue
                if _needs_rebuild(shard, force):
                    shard.rebuild()
                    self._last_rebuild[shard_id] = time.time()
                    report.rebuilt_shards.append(shard_id)
            # snapshot refresh: restore the process fan-out of id batches
            # after updates (counts read the locator's count pair, so
            # nothing waits on this)
            if index.update_dirty or force:
                report.snapshot_refreshed = index.refresh_snapshot()
        report.generation = index.snapshot_generation

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"MaintenanceCoordinator(passes={len(self._reports)})"
