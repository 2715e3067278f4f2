"""Index-lifecycle maintenance: ingest journal, rebuild policies, coordinator.

The hybrid HINT^m of the paper (Sections 3.4/4.4) already splits updates into
a delta index plus a periodically rebuilt main index -- but that scheme stops
at the single-shard boundary.  Under sharding, every insert/delete used to

* pay an O(shard size) ``np.insert``/``np.delete`` reallocation to keep the
  home-shard counting columns sorted,
* staleness-flag the shared-memory snapshot, permanently demoting a process
  executor to in-process batches,
* leave each hybrid shard to rebuild on its own threshold, with no view of
  idle windows, cut skew or the executor's parallelism.

This module is the missing layer.  Four pieces compose:

* :class:`CountColumns` / :class:`IngestJournal` -- the **buffered ingest
  journal**.  Inserts and deletes append to tiny per-shard pending buffers
  (O(1) per op) and are folded into the sorted start/end count columns
  *lazily*, on the next count that reads them or an explicit
  :meth:`IngestJournal.fold` -- one vectorised merge instead of one
  reallocation per operation.  The journal is the columns' only owner:
  single multi-shard counts and whole count/exists batches
  (:meth:`IngestJournal.count_overlaps`) are bisections over it in the
  calling process, whatever the executor.
* :class:`RebuildPolicy` implementations -- **when** a hybrid shard's delta
  is merged back into its main index: :class:`ThresholdRebuildPolicy`
  (the paper's delta-fraction rule, per shard) and
  :class:`CostModelRebuildPolicy` (rebuild once the cumulative delta-probe
  overhead since the last rebuild exceeds the one-off rebuild cost, using
  the Section 3.3 ``beta`` constants).
* :func:`recommend_shard_count` -- the Section 3.3 cost model **extended to
  choose K**: scan-bound backends gain ~K from shard pruning even serially,
  traversal-bound backends (the HINT^m family) only win when a process
  executor divides the work across cores -- so the model prefers K=1 for
  ``hintm`` serially and K=cores under processes.
* :class:`MaintenanceCoordinator` -- owns the lifecycle of one
  :class:`~repro.engine.sharded.ShardedIndex` (or a plain hybrid index):
  :meth:`~MaintenanceCoordinator.maintain` folds journals, rebuilds shards
  the policy flags, re-balances cuts when skew drifts past a threshold
  (**adaptive re-partitioning**), and republishes the shared-memory
  snapshot so a process executor regains fan-out (**snapshot refresh**).
  An opt-in background thread runs the same pass during idle windows.
"""

from __future__ import annotations

import abc
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.interval import IntervalCollection
from repro.engine.executor import _not_an_executor, available_cores
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
    "CostModelRebuildPolicy",
    "CountColumns",
    "IngestJournal",
    "MAINTENANCE_POLICIES",
    "MaintenanceConfig",
    "MaintenanceCoordinator",
    "MaintenanceReport",
    "RebuildPolicy",
    "ShardHealth",
    "ThresholdRebuildPolicy",
    "recommend_shard_count",
    "resolve_policy",
]

#: backends whose per-query cost scales with the amount of data scanned --
#: shard pruning alone buys ~K on these, even serially.  Everything else is
#: treated as traversal-/result-bound (the HINT family, the interval tree):
#: per-query cost barely shrinks with shard size, so sharding only pays when
#: an executor adds real parallelism.
SCAN_BOUND_BACKENDS = frozenset({"naive", "grid1d"})


# --------------------------------------------------------------------------- #
# buffered ingest journal
# --------------------------------------------------------------------------- #
class CountColumns:
    """One shard's sorted start/end count columns plus a pending journal.

    The sorted columns answer the home-shard counting bisections
    (``ends >= q.start`` in the query's first shard, ``start in
    [cut, q.end]`` in later ones).  An update appends the affected values to
    pending add/remove buffers -- O(1) -- and :meth:`fold` merges all of
    them into the sorted columns in one vectorised pass; the counting
    accessors fold first, so counts are always exact.

    Every mutation (recording, folding, and the fold step of the counting
    accessors) serialises on a per-column lock: readers count from any
    thread, and the background maintenance thread folds concurrently with
    foreground updates -- an unsynchronised snapshot-then-clear would lose
    or double-apply journaled operations.  The bisections themselves run on
    captured arrays outside the lock.
    """

    __slots__ = (
        "starts",
        "ends",
        "_lock",
        "_add_starts",
        "_add_ends",
        "_del_starts",
        "_del_ends",
    )

    def __init__(
        self,
        starts: "Sequence[int] | np.ndarray",
        ends: "Sequence[int] | np.ndarray",
    ) -> None:
        self.starts = np.sort(np.asarray(starts, dtype=np.int64))
        self.ends = np.sort(np.asarray(ends, dtype=np.int64))
        self._lock = threading.Lock()
        self._add_starts: List[int] = []
        self._add_ends: List[int] = []
        self._del_starts: List[int] = []
        self._del_ends: List[int] = []

    # ------------------------------------------------------------------ #
    @property
    def pending_ops(self) -> int:
        """Buffered operations not yet folded into the sorted columns."""
        return len(self._add_starts) + len(self._del_starts)

    @property
    def live_size(self) -> int:
        """Number of interval copies the columns will hold after folding."""
        return len(self.starts) + len(self._add_starts) - len(self._del_starts)

    @property
    def nbytes(self) -> int:
        """Footprint of the sorted columns plus the pending buffers."""
        pending = 8 * (
            len(self._add_starts)
            + len(self._add_ends)
            + len(self._del_starts)
            + len(self._del_ends)
        )
        return int(self.starts.nbytes + self.ends.nbytes) + pending

    # ------------------------------------------------------------------ #
    # updates
    # ------------------------------------------------------------------ #
    def record_insert(self, start: int, end: int) -> None:
        with self._lock:
            self._add_starts.append(start)
            self._add_ends.append(end)

    def record_delete(self, start: int, end: int) -> None:
        with self._lock:
            self._del_starts.append(start)
            self._del_ends.append(end)

    def fold(self) -> int:
        """Merge every pending value into the sorted columns.

        Adds are applied before removes, so a value inserted and deleted
        between folds cancels correctly.  Returns the number of operations
        folded.
        """
        with self._lock:
            return self._fold_locked()

    def _fold_locked(self) -> int:
        folded = len(self._add_starts) + len(self._del_starts)
        if not folded:
            return 0
        self.starts = self._fold_column(self.starts, self._add_starts, self._del_starts)
        self.ends = self._fold_column(self.ends, self._add_ends, self._del_ends)
        self._add_starts, self._add_ends = [], []
        self._del_starts, self._del_ends = [], []
        return folded

    @staticmethod
    def _fold_column(
        column: np.ndarray, adds: List[int], removes: List[int]
    ) -> np.ndarray:
        if adds:
            values = np.sort(np.asarray(adds, dtype=np.int64))
            column = np.insert(column, np.searchsorted(column, values), values)
        if removes:
            values = np.sort(np.asarray(removes, dtype=np.int64))
            first = np.searchsorted(column, values, side="left")
            # duplicates among the removed values map to consecutive copies:
            # offset each by its rank within its equal-value group
            rank = np.arange(len(values)) - np.searchsorted(values, values, side="left")
            column = np.delete(column, first + rank)
        return column

    # ------------------------------------------------------------------ #
    # counting accessors (fold lazily, then bisect)
    # ------------------------------------------------------------------ #
    def folded(self) -> Tuple[np.ndarray, np.ndarray]:
        """The sorted ``(starts, ends)`` with every pending op folded in.

        A stable capture: folds replace the arrays, never mutate them, so
        callers bisect outside the lock.
        """
        with self._lock:
            self._fold_locked()
            return self.starts, self.ends

    def count_ends_ge(self, value: int) -> int:
        """Number of copies with ``end >= value``."""
        _, ends = self.folded()
        return int(len(ends) - np.searchsorted(ends, value, side="left"))

    def count_starts_in(self, lo: int, hi: int) -> int:
        """Number of copies with ``lo <= start <= hi``."""
        starts, _ = self.folded()
        first = int(np.searchsorted(starts, lo, side="left"))
        last = int(np.searchsorted(starts, hi, side="right"))
        return last - first


class IngestJournal:
    """The per-shard :class:`CountColumns` of one sharded index.

    Args:
        pieces: the partitioned sub-collections, in shard order (each shard's
            columns start from its copies' endpoints).
        fold_threshold: optional bound on any shard's pending-buffer depth;
            exceeding it folds that shard immediately, keeping worst-case
            buffer memory in check on very long ingest bursts.
    """

    def __init__(
        self,
        pieces: Sequence[IntervalCollection],
        fold_threshold: Optional[int] = None,
    ) -> None:
        if fold_threshold is not None and fold_threshold < 1:
            raise ValueError(f"fold_threshold must be >= 1, got {fold_threshold}")
        self._columns = [CountColumns(p.starts, p.ends) for p in pieces]
        self._fold_threshold = fold_threshold

    # ------------------------------------------------------------------ #
    @property
    def num_shards(self) -> int:
        return len(self._columns)

    @property
    def nbytes(self) -> int:
        return sum(column.nbytes for column in self._columns)

    def pending_depths(self) -> List[int]:
        """Buffered (unfolded) operation count per shard."""
        return [column.pending_ops for column in self._columns]

    def live_sizes(self) -> List[int]:
        """Post-fold copy count per shard (duplication included)."""
        return [column.live_size for column in self._columns]

    # ------------------------------------------------------------------ #
    def record_insert(self, first: int, last: int, start: int, end: int) -> None:
        """Journal one insert into shards ``first..last`` (inclusive)."""
        for shard in range(first, last + 1):
            column = self._columns[shard]
            column.record_insert(start, end)
            self._enforce_threshold(column)

    def record_delete(self, first: int, last: int, start: int, end: int) -> None:
        """Journal one delete from shards ``first..last`` (inclusive)."""
        for shard in range(first, last + 1):
            column = self._columns[shard]
            column.record_delete(start, end)
            self._enforce_threshold(column)

    def _enforce_threshold(self, column: CountColumns) -> None:
        """Fold a column whose pending buffer hit the configured bound.

        Applies to inserts *and* deletes: a delete-only burst (TTL expiry
        draining an index with no interleaved counts) must not grow the
        buffers without bound either.
        """
        if (
            self._fold_threshold is not None
            and column.pending_ops >= self._fold_threshold
        ):
            column.fold()

    def count_ends_ge(self, shard: int, value: int) -> int:
        return self._columns[shard].count_ends_ge(value)

    def count_starts_in(self, shard: int, lo: int, hi: int) -> int:
        return self._columns[shard].count_starts_in(lo, hi)

    def count_overlaps(
        self, cuts: Sequence[int], q_starts: np.ndarray, q_ends: np.ndarray
    ) -> np.ndarray:
        """Overlap counts of a whole query batch: the home-shard rule, vectorised.

        ``cuts`` are the plan's interior cut points and ``q_starts`` /
        ``q_ends`` the batch's ``int64`` bounds; the result is one ``int64``
        count per query (existence is ``> 0``).  Every copy is counted once,
        in the first probed shard it is at home in: in a query's *first*
        shard ``count(start <= b) - count(end < a)`` -- which on a
        multi-shard plan is ``count(end >= a)``, every copy there starting
        below the shard's upper cut ``<= b`` -- and in each *later* shard
        ``count(cut <= start <= b)`` from that shard's lower cut.  Only the
        shards the batch touches are folded, each once, under its column
        lock; no shard index is consulted.
        """
        cuts = np.asarray(cuts, dtype=np.int64)
        first = np.searchsorted(cuts, q_starts, side="right")
        last = np.searchsorted(cuts, q_ends, side="right")
        totals = np.zeros(len(q_starts), dtype=np.int64)
        for shard, column in enumerate(self._columns):
            own = first == shard
            later = (first < shard) & (last >= shard)
            has_own, has_later = own.any(), later.any()
            if not (has_own or has_later):
                continue
            starts, ends = column.folded()
            if has_own:
                totals[own] = np.searchsorted(
                    starts, q_ends[own], side="right"
                ) - np.searchsorted(ends, q_starts[own], side="left")
            if has_later:
                totals[later] += np.searchsorted(
                    starts, q_ends[later], side="right"
                ) - np.searchsorted(starts, cuts[shard - 1], side="left")
        return totals

    def fold(self) -> int:
        """Fold every shard's pending buffer; returns operations folded."""
        return sum(column.fold() for column in self._columns)


# --------------------------------------------------------------------------- #
# rebuild policies
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ShardHealth:
    """The per-shard facts a :class:`RebuildPolicy` decides from.

    Attributes:
        shard_id: shard index (0 for an unsharded hybrid).
        live: intervals in the shard's main structure.
        delta: intervals absorbed by the shard's delta index since the last
            rebuild (0 for non-hybrid backends).
        pending_journal: buffered count-column operations not yet folded.
        queries_since_maintain: queries the owning index answered since the
            coordinator's previous pass (drives amortisation arguments).
        seconds_since_rebuild: age of the shard's main index (``inf`` when it
            was never rebuilt).
    """

    shard_id: int
    live: int
    delta: int
    pending_journal: int = 0
    queries_since_maintain: int = 0
    seconds_since_rebuild: float = float("inf")


class RebuildPolicy(abc.ABC):
    """Strategy deciding when a hybrid shard's delta is merged into its main."""

    #: registry key used by the CLI and :func:`resolve_policy`
    name: str = "abstract"

    @abc.abstractmethod
    def should_rebuild(self, health: ShardHealth) -> bool:
        """True when the shard described by ``health`` should rebuild now."""

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}()"


class ThresholdRebuildPolicy(RebuildPolicy):
    """Rebuild when the delta outgrows a fraction of the main index.

    The per-shard version of the paper's hybrid rule: a shard rebuilds when
    its delta holds at least ``fraction`` of its main index's intervals (and
    at least ``min_delta``, so tiny shards do not churn).
    """

    name = "threshold"

    def __init__(self, fraction: float = 0.1, min_delta: int = 64) -> None:
        if fraction <= 0:
            raise ValueError(f"rebuild fraction must be > 0, got {fraction}")
        self.fraction = fraction
        self.min_delta = max(1, min_delta)

    def should_rebuild(self, health: ShardHealth) -> bool:
        if health.delta < self.min_delta:
            return False
        return health.delta >= self.fraction * max(health.live, 1)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"ThresholdRebuildPolicy(fraction={self.fraction}, min_delta={self.min_delta})"


class CostModelRebuildPolicy(RebuildPolicy):
    """Rebuild when the delta's cumulative query overhead repays the rebuild.

    An amortisation extension of the Section 3.3 cost model: every query
    additionally probes the shard's delta index, costing roughly
    ``beta_cmp * delta`` comparisons' worth of work; a rebuild costs roughly
    ``build_cost_per_interval * (live + delta)`` once.  The shard rebuilds
    when the overhead accumulated since the previous maintenance pass
    exceeds that one-off cost -- so a hot shard (many queries, fat delta)
    rebuilds aggressively while a cold one coasts.
    """

    name = "cost_model"

    def __init__(
        self,
        beta_cmp: float = 2.0e-8,
        build_cost_per_interval: float = 2.0e-6,
        min_delta: int = 16,
    ) -> None:
        self.beta_cmp = beta_cmp
        self.build_cost_per_interval = build_cost_per_interval
        self.min_delta = max(1, min_delta)

    def should_rebuild(self, health: ShardHealth) -> bool:
        if health.delta < self.min_delta:
            return False
        overhead = (
            self.beta_cmp * health.delta * max(health.queries_since_maintain, 1)
        )
        rebuild_cost = self.build_cost_per_interval * (health.live + health.delta)
        return overhead >= rebuild_cost

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"CostModelRebuildPolicy(beta_cmp={self.beta_cmp}, "
            f"build_cost_per_interval={self.build_cost_per_interval})"
        )


#: ``(name, one-line description)`` of every rebuild policy, in the order the
#: CLI help and ``list-backends`` present them
MAINTENANCE_POLICIES: Tuple[Tuple[str, str], ...] = (
    ("threshold", "rebuild a shard when its delta exceeds a fraction of its main index"),
    ("cost_model", "rebuild when cumulative delta-probe overhead repays the rebuild cost"),
)

_POLICY_CLASSES: Dict[str, type] = {
    "threshold": ThresholdRebuildPolicy,
    "cost_model": CostModelRebuildPolicy,
    "cost-model": CostModelRebuildPolicy,
}


def resolve_policy(
    spec: Union[RebuildPolicy, str, None], **options
) -> RebuildPolicy:
    """Turn a policy spec (name, instance or ``None``) into a policy.

    ``None`` means the default threshold policy; keyword options are
    forwarded to the policy constructor when a name is given.
    """
    if spec is None:
        spec = "threshold"
    if isinstance(spec, RebuildPolicy):
        if options:
            raise ValueError(
                f"policy options {sorted(options)} cannot reconfigure an instance"
            )
        return spec
    if isinstance(spec, str):
        cls = _POLICY_CLASSES.get(spec.lower())
        if cls is None:
            names = ", ".join(repr(name) for name, _ in MAINTENANCE_POLICIES)
            raise ValueError(f"unknown rebuild policy {spec!r}; use one of {names}")
        return cls(**options)
    raise TypeError(f"policy spec must be a RebuildPolicy, str or None, got {spec!r}")


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
    is a scan term (``beta_cmp * shard_n``) for scan-bound backends and the
    model's ``query_cost`` at the shard's own ``m_opt`` for the HINT family
    -- which barely shrinks with K, so serially the dispatch and duplication
    overheads win and the model prefers **K=1 for traversal-bound backends**.
    A process executor divides the work term by ``min(K, workers)`` (worker-
    resident shards run truly in parallel), so there the model prefers
    **K=cores**.

    Returns the smallest candidate K (1, 2, 4, ... up to ``max_shards``,
    plus the worker count) with the lowest modeled cost.
    """
    from repro.hint.model import CostModel, DatasetStatistics, estimate_m_opt

    if not len(collection):
        return 1
    backend = resolve_backend(backend)
    if executor not in ("serial", "processes"):
        raise _not_an_executor(executor)
    cores = workers if workers is not None else available_cores()
    cores = max(1, cores)
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
            work = CostModel(stats=shard_stats).query_cost(m, shard_extent)
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
        policy: rebuild policy name or instance (default: ``"threshold"``).
        calibrate: measure the Section 3.3 ``beta`` constants on this
            machine at coordinator startup (:func:`repro.hint.model.measure_betas`)
            and configure a :class:`CostModelRebuildPolicy` with them, so
            the amortisation argument uses measured rather than default
            costs.  A no-op for policies without ``beta_cmp``.
        repartition: allow cut re-balancing when skew drifts.
        skew_threshold: trigger re-partitioning when the largest shard holds
            more than this multiple of the mean shard size *and* updates
            happened since the current partition was installed (build-time
            skew never triggers -- it reflects the chosen strategy).
        refresh_snapshot: republish the shared-memory snapshot after a pass
            that left the index update-dirty (process executors only).
        checkpoint: end every pass by writing a durability checkpoint and
            truncating dead WAL segments (durable stores only -- a no-op
            when the target has no :class:`~repro.durability.manager.DurabilityManager`).
        idle_seconds: background thread only maintains after the index has
            been idle this long.
        interval_seconds: background thread wake-up period.
    """

    policy: Union[RebuildPolicy, str, None] = None
    calibrate: bool = False
    repartition: bool = True
    skew_threshold: float = 1.5
    refresh_snapshot: bool = True
    checkpoint: bool = False
    idle_seconds: float = 0.5
    interval_seconds: float = 5.0


@dataclass
class MaintenanceReport:
    """What one :meth:`MaintenanceCoordinator.maintain` pass did.

    Attributes:
        folded_ops: journal operations folded into the count columns.
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

    folded_ops: int = 0
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
            (1 if self.folded_ops else 0)
            + len(self.rebuilt_shards)
            + (1 if self.repartitioned else 0)
            + (1 if self.snapshot_refreshed else 0)
            + (1 if self.checkpointed else 0)
        )

    def summary(self) -> str:
        """One-line human-readable description of the pass."""
        parts = [f"folded {self.folded_ops} ops"]
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
        if len(parts) == 1 and not self.folded_ops:
            parts = ["nothing to do"]
        return "; ".join(parts) + f" in {self.seconds * 1000:.1f}ms"


class MaintenanceCoordinator:
    """Owns index lifecycle for a sharded (or plain hybrid) index.

    Args:
        target: a :class:`~repro.engine.sharded.ShardedIndex`, a plain
            :class:`~repro.core.base.IntervalIndex` (hybrid backends get
            rebuild-policy treatment, static ones a no-op pass), or any
            store exposing ``.index``.
        config: tuning knobs; a fresh default config when omitted.
        policy: shorthand overriding ``config.policy``.

    One coordinator serves one index.  :meth:`maintain` runs a full pass
    inline; :meth:`start` runs the same pass from a daemon thread during
    idle windows (opt-in -- nothing happens in the background unless asked).
    Concurrent :meth:`maintain` calls serialise on an internal lock; the
    pass itself mutates the index, so callers that query from other threads
    should either stop querying during maintenance or accept the same
    visibility caveats as any in-place index update.
    """

    def __init__(
        self,
        target,
        config: Optional[MaintenanceConfig] = None,
        policy: Union[RebuildPolicy, str, None] = None,
    ) -> None:
        self._index = getattr(target, "index", target)
        # keep the store too (when one was passed): checkpoint integration
        # reaches the durability manager through it
        self._target = target
        #: where a finished pass is announced: the store's feed, a raw
        #: hybrid/sharded index's own, ``None`` for a raw static index
        #: (nothing to reorganise, nobody to tell)
        self._updates = target.updates
        # opt the index into activity timestamps: the hot query paths skip
        # the clock read until someone actually watches for idle windows
        if hasattr(self._index, "activity_tracking"):
            self._index.activity_tracking = True
        self._config = config if config is not None else MaintenanceConfig()
        self._policy = resolve_policy(
            policy if policy is not None else self._config.policy
        )
        #: measured ``(beta_cmp, beta_acc)`` when ``config.calibrate`` ran,
        #: ``None`` otherwise (surfaced by :meth:`state`)
        self.calibrated_betas: Optional[Tuple[float, float]] = None
        if self._config.calibrate:
            self._calibrate_policy()
        self._lock = threading.Lock()
        self._last_rebuild: Dict[int, float] = {}
        self._queries_at_last_maintain = self._query_ops()
        self._reports: List[MaintenanceReport] = []
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()

    def _calibrate_policy(self) -> None:
        """Measure the Section 3.3 betas and configure the rebuild policy.

        ``MaintenanceConfig.calibrate=True`` runs the
        :func:`repro.hint.model.measure_betas` micro-benchmark once at
        coordinator startup (a small sample -- this is a startup cost, not a
        benchmark) and installs the measured ``beta_cmp`` into a
        :class:`CostModelRebuildPolicy`, so the amortisation rule compares
        *this machine's* delta-probe overhead against its rebuild cost
        instead of the hard-coded defaults.  Policies without a ``beta_cmp``
        knob (the threshold rule) are left untouched, but the measurement is
        still recorded in :attr:`calibrated_betas` for display.
        """
        from repro.hint.model import measure_betas

        beta_cmp, beta_acc = measure_betas(sample_size=50_000, repeats=2)
        self.calibrated_betas = (beta_cmp, beta_acc)
        if hasattr(self._policy, "beta_cmp"):
            self._policy.beta_cmp = beta_cmp

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
    def policy(self) -> RebuildPolicy:
        return self._policy

    @property
    def reports(self) -> List[MaintenanceReport]:
        """Every pass this coordinator ran, oldest first."""
        return list(self._reports)

    @property
    def running(self) -> bool:
        """True while the background maintenance thread is alive."""
        return self._thread is not None and self._thread.is_alive()

    def _query_ops(self) -> int:
        return int(getattr(self._index, "query_ops", 0))

    def _is_sharded(self) -> bool:
        return hasattr(self._index, "plan") and hasattr(self._index, "ingest_journal")

    def shard_health(self) -> List[ShardHealth]:
        """A :class:`ShardHealth` row per shard (one row for plain indexes)."""
        now = time.time()
        queries_since = self._query_ops() - self._queries_at_last_maintain
        if not self._is_sharded():
            index = self._index
            delta = int(getattr(index, "delta_size", 0))
            return [
                ShardHealth(
                    shard_id=0,
                    live=max(0, len(index) - delta),
                    delta=delta,
                    queries_since_maintain=queries_since,
                    seconds_since_rebuild=now - self._last_rebuild.get(0, float("inf"))
                    if 0 in self._last_rebuild
                    else float("inf"),
                )
            ]
        index = self._index
        journal = index.ingest_journal
        pending = journal.pending_depths() if journal is not None else []
        rows: List[ShardHealth] = []
        for shard_id, shard in enumerate(index.built_shards):
            delta = int(getattr(shard, "delta_size", 0)) if shard is not None else 0
            live = len(shard) - delta if shard is not None else 0
            rows.append(
                ShardHealth(
                    shard_id=shard_id,
                    live=max(0, live),
                    delta=delta,
                    pending_journal=pending[shard_id] if shard_id < len(pending) else 0,
                    queries_since_maintain=queries_since,
                    seconds_since_rebuild=now - self._last_rebuild[shard_id]
                    if shard_id in self._last_rebuild
                    else float("inf"),
                )
            )
        return rows

    def state(self) -> Dict[str, object]:
        """Maintenance/ingest state snapshot (the `repro maintain` display)."""
        index = self._index
        state: Dict[str, object] = {
            "backend": getattr(index, "backend", getattr(index, "name", "?")),
            "policy": self._policy.name,
            "calibrated_betas": self.calibrated_betas,
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
        ``checkpoint`` (or ``config.checkpoint``) ends the pass by writing
        a durability checkpoint and truncating dead WAL segments -- a
        silent no-op when the target store is not durable.
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
            self._queries_at_last_maintain = self._query_ops()
            # tell update listeners the pass finished -- a "sync", never a
            # delta: folds, rebuilds and refreshes reorganise state without
            # changing the queryable contents, but standing-query clients
            # long-polling the serving tier want the wakeup so their acked
            # generation can advance past any epoch publication the pass
            # made (a repartition already announced its own; hearing one
            # generation twice is idempotent for every listener)
            if self._updates is not None:
                self._updates.sync(bump=False)
            if checkpoint or self._config.checkpoint:
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
        if not hasattr(index, "rebuild"):
            return
        health = self.shard_health()[0]
        if (force and health.delta) or (
            not force and self._policy.should_rebuild(health)
        ):
            index.rebuild()
            self._last_rebuild[0] = time.time()
            report.rebuilt_shards.append(0)

    def _maintain_sharded(self, report: MaintenanceReport, force: bool) -> None:
        index = self._index
        config = self._config
        journal = index.ingest_journal
        if journal is not None:
            report.folded_ops = journal.fold()
        # adaptive re-partitioning first: it rebuilds every shard from the
        # live collection anyway (folding all deltas), so per-shard rebuilds
        # in the same pass would be paid twice.  Rebalance only when shard
        # sizes *drift*: build-time skew reflects the caller's explicit
        # strategy choice, so the trigger additionally requires updates
        # since the current partition was installed -- a freshly built (or
        # freshly re-balanced) index is never torn down by its first pass;
        # use ShardedIndex.repartition() directly to rebalance a static
        # build.
        if config.repartition and index.num_shards > 1 and journal is not None:
            sizes = journal.live_sizes()
            mean = sum(sizes) / len(sizes) if sizes else 0.0
            report.skew = (max(sizes) / mean) if mean else 0.0
            drifted = getattr(index, "updates_since_partition", 0) > 0
            if drifted and report.skew >= config.skew_threshold:
                if index.repartition(strategy="balanced"):
                    report.repartitioned = True
                    self._last_rebuild = {
                        shard: time.time() for shard in range(index.num_shards)
                    }
        # rebuild hybrid shards the policy flags (only shards already built
        # in this process -- worker-resident copies rebuild from the next
        # snapshot publication instead).  Skipped after a repartition: the
        # fresh shard builds have empty deltas.
        if not report.repartitioned:
            for health in self.shard_health():
                shard = index.built_shards[health.shard_id]
                if shard is None or not hasattr(shard, "rebuild"):
                    continue
                if (force and health.delta) or (
                    not force and self._policy.should_rebuild(health)
                ):
                    shard.rebuild()
                    self._last_rebuild[health.shard_id] = time.time()
                    report.rebuilt_shards.append(health.shard_id)
        report.cuts = tuple(index.plan.cuts)
        # snapshot refresh: restore the process fan-out of id batches after
        # updates (counts never left the journal, so nothing waits on this)
        if config.refresh_snapshot and not report.repartitioned:
            if index.update_dirty or force:
                report.snapshot_refreshed = index.refresh_snapshot()
        elif report.repartitioned:
            # repartition republishes internally (process executors on
            # shared-memory platforms); a live snapshot after the install
            # is that publication
            report.snapshot_refreshed = bool(
                index.maintenance_state().get("snapshot_published")
            )
        report.generation = index.snapshot_generation

    # ------------------------------------------------------------------ #
    # opt-in background maintenance
    # ------------------------------------------------------------------ #
    def start(self, interval_seconds: Optional[float] = None) -> None:
        """Start the background maintenance thread (idempotent).

        The daemon thread wakes every ``interval_seconds`` (default: the
        config's) and runs :meth:`maintain` only when the index has been
        idle -- no query or update -- for at least ``config.idle_seconds``,
        so maintenance slips into the workload's natural gaps.
        """
        if self.running:
            return
        if interval_seconds is not None:
            self._config.interval_seconds = interval_seconds
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._background_loop, name="repro-maintenance", daemon=True
        )
        self._thread.start()

    def stop(self, wait: bool = True) -> None:
        """Stop the background thread (idempotent)."""
        self._stop.set()
        thread, self._thread = self._thread, None
        if thread is not None and wait:
            thread.join(timeout=10.0)

    def _background_loop(self) -> None:
        while not self._stop.wait(self._config.interval_seconds):
            if self._idle_for() >= self._config.idle_seconds:
                try:
                    self.maintain()
                except Exception:  # pragma: no cover - background safety net
                    # a failed background pass must not kill the thread; the
                    # next explicit maintain() surfaces the problem
                    continue

    def _idle_for(self) -> float:
        last = getattr(self._index, "last_activity", None)
        if last is None:
            return float("inf")
        return max(0.0, time.monotonic() - float(last))

    def __enter__(self) -> "MaintenanceCoordinator":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"MaintenanceCoordinator(policy={self._policy.name!r}, "
            f"passes={len(self._reports)}, running={self.running})"
        )
