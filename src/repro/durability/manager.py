"""The durability manager: WAL + checkpoint lifecycle for one store.

One :class:`DurabilityManager` sits between an
:class:`~repro.engine.store.IntervalStore` and its WAL directory:

* the store's ``insert``/``delete`` call :meth:`log_insert` /
  :meth:`log_delete` *before* mutating the index (append-before-apply:
  a crash after the append replays the op; a crash before it means the op
  was never acknowledged);
* generation *syncs* (epoch publications, maintenance passes) are logged
  from an update listener, so replay restores the exact generation
  sequence -- the token :class:`~repro.serve.client.StreamClient` acks;
* :meth:`checkpoint` writes the live collection's columns + generation +
  subscription registry, rotates the WAL and unlinks dead segments;
* an ``OSError`` from the log flips the store into **degraded** mode:
  reads keep working, further writes raise
  :class:`~repro.core.errors.DurabilityDegradedError` instead of running
  without durability, and the flag is surfaced through
  ``maintenance_state()`` and the serving tier.

:func:`open_durable` is the recovery entry point
(``IntervalStore.open(wal_dir=...)`` routes here): load the checkpoint's
columns, fold the log tail (read with truncate-at-first-bad-record
semantics) into them, build the store once over the result, then walk the
tail through the store's update feed so the generation and the restored
standing-query subscriptions land exactly where they were -- a store whose
contents, generation and subscriptions equal the pre-crash acknowledged
state.  The paper's update design (Section 4.4) rebuilds in batches rather
than absorbing updates one at a time; recovery does the same.

The store holds ``store.updates.lock`` from the append to the commit, so
log order is apply order and the post-commit generation each WAL record
predicts is exact, however many threads write.
"""

from __future__ import annotations

import contextlib
import threading
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.base import IntervalIndex
from repro.core.errors import DurabilityDegradedError, ReproError
from repro.core.interval import Interval, IntervalCollection
from repro.durability import faults
from repro.durability.checkpoint import load_checkpoint, write_checkpoint
from repro.durability.wal import (
    WalRecord,
    WalWriter,
    encode_frame,
    list_segments,
    replay_wal,
    wal_state,
)
from repro.engine.registry import get_spec
from repro.obs import global_registry

#: process-global durability counters, exposed on every server's /metrics
_WAL_RECORDS = global_registry().counter(
    "repro_wal_records_total", "insert/delete records appended to the WAL"
)
_WAL_CHECKPOINTS = global_registry().counter(
    "repro_wal_checkpoints_total", "durability checkpoints published"
)

__all__ = ["DurabilityManager", "open_durable"]


def apply_record(
    store, op: str, interval_id: int, start: int, end: int, generation: int
) -> Optional[bool]:
    """Re-apply one logged record through ``store``: floor, then apply.

    The cluster follower's step for its live ``/wal-feed`` tail; local
    recovery folds its whole tail at once instead (:func:`fold_tail`) and
    walks the same generations through the feed (:meth:`DurabilityManager.replay`).
    Returns ``None`` for a ``"sync"`` (the generation is floored, nothing is
    applied), ``True`` when the insert/delete went through the store, and
    ``False`` for a record this store cannot play (a changed, static backend;
    an unknown op) -- the caller counts it, one bad record must not wedge a
    replay.

    Append-before-apply predicted ``generation`` as current + 1, so the
    floor is ``generation - 1`` and the apply itself takes the final step:
    listeners (a restored standing-query engine) observe the *original*
    generations.  Never floor to the record's own generation -- an
    ineffective apply (a router delete broadcast to a shard that never held
    the id) moves the generation on neither side, and the NEXT record reuses
    the predicted value.  Flooring past it would report catch-up one op
    early, and a promotion gated on generation equality in that window loses
    the in-flight op.
    """
    if op == "sync":
        store.updates.floor(generation)
        return None
    store.updates.floor(generation - 1)
    try:
        if op == "insert":
            store.insert(Interval(interval_id, start, end))
        elif op == "delete":
            store.delete(interval_id)
        else:
            raise ReproError(f"unknown WAL op {op!r}")
    except (ReproError, NotImplementedError):
        return False
    return True


#: what recovery's walk does with one tail record after flooring the
#: generation: commit it to the feed, nothing more (a delete of an id nobody
#: held), or count it as skipped (a backend that cannot play the op)
_COMMIT, _FLOOR, _SKIP = "commit", "floor", "skip"


def fold_tail(
    base: IntervalCollection, tail: List[WalRecord], backend: str
) -> Tuple[IntervalCollection, List[Optional[str]]]:
    """Fold a WAL tail into the checkpoint's columns, before any index exists.

    One pass over the records keeps the final state of every id the tail
    touches.  Inserts are appended and deleted checkpoint rows are removed
    with one ``isin``, so the store is then built once over the result (one
    vectorised build) instead of absorbing the tail op by op.

    Also returns one step per record for :meth:`DurabilityManager.replay`:
    ``None`` for a sync, else ``_COMMIT`` / ``_FLOOR`` / ``_SKIP`` -- the
    outcome :func:`apply_record` would have had on the store, minus the
    index mutation.  A backend without an insert (or delete) path skips
    those records, as it would have refused them.  A logged insert took
    effect: the store runs the index's ``validate`` (``hint_cf``'s fixed
    domain) before it logs, so the log holds no insert the index refused.
    """
    spec_cls = get_spec(backend).cls
    plays = {
        "insert": spec_cls.insert is not IntervalIndex.insert,
        "delete": spec_cls.delete is not IntervalIndex.delete,
    }
    named = np.fromiter(
        (record.interval_id for record in tail if record.op == "delete"), dtype=np.int64
    )
    live = set(base.ids[np.isin(base.ids, named)].tolist())  # rows a delete names
    removed: set = set()
    added: Dict[int, Tuple[int, int]] = {}  # live at the end of the tail, in order
    steps: List[Optional[str]] = []
    for record in tail:
        op, interval_id = record.op, record.interval_id
        if op == "sync":
            steps.append(None)
        elif not plays.get(op, False):
            steps.append(_SKIP)
        elif op == "insert":
            added[interval_id] = (record.start, record.end)
            steps.append(_COMMIT)
        elif interval_id in added:
            del added[interval_id]
            steps.append(_COMMIT)
        elif interval_id in live:
            live.discard(interval_id)
            removed.add(interval_id)
            steps.append(_COMMIT)
        else:
            steps.append(_FLOOR)
    if removed or added:
        keep = ~np.isin(base.ids, np.fromiter(removed, dtype=np.int64, count=len(removed)))
        spans = np.array(list(added.values()), dtype=np.int64).reshape(-1, 2)
        base = IntervalCollection(
            np.concatenate(
                (base.ids[keep], np.fromiter(added, dtype=np.int64, count=len(added)))
            ),
            np.concatenate((base.starts[keep], spans[:, 0])),
            np.concatenate((base.ends[keep], spans[:, 1])),
        )
    return base, steps


class DurabilityManager:
    """WAL appends, checkpoints and degraded-mode state for one store."""

    def __init__(
        self,
        store,
        directory: "Path | str",
        *,
        fsync: str = "interval",
        fsync_interval: float = 0.1,
        segment_bytes: int = 4 * 1024 * 1024,
        start_seq: int = 0,
        checkpoint_generation: int = -1,
    ) -> None:
        self._store = store
        self._directory = Path(directory)
        self._lock = threading.RLock()
        self._writer = WalWriter(
            directory,
            fsync=fsync,
            fsync_interval=fsync_interval,
            segment_bytes=segment_bytes,
            start_seq=start_seq,
        )
        self._degraded = False
        self._degraded_reason: Optional[str] = None
        self._stream = None  # StandingQueryManager, when one exists
        self._closed = False
        self.last_checkpoint_generation = int(checkpoint_generation)
        self.checkpoints = 0
        self.replayed_records = 0
        self.replay_skipped = 0
        self.replay_truncated_bytes = 0
        # log generation syncs so replay restores the exact sequence
        store.updates.subscribe(self._on_store_event)

    def _on_store_event(self, op: str, interval, generation: int) -> None:
        # inserts/deletes were logged before they applied; a sync is a
        # generation advance without a content change, logged so replay
        # lands on the same token
        if op != "sync":
            return
        with self._lock:
            if self._degraded or self._closed:
                return
            try:
                self._writer.append_frame(encode_frame("sync", 0, 0, 0, generation))
            except OSError as exc:
                # never raise into a maintenance pass: degrade visibly and
                # let the next explicit write surface the error
                self._degrade(exc)

    def attach_stream(self, stream) -> None:
        """Register the standing-query manager whose subscriptions
        checkpoints should capture (called by the manager itself on
        construction over a durable store)."""
        self._stream = stream

    @property
    def stream(self):
        return self._stream

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def directory(self) -> Path:
        return self._directory

    @property
    def fsync_policy(self) -> str:
        return self._writer.fsync_policy

    @property
    def last_fsync_s(self) -> float:
        """Seconds the WAL's previous append-path fsync took (0.0 before
        the first, and under ``fsync="off"``)."""
        return self._writer.last_fsync_s

    @property
    def degraded(self) -> bool:
        return self._degraded

    @property
    def degraded_reason(self) -> Optional[str]:
        return self._degraded_reason

    def state(self) -> Dict[str, object]:
        """WAL/checkpoint gauges for ``maintenance_state()`` and ``/stats``."""
        segments, total_bytes = wal_state(self._directory)
        return {
            "wal_dir": str(self._directory),
            "wal_segments": segments,
            "wal_bytes": total_bytes,
            "fsync_policy": self._writer.fsync_policy,
            "last_checkpoint_generation": self.last_checkpoint_generation,
            "durability_degraded": self._degraded,
            "degraded_reason": self._degraded_reason,
            "checkpoints": self.checkpoints,
            "replayed_records": self.replayed_records,
            "replay_skipped": self.replay_skipped,
        }

    # ------------------------------------------------------------------ #
    # the append-before-apply hooks (called by IntervalStore)
    # ------------------------------------------------------------------ #
    def _degrade(self, exc: OSError) -> None:
        self._degraded = True
        self._degraded_reason = str(exc)

    def _check_writable(self) -> None:
        if self._degraded:
            raise DurabilityDegradedError(
                "store refuses writes: the write-ahead log could not persist "
                f"an earlier record ({self._degraded_reason}); reads still "
                "work -- reopen from the WAL directory to recover"
            )

    def log_insert(self, interval: Interval) -> None:
        """Append the insert record."""
        self._log("insert", interval.id, interval.start, interval.end)

    def log_delete(self, interval_id: int, victim: Optional[Interval]) -> None:
        """Append the delete record (span recorded when resolvable)."""
        start, end = (victim.start, victim.end) if victim is not None else (0, 0)
        self._log("delete", interval_id, start, end)

    def _log(self, op: str, interval_id: int, start: int, end: int) -> None:
        with self._lock:
            self._check_writable()
            # the post-commit generation, predicted: exact because the store
            # holds updates.lock from this append to the commit
            frame = encode_frame(
                op, interval_id, start, end, self._store.updates.generation + 1
            )
            try:
                self._writer.append_frame(frame)
            except OSError as exc:
                self._degrade(exc)
                raise DurabilityDegradedError(
                    f"WAL append failed ({exc}); store is now degraded and "
                    "refuses further writes"
                ) from exc
            _WAL_RECORDS.inc()

    def sync(self) -> None:
        """Force-fsync the current segment (e.g. before acknowledging a
        batch under ``fsync="interval"``)."""
        with self._lock:
            try:
                self._writer.sync()
            except OSError as exc:
                self._degrade(exc)
                raise DurabilityDegradedError(
                    f"WAL fsync failed ({exc}); store is now degraded"
                ) from exc

    # ------------------------------------------------------------------ #
    # checkpointing + retention
    # ------------------------------------------------------------------ #
    def _serialise_subscriptions(self) -> List[Dict[str, object]]:
        if self._stream is None:
            return []
        rows: List[Dict[str, object]] = []
        registry = self._stream.registry
        for subscription_id in registry.ids():
            subscription = registry.get(subscription_id)
            if subscription is None or (
                subscription.predicate is not None
                and subscription.filter_spec is None
            ):
                # opaque python predicates are not serialisable; such
                # subscriptions do not survive a restart (the client
                # re-subscribes).  DSL filters persist via their spec.
                continue
            rows.append(
                {
                    "subscription_id": subscription.subscription_id,
                    "start": subscription.query.start,
                    "end": subscription.query.end,
                    "relation": (
                        subscription.relation.value
                        if subscription.relation is not None
                        else None
                    ),
                    "min_duration": subscription.min_duration,
                    "max_duration": subscription.max_duration,
                    "filter": subscription.filter_spec,
                }
            )
        return rows

    def checkpoint(self) -> Dict[str, object]:
        """Write the live columns, rotate the WAL, unlink dead segments.

        Runs under the store's update-serialisation lock, so the collection,
        the generation and every WAL record are mutually consistent: after
        the rotate, every record in an older segment is at or below the
        checkpoint generation -- those segments are dead once the
        checkpoint file is durably published.  Writing three columns takes
        milliseconds, so writers stall for about that long.
        """
        with self._store.updates.lock:
            with self._lock:
                self._check_writable()
                generation = int(self._store.result_generation())
                live = self._store.index.live_collection()
                subscriptions = self._serialise_subscriptions()
                try:
                    self._writer.sync()
                    boundary = self._writer.rotate()
                    write_checkpoint(
                        self._directory,
                        generation=generation,
                        intervals=live,
                        subscriptions=subscriptions,
                        wal_seq=boundary,
                    )
                except OSError as exc:
                    self._degrade(exc)
                    raise DurabilityDegradedError(
                        f"checkpoint failed ({exc}); store is now degraded"
                    ) from exc
                removed = self._retain(boundary)
                self.last_checkpoint_generation = generation
                self.checkpoints += 1
                _WAL_CHECKPOINTS.inc()
        return {
            "generation": generation,
            "intervals": len(live),
            "subscriptions": len(subscriptions),
            "wal_segments_removed": removed,
        }

    def _retain(self, boundary_seq: int) -> int:
        """Unlink every segment older than ``boundary_seq``; returns count."""
        removed = 0
        for seq, path in list_segments(self._directory):
            if seq >= boundary_seq:
                continue
            faults.fire("truncate.before_unlink")
            try:
                path.unlink()
                removed += 1
            except OSError:
                continue  # a stuck segment is waste, not corruption
        return removed

    # ------------------------------------------------------------------ #
    # replay (recovery's walk over a folded tail)
    # ------------------------------------------------------------------ #
    def replay(self, records: List[WalRecord], steps: List[Optional[str]]) -> int:
        """Walk a tail :func:`fold_tail` already applied, through the feed.

        The store was built over the folded columns, so nothing here touches
        the index: each record floors the generation to its predicted value
        (a sync to the value itself) and an effective insert/delete is then
        committed with the span the record carries.  Update listeners (the
        restored standing-query delta engine) therefore hear the *original*
        ``(op, interval, generation)`` sequence -- exactly what a
        reconnecting ``StreamClient`` acked.  Records the backend cannot
        play are counted in :attr:`replay_skipped`, never silently dropped.
        """
        feed = self._store.updates
        applied = 0
        for record, step in zip(records, steps):
            faults.fire("replay.before_apply")
            if step is None:
                feed.floor(record.generation)
                continue
            feed.floor(record.generation - 1)
            if step == _SKIP:
                self.replay_skipped += 1
                continue
            applied += 1
            if step == _COMMIT:
                feed.commit(
                    record.op, Interval(record.interval_id, record.start, record.end)
                )
        self.replayed_records += applied
        return applied

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._store.updates.unsubscribe(self._on_store_event)
        with contextlib.suppress(OSError):
            self._writer.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"DurabilityManager(dir={str(self._directory)!r}, "
            f"fsync={self.fsync_policy!r}, degraded={self._degraded}, "
            f"checkpoint_generation={self.last_checkpoint_generation})"
        )


# ---------------------------------------------------------------------- #
# recovery entry point (IntervalStore.open(wal_dir=...) routes here)
# ---------------------------------------------------------------------- #
def open_durable(
    open_fn,
    collection: IntervalCollection,
    backend: str,
    *,
    wal_dir: "Path | str",
    fsync: str = "interval",
    fsync_interval: float = 0.1,
    segment_bytes: int = 4 * 1024 * 1024,
    open_kwargs: Optional[Dict[str, object]] = None,
):
    """Open (or recover) a durable store over ``wal_dir``.

    A directory with existing durable state wins over the passed
    ``collection`` -- the checkpoint's columns plus the folded log tail
    *are* the store, built once; the collection argument only seeds a
    fresh directory.
    Returns the store with a :class:`DurabilityManager` attached
    (``store.durability``) and, when the checkpoint carried subscriptions,
    a restored standing-query manager (``store.restored_stream``) whose
    delta logs serve polls from the pre-crash acked generations.
    """
    directory = Path(wal_dir)
    directory.mkdir(parents=True, exist_ok=True)
    payload = load_checkpoint(directory)  # CheckpointError on damage
    records, report = replay_wal(directory)  # WalCorruptionError on damage
    segments = list_segments(directory)
    next_seq = segments[-1][0] + 1 if segments else 0

    checkpoint_generation = int(payload["generation"]) if payload else -1
    tail = [r for r in records if r.generation > checkpoint_generation]
    base, steps = fold_tail(
        payload["intervals"] if payload is not None else collection, tail, backend
    )

    store = open_fn(base, backend, **(open_kwargs or {}))
    store.updates.floor(checkpoint_generation)
    manager = DurabilityManager(
        store,
        directory,
        fsync=fsync,
        fsync_interval=fsync_interval,
        segment_bytes=segment_bytes,
        start_seq=next_seq,
        checkpoint_generation=checkpoint_generation,
    )
    manager.replay_truncated_bytes = report.truncated_bytes
    store._durability = manager
    try:
        subscriptions = payload["subscriptions"] if payload else []
        if subscriptions:
            from repro.stream.deltas import StandingQueryManager

            store._restored_stream = StandingQueryManager.restore(
                store, subscriptions, generation=checkpoint_generation
            )
        replayed = manager.replay(tail, steps)
        if store._restored_stream is not None:
            store._restored_stream.note_generation(int(store.result_generation()))
        if payload is None or payload["version"] == 1 or replayed or report.truncated_bytes:
            # fresh directory, a version-1 JSON checkpoint to rewrite, or a
            # tail was replayed: publish a checkpoint so the next open starts
            # from a compact columnar baseline (and a fresh dir is never
            # without one)
            manager.checkpoint()
    except BaseException:
        store.close()  # the caller never sees the store: release its WAL writer
        raise
    return store
