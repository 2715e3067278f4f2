"""Shard server: one node of the cluster tier.

A :class:`ShardServer` is a :class:`~repro.serve.server.QueryServer` whose
store holds exactly one shard's residents (slice the collection with
:func:`repro.engine.sharding.shard_mask` before opening the store).  On top
of the full single-node protocol it speaks the cluster protocol:

* ``POST /shard-batch`` -- the router's probe endpoint: a batch of range
  queries answered as ids, counts or existence flags in one round-trip,
  with the response stamped by the shard's ``result_generation`` *read
  before the probes* (the same cache-safety discipline as ``/query`` and
  ``/batch``).  A count probe is one ``store.count_batch`` over the
  queries as sent: the router counts a straddling interval once by
  sending each later shard ``[cut, end]`` and a stab at ``cut - 1`` and
  subtracting the two (see :mod:`repro.cluster.router`), so the shard
  keeps no structure of its own for counting.
* ``GET /cluster-info`` -- role, shard id, generation, sizes; the router
  and operators read this to see what a node thinks it is.
* ``POST /checkpoint`` -- run the store's durability checkpoint and return
  the published file's bytes, base64-encoded, as ``"checkpoint"`` (its
  header holds generation + subscriptions + ``wal_seq``, its body the live
  columns) next to the checkpoint ``"summary"``; a follower bootstraps from
  exactly these bytes.
* ``POST /wal-feed`` -- long-poll WAL shipping: stream committed frames
  from ``(segment, offset)`` onward; answers ``resync_required`` once a
  checkpoint has unlinked the requested segment (the follower re-bootstraps).
* ``POST /promote`` -- flip a read-only follower into the serving leader
  (wired by :class:`~repro.cluster.follower.ClusterFollower`).

A read-only server (a follower) answers every read endpoint but refuses
``/insert``, ``/delete`` and ``/maintain`` with 403 until promoted.
"""

from __future__ import annotations

import asyncio
import base64
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.core.interval import Query
from repro.durability.checkpoint import checkpoint_path
from repro.durability.wal import WalRecord, list_segments, read_segment_tail
from repro.engine.sharding import ShardPlan
from repro.engine.store import IntervalStore
from repro.obs import tracing
from repro.serve.http import POST, READ, Reject, ServerHandle, encode, int_field
from repro.serve.server import (
    _MAX_POLLERS,
    _POLL_TIMEOUT_S,
    QueryServer,
    _fans_out_to_processes,
    _query_pairs,
    _rendered_index,
    start_server_thread,
)

__all__ = ["SHARD_BATCH_KINDS", "ShardServer", "start_shard_server_thread"]

#: probe kinds the /shard-batch endpoint answers
SHARD_BATCH_KINDS = ("ids", "count", "exists")


class ShardServer(QueryServer):
    """One cluster node: a query server plus the shard/replication protocol.

    Args:
        store: the shard's resident intervals (slice with ``shard_mask``).
        shard_id: which shard of the topology this node serves.
        plan: the topology's :class:`ShardPlan` (optional; echoed by
            ``/cluster-info`` so operators can spot a node booted against
            the wrong cuts).
        role: ``"leader"`` or ``"follower"``.  A follower is read-only:
            it refuses mutations with 403 until promoted, since it must
            not accept writes its leader never shipped.
        promote_hook: zero-argument callable flipping this node to leader
            (installed by :class:`~repro.cluster.follower.ClusterFollower`);
            ``/promote`` answers 409 without one.

    Remaining keyword arguments go to :class:`QueryServer`.
    """

    def __init__(
        self,
        store: IntervalStore,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        shard_id: int = 0,
        plan: Optional[ShardPlan] = None,
        role: str = "leader",
        promote_hook=None,
        **kwargs: object,
    ) -> None:
        super().__init__(store, host, port, **kwargs)
        self._shard_id = int(shard_id)
        self._plan = plan
        self._role = role
        self._read_only = role == "follower"
        self._promote_hook = promote_hook
        self._shard_batches = 0
        self._wal_polls = 0
        self.metrics.counter_function(
            "repro_shard_batches_total", "router probe batches answered",
            lambda: self._shard_batches,
        )
        self.metrics.counter_function(
            "repro_wal_polls_total", "follower WAL-feed polls answered",
            lambda: self._wal_polls,
        )
        self.metrics.gauge_function(
            "repro_shard_id", "which shard of the topology this node serves",
            lambda: self._shard_id,
        )
        self.metrics.gauge_function(
            "repro_read_only", "1 while this node is an unpromoted follower",
            lambda: int(self._read_only),
        )
        self.routes.update(
            {
                "/cluster-info": (READ, self._handle_cluster_info),
                "/shard-batch": (POST, self._handle_shard_batch),
                "/checkpoint": (POST, self._handle_checkpoint),
                "/wal-feed": (POST, self._handle_wal_feed),
                "/promote": (POST, self._handle_promote),
            }
        )
        for path in ("/insert", "/delete", "/maintain"):
            methods, handler = self.routes[path]
            self.routes[path] = (methods, self._refused_while_read_only(handler))

    # ------------------------------------------------------------------ #
    @property
    def shard_id(self) -> int:
        return self._shard_id

    @property
    def role(self) -> str:
        return self._role

    @property
    def read_only(self) -> bool:
        return self._read_only

    def adopt_store(self, store: IntervalStore) -> IntervalStore:
        """Swap the served store (a follower re-bootstrapping after a
        ``resync_required``); the cache moves to the new store's update
        feed (which clears it) and a plain ``/query`` slices from the new
        store's rendered ids, if any, so no answer from the abandoned store
        survives the swap."""
        previous = self._store
        self._store = store
        self._hop_reads = _fans_out_to_processes(store)
        self._rendered = _rendered_index(store, self._hop_reads)
        self._stream = None  # subscriptions were against the old store
        if self._cache.enabled:
            self._cache.watch(store.updates)
        return previous

    def promote(self) -> Dict[str, object]:
        """Flip this node into the serving leader (idempotent)."""
        self._role = "leader"
        self._read_only = False
        return {"role": self._role, "read_only": self._read_only}

    # ------------------------------------------------------------------ #
    # routes
    # ------------------------------------------------------------------ #
    def _refused_while_read_only(self, handler):
        """``handler``, answering 403 while this node is an unpromoted follower."""

        def guarded(payload: Dict[str, object], ctx):
            if self._read_only:
                return 403, encode(
                    {
                        "error": "read-only follower refuses writes; "
                        "promote it first (POST /promote)",
                        "role": self._role,
                    }
                )
            return handler(payload, ctx)

        return guarded

    def _handle_cluster_info(self, payload: Dict[str, object], ctx):
        return 200, encode(self.cluster_info())

    def cluster_info(self) -> Dict[str, object]:
        durability = getattr(self._store, "durability", None)
        info: Dict[str, object] = {
            "role": self._role,
            "shard": self._shard_id,
            "read_only": self._read_only,
            "backend": self._store.backend,
            "generation": int(self._store.result_generation()),
            "intervals": len(self._store),
            "durable": durability is not None,
            "shard_batches": self._shard_batches,
            "wal_polls": self._wal_polls,
        }
        if self._plan is not None:
            info["cuts"] = list(self._plan.cuts)
        return info

    # ------------------------------------------------------------------ #
    # /shard-batch
    # ------------------------------------------------------------------ #
    async def _handle_shard_batch(self, payload: Dict[str, object], ctx):
        queries = _query_pairs(payload.get("queries"))
        kind = payload.get("kind", "ids")
        if kind not in SHARD_BATCH_KINDS:
            raise Reject(
                400, f"unknown shard-batch kind {kind!r}; choose from {SHARD_BATCH_KINDS}"
            )
        # admission weight mirrors what the same queries would cost as a
        # local /batch: one slot per max_batch-sized chunk
        weight = max(1, -(-len(queries) // self._max_batch))
        ctx.args = {"queries": len(queries), "kind": kind}
        ctx.tags["shard"] = self._shard_id
        self._admit(weight)
        try:
            self._m_queries.inc(len(queries))
            self._shard_batches += 1
            generation, results = await self._loop.run_in_executor(
                None,
                tracing.bind(ctx.child(), self._execute_shard_batch),
                queries,
                kind,
            )
        finally:
            self._release(weight)
        body: Dict[str, object] = {
            "shard": self._shard_id,
            "generation": generation,
            "results": results,
        }
        if ctx.trace is not None:
            # the caller (the router) holds the rest of the tree: close our
            # root now and ship the complete subtree in the response body
            ctx.finish_root(200)
            body["spans"] = ctx.trace.spans()
        return 200, encode(body)

    def _execute_shard_batch(
        self, queries: List[Query], kind: str
    ) -> Tuple[int, List[object]]:
        # generation before probes: a racing update stamps answers with the
        # pre-update token, never the other way around (see _execute_batch)
        generation = int(self._store.result_generation())
        if kind == "ids":
            result = self._store.run_batch(queries, count_only=False)
            return generation, [ids.tolist() for ids in result.ids]
        if kind == "exists":
            return generation, [bool(flag) for flag in self._store.exists_batch(queries)]
        return generation, [int(count) for count in self._store.count_batch(queries)]

    # ------------------------------------------------------------------ #
    # /checkpoint + /wal-feed: the replication feed
    # ------------------------------------------------------------------ #
    def _durability(self):
        durability = getattr(self._store, "durability", None)
        if durability is None:
            raise Reject(
                409, "store has no durability manager; open it with a wal_dir"
            )
        return durability

    async def _handle_checkpoint(self, payload: Dict[str, object], ctx):
        durability = self._durability()
        self._admit()
        try:
            summary = await self._loop.run_in_executor(None, durability.checkpoint)
            image = await self._loop.run_in_executor(
                None, checkpoint_path(durability.directory).read_bytes
            )
        finally:
            self._release()
        return 200, encode(
            {"checkpoint": base64.b64encode(image).decode("ascii"), "summary": summary}
        )

    async def _handle_wal_feed(self, payload: Dict[str, object], ctx):
        durability = self._durability()
        segment = int_field(payload.get("segment", 0), "segment")
        offset = int_field(payload.get("offset", 0), "offset")
        try:
            timeout = float(payload.get("timeout", 10.0))
        except (TypeError, ValueError):
            timeout = 10.0
        timeout = max(0.0, min(timeout, _POLL_TIMEOUT_S))
        if self._pollers >= _MAX_POLLERS:
            raise Reject(503, "too many pollers", retry_after=1)
        self._pollers += 1
        self._wal_polls += 1
        try:
            deadline = self._loop.time() + timeout
            while True:
                segment, offset, records, resync = await self._loop.run_in_executor(
                    None, self._read_feed, durability.directory, segment, offset
                )
                if resync:
                    # a checkpoint unlinked the requested segment: the
                    # follower cannot replay the gap; it re-bootstraps
                    return 200, encode(
                        {
                            "resync_required": True,
                            "segment": segment,
                            "offset": offset,
                            "records": [],
                        }
                    )
                if records or self._loop.time() >= deadline:
                    return 200, encode(
                        {
                            "resync_required": False,
                            "segment": segment,
                            "offset": offset,
                            "records": [
                                [r.op, r.interval_id, r.start, r.end, r.generation]
                                for r in records
                            ],
                        }
                    )
                await asyncio.sleep(0.05)
        finally:
            self._pollers -= 1

    @staticmethod
    def _read_feed(
        directory: Path, segment: int, offset: int
    ) -> Tuple[int, int, List[WalRecord], bool]:
        """Read committed frames from ``(segment, offset)`` onward.

        Returns ``(segment, offset, records, resync_required)`` with the
        cursor advanced past everything shipped.  Sealed segments are
        drained fully and the cursor steps to the next on-disk sequence;
        the live tail stops cleanly at a torn/in-flight frame (the next
        poll re-reads from the same offset).
        """
        segments = list_segments(directory)
        if not segments:
            return segment, offset, [], False
        sequences = [seq for seq, _ in segments]
        if segment < sequences[0]:
            return segment, offset, [], True
        paths = dict(segments)
        records: List[WalRecord] = []
        while True:
            path = paths.get(segment)
            if path is None:
                # the writer has not created this segment yet
                break
            try:
                batch, offset = read_segment_tail(path, offset)
            except FileNotFoundError:
                # checkpoint retention raced us; re-plan on the next poll
                return segment, offset, records, not records
            records.extend(batch)
            later = [seq for seq in sequences if seq > segment]
            if not later:
                break
            # a later segment exists, so this one is sealed and fully read:
            # advance to the next sequence from its very start
            segment = later[0]
            offset = 0
        return segment, offset, records, False

    # ------------------------------------------------------------------ #
    # /promote
    # ------------------------------------------------------------------ #
    async def _handle_promote(self, payload: Dict[str, object], ctx):
        if self._promote_hook is None:
            if self._role == "leader" and not self._read_only:
                return 200, encode({"role": self._role, "read_only": False})
            raise Reject(409, "this node has no follower attached to promote")
        result = await self._loop.run_in_executor(None, self._promote_hook)
        body = {"role": self._role, "read_only": self._read_only}
        if isinstance(result, dict):
            body.update(result)
        return 200, encode(body)

    # ------------------------------------------------------------------ #
    def serving_stats(self) -> Dict[str, object]:
        stats = super().serving_stats()
        stats["cluster"] = {
            "role": self._role,
            "shard": self._shard_id,
            "read_only": self._read_only,
            "shard_batches": self._shard_batches,
            "wal_polls": self._wal_polls,
        }
        return stats


def start_shard_server_thread(store: IntervalStore, **kwargs: object) -> ServerHandle:
    """Start a :class:`ShardServer` on a daemon-thread event loop."""
    return start_server_thread(store, server_cls=ShardServer, **kwargs)
