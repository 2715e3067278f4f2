"""Follower: bootstrap from a leader checkpoint, tail its WAL, take over.

A :class:`ClusterFollower` keeps a warm standby of one shard server:

1. **bootstrap** -- ``POST /checkpoint`` on the leader publishes (and
   returns the bytes of) a consistent columnar checkpoint: live intervals,
   the result generation, serialisable subscriptions, and the WAL segment
   boundary every later record lives at or past.  The follower builds its
   store straight from those columns, floors the generation, and restores
   the standing-query registry -- the same recovery path a local restart
   takes.
2. **shipping** -- a feed thread long-polls the leader's ``/wal-feed``
   from ``(wal_seq, 0)`` and applies each committed frame with
   :func:`repro.durability.manager.apply_record` (generation floored to
   ``record.generation - 1`` before the apply, sync records floor only --
   the floors local recovery's walk takes too).  The applied prefix
   therefore tracks the leader's *on-disk* WAL exactly (with
   ``fsync="always"`` on the leader, on-disk == durably acked).
3. **takeover** -- :meth:`promote` (or ``POST /promote`` on the follower's
   own server) stops shipping and flips the serving
   :class:`~repro.cluster.shard_server.ShardServer` from a read-only
   follower into the leader; its live set equals the applied prefix.

If the leader answers ``resync_required`` (a checkpoint unlinked segments
the follower had not consumed), the follower re-bootstraps from a fresh
checkpoint and swaps the rebuilt store into its server atomically via
:meth:`ShardServer.adopt_store`.

The follower's store is in-memory: durability lives with the leader's WAL
directory, which a promoted follower's operator re-attaches on the next
restart.
"""

from __future__ import annotations

import base64
import threading
from typing import Dict, List, Optional

from repro.core.errors import ReproError
from repro.cluster.shard_server import ShardServer
from repro.durability.checkpoint import decode_checkpoint
from repro.durability.manager import apply_record
from repro.engine.store import IntervalStore
from repro.serve.client import ServeClient, ServerError, ServerUnavailableError
from repro.serve.http import ServerHandle
from repro.serve.server import start_server_thread
from repro.stream.deltas import StandingQueryManager

__all__ = ["ClusterFollower"]

#: seconds between reconnect attempts while the leader is unreachable
_RETRY_DELAY_S = 0.2


class ClusterFollower:
    """Warm standby for one shard: snapshot + continuous WAL replay.

    Args:
        leader_host / leader_port: the leader shard server to follow.
        backend: index backend for the follower's store (need not match
            the leader's -- replay goes through the store API).
        shard_id: topology shard this standby covers (echoed by its server).
        host / port: bind address of the follower's own read-only server.
        poll_timeout: long-poll window per ``/wal-feed`` round.
        server_kwargs: extra :class:`ShardServer` keyword arguments.

    While the leader is unreachable the follower keeps serving reads and
    retries every :data:`_RETRY_DELAY_S` seconds.
    """

    def __init__(
        self,
        leader_host: str,
        leader_port: int,
        *,
        backend: str = "hintm",
        shard_id: int = 0,
        host: str = "127.0.0.1",
        port: int = 0,
        poll_timeout: float = 5.0,
        **server_kwargs: object,
    ) -> None:
        self._leader = ServeClient(
            leader_host, leader_port, timeout=max(30.0, poll_timeout + 10.0)
        )
        self._backend = backend
        self._shard_id = int(shard_id)
        self._host = host
        self._port = port
        self._poll_timeout = float(poll_timeout)
        self._server_kwargs = dict(server_kwargs)

        self._store: Optional[IntervalStore] = None
        self._handle: Optional[ServerHandle] = None
        self._segment = 0
        self._offset = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._promoted = False
        self.records_applied = 0
        self.replay_skipped = 0
        self.resyncs = 0
        self.feed_errors = 0

    # ------------------------------------------------------------------ #
    @property
    def store(self) -> IntervalStore:
        if self._store is None:
            raise ReproError("follower not started")
        return self._store

    @property
    def server(self) -> ShardServer:
        if self._handle is None:
            raise ReproError("follower not started")
        return self._handle.server  # type: ignore[return-value]

    @property
    def port(self) -> int:
        if self._handle is None:
            raise ReproError("follower not started")
        return self._handle.port

    @property
    def promoted(self) -> bool:
        return self._promoted

    def applied_generation(self) -> int:
        return int(self.store.result_generation())

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "ClusterFollower":
        """Bootstrap, start the read-only server, start shipping."""
        self._store = self._bootstrap()
        self._handle = start_server_thread(
            self._store,
            server_cls=ShardServer,
            host=self._host,
            port=self._port,
            shard_id=self._shard_id,
            role="follower",
            promote_hook=self.promote,
            **self._server_kwargs,
        )
        self._thread = threading.Thread(
            target=self._feed_loop, name="repro-wal-feed", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop shipping and the serving thread (keeps the store)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=30.0)
            self._thread = None
        if self._handle is not None:
            self._handle.stop()
            self._handle = None
        self._leader.close()

    def __enter__(self) -> "ClusterFollower":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def promote(self) -> Dict[str, object]:
        """Stop shipping and flip the server into the serving leader.

        The served live set is exactly the applied WAL prefix at the
        moment shipping stopped -- the takeover guarantee the failover
        soak asserts.
        """
        self._stop.set()
        thread = self._thread
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=30.0)
        self._thread = None
        self._promoted = True
        result: Dict[str, object] = {"generation": self.applied_generation()}
        if self._handle is not None:
            result.update(self.server.promote())
        return result

    # ------------------------------------------------------------------ #
    # bootstrap + replay
    # ------------------------------------------------------------------ #
    def _bootstrap(self) -> IntervalStore:
        response = self._leader.request("POST", "/checkpoint")
        snapshot = decode_checkpoint(bytearray(base64.b64decode(response["checkpoint"])))
        store = IntervalStore.open(snapshot["intervals"], self._backend)
        generation = int(snapshot["generation"])
        store.updates.floor(generation)
        subscriptions = snapshot["subscriptions"]
        if subscriptions:
            StandingQueryManager.restore(store, subscriptions, generation=generation)
        self._segment = int(snapshot["wal_seq"])
        self._offset = 0
        return store

    def _feed_loop(self) -> None:
        while not self._stop.is_set():
            try:
                response = self._leader.request(
                    "POST",
                    "/wal-feed",
                    {
                        "segment": self._segment,
                        "offset": self._offset,
                        "timeout": self._poll_timeout,
                    },
                    timeout=self._poll_timeout + 10.0,
                )
            except (ServerUnavailableError, ServerError, ConnectionError, OSError):
                # leader down or briefly refusing: keep serving reads and
                # keep retrying until promoted or stopped
                self.feed_errors += 1
                self._stop.wait(_RETRY_DELAY_S)
                continue
            if response.get("resync_required"):
                self.resyncs += 1
                try:
                    fresh = self._bootstrap()
                except (ServerUnavailableError, ServerError) as _exc:
                    self.feed_errors += 1
                    self._stop.wait(_RETRY_DELAY_S)
                    continue
                old = self._store
                self._store = fresh
                if self._handle is not None:
                    self.server.adopt_store(fresh)
                if old is not None:
                    old.close()
                continue
            records = response.get("records") or []
            if records:
                self._apply(records)
            self._segment = int(response["segment"])
            self._offset = int(response["offset"])

    def _apply(self, records: List[List[object]]) -> None:
        store = self.store
        for op, interval_id, start, end, generation in records:
            outcome = apply_record(
                store, op, int(interval_id), int(start), int(end), int(generation)
            )
            if outcome is None:  # a sync: floored, nothing shipped to apply
                continue
            if not outcome:
                self.replay_skipped += 1
            self.records_applied += 1
