"""Durability across the serving tier: degraded mode, retries, resumption.

* an injected WAL IO error flips the store into degraded mode: updates
  answer 503, ``/health`` stays 200 but reports ``degraded`` (reads keep
  routing), ``/stats`` carries the flag and the WAL gauges;
* the client's bounded retry/backoff surfaces
  :class:`ServerUnavailableError` (a :class:`ReproError`) with the socket
  torn down, instead of a raw ``OSError`` -- and never auto-retries a
  non-idempotent update;
* ``poller_lag`` / ``slowest_poller_lag`` gauges reach ``/stats``;
* a ``StreamClient`` reconnecting after a server restart resumes from its
  last acked generation without ``resync_required`` when the checkpoint
  covers its generation.
"""

import asyncio

import pytest

from repro.core.errors import ReproError
from repro.core.interval import Interval, IntervalCollection
from repro.durability import faults
from repro.engine import IntervalStore
from repro.serve.client import (
    ServeClient,
    ServerOverloaded,
    ServerUnavailableError,
    StreamClient,
)
from repro.serve.server import start_server_thread


def _collection(n=100):
    return IntervalCollection.from_intervals(
        [Interval(i, i * 50, i * 50 + 30) for i in range(n)]
    )


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.injector.reset()
    yield
    faults.injector.reset()


@pytest.fixture()
def durable_served(tmp_path):
    store = IntervalStore.open(
        _collection(), "hintm_hybrid", wal_dir=str(tmp_path), fsync="always"
    )
    handle = start_server_thread(store)
    client = ServeClient(port=handle.port)
    yield store, handle, client
    client.close()
    handle.stop()
    store.close()


# ---------------------------------------------------------------------- #
# degraded mode over the wire
# ---------------------------------------------------------------------- #
class TestDegradedMode:
    def test_wal_failure_degrades_and_rejects_updates(self, durable_served):
        store, _, client = durable_served
        client.insert(1000, 10, 20)  # healthy first
        faults.injector.arm("append.before_write", action="io_error")
        with pytest.raises(ServerOverloaded):
            client.insert(1001, 30, 40)
        assert store.durability.degraded
        # degraded does not self-heal: the next update is refused too
        with pytest.raises(ServerOverloaded):
            client.delete(0)
        # the refused inserts must not have been applied
        assert 1001 not in set(client.query(0, 10**6)["ids"])

    def test_reads_keep_working_when_degraded(self, durable_served):
        store, _, client = durable_served
        faults.injector.arm("append.before_write", action="io_error")
        with pytest.raises(ServerOverloaded):
            client.insert(1001, 30, 40)
        response = client.query(0, 10**6)
        assert response["count"] == len(store)

    def test_health_reports_degraded_but_stays_200(self, durable_served):
        store, _, client = durable_served
        health = client.health()
        assert health["status"] == "ok"
        assert health["durability_degraded"] is False
        faults.injector.arm("append.before_write", action="io_error")
        with pytest.raises(ServerOverloaded):
            client.insert(1001, 30, 40)
        health = client.health()  # a 503 here would raise in the client
        assert health["status"] == "degraded"
        assert health["durability_degraded"] is True

    def test_stats_carry_wal_gauges_and_degraded_flag(self, durable_served):
        store, _, client = durable_served
        stats = client.stats()
        assert stats["durability_degraded"] is False
        wal = stats["durability"]
        assert wal["fsync_policy"] == "always"
        assert wal["wal_segments"] >= 1
        assert wal["wal_bytes"] > 0
        assert wal["last_checkpoint_generation"] >= 0
        faults.injector.arm("append.before_write", action="io_error")
        with pytest.raises(ServerOverloaded):
            client.insert(1001, 30, 40)
        stats = client.stats()
        assert stats["durability_degraded"] is True
        assert stats["durability"]["degraded_reason"]

    @pytest.mark.parametrize("num_shards", [1, 2])
    @pytest.mark.parametrize("durable", [True, False], ids=["durable", "in-memory"])
    def test_maintenance_state_and_stats_carry_the_same_wal_keys(
        self, tmp_path, durable, num_shards
    ):
        # one owner: the store's durability manager, merged once into the
        # maintenance state whatever the store's shape, and into /stats
        store = IntervalStore.open(
            _collection(), "hintm_hybrid", num_shards=num_shards,
            wal_dir=str(tmp_path) if durable else None, fsync="always",
        )
        handle = start_server_thread(store)
        try:
            with ServeClient(port=handle.port) as client:
                stats = client.stats()
            state = store.maintenance().state()
            if durable:
                wal = store.durability.state()
                assert set(stats["durability"]) == set(wal)
                assert {key: state[key] for key in wal} == stats["durability"]
            else:
                assert "durability" not in stats
                assert not [key for key in state if "wal" in key or "replay" in key]
        finally:
            handle.stop()
            store.close()

    def test_degraded_survives_recovery_reopen(self, tmp_path):
        """Reopening the WAL directory is the documented way back."""
        store = IntervalStore.open(
            _collection(), "hintm_hybrid", wal_dir=str(tmp_path), fsync="always"
        )
        store.insert(Interval(1000, 10, 20))
        faults.injector.arm("append.before_write", action="io_error")
        with pytest.raises(ReproError):
            store.insert(Interval(1001, 30, 40))
        store.close()
        recovered = IntervalStore.open(
            _collection(), "hintm_hybrid", wal_dir=str(tmp_path), fsync="always"
        )
        assert not recovered.durability.degraded
        assert 1000 in set(recovered.query().overlapping(0, 10**6).ids())
        assert 1001 not in set(recovered.query().overlapping(0, 10**6).ids())
        recovered.insert(Interval(1002, 50, 60))  # writable again
        recovered.close()


# ---------------------------------------------------------------------- #
# client retry / teardown
# ---------------------------------------------------------------------- #
async def _close_server_connections(server):
    """Close every open keep-alive connection from the server's side."""
    server.close_connections()


class TestClientRetries:
    def test_unreachable_server_raises_typed_error_after_retries(self):
        client = ServeClient(port=1, timeout=0.5, retries=2, backoff=0.001)
        with pytest.raises(ServerUnavailableError) as excinfo:
            client.query(0, 100)
        assert excinfo.value.attempts == 3
        assert isinstance(excinfo.value, ReproError)
        assert isinstance(excinfo.value, ConnectionError)
        assert client._sock is None  # socket torn down on exhaustion

    def test_updates_never_auto_retry(self):
        client = ServeClient(port=1, timeout=0.5, retries=5, backoff=0.001)
        with pytest.raises(ServerUnavailableError) as excinfo:
            client.insert(1, 2, 3)
        assert excinfo.value.attempts == 1  # fail-fast: no blind re-send

    def test_retry_recovers_a_dropped_keepalive(self, durable_served):
        _, handle, client = durable_served
        assert client.query(0, 100)["count"] >= 0
        first = client._sock
        # server-side close of the keep-alive: the next request must
        # transparently reconnect instead of surfacing ECONNRESET
        asyncio.run_coroutine_threadsafe(
            _close_server_connections(handle.server), handle._loop
        ).result(timeout=10)
        assert client.query(0, 100)["count"] >= 0
        assert client._sock is not None and client._sock is not first

    def test_overload_retry_is_opt_in(self, durable_served):
        store, handle, _ = durable_served
        eager = ServeClient(port=handle.port)  # default: no 503 retry
        faults.injector.arm("append.before_write", action="io_error")
        with pytest.raises(ServerOverloaded):
            eager.insert(1001, 30, 40)
        eager.close()


# ---------------------------------------------------------------------- #
# poller-lag gauges
# ---------------------------------------------------------------------- #
def test_poller_lag_gauges_reach_stats(durable_served):
    _, handle, client = durable_served
    assert client.stats()["stream"]["poller_lag"] == 0.0
    first = client.subscribe(0, 10_000)
    second = client.subscribe(0, 10_000)
    client.insert(2000, 100, 110)  # lands in both logs
    stream = client.stats()["stream"]
    assert stream["poller_lag"] == 2.0
    assert stream["slowest_poller_lag"] == 1.0
    # draining one subscription halves the total, the max tracks the laggard
    client.poll_deltas(first["subscription_id"], after=first["generation"], timeout=0)
    client.poll_deltas(
        first["subscription_id"],
        after=first["generation"] + 1,
        timeout=0,
    )
    stream = client.stats()["stream"]
    assert stream["poller_lag"] == 1.0
    assert stream["slowest_poller_lag"] == 1.0


# ---------------------------------------------------------------------- #
# StreamClient resumption across a restart
# ---------------------------------------------------------------------- #
def test_stream_client_resumes_from_ack_after_restart(tmp_path):
    store = IntervalStore.open(
        _collection(), "hintm_hybrid", wal_dir=str(tmp_path), fsync="always"
    )
    handle = start_server_thread(store)
    client = StreamClient(port=handle.port)
    client.subscribe(0, 10_000)
    subscription_id = client.subscription_id

    handle.server._stream_manager()  # the manager checkpoints its registry
    store.insert(Interval(3000, 50, 60))
    client.poll(timeout=0)  # folds + acks the delta
    acked = client.generation
    ids_at_ack = client.ids()
    assert 3000 in ids_at_ack

    # checkpoint covers the acked generation, then more updates land that
    # the client never saw before the "crash"
    store.maintain(force=True, checkpoint=True)
    store.insert(Interval(3001, 70, 80))
    store.delete(0)
    client.close()
    handle.stop()
    # no store.close() yet: fsync="always" already made every record
    # durable, and the recovered store must not lean on a clean shutdown

    recovered = IntervalStore.open(
        _collection(), "hintm_hybrid", wal_dir=str(tmp_path), fsync="always"
    )
    assert recovered.restored_stream is not None
    handle2 = start_server_thread(recovered, stream=recovered.restored_stream)
    try:
        resumed = StreamClient(port=handle2.port)
        # graft the pre-crash client state: same subscription, same ack
        resumed._subscription_id = subscription_id
        resumed._generation = acked
        resumed._ids = set(ids_at_ack)
        response = resumed.poll(timeout=0)
        assert "resynced" not in response
        assert resumed.resyncs == 0
        added = {i for d in response["deltas"] for i in d["added"]}
        removed = {i for d in response["deltas"] for i in d["removed"]}
        assert added == {3001}
        assert removed == {0}
        assert resumed.generation > acked
        resumed.close()

        # an ack from *before* the checkpoint cannot be caught up exactly:
        # the server must demand a resync, never silently skip deltas
        stale = StreamClient(port=handle2.port)
        stale._subscription_id = subscription_id
        stale._generation = -1
        stale._ids = set()
        stale._spec = {"start": 0, "end": 10_000, "stab": None,
                       "relation": None, "min_duration": 0,
                       "max_duration": None}
        response = stale.poll(timeout=0)
        assert response.get("resynced") is True
        assert stale.resyncs == 1
        stale.close()
    finally:
        handle2.stop()
        recovered.close()
        store.close()  # the crashed store's WAL handle, only now
