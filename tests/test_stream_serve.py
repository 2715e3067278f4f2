"""Standing queries over the serving tier: subscribe/poll/unsubscribe HTTP
endpoints, long-poll wakeups, server-restart catch-up and server-side Allen
relations."""

import threading
import time

import pytest

from repro.core.interval import Interval, IntervalCollection
from repro.engine import IntervalStore
from repro.serve.client import ServeClient, ServerError, StreamClient
from repro.serve.server import start_server_thread
from repro.stream.deltas import StandingQueryManager


def _collection(n=200, seed=3):
    import numpy as np

    rng = np.random.default_rng(seed)
    starts = rng.integers(0, 10_000, n)
    ends = starts + rng.integers(1, 400, n)
    return IntervalCollection.from_intervals(
        [Interval(int(i), int(s), int(e)) for i, (s, e) in enumerate(zip(starts, ends))]
    )


def _oracle(store, start, end):
    return set(store.query().overlapping(start, end).ids())


@pytest.fixture()
def served():
    store = IntervalStore.open(_collection(), "hintm_hybrid", num_shards=2)
    handle = start_server_thread(store, cache=128)
    client = ServeClient(port=handle.port)
    yield store, handle, client
    client.close()
    handle.stop()
    store.close()


class TestSubscribeEndpoints:
    def test_subscribe_snapshot_matches_store(self, served):
        store, handle, client = served
        response = client.subscribe(1_000, 3_000)
        assert set(response["ids"]) == _oracle(store, 1_000, 3_000)
        assert response["count"] == len(response["ids"])
        assert client.unsubscribe(response["subscription_id"])["unsubscribed"]

    def test_poll_delivers_exact_deltas(self, served):
        store, handle, client = served
        sub = client.subscribe(1_000, 3_000)
        sid, gen = sub["subscription_id"], sub["generation"]
        client.insert(90_000, 1_500, 1_600)
        client.insert(90_001, 8_000, 8_100)  # outside the subscription
        client.delete(90_000)
        poll = client.poll_deltas(sid, after=gen, timeout=5)
        assert not poll["resync_required"]
        added = [i for d in poll["deltas"] for i in d["added"]]
        removed = [i for d in poll["deltas"] for i in d["removed"]]
        assert added == [90_000] and removed == [90_000]

    def test_long_poll_woken_by_concurrent_insert(self, served):
        store, handle, client = served
        sub = client.subscribe(1_000, 3_000)
        sid, gen = sub["subscription_id"], sub["generation"]
        out = {}

        def poller():
            with ServeClient(port=handle.port) as own:
                t0 = time.monotonic()
                out["poll"] = own.poll_deltas(sid, after=gen, timeout=10)
                out["waited"] = time.monotonic() - t0

        thread = threading.Thread(target=poller)
        thread.start()
        time.sleep(0.3)
        client.insert(91_000, 2_000, 2_100)
        thread.join(timeout=5)
        assert out["poll"]["deltas"][0]["added"] == [91_000]
        assert out["waited"] < 5  # woken, not timed out

    def test_empty_long_poll_times_out(self, served):
        store, handle, client = served
        sub = client.subscribe(1_000, 3_000)
        t0 = time.monotonic()
        poll = client.poll_deltas(
            sub["subscription_id"], after=sub["generation"], timeout=0.5
        )
        assert not poll["deltas"] and not poll["resync_required"]
        assert 0.4 < time.monotonic() - t0 < 3

    def test_unknown_subscription_is_404_with_resync(self, served):
        store, handle, client = served
        with pytest.raises(ServerError) as excinfo:
            client.poll_deltas(12_345, after=0, timeout=1)
        assert excinfo.value.status == 404
        assert excinfo.value.payload["resync_required"] is True

    def test_stats_exposes_subscription_gauges(self, served):
        store, handle, client = served
        sub = client.subscribe(1_000, 3_000)
        client.insert(92_000, 2_000, 2_050)
        stats = client.stats()
        assert stats["stream"]["subscriptions_active"] == 1.0
        assert stats["stream"]["deltas_emitted"] >= 1.0
        client.unsubscribe(sub["subscription_id"])

    def test_updates_do_not_compute_gauges(self, monkeypatch):
        """An affected update appends its delta and nothing else: the gauges
        are computed when /stats or /metrics reads them, not per update."""
        store = IntervalStore.open(_collection(), "hintm_hybrid", num_shards=2)
        manager = StandingQueryManager(store)
        manager.subscribe(1_000, 3_000)
        calls = []
        gauges_locked = manager._gauges_locked

        def counting():
            calls.append(1)
            return gauges_locked()

        monkeypatch.setattr(manager, "_gauges_locked", counting)
        for offset in range(5):
            store.insert(Interval(93_000 + offset, 2_000, 2_010))
        assert calls == []
        handle = start_server_thread(store, stream=manager)
        client = ServeClient(port=handle.port)
        try:
            stream = client.stats()["stream"]
            assert stream["subscriptions_active"] == 1.0
            assert stream["deltas_emitted"] == 5.0
        finally:
            client.close()
            handle.stop()
            manager.close()
            store.close()


    def test_subscribe_past_int64_keeps_subscribe_working(self, served):
        # a range past int64 once made the 64th /subscribe and every later
        # one fail with a 500 while still registering the subscription
        store, handle, client = served
        wide = client.subscribe(100, 2**70)
        assert set(wide["ids"]) == _oracle(store, 100, 2**63 - 1)
        subscriptions = [client.subscribe(i * 100, i * 100 + 50) for i in range(70)]
        for i, sub in enumerate(subscriptions):
            assert set(sub["ids"]) == _oracle(store, i * 100, i * 100 + 50)
        assert client.stats()["stream"]["subscriptions_active"] == 71.0
        client.insert(97_000, 5_020, 5_030)
        for sub in (wide, subscriptions[50]):
            poll = client.poll_deltas(
                sub["subscription_id"], after=sub["generation"], timeout=5
            )
            assert [i for d in poll["deltas"] for i in d["added"]] == [97_000]


class TestStreamClient:
    def test_fold_matches_oracle(self, served):
        store, handle, client = served
        with StreamClient(port=handle.port) as sc:
            sc.subscribe(1_000, 3_000)
            client.insert(93_000, 1_500, 1_550)
            client.delete(int(next(iter(_oracle(store, 1_000, 3_000) - {93_000}))))
            sc.poll(timeout=5)
            assert sc.ids() == _oracle(store, 1_000, 3_000)
            sc.unsubscribe()

    def test_resync_after_log_truncation(self):
        store = IntervalStore.open(_collection(), "hintm_hybrid")
        from repro.stream import StandingQueryManager

        manager = StandingQueryManager(store, log_capacity=4, max_coalesced_ids=8)
        handle = start_server_thread(store, cache=0, stream=manager)
        try:
            writer = ServeClient(port=handle.port)
            with StreamClient(port=handle.port) as sc:
                sc.subscribe(0, 100_000)
                for i in range(100):  # blow the log while not polling
                    writer.insert(95_000 + i, 10 * i, 10 * i + 5)
                event = sc.poll(timeout=5)
                assert event.get("resynced") is True
                assert sc.resyncs == 1
                assert sc.ids() == _oracle(store, 0, 100_000)
                # incremental delivery works again after the resync
                writer.insert(99_999, 50, 60)
                sc.poll(timeout=5)
                assert 99_999 in sc.ids()
            writer.close()
        finally:
            handle.stop()
            store.close()


class TestRestartCatchUp:
    def test_restart_with_same_manager_is_exact(self):
        """The delta-correctness acceptance gate: catch-up across a server
        restart delivers exactly the missed deltas, no resync."""
        store = IntervalStore.open(_collection(), "hintm_hybrid", num_shards=2)
        handle = start_server_thread(store, cache=64)
        sc = StreamClient(port=handle.port)
        try:
            sc.subscribe(0, 100_000)
            with ServeClient(port=handle.port) as writer:
                writer.insert(96_000, 500, 600)
            sc.poll(timeout=5)
            manager = handle.server.stream
            handle.stop()

            # updates land while the server is down (straight on the store;
            # the manager stays attached and keeps logging deltas)
            store.insert(Interval(96_001, 700, 800))
            store.delete(96_000)
            store.maintain(force=True)

            handle = start_server_thread(store, cache=64, stream=manager)
            sc2 = StreamClient(port=handle.port)
            # adopt the old identity: same subscription, same ack
            sc2._subscription_id = sc.subscription_id
            sc2._generation = sc.generation
            sc2._ids = set(sc.ids())
            poll = sc2.poll(timeout=5)
            assert poll.get("resynced") is None  # exact catch-up, no resync
            assert sc2.ids() == _oracle(store, 0, 100_000)
            sc2.close()
        finally:
            sc.close()
            handle.stop()
            store.close()


class TestServerSideRelations:
    def test_query_relation_matches_builder(self, served):
        from repro.stream import parse_relation

        store, handle, client = served
        for relation in ("during", "overlaps", "contains", "before"):
            response = client.query(1_000, 4_000, relation=relation)
            expected = set(
                store.query()
                .overlapping(1_000, 4_000)
                .relation(parse_relation(relation))
                .ids()
            )
            assert set(response["ids"]) == expected
            assert response["relation"] == relation

    def test_query_stats_payload(self, served):
        store, handle, client = served
        response = client.query(1_000, 4_000, stats=True)
        stats = response["stats"]
        assert stats["results"] == response["count"]
        assert stats["comparisons"] >= 0
        assert "partitions_accessed" in stats

    def test_batch_relation_and_stats(self, served):
        from repro.stream import parse_relation

        store, handle, client = served
        results = client.batch(
            [(1_000, 2_000), (3_000, 4_000)], relation="during", stats=True
        )
        assert len(results) == 2
        during = parse_relation("during")
        for (start, end), result in zip([(1_000, 2_000), (3_000, 4_000)], results):
            expected = set(
                store.query().overlapping(start, end).relation(during).ids()
            )
            assert set(result["ids"]) == expected
            assert result["relation"] == "during"
            assert result["stats"]["results"] == result["count"]

    def test_unknown_relation_is_400(self, served):
        store, handle, client = served
        with pytest.raises(ServerError) as excinfo:
            client.query(0, 100, relation="sideways")
        assert excinfo.value.status == 400

    def test_relation_results_not_cross_cached(self, served):
        """relation/stats variants get distinct cache keys."""
        store, handle, client = served
        plain = client.query(1_000, 4_000)
        during = client.query(1_000, 4_000, relation="during")
        plain2 = client.query(1_000, 4_000)  # cached: must still be plain
        assert set(plain2["ids"]) == set(plain["ids"])
        assert set(during["ids"]) <= set(plain["ids"])
