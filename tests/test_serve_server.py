"""The asyncio query server: endpoints, caching, admission control, drain.

The HTTP contract (framing, target forms, methods, the shared endpoints,
thread teardown) is checked on every surface the HTTP core serves: the
query server, a shard server and the router admin.
"""

import asyncio
import contextlib
import json
import os
import re
import select
import socket
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.cluster import ClusterRouter, ClusterTopology, start_shard_server_thread
from repro.core.allen import AllenRelation, satisfies_relation
from repro.core.interval import Interval, IntervalCollection, Query
from repro.engine import IntervalStore
from repro.serve.client import ServeClient, ServerError, ServerOverloaded
from repro.serve.server import QueryServer, start_server_thread

#: every listening surface on the shared HTTP core
SURFACES = ("query-server", "shard-server", "router-admin")


def _collection(n=300, seed=5):
    import numpy as np

    rng = np.random.default_rng(seed)
    starts = rng.integers(0, 10_000, n)
    ends = starts + rng.integers(0, 400, n)
    return IntervalCollection.from_pairs(
        [(int(s), int(e)) for s, e in zip(starts, ends)]
    )


def _oracle(collection, start, end):
    return {
        int(i)
        for i, s, e in zip(collection.ids, collection.starts, collection.ends)
        if s <= end and start <= e
    }


def _during_oracle(collection, start, end):
    query = Query(start, end)
    return {
        int(i)
        for i, s, e in zip(collection.ids, collection.starts, collection.ends)
        if satisfies_relation(Interval(int(i), int(s), int(e)), query, AllenRelation.DURING)
    }


@contextlib.contextmanager
def _surface(kind):
    """One running HTTP surface of ``kind``: yields ``(port, slow log)``."""
    store = IntervalStore.from_pairs([(1, 5), (3, 9)])
    try:
        if kind == "router-admin":
            # the admin never probes a shard, so the replica need not exist
            router = ClusterRouter(ClusterTopology.build([], [[("127.0.0.1", 9)]]))
            try:
                yield router.start_admin().port, router.slow_log
            finally:
                router.close()
        else:
            start = (
                start_shard_server_thread if kind == "shard-server" else start_server_thread
            )
            handle = start(store, cache=0)
            try:
                yield handle.port, handle.server.slow_log
            finally:
                handle.stop()
    finally:
        store.close()


@pytest.fixture()
def served():
    collection = _collection()
    store = IntervalStore.open(collection, "hintm_hybrid", num_shards=2)
    handle = start_server_thread(store, cache=128)
    client = ServeClient(port=handle.port)
    yield collection, store, client
    client.close()
    handle.stop()
    store.close()


class TestEndpoints:
    def test_query_matches_oracle(self, served):
        collection, _, client = served
        for start, end in ((0, 2_000), (5_000, 5_100), (9_000, 20_000)):
            response = client.query(start, end)
            assert set(response["ids"]) == _oracle(collection, start, end)
            assert response["count"] == len(response["ids"])

    def test_count_only(self, served):
        collection, _, client = served
        response = client.query(0, 6_000, count_only=True)
        assert response["count"] == len(_oracle(collection, 0, 6_000))
        assert "ids" not in response
        # every answer carries the generation token the cluster router
        # keys its distributed cache off
        assert isinstance(response["generation"], int)

    def test_stabbing(self, served):
        collection, _, client = served
        response = client.stab(5_000)
        assert set(response["ids"]) == _oracle(collection, 5_000, 5_000)

    def test_batch_matches_oracle(self, served):
        collection, _, client = served
        pairs = [(0, 1_000), (2_000, 4_000), (0, 1_000)]
        results = client.batch(pairs)
        assert len(results) == 3
        for (start, end), result in zip(pairs, results):
            assert set(result["ids"]) == _oracle(collection, start, end)
        counts = client.batch(pairs, count_only=True)
        for (start, end), result in zip(pairs, counts):
            assert result["count"] == len(_oracle(collection, start, end))

    def test_get_with_query_string(self, served):
        _, _, client = served
        response = client._request("GET", "/query?start=0&end=1000&count_only=1")
        assert "count" in response and "ids" not in response

    def test_health_and_stats(self, served):
        _, store, client = served
        assert client.health() == {"status": "ok"}
        stats = client.stats()
        assert stats["backend"] == "sharded"
        assert stats["intervals"] == len(store)
        assert stats["epoch"] == store.index.epoch
        assert stats["cache"]["capacity"] == 128

    def test_unknown_endpoint_404(self, served):
        _, _, client = served
        with pytest.raises(ServerError) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.status == 404

    def test_malformed_requests_400(self, served):
        _, _, client = served
        with pytest.raises(ServerError) as excinfo:
            client._request("POST", "/query", {"start": 3})
        assert excinfo.value.status == 400
        with pytest.raises(ServerError) as excinfo:
            client._request("POST", "/query", {"start": 9, "end": 3})
        assert excinfo.value.status == 400  # InvalidQueryError -> client error
        with pytest.raises(ServerError) as excinfo:
            client._request("POST", "/batch", {"queries": []})
        assert excinfo.value.status == 400


class TestCacheIntegration:
    def test_repeats_hit_the_cache(self, served):
        _, _, client = served
        first = client.query(0, 3_000)
        before = client.stats()["cache"]
        second = client.query(0, 3_000)
        after = client.stats()["cache"]
        assert second == first
        assert after["hits"] == before["hits"] + 1

    def test_insert_invalidates_cached_answer(self, served):
        collection, _, client = served
        baseline = set(client.query(4_000, 4_500)["ids"])
        client.query(4_000, 4_500)  # cached now
        client.insert(77_000, 4_100, 4_200)
        response = client.query(4_000, 4_500)
        assert set(response["ids"]) == baseline | {77_000}
        assert client.stats()["cache"]["invalidated"] >= 1

    def test_delete_invalidates_cached_answer(self, served):
        collection, _, client = served
        victim = next(iter(_oracle(collection, 0, 20_000)))
        before = set(client.query(0, 20_000)["ids"])
        assert client.delete(victim)["deleted"]
        after = set(client.query(0, 20_000)["ids"])
        assert after == before - {victim}

    def test_maintain_endpoint_moves_generation(self, served):
        _, store, client = served
        client.insert(88_000, 100, 200)
        generation = client.stats()["result_generation"]
        response = client.maintain(force=True)
        assert "summary" in response
        assert response["generation"] >= generation

    def test_batch_fills_and_uses_cache(self, served):
        collection, _, client = served
        pairs = [(0, 2_500), (3_000, 5_500)]
        client.batch(pairs)
        before = client.stats()["cache"]
        client.batch(pairs)
        after = client.stats()["cache"]
        assert after["hits"] >= before["hits"] + 2

    def test_cache_gauges_reported_by_stats(self, served):
        _, _, client = served
        client.query(0, 3_333)
        client.query(0, 3_333)
        cache = client.stats()["cache"]
        assert cache["hits"] >= 1
        assert cache["size"] >= 1
        # an instrumented query carries the probe's counters only
        stats = client.query(0, 3_333, stats=True)["stats"]
        assert set(stats) == {
            "results", "comparisons", "partitions_accessed",
            "partitions_compared", "candidates",
        }


class TestAdmissionControl:
    def test_overload_rejected_with_503(self):
        collection = _collection()
        store = IntervalStore.open(collection, "hintm_opt", num_shards=2)
        # a store whose batches park until released: every admitted request
        # stays in flight, so the second concurrent request must bounce.
        # The requests are /batch calls, which park in a worker thread; a
        # /query runs on the event loop and holds it instead (see
        # test_slow_lone_query_holds_the_loop), so it is never admitted
        # beside another
        gate = threading.Event()
        original = store.run_batch

        def slow_run_batch(queries, count_only=False):
            gate.wait(timeout=10)
            return original(queries, count_only=count_only)

        store.run_batch = slow_run_batch
        handle = start_server_thread(store, cache=0, max_pending=1)
        rejected = []
        answered = []

        def fire():
            client = ServeClient(port=handle.port)
            try:
                answered.append(client.batch([(0, 1_000)]))
            except ServerOverloaded as exc:
                rejected.append(exc)
            finally:
                client.close()

        threads = [threading.Thread(target=fire) for _ in range(4)]
        try:
            for thread in threads:
                thread.start()
                time.sleep(0.05)  # let each request reach admission in order
            gate.set()
            for thread in threads:
                thread.join(timeout=10)
            assert rejected, "admission control never rejected under overload"
            assert answered, "every request was rejected -- nothing served"
            assert all(exc.status == 503 for exc in rejected)
            assert all(
                exc.payload.get("error") == "overloaded" for exc in rejected
            )
            with ServeClient(port=handle.port) as client:
                assert client.stats()["rejected"] == len(rejected)
        finally:
            gate.set()
            handle.stop()
            store.close()

    def test_rejections_carry_retry_after(self):
        collection = _collection()
        store = IntervalStore.open(collection, "hintm_opt")
        gate = threading.Event()
        original = store.run_batch
        store.run_batch = lambda q, count_only=False: (
            gate.wait(10),
            original(q, count_only=count_only),
        )[1]
        handle = start_server_thread(store, cache=0, max_pending=1)
        try:
            # the parked request is a /batch (worker thread), so the loop
            # stays free to reject the /query behind it
            def parked():
                with ServeClient(port=handle.port) as client:
                    client.batch([(0, 10)])

            background = threading.Thread(target=parked)
            background.start()
            time.sleep(0.1)
            with ServeClient(port=handle.port) as client:
                with pytest.raises(ServerOverloaded) as excinfo:
                    client.query(0, 10)
            assert excinfo.value.payload["retry_after"] == 1
            gate.set()
            background.join(timeout=10)
        finally:
            gate.set()
            handle.stop()
            store.close()


class TestLifecycle:
    @pytest.mark.parametrize("endpoint", ["/query", "/batch"])
    def test_drain_finishes_inflight_then_refuses(self, endpoint):
        collection = _collection()
        store = IntervalStore.open(collection, "hintm_opt")
        release = threading.Event()
        original = store.run_batch
        original_text = store.index.ids_text

        def slow_run_batch(queries, count_only=False):
            release.wait(timeout=10)
            return original(queries, count_only=count_only)

        def slow_ids_text(query):
            release.wait(timeout=10)
            return original_text(query)

        # a /batch parks in run_batch; a plain /query, sliced from the
        # rendered id column, in the index's ids_text
        store.run_batch = slow_run_batch
        store.index.ids_text = slow_ids_text
        handle = start_server_thread(store, cache=0)
        answers = []

        def call():
            with ServeClient(port=handle.port) as client:
                if endpoint == "/query":
                    answers.append(client.query(0, 9_999))
                else:
                    answers.extend(client.batch([(0, 9_999)]))

        # a /batch parks in a worker thread while stop() drains; a lone
        # /query parks the event loop itself, so stop() starts once it has
        # run -- either way the admitted request is answered, then refused
        worker = threading.Thread(target=call)
        worker.start()
        time.sleep(0.15)  # the request is admitted and parked in the store

        stopper = threading.Thread(target=handle.stop)
        stopper.start()
        time.sleep(0.15)  # stop() is now draining, waiting on the request
        release.set()
        worker.join(timeout=10)
        stopper.join(timeout=10)
        # the in-flight request completed despite the concurrent drain...
        assert answers and set(answers[0]["ids"]) == _oracle(collection, 0, 9_999)
        # ...and the listener is gone afterwards
        with pytest.raises(OSError):
            ServeClient(port=handle.port, timeout=1).health()
        store.close()

    def test_concurrent_queries_each_take_one_store_call(self):
        collection = _collection()
        store = IntervalStore.open(collection, "hintm_opt", num_shards=2)
        handle = start_server_thread(store, cache=0)
        try:
            expected = {
                (a, b): _oracle(collection, a, b)
                for a, b in ((0, 1_000), (1_000, 2_000), (2_000, 3_000), (3_000, 4_000))
            }
            failures = []

            def fire(start, end):
                client = ServeClient(port=handle.port)
                try:
                    for _ in range(5):
                        got = set(client.query(start, end)["ids"])
                        if got != expected[(start, end)]:
                            failures.append((start, end))
                finally:
                    client.close()

            threads = [
                threading.Thread(target=fire, args=pair) for pair in expected
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not failures
            # nothing coalesces: every /query is one run_batch call of one
            with ServeClient(port=handle.port) as admin:
                stats = admin.stats()
            assert stats["batches"] == stats["batched_queries"] == 20
        finally:
            handle.stop()
            store.close()

    def test_server_parameter_validation(self):
        store = IntervalStore.from_pairs([(1, 2)])
        with pytest.raises(ValueError, match="max_pending"):
            QueryServer(store, max_pending=0)
        with pytest.raises(ValueError, match="max_batch"):
            QueryServer(store, max_batch=0)
        store.close()


class _CountingExecutor(ThreadPoolExecutor):
    """The loop's default executor, counting what ``run_in_executor`` sends."""

    def __init__(self) -> None:
        super().__init__(max_workers=1)
        self.submitted = 0

    def submit(self, *args, **kwargs):
        self.submitted += 1
        return super().submit(*args, **kwargs)


class _GatedExecutor(_CountingExecutor):
    """A counting executor whose jobs start only once ``gate`` is set."""

    def __init__(self, gate: threading.Event) -> None:
        super().__init__()
        self._gate = gate

    def submit(self, fn, *args, **kwargs):
        def gated():
            self._gate.wait(timeout=10)
            return fn(*args, **kwargs)

        return super().submit(gated)


class TestInlineExecution:
    def test_lone_query_and_updates_run_on_the_loop_the_rest_hops(self):
        store = IntervalStore.open(_collection(), "hintm_hybrid")
        handle = start_server_thread(store, cache=0)
        executor = _CountingExecutor()
        handle._loop.set_default_executor(executor)
        client = ServeClient(port=handle.port)
        try:
            before = client.stats()
            response = client.query(0, 1_000)
            after = client.stats()
            assert set(response["ids"]) == _oracle(_collection(), 0, 1_000)
            assert executor.submitted == 0  # no thread hop for a lone query
            # ...and it is still one run_batch call of one query
            assert after["batches"] == before["batches"] + 1
            assert after["batched_queries"] == before["batched_queries"] + 1
            # every other /query kind answers on the loop too
            expected = _oracle(_collection(), 0, 1_000)
            assert client.query(0, 1_000, count_only=True)["count"] == len(expected)
            during = client.query(0, 1_000, relation="during")
            assert set(during["ids"]) == _during_oracle(_collection(), 0, 1_000)
            assert client.query(0, 1_000, stats=True)["stats"]["results"] == len(
                expected
            )
            assert executor.submitted == 0
            # an update applies inside the callback too: no thread hop
            assert client.insert(90_000, 5, 9)["inserted"] == 90_000
            assert client.delete(90_000)["deleted"] is True
            assert executor.submitted == 0
            assert client.stats()["updates"] == 2
            client.batch([(0, 1_000)])
            assert executor.submitted == 1
            client.maintain(force=True)
            assert executor.submitted == 2
        finally:
            client.close()
            handle.stop()
            store.close()

    def test_process_executor_store_still_hops(self):
        # its reads wait on the worker pool (and may build a lazy shard
        # under the update lock): never on the event loop
        collection = _collection()
        store = IntervalStore.open(
            collection, "hintm_opt", num_shards=2, executor="processes", workers=2
        )
        handle = start_server_thread(store, cache=0)
        executor = _CountingExecutor()
        handle._loop.set_default_executor(executor)
        client = ServeClient(port=handle.port)
        try:
            response = client.query(0, 1_000)
            assert set(response["ids"]) == _oracle(collection, 0, 1_000)
            assert executor.submitted == 1
            # a relation query takes the same single hop
            during = client.query(0, 1_000, relation="during")
            assert set(during["ids"]) == _during_oracle(collection, 0, 1_000)
            assert executor.submitted == 2
        finally:
            client.close()
            handle.stop()
            store.close()

    def test_slow_lone_query_holds_the_loop(self):
        # the trade of running a lone query inline: it cannot be preempted,
        # so the requests behind it wait for it -- neither admitted beside it
        # nor answered 503 -- and are served once it has run
        collection = _collection()
        store = IntervalStore.open(collection, "hintm_opt")
        gate = threading.Event()
        # a plain /query on hintm_opt is sliced from the rendered id column:
        # the handler's one store-side call is the index's ids_text
        original = store.index.ids_text
        store.index.ids_text = lambda q: (gate.wait(10), original(q))[1]
        handle = start_server_thread(store, cache=0, max_pending=1)
        answers = []

        def parked():
            with ServeClient(port=handle.port) as client:
                answers.append(client.query(0, 10))

        try:
            background = threading.Thread(target=parked)
            background.start()
            time.sleep(0.1)
            with ServeClient(port=handle.port, timeout=0.3, retries=0) as behind:
                with pytest.raises(OSError):  # times out: nothing reads it
                    behind.health()
            gate.set()
            background.join(timeout=10)
            assert set(answers[0]["ids"]) == _oracle(collection, 0, 10)
            with ServeClient(port=handle.port) as client:
                response = client.query(0, 10)
                assert set(response["ids"]) == _oracle(collection, 0, 10)
                assert client.stats()["rejected"] == 0
        finally:
            gate.set()
            handle.stop()
            store.close()


class _SlowFsyncOs:
    """``os`` for :mod:`repro.durability.wal` with a gated, slow ``fsync``.

    Every fsync sleeps ``delay`` seconds; once :attr:`gate` is cleared, the
    next one also sets :attr:`started` and waits for the gate to reopen.
    """

    def __init__(self, delay: float) -> None:
        self.delay = delay
        self.gate = threading.Event()
        self.gate.set()
        self.started = threading.Event()

    def fsync(self, fd: int) -> None:
        if not self.gate.is_set():
            self.started.set()
            self.gate.wait(timeout=10)
        time.sleep(self.delay)
        os.fsync(fd)

    def __getattr__(self, name: str):
        return getattr(os, name)


def _in_thread(fn):
    """Run ``fn`` on a thread; returns ``(thread, results)``."""
    results = []
    thread = threading.Thread(target=lambda: results.append(fn()))
    thread.start()
    return thread, results


class TestUpdatePath:
    """An update applies on the loop unless that would wait on another
    thread or a slow disk; then it waits off the loop and reads go on."""

    def test_an_update_behind_a_hopped_maintain_waits_and_reads_go_on(self):
        collection = _collection()
        store = IntervalStore.open(collection, "hintm_hybrid")
        gate = threading.Event()
        original = store.maintain

        def gated_maintain(force=False, checkpoint=False):
            gate.wait(timeout=10)
            return original(force=force, checkpoint=checkpoint)

        store.maintain = gated_maintain
        handle = start_server_thread(store, cache=0)

        def call(request):
            with ServeClient(port=handle.port) as client:
                return request(client)

        try:
            maintaining, _ = _in_thread(lambda: call(lambda c: c.maintain(force=True)))
            time.sleep(0.1)  # /maintain holds the update lock, parked
            inserting, inserted = _in_thread(
                lambda: call(lambda c: c.insert(90_000, 5, 9))
            )
            time.sleep(0.2)
            assert inserted == []  # no answer while maintenance runs
            # ...while a read on a third connection is answered
            assert call(lambda c: c.query(0, 10))["ids"] is not None
            assert inserted == []
            gate.set()
            maintaining.join(timeout=10)
            inserting.join(timeout=10)
            assert inserted[0]["inserted"] == 90_000
            ids = set(call(lambda c: c.query(0, 10))["ids"])
            assert ids == _oracle(collection, 0, 10) | {90_000}
        finally:
            gate.set()
            handle.stop()
            store.close()

    def test_after_a_slow_fsync_the_next_update_leaves_the_loop(
        self, tmp_path, monkeypatch
    ):
        from repro.durability import wal

        collection = _collection()
        store = IntervalStore.open(
            collection, "hintm_hybrid", wal_dir=str(tmp_path), fsync="always"
        )
        slow = _SlowFsyncOs(delay=0.05)
        monkeypatch.setattr(wal, "os", slow)
        handle = start_server_thread(store, cache=0)
        try:
            with ServeClient(port=handle.port) as writer:
                writer.insert(90_000, 5, 9)  # inline: the loop waits ~50 ms
                assert store.durability.last_fsync_s >= 0.05
                slow.gate.clear()  # the next fsync parks until the gate opens
                updating, updated = _in_thread(lambda: writer.insert(90_001, 6, 8))
                assert slow.started.wait(timeout=10)
                # the update's fsync is running: a read on another
                # connection is answered all the same
                with ServeClient(port=handle.port, timeout=2, retries=0) as reader:
                    ids = set(reader.query(0, 10)["ids"])
                assert updated == []
                slow.gate.set()
                updating.join(timeout=10)
            assert updated[0]["inserted"] == 90_001
            assert 90_000 in ids
            with ServeClient(port=handle.port) as reader:
                assert {90_000, 90_001} <= set(reader.query(0, 10)["ids"])
        finally:
            slow.gate.set()
            handle.stop()
            store.close()

    def test_an_update_blocked_on_the_store_lock_leaves_health_answered(self):
        collection = _collection()
        store = IntervalStore.open(collection, "hintm_hybrid", num_shards=2)
        handle = start_server_thread(store, cache=0)
        held, release = threading.Event(), threading.Event()

        def holder():
            with store.updates.lock:  # e.g. a checkpoint on another thread
                held.set()
                release.wait(timeout=10)

        holding = threading.Thread(target=holder)
        holding.start()
        try:
            assert held.wait(timeout=10)

            def insert():
                with ServeClient(port=handle.port) as client:
                    return client.insert(90_000, 5, 9)

            inserting, inserted = _in_thread(insert)
            time.sleep(0.1)
            with ServeClient(port=handle.port, timeout=2, retries=0) as client:
                assert client.health() == {"status": "ok"}
            assert inserted == []
            release.set()
            inserting.join(timeout=10)
            assert inserted[0]["inserted"] == 90_000
        finally:
            release.set()
            holding.join(timeout=10)
            handle.stop()
            store.close()

    def test_an_update_beside_a_hopped_one_still_applies_inline(self):
        # a hopped update holds the server's update lock; it alone is no
        # reason for the next update, on another connection, to queue
        collection = _collection()
        store = IntervalStore.open(collection, "hintm_hybrid")
        handle = start_server_thread(store, cache=0)
        gate = threading.Event()
        executor = _GatedExecutor(gate)
        handle._loop.set_default_executor(executor)

        def insert(interval_id):
            with ServeClient(port=handle.port, timeout=2, retries=0) as client:
                return client.insert(interval_id, 5, 9)

        try:
            with store.updates.lock:  # the first update cannot apply inline
                hopping, hopped = _in_thread(lambda: insert(90_000))
                time.sleep(0.2)
            assert executor.submitted == 1  # ...so it hopped, and waits
            assert insert(90_001)["inserted"] == 90_001  # inline, meanwhile
            assert hopped == []
            gate.set()
            hopping.join(timeout=10)
            assert hopped[0]["inserted"] == 90_000
            assert executor.submitted == 1
            with ServeClient(port=handle.port) as client:
                ids = set(client.query(0, 10)["ids"])
            assert ids == _oracle(collection, 0, 10) | {90_000, 90_001}
        finally:
            gate.set()
            handle.stop()
            store.close()

    def test_a_queued_update_applies_inline_once_the_store_lock_is_free(self):
        # an update that queued behind a hopped one, while another thread
        # held the store lock, takes no hop of its own when that thread has
        # let go by its turn
        collection = _collection()
        store = IntervalStore.open(collection, "hintm_hybrid")
        handle = start_server_thread(store, cache=0)
        gate = threading.Event()
        executor = _GatedExecutor(gate)
        handle._loop.set_default_executor(executor)
        update_lock = handle.server._update_lock

        def insert(interval_id):
            with ServeClient(port=handle.port, timeout=5, retries=0) as client:
                return client.insert(interval_id, 5, 9)

        def waiting_on_the_update_lock():
            return len(update_lock._waiters or ())

        try:
            with store.updates.lock:  # another thread's hold, as a checkpoint's
                hopping, hopped = _in_thread(lambda: insert(90_000))
                deadline = time.monotonic() + 10
                while executor.submitted < 1 and time.monotonic() < deadline:
                    time.sleep(0.01)
                assert executor.submitted == 1  # the first update hopped
                queued, queued_answer = _in_thread(lambda: insert(90_001))
                while waiting_on_the_update_lock() < 1 and time.monotonic() < deadline:
                    time.sleep(0.01)
                assert waiting_on_the_update_lock() == 1  # the second one queued
            gate.set()  # the store lock is free before the queued update's turn
            hopping.join(timeout=10)
            queued.join(timeout=10)
            assert hopped[0]["inserted"] == 90_000
            assert queued_answer[0]["inserted"] == 90_001
            assert executor.submitted == 1  # the queued update applied inline
            with ServeClient(port=handle.port) as client:
                ids = set(client.query(0, 10)["ids"])
            assert ids == _oracle(collection, 0, 10) | {90_000, 90_001}
        finally:
            gate.set()
            handle.stop()
            store.close()

    def test_inline_and_hopped_updates_interleave_without_loss(self, tmp_path):
        # more writers than cores, a thread grabbing the store lock so some
        # updates hop while others apply inline, and /maintain passes
        # between them: every acknowledged update is in the index, counted
        # once, and recovered from the WAL in the order it was applied
        collection = _collection()
        store = IntervalStore.open(
            collection, "hintm_hybrid", num_shards=2,
            wal_dir=str(tmp_path), fsync="always",
        )
        handle = start_server_thread(store, cache=64)
        writers, per_writer = 4, 30
        done = threading.Event()
        errors = []

        def write(writer):
            try:
                with ServeClient(port=handle.port) as client:
                    for k in range(per_writer):
                        interval_id = 100_000 + writer * 1_000 + k
                        client.insert(interval_id, k * 10, k * 10 + 5)
                        if k % 2:
                            client.delete(interval_id)
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        def hold_the_lock():
            while not done.is_set():
                with store.updates.lock:
                    time.sleep(0.001)
                time.sleep(0.001)

        def maintain():
            with ServeClient(port=handle.port) as client:
                while not done.is_set():
                    client.maintain(force=True)
                    time.sleep(0.01)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        helpers = [threading.Thread(target=hold_the_lock), threading.Thread(target=maintain)]
        threads = [threading.Thread(target=write, args=(w,)) for w in range(writers)]
        try:
            for thread in helpers + threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            done.set()
            for thread in helpers:
                thread.join(timeout=10)
            assert not any(thread.is_alive() for thread in helpers + threads)
            assert errors == []
            expected = set(int(i) for i in collection.ids) | {
                100_000 + w * 1_000 + k
                for w in range(writers)
                for k in range(0, per_writer, 2)
            }
            with ServeClient(port=handle.port) as client:
                assert client.stats()["updates"] == writers * (per_writer + per_writer // 2)
                served = set(client.query(-1, 1 << 40)["ids"])
            assert served == expected
        finally:
            done.set()
            sys.setswitchinterval(switch)
            handle.stop()
            store.close()
        recovered = IntervalStore.open(
            collection, "hintm_hybrid", num_shards=2, wal_dir=str(tmp_path)
        )
        try:
            assert set(recovered.query().overlapping(-1, 1 << 40).ids().tolist()) == expected
        finally:
            recovered.close()


class TestRequestLimits:
    def test_oversized_body_rejected_with_413(self):
        import http.client

        from repro.serve.http import MAX_BODY_BYTES

        store = IntervalStore.from_pairs([(1, 5), (3, 9)])
        handle = start_server_thread(store, cache=0)
        try:
            connection = http.client.HTTPConnection(
                "127.0.0.1", handle.port, timeout=10
            )
            # claim an absurd body without sending it: the server must
            # reject on the header alone, never buffer toward the claim
            connection.putrequest("POST", "/query")
            connection.putheader("Content-Type", "application/json")
            connection.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
            connection.endheaders()
            response = connection.getresponse()
            assert response.status == 413
            assert b"exceeds" in response.read()
            connection.close()
            # the server is still healthy for well-behaved clients
            client = ServeClient(port=handle.port)
            assert client.health() == {"status": "ok"}
            client.close()
        finally:
            handle.stop()
            store.close()

    @pytest.mark.parametrize(
        "request_bytes",
        [
            # each framed body must never be parsed as the next request
            pytest.param(
                b"GET /health HTTP/1.1\r\nHost: x\r\nContent-Length: -5\r\n\r\n"
                b"5\r\nGET /\r\n0\r\n\r\n",
                id="negative-content-length",
            ),
            pytest.param(
                b"GET /health HTTP/1.1\r\nHost: x\r\nContent-Length: 12abc\r\n\r\n"
                b"5\r\nGET /\r\n0\r\n\r\n",
                id="non-numeric-content-length",
            ),
            pytest.param(
                b"GET /health HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n"
                b"5\r\nGET /\r\n0\r\n\r\n",
                id="chunked-body",
            ),
            # bare-LF framing: answered at once, not left waiting for a
            # CRLF blank line that never comes
            pytest.param(b"GET /health HTTP/1.1\nHost: x\n\n", id="bare-lf-head"),
        ],
    )
    @pytest.mark.parametrize("kind", SURFACES)
    def test_unframeable_body_answers_400_and_closes(self, kind, request_bytes):
        with _surface(kind) as (port, _):
            with socket.create_connection(("127.0.0.1", port), timeout=10) as raw:
                raw.sendall(request_bytes)
                response = b""
                while True:  # the server closes: read to EOF
                    chunk = raw.recv(65536)
                    if not chunk:
                        break
                    response += chunk
            head, _, body = response.partition(b"\r\n\r\n")
            assert head.startswith(b"HTTP/1.1 400 ")
            assert b"\r\nConnection: close" in head
            assert b"error" in body
            assert response.count(b"HTTP/1.1") == 1  # one answer, then EOF
            with ServeClient(port=port) as client:
                assert client.health() == {"status": "ok"}

    @pytest.mark.parametrize(
        "target",
        [
            "/health",
            "/health/",
            "/health#top",
            "/health?verbose=1#top",
            "http://127.0.0.1/health",  # absolute-form
        ],
    )
    @pytest.mark.parametrize("kind", SURFACES)
    def test_request_target_forms_route_to_the_endpoint(self, kind, target):
        import http.client
        import json

        with _surface(kind) as (port, _):
            connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
            connection.request("GET", target)
            response = connection.getresponse()
            assert response.status == 200
            assert json.loads(response.read()) == {"status": "ok"}
            # a header-less request (the blank line straight after the
            # request line) is framed too
            connection.sock.sendall(b"GET " + target.encode() + b" HTTP/1.1\r\n\r\n")
            response = http.client.HTTPResponse(connection.sock)
            response.begin()
            assert response.status == 200
            assert json.loads(response.read()) == {"status": "ok"}
            connection.close()

    @pytest.mark.parametrize(
        "kind, method, target",
        [
            ("query-server", "GET", "/insert"),
            ("query-server", "PUT", "/query"),
            ("shard-server", "GET", "/shard-batch"),
            ("router-admin", "POST", "/health"),
            ("router-admin", "POST", "/metrics"),
        ],
    )
    def test_a_method_off_the_route_answers_405_and_keeps_alive(
        self, kind, method, target
    ):
        with _surface(kind) as (port, _):
            with ServeClient(port=port) as client:
                with pytest.raises(ServerError) as excinfo:
                    client._request(method, target, {})
                assert excinfo.value.status == 405
                assert method in excinfo.value.payload["error"]
                sock = client._sock
                assert client.health() == {"status": "ok"}
                assert client._sock is sock

    @pytest.mark.parametrize("kind", SURFACES)
    def test_slow_queries_limit_is_a_count_of_newest_entries(self, kind):
        with _surface(kind) as (port, slow_log):
            for position in range(3):
                slow_log.record("/query", 1e3, args={"position": position})
            with ServeClient(port=port) as client:
                newest = client.slow_queries(limit=2)["slow_queries"]
                assert [entry["args"]["position"] for entry in newest] == [2, 1]
                assert client.slow_queries(limit=0)["slow_queries"] == []
                for bad in (-1, "abc"):
                    with pytest.raises(ServerError) as excinfo:
                        client.slow_queries(limit=bad)
                    assert excinfo.value.status == 400
                    assert "'limit'" in excinfo.value.payload["error"]
                assert len(client.slow_queries()["slow_queries"]) == 3

    @pytest.mark.parametrize("kind", SURFACES)
    def test_no_loop_thread_outlives_its_handle(self, kind):
        before = set(threading.enumerate())
        with _surface(kind) as (port, _):
            with ServeClient(port=port) as client:
                client.health()
                if kind != "router-admin":
                    # a two-query batch hops to the loop's worker threads
                    client.batch([(1, 5), (3, 9)])
            assert set(threading.enumerate()) - before  # the loop is running
        assert set(threading.enumerate()) - before == set()

    def test_update_requests_are_not_blind_retried(self):
        # the classification, not the network failure: /insert and /delete
        # must never be in the client's re-send set
        assert "/insert" not in ServeClient._RETRYABLE_PATHS
        assert "/delete" not in ServeClient._RETRYABLE_PATHS
        assert "/maintain" not in ServeClient._RETRYABLE_PATHS
        assert "/query" in ServeClient._RETRYABLE_PATHS


#: (method, target, body, field): a request whose numeric field ``field``
#: does not parse as an integer -- the client's error, answered 400
_MALFORMED_NUMERIC = [
    ("GET", "/query?start=abc&end=5", None, "start"),
    ("POST", "/query", {"stab": [3]}, "stab"),
    ("POST", "/batch", {"queries": [[1]]}, "queries"),
    ("POST", "/batch", {"queries": [[1, None]]}, "queries"),
    ("POST", "/batch", {"queries": [5]}, "queries"),
    ("POST", "/insert", {"id": "x", "start": 1, "end": 2}, "id"),
    ("POST", "/delete", {"id": [1]}, "id"),
    ("POST", "/subscribe", {"start": 1, "end": 9, "min_duration": "x"}, "min_duration"),
    ("POST", "/unsubscribe", {"subscription_id": None}, "subscription_id"),
    ("POST", "/poll-deltas", {"subscription_id": "q"}, "subscription_id"),
    ("POST", "/poll-deltas", {"subscription_id": 0, "after": "x"}, "after"),
    ("POST", "/poll-deltas", {"subscription_id": 0, "timeout": "x"}, "timeout"),
    ("GET", "/slow-queries?limit=abc", None, "limit"),
]


class TestHttpContract:
    def test_mutations_require_post(self, served):
        _, store, client = served
        size = len(store)
        with pytest.raises(ServerError) as excinfo:
            client._request("GET", "/insert?id=123456&start=0&end=5")
        assert excinfo.value.status == 405
        with pytest.raises(ServerError) as excinfo:
            client._request("GET", "/delete?id=0")
        assert excinfo.value.status == 405
        with pytest.raises(ServerError) as excinfo:
            client._request("GET", "/maintain")
        assert excinfo.value.status == 405
        assert len(store) == size  # nothing mutated

    def test_read_only_shard_server_refuses_writes_with_403(self):
        store = IntervalStore.from_pairs([(1, 5), (3, 9)])
        handle = start_shard_server_thread(
            store, shard_id=0, role="follower"
        )
        try:
            with ServeClient(port=handle.port) as client:
                for call in (
                    lambda: client.insert(7, 1, 2),
                    lambda: client.delete(0),
                    lambda: client.maintain(),
                ):
                    with pytest.raises(ServerError) as excinfo:
                        call()
                    assert excinfo.value.status == 403
                    assert excinfo.value.payload["role"] == "follower"
                assert client.query(0, 10)["count"] == 2  # reads still answer
            assert len(store) == 2
        finally:
            handle.stop()
            store.close()

    def test_validation_errors_do_not_inflate_rejected(self, served):
        _, _, client = served
        before = client.stats()
        with pytest.raises(ServerError):
            client._request("POST", "/query", {"start": 3})  # 400
        after = client.stats()
        assert after["rejected"] == before["rejected"]
        assert after["errors"] == before["errors"] + 1

    @pytest.mark.parametrize(
        "shard, method, target, body, field",
        [(shard, *case) for shard in (False, True) for case in _MALFORMED_NUMERIC],
    )
    def test_malformed_numeric_field_answers_400_and_keeps_alive(
        self, shard, method, target, body, field
    ):
        import http.client
        import json

        from repro.cluster import start_shard_server_thread

        store = IntervalStore.from_pairs([(1, 5), (3, 9)])
        handle = (
            start_shard_server_thread(store, shard_id=0)
            if shard
            else start_server_thread(store)
        )
        try:
            connection = http.client.HTTPConnection(
                "127.0.0.1", handle.port, timeout=10
            )
            connection.request(
                method, target, body=None if body is None else json.dumps(body)
            )
            response = connection.getresponse()
            answer = json.loads(response.read())
            assert response.status == 400, answer
            assert f"'{field}'" in answer["error"]
            # the connection survives the client error
            sock = connection.sock
            connection.request("GET", "/health")
            response = connection.getresponse()
            assert response.status == 200
            assert json.loads(response.read()) == {"status": "ok"}
            assert connection.sock is sock
            connection.close()
        finally:
            handle.stop()
            store.close()

    def test_large_batch_chunks_through_max_batch(self):
        collection = _collection()
        store = IntervalStore.open(collection, "hintm_opt", num_shards=2)
        handle = start_server_thread(store, cache=0, max_batch=8)
        try:
            client = ServeClient(port=handle.port)
            pairs = [(i * 10, i * 10 + 500) for i in range(50)]
            results = client.batch(pairs)
            for (start, end), result in zip(pairs, results):
                assert set(result["ids"]) == _oracle(collection, start, end)
            stats = client.stats()
            # 50 misses through max_batch=8 -> ceil(50/8)=7 run_batch calls
            assert stats["batches"] == 7
            assert stats["batched_queries"] == 50
            client.close()
        finally:
            handle.stop()
            store.close()


class TestBatchAdmissionWeight:
    def test_batch_heavier_than_max_pending_is_rejected_as_client_error(self):
        collection = _collection()
        store = IntervalStore.open(collection, "hintm_opt", num_shards=2)
        # weight = ceil(queries / max_batch) chunks; 5 chunks > max_pending=4
        handle = start_server_thread(store, cache=0, max_batch=2, max_pending=4)
        try:
            client = ServeClient(port=handle.port)
            with pytest.raises(ServerError) as excinfo:
                client.batch([(i, i + 10) for i in range(10)])
            assert excinfo.value.status == 400
            assert "split the batch" in str(excinfo.value)
            # a batch that fits the bound still answers
            results = client.batch([(0, 1_000), (2_000, 3_000)])
            assert len(results) == 2
            client.close()
        finally:
            handle.stop()
            store.close()


def _read_responses(sock, count):
    """Up to ``count`` responses off ``sock`` (fewer at EOF):
    ``([(status, head, body), ...], bytes left over)``."""
    data = b""
    responses = []
    while len(responses) < count:
        head_end = data.find(b"\r\n\r\n")
        if head_end >= 0:
            head = data[:head_end]
            length = int(re.search(rb"Content-Length: (\d+)", head).group(1))
            body_end = head_end + 4 + length
            if len(data) >= body_end:
                responses.append((int(head.split()[1]), head, data[head_end + 4 : body_end]))
                data = data[body_end:]
                continue
        chunk = sock.recv(65536)
        if not chunk:
            break
        data += chunk
    return responses, data


def _on_loop(handle, fn):
    """``fn()``'s value, computed on the server's loop thread."""

    async def call():
        return fn()

    return asyncio.run_coroutine_threadsafe(call(), handle._loop).result(timeout=10)


class TestConnectionFraming:
    """The per-connection protocol frames requests however the bytes arrive."""

    @pytest.mark.parametrize("kind", SURFACES)
    def test_a_request_sent_one_byte_per_send_is_answered(self, kind):
        request = b"GET /health HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\n{}"
        with _surface(kind) as (port, _):
            with socket.create_connection(("127.0.0.1", port), timeout=10) as raw:
                raw.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                for byte in request:
                    raw.send(bytes([byte]))
                    time.sleep(0.001)
                (response,), rest = _read_responses(raw, 1)
        assert response[0] == 200
        assert json.loads(response[2]) == {"status": "ok"}
        assert rest == b""

    @pytest.mark.parametrize("kind", SURFACES)
    def test_pipelined_requests_in_one_send_are_answered_in_order(self, kind):
        with _surface(kind) as (port, _):
            with socket.create_connection(("127.0.0.1", port), timeout=10) as raw:
                raw.sendall(
                    b"GET /health HTTP/1.1\r\n\r\n"
                    b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n"
                    b"GET /slow-queries?limit=0 HTTP/1.1\r\n\r\n"
                )
                responses, _ = _read_responses(raw, 3)
        assert [status for status, _, _ in responses] == [200, 200, 200]
        health, metrics, slow = (body for _, _, body in responses)
        assert json.loads(health) == {"status": "ok"}
        assert b"# TYPE" in metrics
        assert json.loads(slow)["slow_queries"] == []

    def test_an_insert_pipelined_before_a_query_is_seen_by_it(self, served):
        # the insert applies inside the callback that read it, before the
        # query behind it is framed; were it to wait (see _update_later),
        # the connection would read nothing more until it had applied
        collection, _, client = served
        port = client._port
        before = _oracle(collection, 0, 10)
        insert = json.dumps({"id": 90_000, "start": 5, "end": 9}).encode()
        with socket.create_connection(("127.0.0.1", port), timeout=10) as raw:
            raw.sendall(
                b"GET /query?start=0&end=10 HTTP/1.1\r\n\r\n"
                b"POST /insert HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
                b"GET /query?start=0&end=10 HTTP/1.1\r\n\r\n" % (len(insert), insert)
            )
            responses, _ = _read_responses(raw, 3)
        assert [status for status, _, _ in responses] == [200, 200, 200]
        first, inserted, second = (json.loads(body) for _, _, body in responses)
        assert set(first["ids"]) == before
        assert inserted["inserted"] == 90_000
        assert set(second["ids"]) == before | {90_000}
        assert second["generation"] > first["generation"]

    @pytest.mark.parametrize("kind", SURFACES)
    def test_a_framing_reject_behind_a_good_request(self, kind):
        with _surface(kind) as (port, _):
            with socket.create_connection(("127.0.0.1", port), timeout=10) as raw:
                raw.sendall(
                    b"GET /health HTTP/1.1\r\n\r\n"
                    b"GET /health HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
                    b"GET /health HTTP/1.1\r\n\r\n"
                )
                responses, rest = _read_responses(raw, 3)
                assert raw.recv(65536) == b""  # then EOF
        assert [status for status, _, _ in responses] == [200, 400]
        assert b"Connection: close" not in responses[0][1]
        assert b"\r\nConnection: close" in responses[1][1]
        assert b"Transfer-Encoding" in responses[1][2]
        assert rest == b""

    def test_a_client_that_never_reads_cannot_grow_the_server_buffers(self):
        collection = _collection()
        store = IntervalStore.open(collection, "hintm_opt")
        handle = start_server_thread(store, cache=1024)
        request = b"GET /query?start=0&end=10000 HTTP/1.1\r\n\r\n"  # ~1.5 KB answer
        chunk = request * 1024
        try:
            with socket.create_connection(("127.0.0.1", handle.port), timeout=10) as raw:
                raw.setblocking(False)
                sent = 0
                deadline = time.monotonic() + 20
                while time.monotonic() < deadline:
                    _, writable, _ = select.select([], [raw], [], 0.5)
                    if not writable:
                        break  # the server stopped reading
                    sent += raw.send(chunk[sent % len(chunk) :])
                else:
                    pytest.fail("the server kept reading a client that never reads")
                buffered = _on_loop(
                    handle,
                    lambda: [
                        (len(c._buffer), c._transport.get_write_buffer_size())
                        for c in handle.server._connections
                    ],
                )
                with ServeClient(port=handle.port) as client:
                    stats = client.stats()
                    assert client.health() == {"status": "ok"}
                # and stop() returns while that client is still connected
                handle.stop(timeout=10)
            # the server stalled with requests still queued in the socket...
            assert stats["queries"] < sent // len(request)
            # ...and holds at most one receive chunk of them and its
            # transport's high-water mark of answers (plus one answer)
            (reader,) = [entry for entry in buffered if entry[1] > 0]
            assert reader[0] <= 256 * 1024 + len(request)
            assert reader[1] <= 64 * 1024 + 2048
        finally:
            handle.stop()
            store.close()
