"""The layer ladder: the same queries, one caller, one at a time, up the stack.

    R0  store.index.query(q)                         hint
    R1  store.query().overlapping(s, e).ids()        engine.store
    R2  the same on num_shards=2, serial             engine.sharded
    R3  run_batch chunks on a 2-worker process pool  engine.executor (in a child)
    R4  ServeClient.query against the server child   serve
    R5  ClusterRouter.query over two shard servers   cluster

A rung's self time is its p50 minus the p50 of the rung it calls into, so the
self times along R0 -> R1 (-> R2 when the server is sharded) -> server ->
client -> router add up to the R5 p50 by construction; R2 and R3 are side
rungs off R1 when the server is unsharded.  Every answer is checked against
the oracle's count.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro import IntervalCollection, IntervalStore, Query, ServeClient
from repro.cluster import ClusterRouter, ClusterTopology
from repro.cluster.shard_server import start_shard_server_thread
from repro.datasets import load_intervals_csv
from repro.engine.sharding import ShardPlan, shard_mask

from e2e_bench.procs import Procs
from e2e_bench.spans import SpanRecorder
from e2e_bench.workloads import Workload

#: queries per rung
LADDER_QUERIES = 1000
#: queries whose instrumented ``stats()`` are read, and that the baselines answer
SUBSET = 250
#: batch size of the batched rungs
CHUNK = 64
BASELINES = ("naive", "grid1d")


def _p50_us(seconds: Sequence[float]) -> float:
    return float(np.median(seconds)) * 1e6


class Ladder:
    """One climb; ``metrics`` and ``wrong``/``checked`` are the outcome."""

    def __init__(
        self, workload: Workload, collection: IntervalCollection,
        qs: np.ndarray, qe: np.ndarray, expected: np.ndarray, spans: SpanRecorder,
    ) -> None:
        self.workload = workload
        self.collection = collection
        self.qs, self.qe = qs.tolist(), qe.tolist()
        self.expected = expected
        self.spans = spans
        self.metrics: Dict[str, float] = {}
        self.p50_us: Dict[str, float] = {}
        self.checked = 0
        self.wrong = 0

    # -- helpers ------------------------------------------------------------ #
    def _check(self, counts: Sequence[int], expected: "np.ndarray | None" = None) -> None:
        expected = self.expected[: len(counts)] if expected is None else expected
        self.checked += len(counts)
        self.wrong += int(np.count_nonzero(np.asarray(counts) != expected))

    def _climb(self, rung: str, layer: str, call: Callable[[int, int], int],
               limit: int = LADDER_QUERIES) -> float:
        """Time ``call(s, e) -> result count`` per query; returns the p50 in us."""
        spans, clock = self.spans, self.spans.clock
        parent = spans.open(f"ladder.{rung}")
        counts, seconds = [], []
        for i in range(min(limit, len(self.qs))):
            t0 = clock()
            counts.append(call(self.qs[i], self.qe[i]))
            t1 = clock()
            spans.add(layer, t0, t1, parent, i)
            seconds.append(t1 - t0)
        spans.close(parent)
        self._check(counts)
        return _p50_us(seconds)

    def _batched(self, rung: str, layer: str, call: Callable[[list], Sequence[int]]) -> float:
        """Time ``call(chunk of Query) -> counts``; median us per query."""
        spans, clock = self.spans, self.spans.clock
        parent = spans.open(f"ladder.{rung}")
        per_query = []
        for lo in range(0, len(self.qs), CHUNK):
            chunk = [Query(s, e) for s, e in zip(self.qs[lo:lo + CHUNK], self.qe[lo:lo + CHUNK])]
            t0 = clock()
            counts = call(chunk)
            t1 = clock()
            spans.add(layer, t0, t1, parent, lo)
            per_query.append((t1 - t0) / len(chunk))
            self._check(counts, self.expected[lo:lo + len(chunk)])
        spans.close(parent)
        return _p50_us(per_query)

    # -- in-process rungs --------------------------------------------------- #
    def in_process(self, store: "IntervalStore | None", built_s: float) -> None:
        """R0, R1, R2 and the baselines.  An in-process workload passes its own
        store and how long it took to build; otherwise one is built here."""
        backend = self.workload.backend
        m = self.metrics
        own = store is None
        if own:
            t0 = time.perf_counter()
            store = IntervalStore.open(self.collection, backend)
            built_s = time.perf_counter() - t0
        m["hint.build_s"] = built_s
        m["hint.bytes_per_interval"] = store.memory_bytes() / len(self.collection)
        index = store.index
        r0 = self._climb("R0", "hint.query", lambda s, e: len(index.query(Query(s, e))))
        m["hint.query_us_p50"] = r0
        m["hint.count_us_p50"] = self._climb(
            "R0.count", "hint.count", lambda s, e: index.query_count(Query(s, e))
        )
        stats = [
            store.query().overlapping(s, e).stats()
            for s, e in zip(self.qs[:SUBSET], self.qe[:SUBSET])
        ]
        self._check([s.results for s in stats])
        results = sum(s.results for s in stats)
        m["hint.results_per_query"] = results / len(stats)
        m["hint.comparisons_per_result"] = sum(s.comparisons for s in stats) / max(1, results)
        m["hint.partitions_compared_per_query"] = (
            sum(s.partitions_compared for s in stats) / len(stats)
        )
        hint_subset = self._climb(
            "R0.subset", "hint.query", lambda s, e: len(index.query(Query(s, e))), SUBSET
        )
        slowest_hint_beats = 1.0
        for name in BASELINES:
            baseline = IntervalStore.open(self.collection, name).index
            p50 = self._climb(
                f"R0.{name}", f"baselines.{name}.query",
                lambda s, e, idx=baseline: len(idx.query(Query(s, e))), SUBSET,
            )
            m[f"baselines.{name}.query_us_p50"] = p50
            if p50 <= hint_subset:
                slowest_hint_beats = 0.0
        m["hint.beats_baselines"] = slowest_hint_beats

        r1 = self._climb(
            "R1", "engine.store.query", lambda s, e: len(store.query().overlapping(s, e).ids())
        )
        m["engine.store.query_self_us"] = r1 - r0
        m["engine.store.run_batch_us_per_query"] = self._batched(
            "R1.batch", "engine.store.run_batch",
            lambda chunk: [len(ids) for ids in store.run_batch(chunk).ids],
        )
        m["engine.store.count_batch_us_per_query"] = self._batched(
            "R1.count", "engine.store.count_batch", store.count_batch
        )
        if own:
            store.close()

        sharded = IntervalStore.open(self.collection, backend, num_shards=2)
        try:
            r2 = self._climb(
                "R2", "engine.sharded.query",
                lambda s, e: len(sharded.query().overlapping(s, e).ids()),
            )
            m["engine.sharded.query_self_us"] = r2 - r1
            m["engine.sharded.count_us_per_query"] = self._batched(
                "R2.count", "engine.sharded.count_batch", sharded.count_batch
            )
        finally:
            sharded.close()
        self.p50_us.update(R0=r0, R1=r1, R2=r2)

    # -- R3: the process pool, inside a reaped child ----------------------- #
    def process_pool(self, procs: Procs, csv: Path, cpus: "set[int]") -> None:
        spec = procs.work_dir / "rung3.json"
        spec.write_text(json.dumps({
            "csv": str(csv), "backend": self.workload.backend, "chunk": CHUNK,
            "queries": list(zip(self.qs, self.qe)),
        }))
        parent = self.spans.open("ladder.R3")
        # every core: the pool's two workers are the point of this rung
        child = procs.spawn_repro("rung3", [str(spec)], "rung3", cpus)
        try:
            line = child.wait_for_line("RESULT ", timeout=150.0)
        finally:
            child.stop()
        self.spans.close(parent)
        result = json.loads(line[len("RESULT "):])
        self._check(result["batch_counts"])
        self._check(result["count_counts"])
        m = self.metrics
        m["engine.executor.processes.batch_us_per_query"] = _p50_us(result["batch_s"])
        m["engine.executor.processes.count_us_per_query"] = _p50_us(result["count_s"])
        m["engine.executor.pool_start_s"] = result["pool_start_s"]
        m["engine.executor.kernel_retries"] = result["kernel_retries"]
        self.p50_us["R3"] = m["engine.executor.processes.batch_us_per_query"]

    # -- R4: over HTTP ------------------------------------------------------- #
    def served(self, port: int) -> None:
        m = self.metrics
        biggest = {"count": -1}

        def call(s: int, e: int) -> int:
            nonlocal biggest
            response = client.query(s, e)
            if response["count"] > biggest["count"]:
                biggest = response
            return response["count"]

        with ServeClient(port=port, retries=0) as client:
            before = client.stats()["latency"].get("query", {"count": 0, "sum": 0.0})
            r4 = self._climb("R4", "serve.client.query", call)
            after = client.stats()["latency"]["query"]
        # the server's own per-request wall time; its p50 covers the handful
        # of requests before the ladder too, the mean is the ladder's alone
        reported = after["p50"] * 1e6
        m["serve.server.request_us_p50"] = reported
        m["serve.server.request_us_mean"] = (
            (after["sum"] - before["sum"]) / max(1, after["count"] - before["count"]) * 1e6
        )
        below = self.p50_us["R2" if self.workload.shards > 1 else "R1"]
        m["serve.server.self_us"] = reported - below
        m["serve.client.self_us"] = r4 - reported
        # what the client pays to decode a body, per thousand ids it carries
        body = json.dumps(biggest, separators=(",", ":"))
        t0 = time.perf_counter()
        for _ in range(20):
            json.loads(body)
        m["serve.client.decode_us_per_kid"] = (
            (time.perf_counter() - t0) / 20 * 1e6 / max(biggest["count"] / 1000.0, 1e-9)
        )
        self.p50_us["R4"] = r4

    # -- R5: the cluster tier ------------------------------------------------ #
    def cluster(self) -> None:
        plan = ShardPlan.for_collection(self.collection, 2)
        stores, handles = [], []
        try:
            for shard in range(plan.num_shards):
                rows = self.collection.take(shard_mask(self.collection, plan.cuts, shard))
                stores.append(IntervalStore.open(rows, self.workload.backend))
                handles.append(start_shard_server_thread(stores[-1], shard_id=shard))
            topology = ClusterTopology.build(
                plan.cuts, [[("127.0.0.1", handle.port)] for handle in handles]
            )
            with ClusterRouter(topology, cache=0) as router:
                r5 = self._climb(
                    "R5", "cluster.router.query", lambda s, e: router.query(s, e)["count"]
                )
                stats = router.stats()
        finally:
            for handle in handles:
                handle.stop()
            for store in stores:
                store.close()
        m = self.metrics
        m["cluster.router.query_us_p50"] = r5
        m["cluster.router.self_us"] = r5 - self.p50_us["R4"]
        m["cluster.router.fanout_per_query"] = stats["probes"] / max(1, stats["queries"])
        self.p50_us["R5"] = r5

    def budget(self) -> List[Tuple[str, float]]:
        """``(layer, self time in us)`` along the path of a routed query."""
        m = self.metrics
        rows = [("hint", m["hint.query_us_p50"]), ("engine.store", m["engine.store.query_self_us"])]
        if self.workload.shards > 1:
            rows.append(("engine.sharded", m["engine.sharded.query_self_us"]))
        rows += [
            ("serve.server", m["serve.server.self_us"]),
            ("serve.client", m["serve.client.self_us"]),
            ("cluster.router", m["cluster.router.self_us"]),
        ]
        return rows


def process_rung_main(spec_path: str) -> int:
    """Body of the R3 child: time batches on a 2-shard, 2-worker process pool."""
    spec = json.loads(Path(spec_path).read_text())
    queries = [Query(s, e) for s, e in spec["queries"]]
    chunk = spec["chunk"]
    store = IntervalStore.open(
        load_intervals_csv(spec["csv"]), spec["backend"],
        num_shards=2, executor="processes", workers=2,
    )
    def timed(call):
        """Seconds per query of each chunk, and every answer's count."""
        seconds, counts = [], []
        for lo in range(0, len(queries), chunk):
            part = queries[lo:lo + chunk]
            t0 = time.perf_counter()
            answer = call(part)
            seconds.append((time.perf_counter() - t0) / len(part))
            counts += answer
        return seconds, counts

    try:
        t0 = time.perf_counter()
        store.run_batch(queries[:chunk])  # starts the pool, builds resident shards
        pool_start_s = time.perf_counter() - t0
        batch_s, batch_counts = timed(lambda part: [len(x) for x in store.run_batch(part).ids])
        count_s, count_counts = timed(lambda part: [int(c) for c in store.count_batch(part)])
        retries = int(getattr(store.index, "kernel_retries", 0))
    finally:
        store.close()
    print("RESULT " + json.dumps({
        "pool_start_s": pool_start_s, "batch_s": batch_s, "batch_counts": batch_counts,
        "count_s": count_s, "count_counts": count_counts, "kernel_retries": retries,
    }), flush=True)
    return 0
