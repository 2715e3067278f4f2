"""One benchmark run: inputs from the seed, set-up, timed phases, checks, report.

The program is driven only through its public surface: ``IntervalStore`` in
process, ``python -m repro serve`` as a child, ``ServeClient`` against it.
Every answer a timed op returns is compared with ``oracle.py``; the run fails
on a wrong answer, a failed op, or a process left behind.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import IntervalCollection, IntervalStore, Query, ServeClient

from e2e_bench import hostspeed, loadgen, metrics
from e2e_bench.ladder import LADDER_QUERIES, Ladder
from e2e_bench.oracle import Oracle, wrong_id_sets
from e2e_bench.procs import ROOT, Procs, peak_rss_mb
from e2e_bench.spans import SpanRecorder
from e2e_bench.workloads import (
    CONNECTIONS, DOMAIN, FSYNC_POLICY, ID_CHECK_EVERY, MAX_OPS_PER_S, MIN_WINDOW_SAMPLES,
    PHASE_S, QUIESCE_CHECKS, QUIESCE_EVERY, ROUND_READS, ROUND_UPDATES, WORKLOADS, Inputs,
    Workload,
)

WORK_ROOT = ROOT / ".bench_work"
#: set-ups per untraced run; ``setup_s`` is their median and the last one is measured
SETUPS = 3
WARMUP_S = 0.5
CLIENT_TIMEOUT_S = 10.0
START_TIMEOUT_S = 120.0
#: queries an in-process phase cycles through (the paper's 10k)
CORE_QUERIES = 10_000
#: the traced run's rate sweep: the highest rate whose window-median p95 stays
#: under the limit while the sender keeps up
SWEEP_RATES = (600.0, 1200.0, 1800.0)
SWEEP_P95_LIMIT_MS = 10.0
SWEEP_LAG_LIMIT_MS = 5.0
#: share of a traced served run that goes to the open loop and to the rate sweep
OPEN_SHARE, SWEEP_SHARE = 0.25, 0.25
# stream ids for ``Inputs.reads``: one per phase (plus STREAMS per round), so
# no two phases share queries
WARMUP, CLOSED, SINGLE, OPEN, QUIESCE, LADDER, STALL, PROBE, SWEEP = range(9)
STREAMS = 16


class WrongAnswer(Exception):
    """A response that is wrong on its face (count != len(ids), ...)."""


@dataclass
class Tally:
    """Ops attempted and failed over the whole run, with the first few reasons."""

    attempted: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)

    def add(self, attempted: int, failed: int, what: str, errors: Sequence[str] = ()) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.notes) < 10:
            self.notes.append(f"{what}: {failed} of {attempted} failed {list(errors)[:3]}")


class Server:
    """A ``python -m repro serve`` child and how to reach it."""

    def __init__(self, procs: Procs, workload: Workload, csv: Path,
                 wal_dir: Optional[Path], cpus: "set[int] | None") -> None:
        self.child = procs.spawn_repro(
            "cli", workload.serve_args(str(csv), str(wal_dir) if wal_dir else None),
            "serve", cpus,
        )
        address = self.child.wait_for_line("# listening on", START_TIMEOUT_S)
        self.port = int(address.rsplit(":", 1)[1])

    def client(self) -> ServeClient:
        # no retries: a dropped or refused request is a failed op, not a slow one
        return ServeClient(port=self.port, timeout=CLIENT_TIMEOUT_S, retries=0)


def write_csv(path: Path, starts: np.ndarray, ends: np.ndarray) -> None:
    rows = np.column_stack([np.arange(len(starts)), starts, ends])
    np.savetxt(path, rows, fmt="%d", delimiter=",")


class ReadBook:
    """One phase's read stream, what each answer must count, and the answers
    kept whole for checking after the phase."""

    def __init__(self, qs: np.ndarray, qe: np.ndarray, expected: "np.ndarray | None",
                 known_ids: "Dict[int, np.ndarray] | None" = None) -> None:
        self.qs, self.qe = qs, qe
        #: expected ids by stream index, kept when rounds repeat a stream
        self.known_ids = known_ids
        self.s, self.e = qs.tolist(), qe.tolist()
        #: expected result count per query; None while updates are in flight
        #: (then only the quiesce check after the phase is exact)
        self.expected = expected
        #: (stream index, ids) of the responses kept whole
        self.sampled: List[Tuple[int, object]] = []
        #: per connection, (start, end) of each call into the layer below
        self.calls: List[List[Tuple[float, float]]] = []

    def served_op(self, client: ServeClient, lane: int, lanes: int, traced: bool) -> loadgen.Op:
        """``op(i)``: connection ``lane``'s i-th query, stream index ``lane + i*lanes``.
        A wrong count raises, so the op counts as failed."""
        s, e, sampled = self.s, self.e, self.sampled
        expected = None if self.expected is None else self.expected.tolist()
        calls: List[Tuple[float, float]] = []
        self.calls.append(calls)
        clock = time.perf_counter

        def op(i: int) -> None:
            g = lane + i * lanes
            t0 = clock() if traced else 0.0
            response = client.query(s[g], e[g])
            if traced:
                calls.append((t0, clock()))
            count = response["count"]
            if len(response["ids"]) != count or (expected is not None and count != expected[g]):
                raise WrongAnswer(f"query {g}: count {count}, {len(response['ids'])} ids")
            if g % ID_CHECK_EVERY == 0:
                sampled.append((g, response["ids"]))

        return op

    def wrong_id_sets(self, oracle: Oracle) -> int:
        return wrong_id_sets(oracle, self.qs, self.qe, self.sampled, self.known_ids)


@dataclass
class Measured:
    """A measured phase: the logs of its rounds, who read, what it cost."""

    logs: List[loadgen.PhaseLog]
    books: List[ReadBook]
    #: connections whose ops are reads (None: all of them)
    readers: "List[int] | None" = None

    @classmethod
    def join(cls, rounds: "Sequence[Measured]") -> "Measured":
        """One phase measured in several rounds, as one."""
        return cls(
            [log for m in rounds for log in m.logs],
            [book for m in rounds for book in m.books], rounds[0].readers,
        )

    @property
    def wall_s(self) -> float:
        return sum(log.wall_s for log in self.logs)

    @property
    def runner_cpu_s(self) -> float:
        return sum(log.runner_cpu_s for log in self.logs)

    def rates(self) -> np.ndarray:
        """Correct completed ops per second of each round."""
        return np.array([log.rate for log in self.logs])

    def round_p50s(self) -> np.ndarray:
        """The readers' median latency in each round, seconds."""
        return np.array([np.median(log.latencies(self.readers)) for log in self.logs])

    def latencies(self, threads: "List[int] | None") -> np.ndarray:
        return np.concatenate([log.latencies(threads) for log in self.logs])

    def lags(self) -> np.ndarray:
        return np.concatenate([log.lags() for log in self.logs])

    def window_percentiles(self, window_s: float, pct: float) -> Tuple[List[float], int]:
        """The readers' latency percentile in each window, and the samples used."""
        return loadgen.all_window_percentiles(
            self.logs, self.readers, window_s, pct, MIN_WINDOW_SAMPLES
        )


class Run:
    """State of one run of one workload."""

    def __init__(self, workload: Workload, seed: int, seconds: float, trace: bool,
                 procs: Procs) -> None:
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.procs = procs
        self.tally = Tally()
        self.spans = SpanRecorder()
        self.e2e: Dict[str, float] = {}
        self.layer: Dict[str, float] = {name: 0.0 for name, _, _ in metrics.PER_LAYER}
        self.samples: Dict[str, int] = {}
        #: the per-slice / per-window / per-round values behind the timings
        self.series: Dict[str, List[float]] = {}
        self.budget: List[Tuple[str, float]] = []
        cpus = sorted(os.sched_getaffinity(0))
        # The program and the load generator share ONE core, the last allowed,
        # and every other core is left to whatever else the box runs.  A closed
        # loop then keeps that core busy without a gap, so nothing waits for an
        # idle vCPU to be woken or for two vCPUs to be scheduled at once; what
        # is timed is the CPU path of a request, client and server together
        # (README, "How steady it is").
        self.all_cpus = set(cpus)
        self.pin = {cpus[-1]} if len(cpus) >= 2 else None
        self.server: Optional[Server] = None
        self.store: Optional[IntervalStore] = None
        self._core_queries: Dict[int, tuple] = {}
        #: updates of the stream already issued / acknowledged
        self.next_update = 0
        self.acked_updates = 0

    # -- inputs --------------------------------------------------------------- #
    def prepare(self) -> None:
        w = self.w
        self.inputs = Inputs(w, self.seed)
        starts, ends = self.inputs.starts, self.inputs.ends
        updates = int(MAX_OPS_PER_S * self.seconds) if w.durable else 0
        self.updates = u = self.inputs.updates(updates)
        self.update_lists = (u.insert_ids.tolist(), u.insert_starts.tolist(),
                             u.insert_ends.tolist(), u.delete_ids.tolist())
        self.oracle = Oracle(starts, ends, capacity=w.intervals + updates)
        self.csv = self.procs.work_dir / "data.csv"
        if w.served or self.trace:
            write_csv(self.csv, starts, ends)
        self.wal_dir: Optional[Path] = None
        if self.pin:
            os.sched_setaffinity(0, self.pin)

    def collection(self) -> IntervalCollection:
        starts, ends = self.inputs.starts, self.inputs.ends
        return IntervalCollection(
            ids=np.arange(len(starts), dtype=np.int64), starts=starts, ends=ends
        )

    # -- set-up --------------------------------------------------------------- #
    def _first_answer(self, answer: Callable[[int, int], object]) -> None:
        qs, qe = self.inputs.reads(PROBE, 1)
        ids = answer(int(qs[0]), int(qe[0]))
        ok = np.array_equal(np.sort(np.asarray(ids, dtype=np.int64)),
                            self.oracle.ids(qs[0], qe[0]))
        self.tally.add(1, 0 if ok else 1, "first answer after a start")

    def _start_server(self) -> None:
        self.server = Server(self.procs, self.w, self.csv, self.wal_dir, self.pin)
        with self.server.client() as client:
            self._first_answer(lambda s, e: client.query(s, e)["ids"])

    def setup_once(self) -> float:
        """Nothing -> first correct answer, in seconds at reference host speed;
        leaves the target up."""
        if self.server is not None:
            self.server.child.stop()
        if self.store is not None:
            self.store.close()
        if self.w.durable:
            # a used WAL directory would turn the start into a recovery
            self.wal_dir = self.procs.work_dir / f"wal-{time.monotonic_ns()}"
        with hostspeed.Sampler() as speed:
            t0 = time.perf_counter()
            if self.w.served:
                self._start_server()
            else:
                self.store = IntervalStore.open(self.collection(), self.w.backend)
                self._first_answer(lambda s, e: self.store.query().overlapping(s, e).ids())
            seconds = time.perf_counter() - t0
        self.series.setdefault("setup_raw_s", []).append(seconds)
        self.series.setdefault("setup_slowdown", []).append(speed.slowdown())
        return seconds / speed.slowdown()

    def probe(self) -> float:
        """One host-speed probe, kept with the run's series."""
        seconds = hostspeed.probe()
        self.series.setdefault("probe_ms", []).append(seconds * 1e3)
        return seconds

    # -- running a phase ------------------------------------------------------ #
    def _measure(
        self, what: str, workers: Sequence[Callable[[], None]], logs: List[loadgen.ThreadLog],
        book: ReadBook, *, readers: "List[int] | None" = None,
        traced_layer: "str | None" = None,
    ) -> Measured:
        """Run the workers, then judge and account for what they did."""
        log = loadgen.run_phase(workers, logs)
        # id sets that raced updates cannot be judged; the quiesce check after
        # such a phase is the exact one
        wrong = book.wrong_id_sets(self.oracle) if book.expected is not None else 0
        self.tally.add(log.attempted, log.failed + wrong, what, log.errors)
        if traced_layer is not None:
            parent = self.spans.add(f"phase.{what}", log.started, log.ended)
            for lane, thread in enumerate(log.threads):
                inner = book.calls[lane] if lane < len(book.calls) else ()
                for j, (sent, done) in enumerate(zip(thread.sent, thread.done)):
                    op = self.spans.add("loadgen.op", sent, done, parent, j)
                    if j < len(inner):
                        self.spans.add(traced_layer, inner[j][0], inner[j][1], op, j)
        return Measured([log], [book], readers)

    def _book(self, stream: int, count: int, exact: bool = True) -> ReadBook:
        qs, qe = self.inputs.reads(stream, count)
        return ReadBook(qs, qe, self.oracle.counts(qs, qe) if exact else None)

    def _core_book(self, stream: int) -> ReadBook:
        """The paper's 10k queries; every round asks the same ones."""
        if stream not in self._core_queries:
            book = self._book(stream, CORE_QUERIES)
            self._core_queries[stream] = (book.qs, book.qe, book.expected, {})
        return ReadBook(*self._core_queries[stream])

    def _clients(self, count: int) -> List[ServeClient]:
        return [self.server.client() for _ in range(count)]

    # -- phases against the server, reads only -------------------------------- #
    def closed_served(self, stream: int, seconds: float, traced: bool, what: str,
                      connections: int = CONNECTIONS) -> Measured:
        """Closed loop: ``connections`` keep-alive connections, each back to back."""
        count = int(MAX_OPS_PER_S * seconds)
        book = self._book(stream, count)
        clients = self._clients(connections)
        logs = [loadgen.ThreadLog() for _ in clients]
        ops = [book.served_op(c, k, connections, traced) for k, c in enumerate(clients)]
        deadline = time.perf_counter() + seconds
        try:
            return self._measure(
                what,
                [
                    lambda k=k: loadgen.closed_worker(
                        ops[k], len(range(k, count, connections)), deadline, logs[k])
                    for k in range(connections)
                ],
                logs, book, traced_layer="serve.client.query" if traced else None,
            )
        finally:
            for client in clients:
                client.close()

    def open_served(self, stream: int, rate: float, seconds: float, traced: bool,
                    what: str) -> Measured:
        """Open loop: ``rate`` ops/s dealt over CONNECTIONS connections."""
        count = int(rate * seconds)
        book = self._book(stream, count)
        clients = self._clients(CONNECTIONS)
        logs = [loadgen.ThreadLog() for _ in clients]
        ops = [book.served_op(c, k, CONNECTIONS, traced) for k, c in enumerate(clients)]
        due = loadgen.open_loop_schedule(count, rate, time.perf_counter() + 0.05, CONNECTIONS)
        try:
            return self._measure(
                what,
                [lambda k=k: loadgen.open_worker(ops[k], due[k], logs[k])
                 for k in range(CONNECTIONS)],
                logs, book, traced_layer="serve.client.query" if traced else None,
            )
        finally:
            for client in clients:
                client.close()

    # -- phases in process (core_scan) ---------------------------------------- #
    def closed_batches(self, seconds: float, traced: bool, what: str) -> Measured:
        """``run_batch`` over chunks of the paper's 10k queries, round and round."""
        w, store = self.w, self.store
        book = self._core_book(CLOSED)
        chunks = [
            [Query(s, e) for s, e in zip(book.s[lo:lo + w.chunk], book.e[lo:lo + w.chunk])]
            for lo in range(0, CORE_QUERIES, w.chunk)
        ]
        expected = book.expected
        calls: List[Tuple[float, float]] = []
        book.calls.append(calls)
        clock = time.perf_counter

        def op(i: int) -> None:
            c = i % len(chunks)
            t0 = clock() if traced else 0.0
            ids = store.run_batch(chunks[c]).ids
            if traced:
                calls.append((t0, clock()))
            lo = c * w.chunk
            counts = np.fromiter(map(len, ids), dtype=np.int64, count=len(ids))
            if not np.array_equal(counts, expected[lo:lo + len(ids)]):
                raise WrongAnswer(f"chunk at {lo}: a wrong count")
            for g in range(lo, lo + len(ids), ID_CHECK_EVERY):
                book.sampled.append((g, ids[g - lo]))

        thread = loadgen.ThreadLog(ops_per_record=w.chunk)
        deadline = time.perf_counter() + seconds
        return self._measure(
            what, [lambda: loadgen.closed_worker(op, 10**9, deadline, thread)], [thread], book,
            traced_layer="engine.store.run_batch" if traced else None,
        )

    def single_reads(self, seconds: float, traced: bool) -> Measured:
        """One caller, one ``store.query().overlapping().ids()`` at a time."""
        store = self.store
        book = self._core_book(SINGLE)
        s, e, sampled, expected = book.s, book.e, book.sampled, book.expected.tolist()
        calls: List[Tuple[float, float]] = []
        book.calls.append(calls)
        clock = time.perf_counter

        def op(i: int) -> None:
            g = i % CORE_QUERIES
            t0 = clock() if traced else 0.0
            ids = store.query().overlapping(s[g], e[g]).ids()
            if traced:
                calls.append((t0, clock()))
            if len(ids) != expected[g]:
                raise WrongAnswer(f"query {g}: {len(ids)} ids, not {expected[g]}")
            if i % ID_CHECK_EVERY == 0:
                sampled.append((g, ids))

        thread = loadgen.ThreadLog()
        deadline = time.perf_counter() + seconds
        return self._measure(
            "single", [lambda: loadgen.closed_worker(op, 10**9, deadline, thread)], [thread],
            book, traced_layer="engine.store.query" if traced else None,
        )

    # -- phases against the server, reads beside updates (mixed_rw) ------------ #
    def _update_op(self, client: ServeClient, first: int, acked: List[int]) -> loadgen.Op:
        """``op(j)``: update ``first + j`` of the run; even inserts, odd deletes."""
        ins_id, ins_s, ins_e, del_id = self.update_lists

        def op(j: int) -> None:
            k = first + j
            if k % 2 == 0:
                client.insert(ins_id[k // 2], ins_s[k // 2], ins_e[k // 2])
            elif not client.delete(del_id[k // 2])["deleted"]:
                raise WrongAnswer(f"delete of live id {del_id[k // 2]} found nothing")
            acked.append(k)

        return op

    def mixed(self, stream: int, seconds: float, how: str, traced: bool, what: str,
              check: bool = True) -> Measured:
        """Reads (log 0) beside inserts and deletes (log 1), 70/30.

        ``closed``: connection 0 reads, connection 1 updates, in rounds of 7
        reads beside 3 updates that meet at a barrier, so the mix is 70/30
        whichever side is slower.  ``single``: one caller, one connection, 7
        reads then 3 updates, one at a time.  ``open``: each side on its own
        connection and schedule, at its share of the workload's arrival rate.
        """
        w, u = self.w, self.updates
        read_rate = w.open_rate * w.read_share if how == "open" else MAX_OPS_PER_S
        write_rate = read_rate * ROUND_UPDATES / ROUND_READS
        reads = int(read_rate * seconds)
        writes = min(int(write_rate * seconds), 2 * len(u.delete_ids) - self.next_update)
        book = self._book(stream, reads, exact=False)
        acked: List[int] = []
        clients = self._clients(1 if how == "single" else 2)
        reader, writer = clients[0], clients[-1]
        logs = [loadgen.ThreadLog(), loadgen.ThreadLog()]
        read_op = book.served_op(reader, 0, 1, traced)
        write_op = self._update_op(writer, self.next_update, acked)
        deadline = time.perf_counter() + seconds
        if how == "closed":
            gate = loadgen.RoundGate(2)
            workers = [
                lambda: loadgen.closed_worker(
                    read_op, reads, deadline, logs[0], gate=gate, per_round=ROUND_READS),
                lambda: loadgen.closed_worker(
                    write_op, writes, deadline, logs[1], gate=gate, per_round=ROUND_UPDATES),
            ]
        elif how == "single":
            def one_caller() -> None:
                r = w_ = 0
                while (time.perf_counter() < deadline and r + ROUND_READS <= reads
                       and w_ + ROUND_UPDATES <= writes):
                    loadgen.closed_worker(
                        lambda i, r=r: read_op(r + i), ROUND_READS, float("inf"), logs[0])
                    loadgen.closed_worker(
                        lambda i, w_=w_: write_op(w_ + i), ROUND_UPDATES, float("inf"), logs[1])
                    r, w_ = r + ROUND_READS, w_ + ROUND_UPDATES

            workers = [one_caller]
        else:
            start = time.perf_counter() + 0.05
            workers = [
                lambda: loadgen.open_worker(read_op, start + np.arange(reads) / read_rate, logs[0]),
                lambda: loadgen.open_worker(write_op, start + np.arange(writes) / write_rate, logs[1]),
            ]
        try:
            measured = self._measure(
                what, workers, logs, book, readers=[0],
                traced_layer="serve.client.query" if traced else None,
            )
        finally:
            for client in clients:
                client.close()
        # only acknowledged updates enter the oracle
        for k in acked:
            if k % 2 == 0:
                i = k // 2
                self.oracle.insert(int(u.insert_ids[i]), int(u.insert_starts[i]),
                                   int(u.insert_ends[i]))
            else:
                self.oracle.delete(int(u.delete_ids[k // 2]))
        self.acked_updates += len(acked)
        self.next_update += len(logs[1].ok)
        if check:
            self.quiesce_check(what)
        return measured

    def quiesce_check(self, after: str) -> None:
        """No update in flight: every hot range and fresh queries, ids and all."""
        w = self.w
        qs, qe = self.inputs.reads(QUIESCE, QUIESCE_CHECKS)
        # every hot range, deterministically: a stale cache entry is the bug
        # this check is most likely to catch
        qs[: w.hot_queries], qe[: w.hot_queries] = self.inputs.hot_s, self.inputs.hot_e
        wrong = 0
        with self.server.client() as client:
            for s, e in zip(qs.tolist(), qe.tolist()):
                ids = np.asarray(client.query(s, e)["ids"], dtype=np.int64)
                wrong += not np.array_equal(np.sort(ids), self.oracle.ids(s, e))
        self.tally.add(len(qs), wrong, f"quiesce check after {after}")

    def maintain_with_reads(self) -> None:
        """One forced /maintain while a connection keeps reading.  No update is
        in flight, so every read beside it is checked exactly."""
        book = self._book(STALL, MAX_OPS_PER_S * 5)
        reader, admin = self._clients(2)
        read_op = book.served_op(reader, 0, 1, False)
        thread = loadgen.ThreadLog()
        window: List[float] = []

        def maintain() -> None:
            time.sleep(0.1)  # let the reader get going
            window.append(time.perf_counter())
            admin.maintain(force=True)
            window.append(time.perf_counter())

        def read() -> None:
            i = 0
            while len(window) < 2 and i < len(book.s):
                t0 = time.perf_counter()
                read_op(i)
                thread.record(t0, t0, time.perf_counter(), True)
                i += 1

        try:
            measured = self._measure("reads beside /maintain", [read, maintain], [thread], book)
        finally:
            reader.close()
            admin.close()
        log = measured.logs[0]
        beside = log.latencies()[log.column("done") >= window[0]]
        self.layer["engine.maintenance.maintain_s"] = window[1] - window[0]
        self.layer["engine.maintenance.read_stall_ms"] = float(beside.max()) * 1e3
        self.quiesce_check("/maintain")

    def crash_and_recover(self) -> None:
        """SIGKILL the server, restart it on the same WAL directory, time kill ->
        first correct answer, then look for every acknowledged update."""
        t0 = time.perf_counter()
        self.server.child.kill()
        self._start_server()
        self.layer["durability.recovery_s"] = time.perf_counter() - t0
        with self.server.client() as client:
            survivors = np.asarray(client.query(0, DOMAIN)["ids"], dtype=np.int64)
            replayed = client.stats()["durability"]["replayed_records"]
        lost = len(np.setxor1d(survivors, self.oracle.live_ids()))
        self.layer["durability.lost_acked_updates"] = lost
        self.layer["durability.replayed_records"] = replayed
        self.tally.add(self.acked_updates, lost, "acknowledged updates after SIGKILL + restart")
        self.quiesce_check("recovery")

    # -- the traced run's extras ---------------------------------------------- #
    def climb(self) -> None:
        """The layer ladder, on this workload's data and query distribution."""
        qs, qe = self.inputs.reads(LADDER, LADDER_QUERIES)
        ladder = Ladder(self.w, self.collection(), qs, qe, self.oracle.counts(qs, qe),
                        self.spans)
        ladder.in_process(self.store, self.series["setup_raw_s"][-1])
        ladder.process_pool(self.procs, self.csv, self.all_cpus)
        if self.server is None:
            # core_scan has no server of its own: the rung uses serve_uniform's
            server = Server(self.procs, WORKLOADS["serve_uniform"], self.csv, None, self.pin)
            try:
                ladder.served(server.port)
            finally:
                server.child.stop()
        else:
            ladder.served(self.server.port)
        ladder.cluster()
        self.tally.add(ladder.checked, ladder.wrong, "ladder")
        self.layer.update(ladder.metrics)
        self.budget = ladder.budget()

    def rate_sweep(self, seconds: float) -> None:
        best = 0.0
        for i, rate in enumerate(SWEEP_RATES):
            m = self.open_served(SWEEP + i, rate, seconds, False, f"sweep {rate:.0f}/s")
            p95 = float(np.median(m.window_percentiles(self.w.window_s, 95)[0]))
            lags = m.lags()
            # a sender that keeps up is no later at the end than on the way
            falling_behind = np.median(lags[-len(lags) // 4:]) * 1e3 > SWEEP_LAG_LIMIT_MS
            if p95 * 1e3 <= SWEEP_P95_LIMIT_MS and not falling_behind and not m.logs[0].failed:
                best = rate
        self.layer["loadgen.max_rate_ok_rps"] = best

    def server_stats(self) -> Dict[str, object]:
        with self.server.client() as client:
            stats = client.stats()
        stats["host_cpu_s"] = self.server.child.cpu_seconds()
        stats["acked_updates"] = self.acked_updates
        return stats

    # -- the whole run -------------------------------------------------------- #
    def execute(self) -> None:
        w, S = self.w, self.seconds
        self.prepare()
        setups = [self.setup_once() for _ in range(1 if self.trace else SETUPS)]
        self.e2e["setup_s"] = statistics.median(setups)
        self.samples["setup_s"] = len(setups)
        if self.trace:
            self.climb()
        gc.collect()
        gc.freeze()  # inputs and oracle are not garbage: keep the collector off them
        self.warm_up()
        stats0 = self.server_stats() if w.served and self.trace else {}
        # only a traced run of a served workload has an open loop and a sweep
        opens = self.trace and w.served
        sweeps = opens and not w.durable
        # The box changes speed from one second to the next.  The two measured
        # phases therefore alternate in short rounds with a host-speed probe
        # between them, and each round's result is scaled by its two probes.
        share = 1.0 - (OPEN_SHARE if opens else 0.0) - (SWEEP_SHARE if sweeps else 0.0)
        rounds = max(2, int(S * share / (2 * PHASE_S)))
        closed_rounds, single_rounds, probes = [], [], [self.probe()]
        for r in range(rounds):
            # a traced run records spans in every other round: the difference
            # between the two kinds of closed round is what tracing costs
            traced = self.trace and r % 2 == 1
            closed_rounds.append(self.closed(
                CLOSED + r * STREAMS, PHASE_S, traced, "closed_traced" if traced else "closed",
            ))
            probes.append(self.probe())
            # mixed_rw: no update is in flight after a round; every few, check
            check = r % QUIESCE_EVERY == QUIESCE_EVERY - 1 or r == rounds - 1
            single_rounds.append(self.single(SINGLE + r * STREAMS, PHASE_S, traced, check))
            probes.append(self.probe())
        closed, single = Measured.join(closed_rounds), Measured.join(single_rounds)
        slow = [hostspeed.slowdown(a, b) for a, b in zip(probes, probes[1:])]
        self.end_to_end(closed, single, np.array(slow[0::2]), np.array(slow[1::2]))
        if self.trace:
            scaled = closed.rates() * np.array(slow[0::2])
            self.layer["loadgen.trace_overhead_share"] = 1.0 - float(
                np.median(scaled[1::2]) / np.median(scaled[0::2])
            )
            latency = self.open(OPEN, S * OPEN_SHARE) if opens else single
            self.per_layer(closed, latency, stats0)
        if sweeps:
            self.rate_sweep(S * SWEEP_SHARE / len(SWEEP_RATES))
        if w.durable:
            self.maintain_with_reads()
            self.crash_and_recover()

    def closed(self, stream: int, seconds: float, traced: bool, what: str) -> Measured:
        """The workload's closed loop under CONNECTIONS callers: throughput."""
        if self.w.durable:
            return self.mixed(stream, seconds, "closed", traced, what, check=False)
        if self.w.served:
            return self.closed_served(stream, seconds, traced, what)
        return self.closed_batches(seconds, traced, what)

    def single(self, stream: int, seconds: float, traced: bool, check: bool) -> Measured:
        """One caller, one op at a time, back to back: latency."""
        if self.w.durable:
            return self.mixed(stream, seconds, "single", traced, "single", check)
        if self.w.served:
            return self.closed_served(stream, seconds, traced, "single", connections=1)
        return self.single_reads(seconds, traced)

    def open(self, stream: int, seconds: float) -> Measured:
        """Open loop at the workload's arrival rate, timed from due time (traced runs)."""
        if self.w.durable:
            return self.mixed(stream, seconds, "open", True, "open")
        return self.open_served(stream, self.w.open_rate, seconds, True, "open")

    def warm_up(self) -> None:
        """Fill the cache (every hot range once) and let lazy set-up finish."""
        w = self.w
        if w.hot_queries:
            with self.server.client() as client:
                for s, e in zip(self.inputs.hot_s.tolist(), self.inputs.hot_e.tolist()):
                    client.query(s, e)
        self.closed(WARMUP, WARMUP_S, False, "warm-up")

    # -- metrics -------------------------------------------------------------- #
    def end_to_end(self, closed: Measured, single: Measured, closed_slow: np.ndarray,
                   single_slow: np.ndarray) -> None:
        """Every round's result at reference host speed; the median over rounds.

        ``*_slow`` say how many times slower than the reference the host ran in
        each round (``hostspeed.py``).  Unscaled, the same code reads a third
        apart from one run to the next on this box, because its cores change
        speed by up to three times; scaled, ten runs agree within a few percent
        (README, "How steady it is").  The unscaled rounds are printed too.
        """
        e2e, samples, series = self.e2e, self.samples, self.series
        series["round_ops_s"] = closed.rates().tolist()
        series["round_ops_s_scaled"] = (closed.rates() * closed_slow).tolist()
        e2e["throughput_ops_s"] = statistics.median(series["round_ops_s_scaled"])
        samples["throughput_ops_s"] = len(closed.logs)
        # where updates run beside reads, reads only: update latency is a
        # metric of its own (durability.update_latency_p50_ms)
        series["round_p50_ms"] = (single.round_p50s() * 1e3).tolist()
        series["round_p50_ms_scaled"] = (single.round_p50s() * 1e3 / single_slow).tolist()
        e2e["latency_p50_ms"] = statistics.median(series["round_p50_ms_scaled"])
        samples["latency_p50_ms"] = len(single.latencies(single.readers))
        e2e["peak_rss_mb"] = (
            self.server.child.peak_rss_mb() if self.w.served else peak_rss_mb()
        )

    def per_layer(self, closed: Measured, latency: Measured, stats0: Dict[str, object]) -> None:
        """``latency`` is the open loop of a served workload, the single caller in process."""
        w, layer = self.w, self.layer
        seconds = latency.latencies(latency.readers)
        layer["loadgen.samples"] = len(seconds)
        # median over windows of each window's p95; windows hold >= 250 samples
        layer["loadgen.latency_p95_ms"] = (
            float(np.median(latency.window_percentiles(w.window_s, 95)[0])) * 1e3
        )
        layer["loadgen.latency_p99_ms"] = float(np.percentile(seconds, 99)) * 1e3
        layer["loadgen.latency_p999_ms"] = float(np.percentile(seconds, 99.9)) * 1e3
        layer["loadgen.lag_p99_ms"] = float(np.percentile(latency.lags(), 99)) * 1e3
        # the load generator's share of the one core it has in common with the
        # program (in process the two are one thread, so there it reads ~1)
        layer["loadgen.cpu_share"] = (
            (closed.runner_cpu_s + latency.runner_cpu_s) / (closed.wall_s + latency.wall_s)
        )
        if not w.served:
            return
        # from due time, whole phase: what the gated single-caller p50 leaves out
        # (waking an idle core, the wait behind an earlier request)
        layer["loadgen.open_latency_p50_ms"] = float(np.median(seconds)) * 1e3
        stats1 = self.server_stats()

        def delta(*path: str) -> float:
            a, b = stats0, stats1
            for key in path:
                a, b = a.get(key, {}), b.get(key, {})
            return float(b or 0) - float(a or 0)

        requests = max(1.0, delta("requests"))
        layer["serve.server.cpu_ms_per_req"] = delta("host_cpu_s") / requests * 1e3
        layer["serve.server.batch_size_mean"] = delta("batched_queries") / max(1.0, delta("batches"))
        layer["serve.server.rejected_share"] = delta("rejected") / requests
        lookups = delta("cache", "hits") + delta("cache", "misses")
        layer["serve.cache.hit_rate"] = delta("cache", "hits") / lookups if lookups else 0.0
        layer["serve.cache.evictions"] = delta("cache", "evictions")
        layer["serve.cache.invalidated"] = delta("cache", "invalidated")
        # the body the server sent, re-encoded the way it encodes
        layer["serve.server.response_bytes_per_req"] = statistics.fmean(
            len(json.dumps({"ids": ids, "count": len(ids), "generation": 0},
                           separators=(",", ":")))
            for book in closed.books for _, ids in book.sampled
        )
        if w.durable:
            layer["durability.update_latency_p50_ms"] = (
                float(np.median(latency.latencies([1]))) * 1e3
            )
            layer["durability.wal_bytes_per_update"] = (
                delta("durability", "wal_bytes") / max(1.0, delta("acked_updates"))
            )


# --------------------------------------------------------------------------- #
# reporting
# --------------------------------------------------------------------------- #
def git_sha() -> str:
    """The checkout's commit, read without starting a process; the driver's
    checkout is not a git repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            text = (ROOT / ".git" / text[5:]).read_text().strip()
        return text[:12]
    except OSError:
        return "none"


def report(run: Run, leaked: List[int], error: "str | None", out: "Path | None") -> int:
    """Print every metric as ``name value unit``, then the result object."""
    w = run.w
    print(f"workload {w.name} seed {run.seed} seconds {run.seconds:g} trace {int(run.trace)}")
    print(f"host nproc {os.cpu_count()} cpus_allowed {len(run.all_cpus)} "
          f"loadavg {os.getloadavg()[0]:.2f} python {platform.python_version()} "
          f"git {git_sha()}")
    print(f"pinning program and loadgen {sorted(run.pin or [])}")
    if w.durable:
        print(f"flush_policy --fsync {FSYNC_POLICY} (every acknowledged update is fsynced)")
    if run.trace:
        print("# traced run: the end-to-end numbers below come from shortened phases with "
              "spans on; gate on --trace 0")
    for name, value in run.e2e.items():
        extra = f"  samples {run.samples[name]}" if name in run.samples else ""
        print(f"{name} {value:.6g} {metrics.UNITS[name]}{extra}")
    if "round_ops_s" in run.series:
        # as the clock read them, before scaling to reference host speed
        series = run.series
        print(f"unscaled setup_s {statistics.median(series['setup_raw_s']):.6g} s  "
              f"throughput_ops_s {statistics.median(series['round_ops_s']):.6g} 1/s "
              f"(best round {max(series['round_ops_s']):.6g})  "
              f"latency_p50_ms {statistics.median(series['round_p50_ms']):.6g} ms "
              f"(best round {min(series['round_p50_ms']):.6g})")
        print(f"host_slowdown median {statistics.median(series['probe_ms']) / 1e3 / hostspeed.REFERENCE_S:.3f} "
              f"best {min(series['probe_ms']) / 1e3 / hostspeed.REFERENCE_S:.3f} "
              f"worst {max(series['probe_ms']) / 1e3 / hostspeed.REFERENCE_S:.3f} "
              f"over {len(series['probe_ms'])} probes of {hostspeed.REFERENCE_S * 1e3:g} ms")
    if run.trace:
        for name, value in run.layer.items():
            print(f"{name} {value:.6g} {metrics.UNITS[name]}")
        if run.budget:
            total = sum(us for _, us in run.budget)
            print("layer budget of one routed query (self time at p50):")
            for layer, us in run.budget:
                print(f"  {layer:<16} {us:10.1f} us  {us / total:6.1%}")
            print(f"  {'sum':<16} {total:10.1f} us  (R5 p50 {run.layer['cluster.router.query_us_p50']:.1f} us)")
    for note in run.tally.notes:
        print(f"failure {note}")
    if error:
        print(f"error {error}")
    print(f"failed_share {run.tally.failed / max(1, run.tally.attempted):.6g} ratio "
          f"({run.tally.failed} of {run.tally.attempted})")
    print(f"leaked_processes {len(leaked)}" + (f" pids {leaked}" if leaked else ""))
    correct = not error and not leaked and run.tally.failed == 0
    if error:
        return 1  # no result object: the run did not measure anything
    reported = run.layer if run.trace else run.e2e
    result = {
        "correct": correct,
        "attempted": max(1, run.tally.attempted),
        "failed": run.tally.failed,
        "metrics": {
            name: {"value": reported[name], "unit": unit}
            for name, unit, _ in (metrics.PER_LAYER if run.trace else metrics.END_TO_END)
        },
    }
    if out is not None:
        out.parent.mkdir(parents=True, exist_ok=True)
        with open(out, "a") as handle:  # one line per run: compare.py reads these
            handle.write(json.dumps(
                {"workload": w.name, "seed": run.seed, "seconds": run.seconds,
                 "trace": int(run.trace), "git": git_sha(), "samples": run.samples, "series": run.series, **result}
            ) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


def run_workload(name: str, seed: int, seconds: float, trace: bool, out: "Path | None") -> int:
    procs = Procs(WORK_ROOT)
    procs.install_handlers()
    run = Run(WORKLOADS[name], seed, seconds, trace, procs)
    error = None
    try:
        run.execute()
        if trace:
            run.spans.write(WORK_ROOT / f"trace-{name}-{seed}.json")
    except Exception:  # noqa: BLE001 - report it, then clean up and account for processes
        error = f"{traceback.format_exc()}{procs.stderr_tail()}"
    finally:
        if run.store is not None:
            run.store.close()
        procs.close()
        os.sched_setaffinity(0, run.all_cpus)  # the next workload pins afresh
    return report(run, procs.leaked(), error, out)


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(prog="e2e_bench/run.py", description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                        help="one workload (default: every gated one, one after the other)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0,
                        help="length of the timed phases (BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: climb the layer ladder and report the per-layer metrics")
    parser.add_argument("--out", type=Path, default=None,
                        help="also append each result to this file, one JSON object per line")
    args = parser.parse_args(argv)
    if args.seconds < 8:
        parser.error("--seconds must be at least 8: a traced run needs two rounds, "
                     "an open loop and a rate sweep")
    names = [args.workload] if args.workload else [w.name for w in WORKLOADS.values() if w.gated]
    status = 0
    for name in names:
        status |= run_workload(name, args.seed, args.seconds, bool(args.trace), args.out)
    return status
