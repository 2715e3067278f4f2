"""Load generation and the arithmetic that turns its logs into metrics.

Two loops.  A *closed* loop sends a connection's next op when the previous one
completed, so it measures saturation with a fixed number of callers.  An *open*
loop sends on a schedule regardless; each op is timed from when it was **due**,
so the wait a stall imposes on later ops is counted, and how late the sender
ran is reported beside it.

The statistics are pure functions of the logs (tested on a fake clock).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

Op = Callable[[int], None]


# --------------------------------------------------------------------------- #
# logs
# --------------------------------------------------------------------------- #
@dataclass
class ThreadLog:
    """What one connection did: per op, when it was due, sent and done."""

    due: List[float] = field(default_factory=list)
    sent: List[float] = field(default_factory=list)
    done: List[float] = field(default_factory=list)
    ok: List[bool] = field(default_factory=list)
    #: ops one record stands for (a ``run_batch`` chunk is one call, many ops)
    ops_per_record: int = 1
    errors: List[str] = field(default_factory=list)

    def record(self, due: float, sent: float, done: float, ok: bool) -> None:
        self.due.append(due)
        self.sent.append(sent)
        self.done.append(done)
        self.ok.append(ok)

    def note_error(self, exc: BaseException) -> None:
        if len(self.errors) < 5:
            self.errors.append(repr(exc))


@dataclass
class PhaseLog:
    """The logs of every connection of one phase, and the phase's extent."""

    threads: List[ThreadLog]
    started: float
    ended: float
    runner_cpu_s: float

    @property
    def wall_s(self) -> float:
        return self.ended - self.started

    @property
    def attempted(self) -> int:
        return sum(len(t.ok) * t.ops_per_record for t in self.threads)

    @property
    def failed(self) -> int:
        return sum(t.ok.count(False) * t.ops_per_record for t in self.threads)

    @property
    def rate(self) -> float:
        """Correct completed ops per second over the whole phase."""
        return (self.attempted - self.failed) / self.wall_s

    @property
    def errors(self) -> List[str]:
        return [message for t in self.threads for message in t.errors]

    def column(self, name: str, threads: "Sequence[int] | None" = None) -> np.ndarray:
        picked = self.threads if threads is None else [self.threads[i] for i in threads]
        return np.concatenate([np.asarray(getattr(t, name), dtype=float) for t in picked])

    def latencies(self, threads: "Sequence[int] | None" = None) -> np.ndarray:
        """Seconds from due time to completion (closed loop: due == sent)."""
        return self.column("done", threads) - self.column("due", threads)

    def lags(self) -> np.ndarray:
        """How late each op was sent."""
        return self.column("sent") - self.column("due")


# --------------------------------------------------------------------------- #
# statistics (pure)
# --------------------------------------------------------------------------- #
def open_loop_schedule(count: int, rate: float, start: float, connections: int
                       ) -> List[np.ndarray]:
    """Due times of ``count`` ops at ``rate``/s from ``start``, dealt round-robin."""
    due = start + np.arange(count) / rate
    return [due[k::connections] for k in range(connections)]


def window_percentiles(
    log: PhaseLog, threads: "Sequence[int] | None", window_s: float, pct: float,
    min_samples: int,
) -> Tuple[List[float], int]:
    """The ``pct``-th latency percentile of each fixed window of a phase.

    Only whole windows inside the phase that hold at least ``min_samples``
    completions count: fewer cannot support the percentile.  Returns the
    per-window values and the number of samples they rest on.
    """
    done = log.column("done", threads)
    latencies = log.latencies(threads)
    slot = np.floor((done - log.started) / window_s).astype(int)
    values, used = [], 0
    for w in range(int((log.ended - log.started) / window_s)):
        inside = latencies[slot == w]
        if len(inside) >= min_samples:
            values.append(float(np.percentile(inside, pct)))
            used += len(inside)
    return values, used


def all_window_percentiles(
    logs: Sequence[PhaseLog], threads: "Sequence[int] | None", window_s: float,
    pct: float, min_samples: int,
) -> Tuple[List[float], int]:
    """``window_percentiles`` over every round of a phase: values and samples.

    When no window holds enough samples, the one value is the percentile of
    all samples (and the caller can tell from ``len(values) == 1``).
    """
    values: List[float] = []
    used = 0
    for log in logs:
        per_window, samples = window_percentiles(log, threads, window_s, pct, min_samples)
        values += per_window
        used += samples
    if not values:
        everything = np.concatenate([log.latencies(threads) for log in logs])
        return [float(np.percentile(everything, pct))], len(everything)
    return values, used


# --------------------------------------------------------------------------- #
# the two loops
# --------------------------------------------------------------------------- #
class RoundGate:
    """Holds closed-loop connections to a fixed op mix.

    Connection ``k`` does its share of a round, then all meet at a barrier;
    the first one to find the phase over (deadline passed or ops used up)
    names the round nobody starts.
    """

    def __init__(self, parties: int, timeout: float = 60.0) -> None:
        self._barrier = threading.Barrier(parties, timeout=timeout)
        self._stop_round: Optional[int] = None

    def enter(self, round_no: int, over: bool) -> bool:
        if over and self._stop_round is None:
            self._stop_round = round_no
        self._barrier.wait()
        return self._stop_round is None or round_no < self._stop_round


def closed_worker(
    op: Op, count: int, deadline: float, log: ThreadLog,
    clock: Callable[[], float] = time.perf_counter,
    gate: Optional[RoundGate] = None, per_round: int = 1,
) -> None:
    """Issue ``op(0), op(1), ...`` back to back until ``deadline`` or ``count``."""
    i = 0
    while True:
        now = clock()
        if gate is None:
            if i >= count or now >= deadline:
                return
        elif i % per_round == 0:
            if not gate.enter(i // per_round, now >= deadline or i + per_round > count):
                return
            now = clock()
        try:
            op(i)
            ok = True
        except Exception as exc:  # noqa: BLE001 - a failed op is a measurement
            ok = False
            log.note_error(exc)
        log.record(now, now, clock(), ok)
        i += 1


def open_worker(
    op: Op, due: Sequence[float], log: ThreadLog,
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
) -> None:
    """Issue ``op(i)`` at ``due[i]``, or at once when already late."""
    for i, t_due in enumerate(due):
        now = clock()
        if now < t_due:
            sleep(t_due - now)
            now = clock()
        try:
            op(i)
            ok = True
        except Exception as exc:  # noqa: BLE001 - a failed op is a measurement
            ok = False
            log.note_error(exc)
        log.record(t_due, now, clock(), ok)


def run_phase(workers: Sequence[Callable[[], None]], logs: List[ThreadLog]) -> PhaseLog:
    """Run one worker per connection to completion; time the phase."""
    failures: List[BaseException] = []

    def guarded(worker: Callable[[], None]) -> None:
        try:
            worker()
        except BaseException as exc:  # noqa: BLE001 - re-raised in the caller
            failures.append(exc)

    # a lone worker runs on the calling thread: an in-process phase then pays
    # for no thread switch it would not pay in a user's program
    threads = [
        threading.Thread(target=guarded, args=(w,), daemon=True) for w in workers[1:]
    ]
    cpu0, started = time.process_time(), time.perf_counter()
    for thread in threads:
        thread.start()
    guarded(workers[0])
    for thread in threads:
        thread.join()
    ended, cpu1 = time.perf_counter(), time.process_time()
    if failures:
        raise failures[0]
    return PhaseLog(logs, started, ended, cpu1 - cpu0)
