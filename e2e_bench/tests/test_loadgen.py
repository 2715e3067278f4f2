"""Load-generator arithmetic on a fake clock: no wall-clock assertions."""

import numpy as np
import pytest

from e2e_bench import loadgen
from e2e_bench.loadgen import PhaseLog, ThreadLog


class FakeClock:
    """Time moves only when something sleeps or an op 'takes' time."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        assert seconds > 0
        self.now += seconds


def test_open_loop_schedule_is_dealt_round_robin():
    lanes = loadgen.open_loop_schedule(6, rate=2.0, start=10.0, connections=2)
    assert lanes[0].tolist() == [10.0, 11.0, 12.0]
    assert lanes[1].tolist() == [10.5, 11.5, 12.5]


def test_open_loop_latency_counts_from_due_time_not_send_time():
    # service takes 3, ops are due every 2: the sender falls behind, and
    # each op's latency includes the wait the earlier ones imposed on it
    clock = FakeClock()
    log = ThreadLog()
    loadgen.open_worker(
        lambda i: clock.sleep(3.0), [0.0, 2.0, 4.0], log, clock=clock, sleep=clock.sleep
    )
    phase = PhaseLog([log], 0.0, clock.now, 0.0)
    assert log.sent == [0.0, 3.0, 6.0]
    assert phase.latencies().tolist() == [3.0, 4.0, 5.0]
    assert phase.lags().tolist() == [0.0, 1.0, 2.0]


def test_open_loop_waits_for_the_due_time_when_early():
    clock = FakeClock()
    log = ThreadLog()
    loadgen.open_worker(
        lambda i: clock.sleep(0.5), [1.0, 5.0], log, clock=clock, sleep=clock.sleep
    )
    assert log.sent == [1.0, 5.0]
    assert log.done == [1.5, 5.5]
    assert PhaseLog([log], 0.0, 6.0, 0.0).lags().tolist() == [0.0, 0.0]


def test_failed_op_is_recorded_not_raised():
    clock = FakeClock()
    log = ThreadLog()

    def op(i: int) -> None:
        clock.sleep(1.0)
        if i == 1:
            raise RuntimeError("refused")

    loadgen.closed_worker(op, 3, deadline=100.0, log=log, clock=clock)
    assert log.ok == [True, False, True]
    assert "refused" in log.errors[0]
    phase = PhaseLog([log], 0.0, 3.0, 0.0)
    assert (phase.attempted, phase.failed) == (3, 1)


def test_closed_loop_stops_at_the_deadline():
    clock = FakeClock()
    log = ThreadLog()
    loadgen.closed_worker(lambda i: clock.sleep(1.0), 100, deadline=2.5, log=log, clock=clock)
    assert log.done == [1.0, 2.0, 3.0]  # the op in flight at the deadline completes


def _log(done, ok=None, ops_per_record=1, first_sent=0.0):
    sent = [first_sent, *done[:-1]]
    return ThreadLog(due=sent, sent=sent, done=list(done),
                     ok=list(ok or [True] * len(done)), ops_per_record=ops_per_record)


def test_phase_rate_counts_correct_ops_over_the_whole_phase():
    # 4 calls of 10 ops in 2 s, one of them failed
    log = _log([0.5, 1.0, 1.5, 2.0], ok=[True, False, True, True], ops_per_record=10)
    assert PhaseLog([log], 0.0, 2.0, 0.0).rate == pytest.approx(15.0)


def _latency_log(done, latencies):
    done = np.asarray(done, dtype=float)
    due = done - np.asarray(latencies, dtype=float)
    return ThreadLog(due=due.tolist(), sent=due.tolist(), done=done.tolist(),
                     ok=[True] * len(done))


def test_window_percentiles_need_enough_samples_and_whole_windows():
    # window 0: 4 samples; window 1: 2 samples (too few); 2.0-2.5: not a whole window
    log = _latency_log([0.1, 0.2, 0.3, 0.4, 1.1, 1.2, 2.1, 2.2, 2.3, 2.4],
                       [1, 2, 3, 4, 9, 9, 5, 5, 5, 5])
    phase = PhaseLog([log], 0.0, 2.5, 0.0)
    values, used = loadgen.window_percentiles(phase, None, 1.0, 50, min_samples=3)
    assert values == [2.5]
    assert used == 4


def test_windows_of_every_round_count():
    quiet = PhaseLog([_latency_log([0.2, 0.4, 0.6, 0.8], [1, 1, 1, 1])], 0.0, 1.0, 0.0)
    noisy = PhaseLog([_latency_log([5.2, 5.4, 5.6, 5.8], [7, 7, 7, 7])], 5.0, 6.0, 0.0)
    values, used = loadgen.all_window_percentiles([quiet, noisy], None, 1.0, 50, 4)
    assert (values, used) == ([1.0, 7.0], 8)


def test_no_usable_window_falls_back_to_all_samples():
    phase = PhaseLog([_latency_log([0.1, 0.2], [4, 8])], 0.0, 0.3, 0.0)
    values, used = loadgen.all_window_percentiles([phase], None, 1.0, 50, 250)
    assert (values, used) == ([6.0], 2)


def test_round_gate_keeps_the_mix_whoever_is_slower():
    reads, writes = ThreadLog(), ThreadLog()
    gate = loadgen.RoundGate(2)
    workers = [
        lambda: loadgen.closed_worker(lambda i: None, 70, 1e18, reads, gate=gate, per_round=7),
        # the writer runs out first: 29 ops are 9 whole rounds of 3
        lambda: loadgen.closed_worker(lambda i: None, 29, 1e18, writes, gate=gate, per_round=3),
    ]
    loadgen.run_phase(workers, [reads, writes])
    assert (len(reads.ok), len(writes.ok)) == (63, 27)
