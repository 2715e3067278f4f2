"""The reaper: nothing a child started survives ``stop``."""

import os
import sys
import time

from e2e_bench.procs import Procs

# a child that forks a grandchild; both ignore SIGINT and would run for a minute
STUBBORN = """
import os, signal, sys, time
signal.signal(signal.SIGINT, signal.SIG_IGN)
pid = os.fork()
if pid:
    print(f"ready {pid}", flush=True)
time.sleep(60)
"""


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def test_stop_reaps_a_child_and_its_grandchild_that_ignore_sigint(tmp_path):
    procs = Procs(tmp_path)
    child = procs.spawn([sys.executable, "-c", STUBBORN], "stubborn")
    grandchild = int(child.wait_for_line("ready", timeout=20.0).split()[1])
    assert _alive(child.pid) and _alive(grandchild)
    child.stop(grace=0.2)
    deadline = time.monotonic() + 5.0
    while (_alive(child.pid) or _alive(grandchild)) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not _alive(child.pid) and not _alive(grandchild)
    assert procs.leaked(timeout=2.0) == []
    procs.close()
    assert not procs.work_dir.exists()


def test_leaked_finds_and_kills_what_close_was_not_told_about(tmp_path):
    procs = Procs(tmp_path)
    child = procs.spawn([sys.executable, "-c", "import time; time.sleep(60)"], "sleeper")
    assert procs.leaked(timeout=0.1) == [child.pid]  # reported, and SIGKILLed
    child.popen.wait(5.0)
    assert procs.leaked(timeout=2.0) == []
    procs.close()


def test_a_child_that_dies_at_start_up_is_reported_not_awaited(tmp_path):
    procs = Procs(tmp_path)
    child = procs.spawn([sys.executable, "-c", "import sys; sys.exit('no such file')"], "broken")
    try:
        child.wait_for_line("# listening on", timeout=20.0)
    except Exception as exc:  # noqa: BLE001
        assert "exited with 1" in str(exc)
    else:
        raise AssertionError("a dead child cannot have reported")
    assert "no such file" in procs.stderr_tail()
    procs.close()
    assert procs.leaked(timeout=2.0) == []
