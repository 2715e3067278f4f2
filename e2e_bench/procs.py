"""The only place the benchmark starts, stops and accounts for processes.

Every child runs in its own session (so one ``killpg`` reaches whatever it
forks) behind ``child_main.py`` (so a SIGKILLed runner takes its children with
it).  ``Procs.close`` runs from ``finally``, ``atexit`` and the SIGTERM /
SIGINT / SIGHUP handlers, and ``Procs.leaked`` is the proof the run prints.
"""

from __future__ import annotations

import atexit
import os
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Sequence, Set

ROOT = Path(__file__).resolve().parent.parent
CHILD_MAIN = Path(__file__).resolve().parent / "child_main.py"
_CLK_TCK = os.sysconf("SC_CLK_TCK")


class ChildFailed(RuntimeError):
    """A child exited (or stayed silent) before reporting what was awaited."""


def _proc_table() -> Dict[int, List[str]]:
    """``pid -> /proc/<pid>/stat`` fields from the state on, of every process.

    Index 0 is the state, 1 the ppid, 2 the pgrp, 3 the session, 11 and 12 the
    utime and stime in clock ticks.
    """
    table = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                # the command name may hold spaces and parentheses
                table[int(entry)] = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # exited while we were looking
    return table


def _group_cpu_seconds(pgid: int) -> float:
    """utime + stime of every live process of one process group."""
    ticks = sum(
        int(fields[11]) + int(fields[12])
        for fields in _proc_table().values()
        if int(fields[2]) == pgid
    )
    return ticks / _CLK_TCK


def peak_rss_mb(pid: "int | str" = "self") -> float:
    """``VmHWM`` of one process in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise ChildFailed(f"no VmHWM for {pid}")


class Child:
    """One child process group."""

    def __init__(self, popen: subprocess.Popen, label: str) -> None:
        self.popen = popen
        self.label = label
        self.pid = popen.pid  # also its pgid and sid: it leads a new session
        self._buffer = b""

    def wait_for_line(self, prefix: str, timeout: float) -> str:
        """The first stdout line starting with ``prefix``."""
        deadline = time.monotonic() + timeout
        fd = self.popen.stdout.fileno()
        while True:
            while b"\n" in self._buffer:
                line, self._buffer = self._buffer.split(b"\n", 1)
                if line.decode(errors="replace").startswith(prefix):
                    return line.decode(errors="replace")
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ChildFailed(f"{self.label}: no {prefix!r} line within {timeout}s")
            ready, _, _ = select.select([fd], [], [], remaining)
            if not ready:
                continue
            chunk = os.read(fd, 65536)
            if not chunk:
                raise ChildFailed(
                    f"{self.label}: exited with {self.popen.wait()} before {prefix!r}"
                )
            self._buffer += chunk

    def cpu_seconds(self) -> float:
        return _group_cpu_seconds(self.pid)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.pid)

    def _signal_group(self, signum: int) -> None:
        try:
            os.killpg(self.pid, signum)
        except ProcessLookupError:
            pass

    def kill(self) -> None:
        """SIGKILL the whole group and reap the child (a crash, on purpose)."""
        self._signal_group(signal.SIGKILL)
        self.popen.wait()
        if self.popen.stdout is not None:
            self.popen.stdout.close()

    def stop(self, grace: float = 10.0) -> None:
        """SIGINT (the server drains), wait, then SIGKILL whatever is left."""
        try:
            if self.popen.poll() is None:
                self._signal_group(signal.SIGINT)
                try:
                    self.popen.wait(grace)
                except subprocess.TimeoutExpired:
                    pass
        finally:
            # also after a clean exit: a grandchild may have outlived it
            self.kill()


class Procs:
    """Owner of the run's children and of its scratch directory."""

    def __init__(self, work_root: Path) -> None:
        work_root.mkdir(parents=True, exist_ok=True)
        self.work_dir = Path(tempfile.mkdtemp(prefix="run-", dir=work_root))
        self._children: List[Child] = []
        self._closed = False

    def spawn(self, argv: Sequence[str], label: str, cpus: "Set[int] | None" = None) -> Child:
        """Start ``argv`` in a new session; stdout is piped, stderr kept in a file."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
        env["E2E_BENCH_PARENT"] = str(os.getpid())
        if cpus:
            env["E2E_BENCH_CPUS"] = ",".join(str(c) for c in sorted(cpus))
        else:
            env.pop("E2E_BENCH_CPUS", None)
        with open(self.work_dir / f"{label}-{len(self._children)}.stderr", "wb") as stderr:
            popen = subprocess.Popen(
                list(argv), env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                stderr=stderr, start_new_session=True,
            )
        child = Child(popen, label)
        self._children.append(child)
        return child

    def spawn_repro(self, mode: str, args: Sequence[str], label: str,
                    cpus: "Set[int] | None" = None) -> Child:
        """A child behind ``child_main.py``: ``cli`` runs ``repro.cli.main(args)``."""
        return self.spawn([sys.executable, str(CHILD_MAIN), mode, *args], label, cpus)

    def stderr_tail(self, limit: int = 2000) -> str:
        """The end of every child's stderr, for a failure message."""
        parts = []
        for path in sorted(self.work_dir.glob("*.stderr")):
            text = path.read_text(errors="replace").strip()
            if text:
                parts.append(f"--- {path.name}\n{text[-limit:]}")
        return "\n".join(parts)

    # -- teardown ----------------------------------------------------------- #
    def close(self, grace: float = 10.0) -> None:
        """Stop every child group and remove the scratch directory (idempotent)."""
        if self._closed:
            return
        self._closed = True
        try:
            for child in self._children:
                child.stop(grace)
        finally:
            shutil.rmtree(self.work_dir, ignore_errors=True)

    def install_handlers(self) -> None:
        """Clean up on interpreter exit and on the signals a timeout sends."""
        atexit.register(self.close)

        def _on_signal(signum: int, _frame: object) -> None:
            # a short grace, not none: a child interrupted rather than killed
            # unlinks its shared-memory segments and closes its WAL
            self.close(grace=2.0)
            leaked = self.leaked(timeout=2.0)
            print(f"leaked_processes {len(leaked)}", flush=True)
            os._exit(128 + signum)

        for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
            signal.signal(signum, _on_signal)

    def leaked(self, timeout: float = 5.0) -> List[int]:
        """Pids that outlived their stop; empty is the only acceptable answer.

        Polls until every child's group/session is empty and ``/proc`` shows
        no descendant of the runner, then SIGKILLs and returns what remains.
        """
        groups = {child.pid for child in self._children}
        deadline = time.monotonic() + timeout
        while True:
            table = _proc_table()
            me = os.getpid()
            survivors = set()
            for pid, fields in table.items():
                if fields[0] == "Z" or pid == me:
                    continue
                if int(fields[2]) in groups or int(fields[3]) in groups:
                    survivors.add(pid)
                    continue
                ancestor = int(fields[1])
                while ancestor in table and ancestor not in (0, 1, me):
                    ancestor = int(table[ancestor][1])
                if ancestor == me:
                    survivors.add(pid)
            if not survivors or time.monotonic() >= deadline:
                break
            time.sleep(0.05)
        for pid in survivors:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        return sorted(survivors)
