"""Entry point of every benchmark child: die with the runner, then do the job.

``child_main.py cli ARGS...`` runs ``repro.cli.main(ARGS)`` unchanged;
``child_main.py rung3 SPEC.json`` runs the process-pool rung of the ladder.
``procs.py`` sets ``PYTHONPATH``, ``E2E_BENCH_PARENT`` and ``E2E_BENCH_CPUS``.
"""

from __future__ import annotations

import ctypes
import os
import signal
import sys

PR_SET_PDEATHSIG = 1


def main(argv: "list[str]") -> int:
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_PDEATHSIG) failed")
    if os.getppid() != int(os.environ["E2E_BENCH_PARENT"]):
        return 1  # the runner died before the prctl took effect
    cpus = os.environ.get("E2E_BENCH_CPUS")
    if cpus:
        os.sched_setaffinity(0, {int(c) for c in cpus.split(",")})
    mode, rest = argv[0], argv[1:]
    if mode == "cli":
        from repro.cli import main as cli_main

        return cli_main(rest)
    if mode == "rung3":
        from e2e_bench.ladder import process_rung_main

        return process_rung_main(rest[0])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
