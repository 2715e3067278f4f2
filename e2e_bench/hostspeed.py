"""How fast the host runs right now, by a fixed piece of work.

The reference box is a small shared VM whose cores change speed by up to a
factor of three from one second to the next (README, "How steady it is"): the
*same* code then reads 1,100 or 1,700 req/s depending on when it ran.  A probe
is timed before and after every measured phase, and every 0.1 s during a
set-up; the result is scaled by how much slower than ``REFERENCE_S`` those
probes ran, i.e. it is reported as it would read on a host that runs the probe
in ``REFERENCE_S``.  Both sides of a comparison are scaled by the same rule,
and the unscaled numbers are printed beside the scaled ones.

The work resembles what the program does per request: a JSON round trip of a
200-id answer, header-sized dict and string work, a binary search and a mask
over a NumPy column.  It is small on purpose.  A probe with a random gather
from a 16 MB array in it tracked the host better on a single long trace, but
in the benchmark it mostly timed how cold the run had left the cache, twice as
slow as alone and different from run to run, and ten runs spread by 0.09-0.15
with it against 0.05-0.10 without.
"""

from __future__ import annotations

import json
import threading
import time
from typing import List

import numpy as np

#: CPU seconds a probe takes on the reference box (Xeon @ 2.1 GHz vCPU, Python
#: 3.11) when nothing else slows the core: of 3,000 probes in a row the fastest
#: took 2.13 ms, the 5th percentile 2.24 ms, the median 2.46 ms, the 90th
#: percentile 3.73 ms.  Changing it rescales every timing: do so only in a PR
#: that changes nothing else.
REFERENCE_S = 0.0023

_IDS = list(range(100_000, 100_200))
_COLUMN = np.arange(20_000, dtype=np.int64)


def probe() -> float:
    """CPU seconds the fixed work takes now.

    The calling thread's own CPU time, not wall time: a probe that shares the
    core with the work it is probing beside (``Sampler``) is not charged for
    the turns the other thread took.
    """
    t0 = time.thread_time()
    total = 0
    for k in range(40):
        body = json.dumps({"ids": _IDS, "count": len(_IDS)}, separators=(",", ":")).encode()
        answer = json.loads(body)
        headers = {"content-length": str(len(body)), "connection": "keep-alive"}
        lo, hi = np.searchsorted(_COLUMN, (k * 100, k * 100 + 500))
        hits = _COLUMN[lo:hi]
        total += sum(answer["ids"][:50]) + len(hits[hits % 3 == 0].tolist()) + len(headers)
    assert total  # the work is used
    return time.thread_time() - t0


def slowdown(before: float, after: float) -> float:
    """How many times slower than the reference the host ran between two probes."""
    return (before + after) / 2.0 / REFERENCE_S


class Sampler:
    """Probes every ``interval`` seconds from a thread of its own, for work too
    long to be described by a probe before and one after (a set-up)::

        with Sampler() as speed:
            build()
        seconds_at_reference_speed = seconds / speed.slowdown()
    """

    def __init__(self, interval: float = 0.1) -> None:
        self.interval = interval
        self.probes: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while True:
            self.probes.append(probe())
            if self._stop.wait(self.interval):
                return

    def __enter__(self) -> "Sampler":
        self._thread.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._stop.set()
        self._thread.join()

    def slowdown(self) -> float:
        return sum(self.probes) / len(self.probes) / REFERENCE_S
