"""Named crash points and injectable IO errors for durability testing.

The WAL, checkpoint and recovery code call :func:`fire` at every step whose
ordering matters for crash safety (before/after the append write, after the
fsync, around the checkpoint publish, before segment truncation, before each
replayed apply).  In production every call is a dict lookup that misses; a
test (or the crash-recovery soak's child process) arms a point first:

* ``action="crash"`` SIGKILLs the *current process* at the point -- the
  honest simulation of power loss: no ``atexit``, no buffered-file flush,
  no destructors.
* ``action="io_error"`` raises :class:`OSError` at the point, exercising
  the degraded-mode paths without killing anything.

``after=N`` delays the trigger until the point's N-th hit, so a soak run
can crash mid-stream rather than on the first operation.  Arming is also
possible through the environment (``REPRO_CRASH_POINT=point[:action[:after]]``),
which is how the soak script arms its SIGKILLed children across the
``subprocess`` boundary.
"""

from __future__ import annotations

import os
import signal
import threading
from typing import Dict, Optional, Tuple

__all__ = ["CRASH_POINTS", "FaultInjector", "arm", "disarm", "fire", "hits", "injector"]

#: every named point the durability code fires, in rough lifecycle order --
#: the crash-recovery tests and soaks iterate this tuple
CRASH_POINTS = (
    "append.before_write",
    "append.after_write",
    "append.after_fsync",
    "checkpoint.begin",
    "checkpoint.after_tmp_write",
    "checkpoint.after_publish",
    "truncate.before_unlink",
    "replay.before_apply",
)

#: environment variable arming one point in a child process
ENV_CRASH_POINT = "REPRO_CRASH_POINT"


class FaultInjector:
    """A registry of armed crash points (one global instance per process)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: point -> (action, hits remaining before it triggers)
        self._armed: Dict[str, Tuple[str, int]] = {}
        self._hits: Dict[str, int] = {}

    # ------------------------------------------------------------------ #
    def arm(self, point: str, action: str = "crash", after: int = 0) -> None:
        """Trigger ``action`` on the ``after``-th subsequent hit of ``point``."""
        if action not in ("crash", "io_error"):
            raise ValueError(f"unknown fault action {action!r}")
        with self._lock:
            self._armed[point] = (action, max(0, int(after)))

    def disarm(self, point: Optional[str] = None) -> None:
        """Forget one armed point (or all of them), keeping hit counters."""
        with self._lock:
            if point is None:
                self._armed.clear()
            else:
                self._armed.pop(point, None)

    def reset(self) -> None:
        """Disarm everything and zero the hit counters (test isolation)."""
        with self._lock:
            self._armed.clear()
            self._hits.clear()

    def hits(self, point: str) -> int:
        """How many times ``point`` has fired in this process."""
        with self._lock:
            return self._hits.get(point, 0)

    def arm_from_env(self, environ=os.environ) -> Optional[str]:
        """Arm the point named in ``REPRO_CRASH_POINT``, if any.

        Format: ``point``, ``point:action`` or ``point:action:after``.
        Returns the armed point name (for logging) or ``None``.
        """
        spec = environ.get(ENV_CRASH_POINT, "").strip()
        if not spec:
            return None
        parts = spec.split(":")
        point = parts[0]
        action = parts[1] if len(parts) > 1 and parts[1] else "crash"
        after = int(parts[2]) if len(parts) > 2 and parts[2] else 0
        self.arm(point, action=action, after=after)
        return point

    # ------------------------------------------------------------------ #
    def fire(self, point: str) -> None:
        """Record a hit of ``point``; trigger its armed action when due."""
        if not self._armed:
            # production fast path: nothing armed, so the WAL append loop
            # must not pay for a lock -- the GIL keeps this dict bump safe
            # enough for what it is (a diagnostic counter)
            self._hits[point] = self._hits.get(point, 0) + 1
            return
        with self._lock:
            self._hits[point] = self._hits.get(point, 0) + 1
            armed = self._armed.get(point)
            if armed is None:
                return
            action, remaining = armed
            if remaining > 0:
                self._armed[point] = (action, remaining - 1)
                return
            # one-shot: a triggered io_error must not re-fire during the
            # recovery that follows it
            del self._armed[point]
        if action == "crash":
            os.kill(os.getpid(), signal.SIGKILL)  # pragma: no cover - fatal
        raise OSError(f"injected IO error at crash point {point!r}")

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"FaultInjector(armed={sorted(self._armed)}, hits={self._hits})"


#: the process-global injector the durability code fires into
injector = FaultInjector()
injector.arm_from_env()

# module-level conveniences bound to the global injector
arm = injector.arm
disarm = injector.disarm
fire = injector.fire
hits = injector.hits
