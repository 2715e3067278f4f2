"""The slow-query log: a ring buffer of completed span trees.

Every completed query-shaped request (``/query``, ``/batch``,
``/shard-batch``, a routed cluster query) whose wall time crosses the
configured threshold is recorded with its arguments, outcome tags
(cache hit/stale/miss, shard fan-out, replica failovers) and its span
tree: the full tree when the request was traced, the root span alone for
a server's untraced request.  The buffer is bounded, so a
storm of slow queries evicts the oldest entries instead of growing; it is
surfaced by ``GET /slow-queries`` on the servers and ``repro slow-queries``
on the CLI.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Dict, List, Optional

__all__ = ["SlowQueryLog"]


class SlowQueryLog:
    """Threshold-gated ring buffer of slow-request records.

    Args:
        threshold: seconds a request must take to be recorded; 0 records
            everything (useful in tests and for ad-hoc trace capture).
        capacity: most entries retained (oldest evicted first).
    """

    def __init__(self, threshold: float = 0.1, capacity: int = 64) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.threshold = float(threshold)
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._entries: "deque[Dict[str, object]]" = deque(maxlen=self.capacity)
        self._recorded = 0

    @property
    def recorded(self) -> int:
        """Total entries ever recorded (monotone; feeds the slow counter)."""
        return self._recorded

    def record(
        self,
        endpoint: str,
        duration_s: float,
        *,
        args: Optional[Dict[str, object]] = None,
        tags: Optional[Dict[str, object]] = None,
        trace=None,
    ) -> bool:
        """Record one completed request if it crossed the threshold.

        ``trace`` is a :class:`~repro.obs.tracing.Trace` (its tree is
        materialised at record time, after every tier's spans landed) or
        ``None`` for untraced requests.  Returns whether it was recorded.
        """
        if duration_s < self.threshold:
            return False
        entry: Dict[str, object] = {
            "endpoint": endpoint,
            "duration_ms": duration_s * 1000.0,
            "recorded_at": time.time(),
            "args": dict(args or {}),
            "tags": dict(tags or {}),
        }
        if trace is not None:
            entry["trace_id"] = trace.trace_id
            entry["trace"] = trace.tree()
        with self._lock:
            self._entries.append(entry)
            self._recorded += 1
        return True

    def entries(self, limit: Optional[int] = None) -> List[Dict[str, object]]:
        """Recorded entries, most recent first."""
        with self._lock:
            out = list(self._entries)
        out.reverse()
        return out[:limit] if limit is not None else out

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
