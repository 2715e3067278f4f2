"""Spans recorded by the benchmark, from outside the program.

A span is ``(name, start, end, parent, query_id)``: recorded around a call
into one layer's public surface, kept in memory, written out when the run
ends.  Spans of one query share its ``query_id``; ``parent`` is the index of
the span that caused this one (-1 for a root).
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple

Span = Tuple[str, float, float, int, int]


class SpanRecorder:
    """An append-only span list; ``add`` returns the span's index.

    Not shared between threads: every load thread records into its own.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []

    def add(self, name: str, start: float, end: float, parent: int = -1,
            query_id: int = -1) -> int:
        self.spans.append((name, start, end, parent, query_id))
        return len(self.spans) - 1

    def open(self, name: str, parent: int = -1) -> int:
        """Start a span now; ``close`` ends it (for spans that have children)."""
        now = self.clock()
        return self.add(name, now, now, parent)

    def close(self, index: int) -> None:
        name, start, _, parent, query_id = self.spans[index]
        self.spans[index] = (name, start, self.clock(), parent, query_id)

    def extend(self, other: "SpanRecorder", parent: int = -1) -> None:
        """Adopt another recorder's spans (one per load thread: indices are
        only meaningful within the recorder that issued them); its roots
        become children of ``parent``."""
        offset = len(self.spans)
        self.spans.extend(
            (name, start, end, p + offset if p >= 0 else parent, query_id)
            for name, start, end, p, query_id in other.spans
        )

    def durations(self, name: str) -> List[float]:
        return [end - start for span, start, end, _, _ in self.spans if span == name]

    def write(self, path: Path) -> None:
        names = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump(
                {
                    "columns": ["name", "start_s", "end_s", "parent", "query_id"],
                    "names": names,
                    "spans": [
                        [index[name], round(start, 7), round(end, 7), parent, query_id]
                        for name, start, end, parent, query_id in self.spans
                    ],
                },
                handle,
            )


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the part of it its child spans cover.

    Children may overlap each other (parallel fan-out) and may stick out of
    the parent (clock skew); only the union of their intervals, clipped to
    the parent, is subtracted.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    result = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo, hi = max(child_start, reach), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append((end - start) - covered)
    return result
