"""The timeline index (paper Section 2, reference [19]).

The index keeps all interval endpoints in an *event list* -- a table of
``(time, id, is_start)`` triples sorted primarily by ``time`` and secondarily
by ``is_start`` descending (starts before ends at the same timestamp, which
matches closed-interval semantics).  At every ``checkpoint`` timestamp the
full set of *active* interval ids is materialised, along with a pointer to the
first event-list triple at or after the checkpoint.

A range query ``[q.st, q.end]`` (a "time-travel query"):

1. finds the largest checkpoint <= q.st and copies its active set into R,
2. replays the event list from the checkpoint pointer up to the first triple
   with ``time >= q.st``, adding started ids and removing ended ids,
3. reports R (everything active at q.st),
4. continues scanning until the first triple with ``time > q.end`` and
   reports every id whose ``is_start`` flag is set.

The paper's criticisms -- more data accessed/compared than necessary, large
checkpoint storage, expensive ad-hoc updates because the event list must stay
sorted -- all carry over to this implementation.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from typing import List

from repro.core.base import IntervalIndex, QueryStats
from repro.core.interval import Interval, IntervalCollection, Query
from repro.core.spans import SpanTable
from repro.engine.registry import register_backend

__all__ = ["TimelineIndex"]


@register_backend(
    "timeline",
    description="SAP HANA's timeline index (checkpointed event list)",
    paper_section="Section 2 [19]",
)
class TimelineIndex(IntervalIndex):
    """Timeline index with periodic checkpoints.

    Args:
        collection: intervals to index.
        num_checkpoints: how many checkpoints to materialise.  The paper's
            experiments use 6000-8000; this reproduction keeps the parameter
            and defaults it to 1000 for laptop-scale datasets.
    """

    name = "timeline"

    def __init__(self, collection: IntervalCollection, num_checkpoints: int = 1000) -> None:
        if num_checkpoints < 1:
            raise ValueError(f"num_checkpoints must be >= 1, got {num_checkpoints}")
        self._num_checkpoints = num_checkpoints
        self._spans = SpanTable(collection)
        # event list entries: (time, is_start_desc_key, id) where the sort key
        # for is_start uses 0 for starts and 1 for ends so starts sort first
        self._events: List[tuple[int, int, int]] = []
        for interval in collection:
            self._events.append((interval.start, 0, interval.id))
            self._events.append((interval.end, 1, interval.id))
        self._events.sort()
        self._checkpoint_times: List[int] = []
        self._checkpoint_sets: List[frozenset[int]] = []
        self._checkpoint_ptrs: List[int] = []
        self._checkpoints_dirty = False
        self._build_checkpoints()

    @classmethod
    def build(cls, collection: IntervalCollection, **kwargs) -> "TimelineIndex":
        return cls(collection, **kwargs)

    # ------------------------------------------------------------------ #
    # checkpoints
    # ------------------------------------------------------------------ #
    def _build_checkpoints(self) -> None:
        """Sweep the event list once, materialising evenly spaced checkpoints."""
        self._checkpoint_times = []
        self._checkpoint_sets = []
        self._checkpoint_ptrs = []
        if not self._events:
            return
        lo = self._events[0][0]
        hi = self._events[-1][0]
        span = max(1, hi - lo)
        step = max(1, span // self._num_checkpoints)
        targets = list(range(lo, hi + 1, step))
        active: set[int] = set()
        event_pos = 0
        total = len(self._events)
        for target in targets:
            # replay events strictly before the checkpoint time; an interval
            # ending exactly at the checkpoint is still active there (closed
            # intervals), so end events at `target` are not applied yet.
            while event_pos < total and self._events[event_pos][0] < target:
                time, kind, sid = self._events[event_pos]
                if kind == 0:
                    active.add(sid)
                else:
                    active.discard(sid)
                event_pos += 1
            # also apply start events at exactly the checkpoint time
            probe = event_pos
            while probe < total and self._events[probe][0] == target:
                time, kind, sid = self._events[probe]
                if kind == 0:
                    active.add(sid)
                probe += 1
            self._checkpoint_times.append(target)
            self._checkpoint_sets.append(frozenset(active))
            self._checkpoint_ptrs.append(event_pos)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def query(self, query: Query) -> List[int]:
        results, _ = self._query(query)
        return results

    def query_with_stats(self, query: Query) -> tuple[List[int], QueryStats]:
        return self._query(query)

    def _query(self, query: Query) -> tuple[List[int], QueryStats]:
        stats = QueryStats(partitions_accessed=1, partitions_compared=1)
        if self._checkpoints_dirty:
            self._build_checkpoints()
            self._checkpoints_dirty = False
        if not self._events:
            return [], stats
        # 1. locate the last checkpoint at or before q.st
        checkpoint_idx = bisect_right(self._checkpoint_times, query.start) - 1
        if checkpoint_idx >= 0:
            active = set(self._checkpoint_sets[checkpoint_idx])
            event_pos = self._checkpoint_ptrs[checkpoint_idx]
            # the checkpoint set already applied start-events at the checkpoint
            # time, so skip those entries to avoid double processing
            checkpoint_time = self._checkpoint_times[checkpoint_idx]
        else:
            active = set()
            event_pos = 0
            checkpoint_time = None
        stats.candidates += len(active)
        # 2. replay events up to q.st
        events = self._events
        total = len(events)
        while event_pos < total and events[event_pos][0] < query.start:
            time, kind, sid = events[event_pos]
            stats.comparisons += 1
            if checkpoint_time is not None and time == checkpoint_time and kind == 0:
                event_pos += 1
                continue
            if kind == 0:
                active.add(sid)
            else:
                active.discard(sid)
            event_pos += 1
        # ends at exactly q.st remain active (closed intervals); starts at
        # q.st are picked up in step 3, so nothing else to do here.
        tombstones = self._spans.removed
        results = {sid for sid in active if sid not in tombstones}
        # 3. continue scanning until past q.end, collecting newly started ids
        while event_pos < total and events[event_pos][0] <= query.end:
            time, kind, sid = events[event_pos]
            stats.comparisons += 1
            stats.candidates += 1
            if kind == 0 and sid not in tombstones:
                results.add(sid)
            event_pos += 1
        stats.results = len(results)
        return list(results), stats

    # ------------------------------------------------------------------ #
    # updates (expensive by design: the event list must stay sorted)
    # ------------------------------------------------------------------ #
    def insert(self, interval: Interval) -> None:
        self._spans.add(interval)
        insort(self._events, (interval.start, 0, interval.id))
        insort(self._events, (interval.end, 1, interval.id))
        # the checkpoint sets and pointers are invalidated by the insertion;
        # they are rebuilt lazily at the next query (the paper's point that
        # ad-hoc updates are expensive for this index stands either way)
        self._checkpoints_dirty = True

    def delete(self, interval_id: int) -> bool:
        """Delete ``interval_id``: its two events leave the event list, so
        re-inserting the id later cannot resurrect them.  The checkpoints
        are rebuilt lazily, as after an insert."""
        victim = self._spans.remove(interval_id)
        if victim is None:
            return False
        for event in ((victim.start, 0, victim.id), (victim.end, 1, victim.id)):
            del self._events[bisect_left(self._events, event)]
        self._checkpoints_dirty = True
        return True

    # ------------------------------------------------------------------ #
    # introspection used by tests
    # ------------------------------------------------------------------ #
    @property
    def num_checkpoints(self) -> int:
        """Number of materialised checkpoints."""
        return len(self._checkpoint_times)

    def active_at(self, time: int) -> List[int]:
        """Ids of intervals active exactly at ``time`` (a stabbing query)."""
        return self.stab(time)
