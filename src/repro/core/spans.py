"""The one owner of "which span does id *i* have, and is it live?".

Every index that retains its intervals holds one :class:`SpanTable`: the
build collection's three ``int64`` columns (shared with the caller, never
copied), an id-sort permutation only when the ids are not already
increasing, a plain dict for rows inserted since the build and the set of
removed ids -- which is also the query-time tombstone filter of the backends
that delete logically, except ``OptimizedHINTm``, which marks the deleted
rows of its own row space.  It answers like the ``dict`` of id -> interval it
replaces under any sequence of removes and (re-)adds of ids that are not
live; a build collection that repeats an id keeps the last row, as the
per-row dict fills did.

The table is internal (not exported from :mod:`repro`) and carries no lock:
it is mutated exactly where the owning index is mutated, under that index's
update lock.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.interval import Interval, IntervalCollection

__all__ = ["SpanTable"]


class SpanTable:
    """Live id -> ``(start, end)`` for one index."""

    __slots__ = ("_base", "_order", "_added", "removed", "_size")

    def __init__(self, collection: IntervalCollection) -> None:
        ids = collection.ids
        order: Optional[np.ndarray] = None
        if len(ids) > 1 and not bool(np.all(ids[1:] > ids[:-1])):
            order = np.argsort(ids, kind="stable")
            ranked = ids[order]
            repeated = ranked[1:] == ranked[:-1]
            if repeated.any():
                # last row wins: keep the final row of every run of equal ids
                collection = collection.take(order[np.append(~repeated, True)])
                order = None
        self._base = collection
        self._order = order
        #: rows inserted since the build; they shadow a base row of the same id
        self._added: Dict[int, Interval] = {}
        #: ids removed and not re-added since -- read by the owning index as
        #: its tombstone filter
        self.removed: set[int] = set()
        self._size = len(collection)

    # ------------------------------------------------------------------ #
    # lookup
    # ------------------------------------------------------------------ #
    def _row(self, interval_id: int) -> int:
        """Base row holding ``interval_id``, or -1."""
        ids = self._base.ids
        position = int(ids.searchsorted(interval_id, sorter=self._order))
        if position == len(ids):
            return -1
        row = position if self._order is None else int(self._order[position])
        return row if ids[row] == interval_id else -1

    def get(self, interval_id: int) -> Optional[Interval]:
        """The live interval with this id, or None."""
        if interval_id in self.removed:
            return None
        found = self._added.get(interval_id)
        if found is not None:
            return found
        row = self._row(interval_id)
        if row < 0:
            return None
        return Interval(interval_id, self._base.starts.item(row), self._base.ends.item(row))

    def __contains__(self, interval_id: int) -> bool:
        return self.get(interval_id) is not None

    def __len__(self) -> int:
        return self._size

    def gather(self, ids) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(starts, ends, live)`` for many ids in one vectorised pass.

        ``live[k]`` is False when ``ids[k]`` is not a live row; its
        endpoints are then unspecified.  Work is proportional to ``len(ids)``
        (times ``log n`` for the base probe), never to the table.
        """
        ids = np.asarray(ids, dtype=np.int64)
        base = self._base
        if len(base) and len(ids):
            positions = base.ids.searchsorted(ids, sorter=self._order)
            positions[positions == len(base)] = 0
            rows = positions if self._order is None else self._order[positions]
            live = base.ids[rows] == ids
            starts, ends = base.starts[rows], base.ends[rows]
        else:
            live = np.zeros(len(ids), dtype=bool)
            starts = np.zeros(len(ids), dtype=np.int64)
            ends = np.zeros(len(ids), dtype=np.int64)
        if self._added or self.removed:
            added, removed = self._added, self.removed
            for position, interval_id in enumerate(ids.tolist()):
                if interval_id in removed:
                    live[position] = False
                elif interval_id in added:
                    found = added[interval_id]
                    starts[position], ends[position] = found.start, found.end
                    live[position] = True
        return starts, ends, live

    def collection(self) -> IntervalCollection:
        """The live rows as a columnar collection (one vectorised pass).

        With nothing added or removed this is the build collection itself.
        """
        base = self._base
        if (self._added or self.removed) and len(base):
            dead = np.fromiter(self.removed | self._added.keys(), dtype=np.int64)
            base = base.take(~np.isin(base.ids, dead))
        if not self._added:
            return base
        return base.extend(IntervalCollection.from_intervals(self._added.values()))

    # ------------------------------------------------------------------ #
    # updates
    # ------------------------------------------------------------------ #
    def add(self, interval: Interval) -> None:
        """Make ``interval`` the live row of its id -- O(1), no base probe.

        The id must not be live already (ids are unique among live rows, the
        caller's contract throughout the library); re-adding a removed id is
        fine and shadows its base row.
        """
        self.removed.discard(interval.id)
        self._added[interval.id] = interval
        self._size += 1

    def remove(self, interval_id: int) -> Optional[Interval]:
        """Drop the live row of ``interval_id``; returns it (None if absent)."""
        found = self.get(interval_id)
        if found is not None:
            self._added.pop(interval_id, None)
            self.removed.add(interval_id)
            self._size -= 1
        return found
