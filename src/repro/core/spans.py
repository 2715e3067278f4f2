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

The table is also the index's one count owner.  Its :class:`CountPair`, the
sorted starts and ends of the live rows, is built on the first
:meth:`SpanTable.count` (an index that is never counted never pays for it),
and the count of ``[lo, hi]`` is ``#(start <= hi) - #(end < lo)``: an
interval ending before ``lo`` starts before it too, so the difference is
exactly the overlapping ones -- two bisections, whatever the backend.

The table is internal (not exported from :mod:`repro`).  It is mutated
exactly where the owning index is mutated, under that index's update lock,
and it holds one lock of its own: a first count may build the pair on a
reader thread while a writer mutates the table, so the build and every
``add``/``remove`` serialise on it (a count of a built pair takes no lock,
see :class:`CountPair`).
"""

from __future__ import annotations

import math
import threading
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.interval import Interval, IntervalCollection

__all__ = ["CountPair", "SpanTable"]


def _fold_column(column: np.ndarray, adds: np.ndarray, removes: np.ndarray) -> np.ndarray:
    """``column`` with ``adds`` inserted and ``removes`` deleted, sorted.

    Adds go first, so a value added and removed between two folds cancels;
    equal removed values delete consecutive copies (each is offset by its
    rank within its group of equal values).
    """
    if len(adds):
        adds = np.sort(adds)
        column = np.insert(column, np.searchsorted(column, adds), adds)
    if len(removes):
        removes = np.sort(removes)
        first = np.searchsorted(column, removes, side="left")
        rank = np.arange(len(removes)) - np.searchsorted(removes, removes, side="left")
        column = np.delete(column, first + rank)
    return column


class CountPair:
    """Sorted start and end columns of a table's live rows, plus the
    updates not yet folded into them.

    An update writes ``(sign, start, end)`` into a preallocated ``int64``
    buffer of ``isqrt(n)`` slots (O(1)); a count adds one vectorised scan
    of the filled slots to its two bisections, and the buffer folds into
    the columns only once it is full -- one ``O(n)`` merge per ``isqrt(n)``
    updates.  The owning :class:`SpanTable` calls :meth:`record` under its
    lock.  Counts take no lock: ``state`` is replaced whole, never mutated
    where a reader looks (a record fills the slot past every captured
    ``used``; a fold makes new arrays), so one load of it is consistent.
    """

    __slots__ = ("state",)

    def __init__(self, starts: np.ndarray, ends: np.ndarray) -> None:
        self._install(np.sort(starts), np.sort(ends))

    def _install(self, starts: np.ndarray, ends: np.ndarray) -> None:
        pending = np.empty((3, max(1, math.isqrt(len(starts)))), dtype=np.int64)
        #: ``(starts, ends, pending, used)``: the sorted columns, the buffer
        #: of ``(sign, start, end)`` rows and how many of them are filled
        self.state = (starts, ends, pending, 0)

    @property
    def starts(self) -> np.ndarray:
        return self.state[0]

    @property
    def ends(self) -> np.ndarray:
        return self.state[1]

    @property
    def used(self) -> int:
        """Buffered updates not yet folded into the columns."""
        return self.state[3]

    def record(self, sign: int, start: int, end: int) -> None:
        """Buffer one insert (``sign`` 1) or delete (-1); fold when full."""
        starts, ends, pending, used = self.state
        pending[0, used], pending[1, used], pending[2, used] = sign, start, end
        self.state = (starts, ends, pending, used + 1)
        if used + 1 == pending.shape[1]:
            self.fold()

    def fold(self) -> None:
        """Merge the buffered updates into the sorted columns."""
        starts, ends, pending, used = self.state
        sign, added_starts, added_ends = pending[:, :used]
        adds, removes = sign > 0, sign < 0
        self._install(
            _fold_column(starts, added_starts[adds], added_starts[removes]),
            _fold_column(ends, added_ends[adds], added_ends[removes]),
        )

    def count(self, lo, hi):
        """Rows overlapping ``[lo, hi]``: scalars (a NumPy integer) or
        equal-length ``int64`` columns (one count each)."""
        starts, ends, pending, used = self.state
        count = starts.searchsorted(hi, side="right") - ends.searchsorted(lo, side="left")
        if used:
            sign, added_starts, added_ends = pending[:, :used]
            if np.ndim(lo):
                count += ((added_starts <= hi[:, None]) & (added_ends >= lo[:, None])) @ sign
            else:
                count += sign[(added_starts <= hi) & (added_ends >= lo)].sum()
        return count


class SpanTable:
    """Live id -> ``(start, end)`` for one index."""

    __slots__ = ("_base", "_order", "_added", "removed", "_size", "_lock", "pair")

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
        self._lock = threading.Lock()
        #: the :class:`CountPair`, ``None`` until the first :meth:`count`
        self.pair: Optional[CountPair] = None

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

    def count(self, lo, hi):
        """Live rows overlapping ``[lo, hi]``: two bisections over the
        :class:`CountPair` (built here on the first call) plus a scan of its
        buffered updates.  ``lo``/``hi`` are int64-range ints (the answer
        is a NumPy integer) or equal-length ``int64`` columns (one count
        per pair)."""
        pair = self.pair
        if pair is None:
            with self._lock:  # not beside an add or remove
                if self.pair is None:
                    rows = self.collection()
                    self.pair = CountPair(rows.starts, rows.ends)
                pair = self.pair
        return pair.count(lo, hi)

    # ------------------------------------------------------------------ #
    # updates
    # ------------------------------------------------------------------ #
    def add(self, interval: Interval) -> None:
        """Make ``interval`` the live row of its id -- O(1), no base probe.

        The id must not be live already (ids are unique among live rows, the
        caller's contract throughout the library); re-adding a removed id is
        fine and shadows its base row.
        """
        with self._lock:
            self.removed.discard(interval.id)
            self._added[interval.id] = interval
            self._size += 1
            if self.pair is not None:
                self.pair.record(1, interval.start, interval.end)

    def remove(self, interval_id: int) -> Optional[Interval]:
        """Drop the live row of ``interval_id``; returns it (None if absent)."""
        with self._lock:
            found = self.get(interval_id)
            if found is not None:
                self._added.pop(interval_id, None)
                self.removed.add(interval_id)
                self._size -= 1
                if self.pair is not None:
                    self.pair.record(-1, found.start, found.end)
        return found
