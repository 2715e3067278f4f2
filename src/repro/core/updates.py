"""The update contract: one generation, one listener list, one write lock.

The paper's update design (Sections 3.4/4.4: a delta index absorbs inserts,
tombstones absorb deletes, the main index is rebuilt in batches) needs one
piece of shared state around the index -- which version of the answer set
this is, who must hear about a change, and what serialises writers against
a reorganisation.  :class:`UpdateFeed` is that state.  The indexes that
serialise their own updates (``HybridHINTm``, ``ShardedIndex``) own one as
``index.updates``; :class:`~repro.engine.store.IntervalStore` adopts it, or
creates one for a plain backend, and every consumer (WAL, standing queries,
maintenance, result caches) reads ``store.updates``; those that keep state
per query range find what an update touches with a :class:`RangeWatch`.
"""

from __future__ import annotations

import threading
from typing import Callable, Hashable, List, Optional

import numpy as np

from repro.core.interval import Interval

#: ``listener(op, interval, generation)``; ``op`` is ``"insert"``,
#: ``"delete"`` or ``"sync"`` (``interval`` is ``None`` for a sync)
UpdateListener = Callable[[str, Optional[Interval], int], None]


class UpdateFeed:
    """Generation counter + listeners + the re-entrant lock writers hold.

    Attributes:
        lock: held by a writer across its whole update (WAL append, index
            mutation, :meth:`commit`) and by anything that must see contents
            and generation agree (checkpoints, subscribe-time snapshots,
            maintenance passes).  Queries never take it.
        generation: monotonic content-version token: +1 per effective
            insert/delete and per epoch publication, +0 for a
            reorganisation that leaves the answer set alone.

    Listeners run under :attr:`lock`, so they see events in exact generation
    order; they must not block or re-enter update methods.
    """

    __slots__ = ("lock", "generation", "_listeners")

    def __init__(self) -> None:
        self.lock = threading.RLock()
        self.generation = 0
        self._listeners: List[UpdateListener] = []

    @property
    def listening(self) -> bool:
        """True while anyone is subscribed (a delete resolves the victim's
        span for its listeners only then)."""
        return bool(self._listeners)

    def subscribe(self, listener: UpdateListener) -> None:
        self._listeners.append(listener)

    def unsubscribe(self, listener: UpdateListener) -> None:
        """Idempotent: an unknown listener is ignored."""
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass

    def commit(self, op: str, interval: Optional[Interval]) -> int:
        """An insert/delete took effect: bump, announce, return the generation."""
        with self.lock:
            self.generation += 1
            return self._publish(op, interval)

    def sync(self, bump: bool) -> int:
        """The generation is (re)announced without a content change.

        The one name for epoch publications (``bump=True``: a result cached
        at the old generation must not be served), hybrid rebuilds and
        finished maintenance passes (``bump=False``); a listener may hear
        the same generation twice and must treat that as idempotent.
        """
        with self.lock:
            if bump:
                self.generation += 1
            return self._publish("sync", None)

    def floor(self, generation: int) -> None:
        """Raise the generation to at least ``generation`` (recovery and
        followers, before re-applying a logged record); never lowers it."""
        with self.lock:
            if generation > self.generation:
                self.generation = int(generation)

    def _publish(self, op: str, interval: Optional[Interval]) -> int:
        generation = self.generation
        # a copy: a listener may unsubscribe itself while being called
        for listener in list(self._listeners):
            listener(op, interval, generation)
        return generation


class RangeWatch:
    """Which watched ranges does an update overlap?  One int64 column pair.

    The :class:`UpdateFeed` listeners that keep state per query range (the
    result cache, the standing queries) watch those ranges here and ask
    :meth:`touched` on every insert or delete: one vectorised overlap mask,
    bdbms's local dependency tracking (PAPERS.md).  Ranges are clamped to
    int64, so a range past the domain overlaps its edge; a free slot holds
    the empty range ``(max, min)``.  The columns double when full.  The
    owner's lock guards every call.
    """

    __slots__ = ("_starts", "_ends", "_keys", "_slots", "_free")

    #: the range of an answer every update can change
    EVERYWHERE = (int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max))

    def __init__(self, capacity: int = 64) -> None:
        self._keys: List[Optional[Hashable]] = [None] * capacity
        self.clear()

    def add(self, key: Hashable, start: int, end: int) -> None:
        """Watch ``[start, end]`` under the new ``key``."""
        lo, hi = self.EVERYWHERE
        if not self._free:  # double the columns
            size = len(self._keys)
            extra = max(1, size)
            self._starts = np.append(self._starts, np.full(extra, hi, np.int64))
            self._ends = np.append(self._ends, np.full(extra, lo, np.int64))
            self._keys.extend([None] * extra)
            self._free = list(range(size + extra - 1, size - 1, -1))
        slot = self._free.pop()
        self._starts[slot] = min(max(start, lo), hi)
        self._ends[slot] = min(max(end, lo), hi)
        self._keys[slot] = key
        self._slots[key] = slot

    def remove(self, key: Hashable) -> None:
        slot = self._slots.pop(key)
        self._starts[slot], self._ends[slot] = self.EVERYWHERE[::-1]
        self._keys[slot] = None
        self._free.append(slot)

    def clear(self) -> None:
        size, (lo, hi) = len(self._keys), self.EVERYWHERE
        self._starts = np.full(size, hi, np.int64)
        self._ends = np.full(size, lo, np.int64)
        self._keys = [None] * size
        self._slots = {}
        # popped from the end: the lowest free slot is reused first
        self._free = list(range(size - 1, -1, -1))

    def touched(self, start: int, end: int) -> List[Hashable]:
        """The keys whose range overlaps ``[start, end]``, in slot order."""
        keys = self._keys
        slots = np.flatnonzero((self._starts <= end) & (self._ends >= start))
        return [keys[slot] for slot in slots.tolist()]
