"""The update contract: one generation, one listener list, one write lock.

The paper's update design (Sections 3.4/4.4: a delta index absorbs inserts,
tombstones absorb deletes, the main index is rebuilt in batches) needs one
piece of shared state around the index -- which version of the answer set
this is, who must hear about a change, and what serialises writers against
a reorganisation.  :class:`UpdateFeed` is that state.  The indexes that
serialise their own updates (``HybridHINTm``, ``ShardedIndex``) own one as
``index.updates``; :class:`~repro.engine.store.IntervalStore` adopts it, or
creates one for a plain backend, and every consumer (WAL, standing queries,
maintenance, result caches) reads ``store.updates``.
"""

from __future__ import annotations

import threading
from typing import Callable, List, Optional

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
