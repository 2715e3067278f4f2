"""The per-subscription delta log: bounded, sequence-numbered, replayable.

Each standing query owns one :class:`DeltaLog` of :class:`DeltaRecord`
entries -- the ``(generation, added_ids, removed_ids)`` changes the delta
engine emitted for it.  A reconnecting client replays the records *after*
its last-acked generation onto its local result set and is exact again,
without re-running the query.

The log is bounded, and degrades in two explicit stages instead of growing
without limit under a slow or absent consumer:

1. **Coalescing**: past ``capacity`` records, the two oldest are merged into
   one net-effect record (an id added then removed cancels out, and vice
   versa).  A coalesced record spans a generation *range*
   ``(first_generation, generation]``; replaying it is exact from any ack at
   or before ``first_generation``'s predecessor, but a client whose ack
   falls strictly *inside* the span can no longer be caught up exactly --
   :meth:`since` reports ``resync_required`` for it.
2. **Truncation**: when even the coalesced head record exceeds
   ``max_coalesced_ids`` ids, it is dropped outright and its generation
   recorded; any client acked before it gets ``resync_required``.

``resync_required`` is the signal to re-run the standing query from scratch
(re-subscribe) -- the server guarantees it never silently drops a delta a
catch-up would have needed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Tuple

__all__ = ["DeltaLog", "DeltaRecord"]


@dataclass(frozen=True)
class DeltaRecord:
    """One net change to a standing query's result set.

    Attributes:
        seq: per-subscription sequence number (monotonic, gap-free as
            emitted; coalescing keeps the *latest* seq of the merged pair).
        generation: the store's ``result_generation()`` after the last
            mutation folded into this record.
        first_generation: the generation of the *earliest* folded mutation;
            equals ``generation`` unless the record was coalesced.
        added: interval ids that newly match the standing query.
        removed: interval ids that no longer match.
    """

    seq: int
    generation: int
    first_generation: int
    added: Tuple[int, ...]
    removed: Tuple[int, ...]

    @property
    def coalesced(self) -> bool:
        """True when this record folds more than one mutation."""
        return self.first_generation != self.generation

    def merge(self, newer: "DeltaRecord") -> "DeltaRecord":
        """The net effect of this record followed by ``newer``.

        Ids added here and removed in ``newer`` (or removed here and
        re-added there) cancel, so the merged record is the exact membership
        change across both spans -- replayable from any state at or before
        this record's span.
        """
        newer_added, newer_removed = set(newer.added), set(newer.removed)
        own_added, own_removed = set(self.added), set(self.removed)
        added = tuple(i for i in self.added if i not in newer_removed) + tuple(
            i for i in newer.added if i not in own_removed
        )
        removed = tuple(i for i in self.removed if i not in newer_added) + tuple(
            i for i in newer.removed if i not in own_added
        )
        return DeltaRecord(
            seq=newer.seq,
            generation=newer.generation,
            first_generation=self.first_generation,
            added=added,
            removed=removed,
        )


class DeltaLog:
    """Bounded, sequence-numbered log of one subscription's deltas.

    Args:
        capacity: most records retained before the oldest pair is coalesced.
        max_coalesced_ids: id-payload bound on the coalesced head record;
            past it the head is truncated (dropped) instead of merged again,
            and catch-up from before it requires a resync.
    """

    __slots__ = (
        "_capacity",
        "_max_coalesced_ids",
        "_records",
        "_next_seq",
        "_truncated_generation",
        "coalesce_ops",
        "truncations",
    )

    def __init__(self, capacity: int = 256, max_coalesced_ids: int = 4096) -> None:
        if capacity < 2:
            raise ValueError(f"delta log capacity must be >= 2, got {capacity}")
        self._capacity = capacity
        self._max_coalesced_ids = max_coalesced_ids
        self._records: Deque[DeltaRecord] = deque()
        self._next_seq = 0
        #: highest generation dropped outright (-1: nothing truncated yet)
        self._truncated_generation = -1
        self.coalesce_ops = 0
        self.truncations = 0

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._records)

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def next_seq(self) -> int:
        return self._next_seq

    @property
    def last_generation(self) -> int:
        """Generation of the newest retained record (-1 when empty)."""
        return self._records[-1].generation if self._records else -1

    # ------------------------------------------------------------------ #
    def append(
        self, generation: int, added: Tuple[int, ...], removed: Tuple[int, ...]
    ) -> DeltaRecord:
        """Record one mutation's net effect; enforce the bounds."""
        record = DeltaRecord(
            seq=self._next_seq,
            generation=generation,
            first_generation=generation,
            added=tuple(added),
            removed=tuple(removed),
        )
        self._next_seq += 1
        self._records.append(record)
        self._squeeze()
        return record

    def _squeeze(self) -> None:
        while len(self._records) > self._capacity:
            head = self._records.popleft()
            if len(head.added) + len(head.removed) > self._max_coalesced_ids:
                # the head has already absorbed as much churn as the bound
                # allows: drop it and remember how far the hole reaches
                self._truncated_generation = max(
                    self._truncated_generation, head.generation
                )
                self.truncations += 1
                continue
            second = self._records.popleft()
            self._records.appendleft(head.merge(second))
            self.coalesce_ops += 1

    # ------------------------------------------------------------------ #
    def since(self, acked_generation: int) -> Tuple[List[DeltaRecord], bool]:
        """Records a client acked at ``acked_generation`` still needs.

        Returns ``(records, resync_required)``.  ``resync_required`` is True
        when exact catch-up is impossible: the log truncated past the ack,
        or the ack falls strictly inside a coalesced record's generation
        span (the merged net effect is only exact from the span's start).
        """
        if acked_generation < self._truncated_generation:
            return [], True
        records = [r for r in self._records if r.generation > acked_generation]
        if records and records[0].first_generation <= acked_generation:
            # the ack lands mid-span of a coalesced record: replaying the
            # merged net effect would re-apply mutations the client already
            # folded in a different order than they happened
            return [], True
        return records, False

    def mark_truncated(self, generation: int) -> None:
        """Declare generations at or below ``generation`` unreplayable.

        The recovery path uses this on restored subscription logs: deltas
        up to the checkpoint generation were delivered (or lost) before the
        crash and cannot be regenerated, so a client acked *below* the
        checkpoint must resync, while one acked at or past it catches up
        from the replayed tail exactly.
        """
        self._truncated_generation = max(self._truncated_generation, int(generation))

    def drop(self, generation: int) -> int:
        """Backpressure: discard every retained record outright.

        Used when a consumer has lagged past the manager's
        ``max_poller_lag`` bound: instead of coalescing an ever-larger head
        for a poller that is not coming back soon, the whole log is dropped
        and its span marked unreplayable -- the next poll reports
        ``resync_required``, and appends restart from empty.  Returns how
        many records were discarded.
        """
        dropped = len(self._records)
        floor = max(int(generation), self.last_generation)
        self._records.clear()
        self.mark_truncated(floor)
        self.truncations += 1
        return dropped

    def ack(self, acked_generation: int) -> int:
        """Drop records the client confirmed; returns how many were pruned."""
        pruned = 0
        while self._records and self._records[0].generation <= acked_generation:
            self._records.popleft()
            pruned += 1
        return pruned

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"DeltaLog(records={len(self._records)}/{self._capacity}, "
            f"next_seq={self._next_seq}, coalesced={self.coalesce_ops}, "
            f"truncations={self.truncations})"
        )
