"""Expected answers, computed by brute force independently of the program.

A range query ``[qs, qe]`` matches an interval iff ``start <= qe`` and
``end >= qs`` (closed semantics, the definition ``NaiveIndex`` scans with).
Counts of a whole query stream come from two sorted columns; id sets and the
live set under updates come from a plain mask over the columns.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

import numpy as np


class Oracle:
    """The live interval set: base data plus every *acknowledged* update.

    ``capacity`` bounds the ids the run may insert (ids are positions).
    """

    def __init__(self, starts: np.ndarray, ends: np.ndarray, capacity: int = 0) -> None:
        n = len(starts)
        size = max(n, capacity)
        self.starts = np.zeros(size, dtype=np.int64)
        self.ends = np.zeros(size, dtype=np.int64)
        self.alive = np.zeros(size, dtype=bool)
        self.starts[:n], self.ends[:n], self.alive[:n] = starts, ends, True

    # -- updates (call only for ops the server acknowledged) --------------- #
    def insert(self, interval_id: int, start: int, end: int) -> None:
        self.starts[interval_id], self.ends[interval_id] = start, end
        self.alive[interval_id] = True

    def delete(self, interval_id: int) -> None:
        self.alive[interval_id] = False

    # -- answers ------------------------------------------------------------ #
    def counts(self, qs: np.ndarray, qe: np.ndarray) -> np.ndarray:
        """Expected result count of every query: ``#(start <= qe) - #(end < qs)``."""
        live = self.alive
        sorted_starts = np.sort(self.starts[live])
        sorted_ends = np.sort(self.ends[live])
        return np.searchsorted(sorted_starts, qe, side="right") - np.searchsorted(
            sorted_ends, qs, side="left"
        )

    def ids(self, qs: int, qe: int) -> np.ndarray:
        """Expected result ids of one query, ascending."""
        return np.flatnonzero(self.alive & (self.starts <= qe) & (self.ends >= qs))

    def live_ids(self) -> np.ndarray:
        return np.flatnonzero(self.alive)


def wrong_id_sets(
    oracle: Oracle, qs: np.ndarray, qe: np.ndarray, sampled: Iterable[Tuple[int, object]],
    known: Optional[Dict[int, np.ndarray]] = None,
) -> int:
    """How many of the responses kept whole, ``(query index, ids)``, hold the
    wrong ids (in any order).  ``known`` keeps the expected ids by query index
    for a stream that is asked again and again over data that does not change."""
    wrong = 0
    for i, ids in sampled:
        expected = None if known is None else known.get(i)
        if expected is None:
            expected = oracle.ids(qs[i], qe[i])
            if known is not None:
                known[i] = expected
        wrong += not np.array_equal(np.sort(np.asarray(ids, dtype=np.int64)), expected)
    return wrong
