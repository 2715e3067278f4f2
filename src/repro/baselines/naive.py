"""A linear-scan "index".

Not part of the paper's comparison but indispensable for the reproduction:
it is the obviously-correct oracle that every other index is validated
against in the test suite, and the sanity floor for benchmark numbers.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.core.base import IntervalIndex, QueryStats
from repro.core.interval import Interval, IntervalCollection, Query
from repro.engine.registry import register_backend

__all__ = ["NaiveIndex"]


@register_backend(
    "naive",
    aliases=("naive-scan",),
    description="vectorised linear scan; the correctness oracle",
    paper_section="--",
)
class NaiveIndex(IntervalIndex):
    """Answers queries by scanning three parallel NumPy columns."""

    name = "naive-scan"

    def __init__(self, collection: IntervalCollection) -> None:
        self._ids = np.array(collection.ids, dtype=np.int64, copy=True)
        self._starts = np.array(collection.starts, dtype=np.int64, copy=True)
        self._ends = np.array(collection.ends, dtype=np.int64, copy=True)
        self._live = np.ones(len(self._ids), dtype=bool)

    @classmethod
    def build(cls, collection: IntervalCollection) -> "NaiveIndex":
        return cls(collection)

    # ------------------------------------------------------------------ #
    def query(self, query: Query) -> List[int]:
        mask = self._live & (self._starts <= query.end) & (query.start <= self._ends)
        return self._ids[mask].tolist()

    def query_count(self, query: Query) -> int:
        mask = self._live & (self._starts <= query.end) & (query.start <= self._ends)
        return int(np.count_nonzero(mask))

    def query_exists(self, query: Query) -> bool:
        mask = self._live & (self._starts <= query.end) & (query.start <= self._ends)
        return bool(mask.any())

    def query_with_stats(self, query: Query) -> tuple[List[int], QueryStats]:
        results = self.query(query)
        live = int(self._live.sum())
        stats = QueryStats(
            results=len(results),
            comparisons=2 * live,
            partitions_accessed=1,
            partitions_compared=1,
            candidates=live,
        )
        return results, stats

    # ------------------------------------------------------------------ #
    def insert(self, interval: Interval) -> None:
        self._ids = np.append(self._ids, interval.id)
        self._starts = np.append(self._starts, interval.start)
        self._ends = np.append(self._ends, interval.end)
        self._live = np.append(self._live, True)

    def delete(self, interval_id: int) -> bool:
        positions = np.flatnonzero(self._ids == interval_id)
        positions = positions[self._live[positions]]
        if len(positions) == 0:
            return False
        self._live[positions] = False
        return True

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return int(self._live.sum())

    def _interval_lookup(self) -> Dict[int, Interval]:
        return {
            int(sid): Interval(int(sid), int(st), int(en))
            for sid, st, en, live in zip(self._ids, self._starts, self._ends, self._live)
            if live
        }
