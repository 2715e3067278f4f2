"""Domain partitioner: split an interval collection into K time-range shards.

A :class:`ShardPlan` carves the time domain into ``K`` contiguous ranges at
``K - 1`` cut points.  Shard ``j`` owns the half-open domain slice
``[cuts[j-1], cuts[j])`` (the outer shards are open-ended, so later inserts
outside the build-time span still route somewhere).  Two strategies pick the
cuts:

* ``"equi_width"`` -- equal-length slices of the collection's span, the
  grid-style partitioning of the paper's 1D-grid baseline;
* ``"balanced"`` -- cuts at quantiles of the interval *start* points, so each
  shard owns roughly the same number of intervals even under skew.

As in grid partitioning, an interval overlapping several shard ranges is
**duplicated** into each of them (:func:`partition_collection` does this with
vectorised masks + :meth:`repro.core.interval.IntervalCollection.take`, never
materialising per-row ``Interval`` objects).  Queries consequently probe only
the shards their range overlaps (:meth:`ShardPlan.shard_range`) and the
caller deduplicates ids when more than one shard answers.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.core.errors import InvalidQueryError
from repro.core.interval import IntervalCollection

__all__ = [
    "PARTITION_STRATEGIES",
    "ShardPlan",
    "partition_collection",
    "shard_mask",
]

#: the supported cut-selection strategies
PARTITION_STRATEGIES: Tuple[str, ...] = ("equi_width", "balanced")


@dataclass(frozen=True)
class ShardPlan:
    """The cut points splitting the time domain into contiguous shards.

    Attributes:
        cuts: sorted, strictly increasing interior boundaries; shard ``j``
            covers ``[cuts[j-1], cuts[j] - 1]`` (closed), with shard 0
            extending to ``-inf`` and the last shard to ``+inf``.  An empty
            tuple means a single unbounded shard.
        strategy: the strategy that produced the cuts (for display).
    """

    cuts: Tuple[int, ...]
    strategy: str = "equi_width"

    def __post_init__(self) -> None:
        if any(nxt <= prev for prev, nxt in zip(self.cuts, self.cuts[1:])):
            raise InvalidQueryError(f"shard cuts must be strictly increasing: {self.cuts}")

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def for_collection(
        cls,
        collection: IntervalCollection,
        num_shards: int,
        strategy: str = "equi_width",
    ) -> "ShardPlan":
        """Plan ``num_shards`` shards over ``collection``.

        Degenerate domains (fewer distinct cut candidates than requested
        shards, or an empty collection) yield fewer shards; the plan's
        :attr:`num_shards` is authoritative.
        """
        if num_shards < 1:
            raise InvalidQueryError(f"num_shards must be >= 1, got {num_shards}")
        if strategy not in PARTITION_STRATEGIES:
            raise InvalidQueryError(
                f"unknown partitioning strategy {strategy!r}; "
                f"choose from {PARTITION_STRATEGIES}"
            )
        if num_shards == 1 or not len(collection):
            return cls(cuts=(), strategy=strategy)
        lo, hi = collection.span()
        if strategy == "equi_width":
            edges = np.linspace(lo, hi + 1, num_shards + 1)[1:-1]
            cuts = np.unique(np.rint(edges).astype(np.int64))
        else:  # balanced: equal interval counts per shard, cut at start quantiles
            fractions = np.arange(1, num_shards) / num_shards
            cuts = np.unique(
                np.quantile(collection.starts, fractions, method="higher").astype(np.int64)
            )
        # a cut at/below the span start or above the end would leave an
        # empty outer shard; drop it (shrinking K) rather than keep dead weight
        cuts = cuts[(cuts > lo) & (cuts <= hi)]
        return cls(cuts=tuple(int(c) for c in cuts), strategy=strategy)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def num_shards(self) -> int:
        """Number of shards the plan describes."""
        return len(self.cuts) + 1

    def shard_bounds(self, shard: int) -> Tuple[float, float]:
        """Closed ``(lower, upper)`` domain range of one shard (``±inf`` at the edges)."""
        lower = float("-inf") if shard == 0 else float(self.cuts[shard - 1])
        upper = (
            float("inf") if shard == self.num_shards - 1 else float(self.cuts[shard] - 1)
        )
        return lower, upper

    def shard_of(self, point: int) -> int:
        """Index of the shard owning ``point``: the cuts at or below it."""
        return bisect_right(self.cuts, point)

    def shard_range(self, start: int, end: int) -> Tuple[int, int]:
        """Inclusive ``(first, last)`` shard indices overlapping ``[start, end]``.

        Two :func:`bisect_right` calls over the ``cuts`` tuple, so a lone
        query's routing builds no array: ~0.3 us a call against 3.4-5.7 us
        for ``np.searchsorted`` over ``np.asarray(cuts)`` (timeit, one cut,
        CPython 3.11 on a 2-core x86-64 VM).
        """
        return bisect_right(self.cuts, start), bisect_right(self.cuts, end)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"ShardPlan(K={self.num_shards}, strategy={self.strategy!r})"


def shard_mask(
    collection: IntervalCollection, cuts: Sequence[int], shard: int
) -> np.ndarray:
    """Boolean row mask of ``collection``'s intervals overlapping one shard.

    The single source of truth for shard membership: the parent-side
    partitioner and the worker-resident shard builds of
    :mod:`repro.engine._procworker` both slice through this function, so a
    shard built in a child process is row-for-row identical to one built in
    the parent.
    """
    num_shards = len(cuts) + 1
    mask = np.ones(len(collection), dtype=bool)
    if shard > 0:  # overlaps the shard's lower bound
        mask &= collection.ends >= cuts[shard - 1]
    if shard < num_shards - 1:  # starts before the next shard begins
        mask &= collection.starts < cuts[shard]
    return mask


def partition_collection(
    collection: IntervalCollection, plan: ShardPlan
) -> List[IntervalCollection]:
    """Split ``collection`` into one sub-collection per shard of ``plan``.

    An interval spanning several shard ranges appears in each of them
    (grid-style duplication); queries deduplicate at merge time.  Each shard
    is extracted with one vectorised boolean mask --
    :meth:`IntervalCollection.take` -- so no per-row ``Interval`` objects are
    built even at millions of intervals.
    """
    if plan.num_shards == 1:
        return [collection]
    cuts = np.asarray(plan.cuts, dtype=np.int64)
    return [
        collection.take(shard_mask(collection, cuts, shard))
        for shard in range(plan.num_shards)
    ]
