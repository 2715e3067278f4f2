"""Update handling for HINT^m (paper Sections 3.4 and 4.4).

The fully optimized HINT^m is query-optimized and static, so mixed workloads
use the paper's *hybrid* setting:

* a **main index** (:class:`repro.hint.optimized.OptimizedHINTm`) holding the
  bulk of the data, rebuilt periodically in batches,
* a **delta index** (:class:`repro.hint.subdivided.SubdividedHINTm`, the
  update-friendly ``subs+sopt`` configuration without sorted subdivisions)
  that absorbs the latest insertions one by one,
* **deletions** applied to whichever of the two indexes holds the deleted
  interval: a tombstone in the main index, a physical removal from the
  delta (so a deleted id re-inserted into the delta cannot resurrect its
  old entries).

Every query probes both indexes and concatenates the results (the two are
disjoint by construction).  :meth:`HybridHINTm.rebuild` merges the delta into
a freshly built main index, which is what a periodic batch update does.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.base import IntervalIndex, QueryStats
from repro.core.domain import Domain
from repro.core.interval import Interval, IntervalCollection, Query
from repro.core.spans import SpanTable
from repro.core.updates import UpdateFeed
from repro.engine.registry import register_backend
from repro.hint.optimized import OptimizedHINTm
from repro.hint.subdivided import SubdividedHINTm

__all__ = ["HybridHINTm"]


def _with_recent(main_ids: np.ndarray, recent: Sequence[int]) -> np.ndarray:
    """The main index's answer with the delta's ids appended (the two are
    disjoint), as one int64 array."""
    if not len(recent):
        return main_ids
    return np.concatenate((main_ids, np.asarray(recent, dtype=np.int64)))


@register_backend(
    "hintm_hybrid",
    aliases=("hint-m-hybrid",),
    description="hybrid HINT^m: optimized main index + delta for updates",
    paper_section="Sections 3.4/4.4",
    tunable=True,
)
class HybridHINTm(IntervalIndex):
    """Hybrid HINT^m: optimized main index plus an update-friendly delta.

    Args:
        collection: the initially indexed intervals (go to the main index).
        num_bits: the ``m`` parameter used by both component indexes.

    Rebuilds happen only when :meth:`rebuild` is called: the maintenance
    coordinator (:mod:`repro.engine.maintenance`) applies the one rebuild
    rule on each explicit ``maintain()``.
    """

    name = "hint-m-hybrid"

    def __init__(
        self,
        collection: IntervalCollection,
        num_bits: int = 10,
    ) -> None:
        self._m = num_bits
        # share one domain so both component indexes agree on partition bounds
        self._domain = Domain.for_collection(collection.starts, collection.ends, num_bits)
        main = OptimizedHINTm(collection, num_bits=num_bits, domain=self._domain)
        delta = SubdividedHINTm(
            IntervalCollection.empty(),
            num_bits=num_bits,
            sort_subdivisions=False,
            storage_optimization=True,
            domain=self._domain,
        )
        #: the (main, delta) pair lives in ONE attribute so lock-free readers
        #: always see a consistent pair: a rebuild swaps both components with
        #: a single assignment, never main and delta separately (two loads
        #: around the swap would miss the old delta or double-count it)
        self._components = (main, delta)
        self._rebuilds = 0
        #: the update contract (generation, listeners, write lock).  The
        #: lock serialises updates against :meth:`rebuild`: a rebuild
        #: snapshots main + delta and then swaps both, so an insert landing
        #: in the old delta between snapshot and swap would be silently
        #: discarded when a maintenance pass on another thread rebuilds
        #: concurrently.
        #: Queries stay lock-free (they read whichever pair is current).
        #: The generation moves on every insert/delete, never on
        #: :meth:`rebuild`, which reorganises without changing the answer set.
        self.updates = UpdateFeed()

    @classmethod
    def build(
        cls, collection: IntervalCollection, num_bits: int = 10, **kwargs
    ) -> "HybridHINTm":
        return cls(collection, num_bits=num_bits, **kwargs)

    # ------------------------------------------------------------------ #
    # properties
    # ------------------------------------------------------------------ #
    @property
    def num_bits(self) -> int:
        """The ``m`` parameter."""
        return self._m

    @property
    def _main(self) -> OptimizedHINTm:
        return self._components[0]

    @property
    def _delta(self) -> SubdividedHINTm:
        return self._components[1]

    @property
    def main_index(self) -> OptimizedHINTm:
        """The optimized, periodically rebuilt component."""
        return self._components[0]

    @property
    def delta_size(self) -> int:
        """Number of live intervals currently in the delta index."""
        return len(self._components[1])

    @property
    def tombstones(self) -> int:
        """Number of ids deleted from the main index since it was built."""
        return len(self._components[0]._spans.removed)

    @property
    def rebuilds(self) -> int:
        """How many times the main index has been rebuilt."""
        return self._rebuilds

    # ------------------------------------------------------------------ #
    # updates
    # ------------------------------------------------------------------ #
    def insert(self, interval: Interval) -> None:
        """Insert into the delta index."""
        with self.updates.lock:
            self._delta.insert(interval)
            self.updates.commit("insert", interval)

    def delete(self, interval_id: int) -> bool:
        """Delete from whichever component holds the interval."""
        with self.updates.lock:
            victim: Optional[Interval] = None
            if self.updates.listening:
                # resolve the span before the tombstone lands: listeners
                # route the delta by the deleted interval's range
                victim = self._resolve_interval(interval_id)
            found = self._delta.delete(interval_id) or self._main.delete(interval_id)
            if found:
                self.updates.commit("delete", victim)
            return found

    def rebuild(self) -> None:
        """Merge the delta into a freshly built main index (batch update)."""
        with self.updates.lock:
            collection = self.live_collection()
            self._domain = Domain.for_collection(
                collection.starts, collection.ends, self._m
            )
            main = OptimizedHINTm(collection, num_bits=self._m, domain=self._domain)
            if self._main.renders_ids:
                main.render_ids()  # before the swap: no reader finds it bare
            delta = SubdividedHINTm(
                IntervalCollection.empty(),
                num_bits=self._m,
                sort_subdivisions=False,
                storage_optimization=True,
                domain=self._domain,
            )
            self._components = (main, delta)  # one swap: readers stay consistent
            self._rebuilds += 1
            # the answer set did not change: a reorganisation marker, not a
            # delta (and no generation bump)
            self.updates.sync(bump=False)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def query(self, query: Query) -> np.ndarray:
        main, delta = self._components  # one load: a racing rebuild cannot split the pair
        results = main.query(query)
        if len(delta):
            results = _with_recent(results, delta.query(query))
        return results

    def query_batch(self, queries: Sequence[Query]) -> List[np.ndarray]:
        """The main index answers the batch in one vectorised traversal;
        the delta is probed per query, and only while it holds anything."""
        main, delta = self._components  # one load, as in :meth:`query`
        results = main.query_batch(queries)
        if len(delta):
            for position, query in enumerate(queries):
                results[position] = _with_recent(results[position], delta.query(query))
        return results

    def query_with_stats(self, query: Query) -> tuple[np.ndarray, QueryStats]:
        main, delta = self._components
        results, stats = main.query_with_stats(query)
        if len(delta):
            delta_results, delta_stats = delta.query_with_stats(query)
            results = _with_recent(results, delta_results)
            stats.merge(delta_stats)
        stats.results = len(results)
        return results, stats

    # ------------------------------------------------------------------ #
    # answers as text (see OptimizedHINTm.render_ids)
    # ------------------------------------------------------------------ #
    def render_ids(self) -> None:
        """Render the main index's id column as text, for :meth:`ids_text`;
        every later :meth:`rebuild` renders its fresh main index too."""
        with self.updates.lock:  # not between a rebuild's check and its swap
            self._main.render_ids()

    @property
    def renders_ids(self) -> bool:
        """True while :meth:`ids_text` answers: the main index renders."""
        return self._components[0].renders_ids

    def ids_text(self, query: Query) -> Optional[Tuple[bytes, int]]:
        """``(text, count)`` of :meth:`query`'s answer, in its order: the
        main index's slices, then the delta's few ids rendered here -- or
        None unless :attr:`renders_ids`."""
        main, delta = self._components  # one load, as in :meth:`query`
        answer = main.ids_text(query)
        if answer is None or not len(delta):
            return answer
        recent = delta.query(query)
        if not recent:
            return answer
        text, count = answer
        tail = ",".join(map(str, recent)).encode()
        return (text + b"," + tail if count else tail), count + len(recent)

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        main, delta = self._components
        return len(main) + len(delta)

    def _span_table(self) -> "_HybridSpans":
        main, delta = self._components
        return _HybridSpans(main._spans, delta._spans)


class _HybridSpans(NamedTuple):
    """The (main, delta) pair's two span tables read as one, delta first."""

    main: SpanTable
    delta: SpanTable

    def get(self, interval_id: int) -> Optional[Interval]:
        found = self.delta.get(interval_id)
        return found if found is not None else self.main.get(interval_id)

    def gather(self, ids) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        starts, ends, live = self.main.gather(ids)
        if len(self.delta):
            delta_starts, delta_ends, recent = self.delta.gather(ids)
            starts[recent], ends[recent] = delta_starts[recent], delta_ends[recent]
            live |= recent
        return starts, ends, live

    def collection(self) -> IntervalCollection:
        return self.main.collection().extend(self.delta.collection())

    def count(self, lo, hi):
        # the two live sets are disjoint, so their counts add
        count = self.main.count(lo, hi)
        return count + self.delta.count(lo, hi) if len(self.delta) else count
