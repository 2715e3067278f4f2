"""Interval records, interval collections and overlap predicates.

The paper models every object ``s`` in the collection ``S`` as a triple
``<s.id, s.st, s.end>`` where ``[s.st, s.end]`` is a closed interval.  A range
query ``q = [q.st, q.end]`` retrieves the ids of all intervals that overlap
``q``, i.e. all ``s`` with ``s.st <= q.end`` and ``q.st <= s.end``.

Endpoints are integers throughout the library.  Real-valued data can be used
after rescaling/discretisation, exactly as Section 3.1 of the paper suggests;
:class:`repro.core.domain.Domain` provides the mapping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.errors import EmptyCollectionError, InvalidIntervalError, InvalidQueryError

try:  # pragma: no cover - platform capability probe
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - e.g. stripped-down interpreters
    _shared_memory = None

__all__ = [
    "HAS_SHARED_MEMORY",
    "Interval",
    "Query",
    "IntervalCollection",
    "SharedCollectionBuffer",
    "SharedCollectionHandle",
    "attach_shared_collection",
    "intervals_overlap",
    "interval_contains",
    "interval_contains_point",
]

#: True when ``multiprocessing.shared_memory`` is importable on this platform;
#: callers fall back to pickling collections (or to local execution) when not.
HAS_SHARED_MEMORY = _shared_memory is not None


@dataclass(frozen=True, slots=True)
class Interval:
    """A closed interval ``[start, end]`` with an object identifier.

    Attributes:
        id: the object's identifier; used to access any other attribute of
            the object and to report query results.
        start: left endpoint (inclusive).
        end: right endpoint (inclusive).  Must satisfy ``end >= start``.
    """

    id: int
    start: int
    end: int

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise InvalidIntervalError(
                f"interval {self.id}: end ({self.end}) < start ({self.start})"
            )

    @property
    def duration(self) -> int:
        """Length of the interval (``end - start``); 0 for a point interval."""
        return self.end - self.start

    def overlaps(self, other: "Interval | Query") -> bool:
        """Return True iff this interval overlaps ``other`` (closed semantics)."""
        return self.start <= other.end and other.start <= self.end

    def contains(self, other: "Interval | Query") -> bool:
        """Return True iff ``other`` lies fully within this interval."""
        return self.start <= other.start and other.end <= self.end

    def contains_point(self, point: int) -> bool:
        """Return True iff ``point`` falls inside the closed interval."""
        return self.start <= point <= self.end

    def as_tuple(self) -> Tuple[int, int, int]:
        """Return ``(id, start, end)``."""
        return (self.id, self.start, self.end)


@dataclass(frozen=True, slots=True)
class Query:
    """A range query ``[start, end]``.

    A *stabbing* query (pure-timeslice query) is the special case
    ``start == end``; :meth:`stabbing` builds one.
    """

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise InvalidQueryError(f"query end ({self.end}) < start ({self.start})")

    @classmethod
    def stabbing(cls, point: int) -> "Query":
        """Build a stabbing query at ``point``."""
        return cls(point, point)

    @property
    def extent(self) -> int:
        """Length of the query interval."""
        return self.end - self.start

    @property
    def is_stabbing(self) -> bool:
        """True when the query degenerates to a single point."""
        return self.start == self.end

    def overlaps(self, interval: Interval) -> bool:
        """Return True iff ``interval`` overlaps this query (closed semantics)."""
        return interval.start <= self.end and self.start <= interval.end


def intervals_overlap(a_start: int, a_end: int, b_start: int, b_end: int) -> bool:
    """Overlap test on raw endpoints (closed intervals)."""
    return a_start <= b_end and b_start <= a_end


def interval_contains(outer_start: int, outer_end: int, inner_start: int, inner_end: int) -> bool:
    """Containment test on raw endpoints: ``[inner] ⊆ [outer]``."""
    return outer_start <= inner_start and inner_end <= outer_end


def interval_contains_point(start: int, end: int, point: int) -> bool:
    """Return True iff ``point`` lies in the closed interval ``[start, end]``."""
    return start <= point <= end


def _reject_repeated_ids(ids: np.ndarray, source: object) -> None:
    """Raise :class:`InvalidIntervalError` naming the first repeated id of
    ``source``; strictly increasing ids (a sorted file, ``np.arange``) cost
    one comparison pass and no sort."""
    if bool(np.all(ids[1:] > ids[:-1])):
        return
    ranked = np.sort(ids)
    repeated = ranked[1:][ranked[1:] == ranked[:-1]]
    if len(repeated):
        raise InvalidIntervalError(
            f"{source}: id {int(repeated[0])} appears on more than one row"
        )


class IntervalCollection:
    """A collection of intervals stored columnarly.

    The collection is the input unit for every index in the library.  It keeps
    three parallel NumPy arrays (``ids``, ``starts``, ``ends``) which gives

    * O(1) access to dataset statistics needed by the model of Section 3.3,
    * cheap columnar iteration for index construction,
    * a natural fit for the storage-optimized HINT^m variant.

    The collection preserves insertion order and does not deduplicate ids;
    uniqueness of ids is the caller's responsibility (as in the paper, ids are
    opaque references back to the full objects).
    """

    __slots__ = ("ids", "starts", "ends")

    def __init__(
        self,
        ids: Sequence[int] | np.ndarray,
        starts: Sequence[int] | np.ndarray,
        ends: Sequence[int] | np.ndarray,
    ) -> None:
        self.ids = np.asarray(ids, dtype=np.int64)
        self.starts = np.asarray(starts, dtype=np.int64)
        self.ends = np.asarray(ends, dtype=np.int64)
        if not (len(self.ids) == len(self.starts) == len(self.ends)):
            raise InvalidIntervalError("ids, starts and ends must have equal length")
        if len(self.ids) and np.any(self.ends < self.starts):
            bad = int(np.argmax(self.ends < self.starts))
            raise InvalidIntervalError(
                f"interval at position {bad} has end < start "
                f"({self.ends[bad]} < {self.starts[bad]})"
            )

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_intervals(cls, intervals: Iterable[Interval]) -> "IntervalCollection":
        """Build a collection from :class:`Interval` records."""
        materialised = list(intervals)
        return cls(
            ids=[s.id for s in materialised],
            starts=[s.start for s in materialised],
            ends=[s.end for s in materialised],
        )

    @classmethod
    def from_pairs(
        cls, pairs: Iterable[Tuple[int, int]], first_id: int = 0
    ) -> "IntervalCollection":
        """Build a collection from ``(start, end)`` pairs with sequential ids."""
        starts: List[int] = []
        ends: List[int] = []
        for start, end in pairs:
            starts.append(start)
            ends.append(end)
        ids = list(range(first_id, first_id + len(starts)))
        return cls(ids=ids, starts=starts, ends=ends)

    @classmethod
    def empty(cls) -> "IntervalCollection":
        """An empty collection."""
        return cls(ids=[], starts=[], ends=[])

    # ------------------------------------------------------------------ #
    # container protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[Interval]:
        for i in range(len(self.ids)):
            yield Interval(int(self.ids[i]), int(self.starts[i]), int(self.ends[i]))

    def __getitem__(self, index: int) -> Interval:
        return Interval(int(self.ids[index]), int(self.starts[index]), int(self.ends[index]))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"IntervalCollection(n={len(self)}, span={self.span()})"

    # ------------------------------------------------------------------ #
    # statistics used by the analytical model (Section 3.3)
    # ------------------------------------------------------------------ #
    def span(self) -> Tuple[int, int]:
        """Return ``(min start, max end)`` of the collection.

        Raises:
            EmptyCollectionError: if the collection is empty.
        """
        if not len(self):
            raise EmptyCollectionError("span() of an empty collection")
        return int(self.starts.min()), int(self.ends.max())

    def domain_length(self) -> int:
        """Length Λ of the domain spanned by the collection."""
        lo, hi = self.span()
        return hi - lo

    def durations(self) -> np.ndarray:
        """Array of interval durations."""
        return self.ends - self.starts

    def mean_duration(self) -> float:
        """Mean interval length λ_s (0.0 for an empty collection)."""
        if not len(self):
            return 0.0
        return float(np.mean(self.durations()))

    def max_duration(self) -> int:
        """Maximum interval length."""
        if not len(self):
            return 0
        return int(self.durations().max())

    def min_duration(self) -> int:
        """Minimum interval length."""
        if not len(self):
            return 0
        return int(self.durations().min())

    # ------------------------------------------------------------------ #
    # manipulation
    # ------------------------------------------------------------------ #
    def extend(self, other: "IntervalCollection") -> "IntervalCollection":
        """Return a new collection that is the concatenation of two collections."""
        return IntervalCollection(
            ids=np.concatenate([self.ids, other.ids]),
            starts=np.concatenate([self.starts, other.starts]),
            ends=np.concatenate([self.ends, other.ends]),
        )

    def subset(self, positions: Sequence[int] | np.ndarray) -> "IntervalCollection":
        """Return a new collection with the rows at ``positions``."""
        return self.take(np.asarray(positions, dtype=np.int64))

    def take(self, mask_or_indices: Sequence[int] | Sequence[bool] | np.ndarray) -> "IntervalCollection":
        """Rows selected by a boolean mask or integer positions, vectorized.

        This is the hot path for shard splitting: no per-row :class:`Interval`
        objects are materialised, the three columns are fancy-indexed at once.
        A boolean ``mask`` must have one entry per row; integer positions may
        repeat and reorder rows.
        """
        selector = np.asarray(mask_or_indices)
        if selector.dtype == np.bool_ and len(selector) != len(self.ids):
            raise InvalidIntervalError(
                f"boolean mask has {len(selector)} entries for {len(self.ids)} rows"
            )
        return IntervalCollection(
            ids=self.ids[selector],
            starts=self.starts[selector],
            ends=self.ends[selector],
        )

    def slice(self, start: Optional[int] = None, stop: Optional[int] = None) -> "IntervalCollection":
        """Contiguous row range ``[start, stop)`` as a zero-copy view.

        The returned collection's arrays are NumPy views over this
        collection's buffers (no data is copied); mutating either aliases the
        other, as with any NumPy slice.
        """
        window = np.s_[start:stop]
        return IntervalCollection(
            ids=self.ids[window],
            starts=self.starts[window],
            ends=self.ends[window],
        )

    def shuffled(self, seed: Optional[int] = None) -> "IntervalCollection":
        """Return a randomly permuted copy of the collection."""
        rng = np.random.default_rng(seed)
        order = rng.permutation(len(self))
        return self.subset(order)

    # ------------------------------------------------------------------ #
    # brute-force query answering (used as ground truth)
    # ------------------------------------------------------------------ #
    def query_ids(self, query: Query) -> np.ndarray:
        """Ids of all intervals overlapping ``query`` via a vectorised scan."""
        mask = (self.starts <= query.end) & (query.start <= self.ends)
        return self.ids[mask]


# --------------------------------------------------------------------------- #
# shared-memory column transport (zero-copy hand-off to worker processes)
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class SharedCollectionHandle:
    """A picklable reference to a collection's columns in shared memory.

    The handle is all a child process needs to rebuild the collection without
    copying the data: the name of one ``multiprocessing.shared_memory`` block
    laid out as a ``(3, length)`` int64 matrix holding the ``ids``, ``starts``
    and ``ends`` rows.  Pickling the handle costs ~100 bytes regardless of the
    collection's size.
    """

    name: str
    length: int


class SharedCollectionBuffer:
    """Owner side of a shared-memory-backed :class:`IntervalCollection`.

    Copies the three columns into one shared-memory block **once**; the
    :attr:`handle` can then be shipped to any number of worker processes,
    each of which attaches with :func:`attach_shared_collection` instead of
    unpickling the (potentially 100k-interval) collection per task.

    The creator owns the block: call :meth:`unlink` (idempotent) when the
    last consumer is done, or the segment survives until interpreter exit.
    """

    def __init__(self, collection: IntervalCollection) -> None:
        if _shared_memory is None:  # pragma: no cover - platform-dependent
            raise RuntimeError("multiprocessing.shared_memory is unavailable")
        n = len(collection)
        self._shm = _shared_memory.SharedMemory(create=True, size=max(1, 3 * 8 * n))
        matrix = np.ndarray((3, n), dtype=np.int64, buffer=self._shm.buf)
        matrix[0, :] = collection.ids
        matrix[1, :] = collection.starts
        matrix[2, :] = collection.ends
        #: zero-copy view over the shared block (valid until :meth:`unlink`)
        self.collection = IntervalCollection(matrix[0], matrix[1], matrix[2])
        self.handle = SharedCollectionHandle(name=self._shm.name, length=n)
        #: size of the shared block in bytes (for memory accounting)
        self.nbytes = self._shm.size

    def unlink(self) -> None:
        """Release the shared-memory block (idempotent)."""
        if self._shm is None:
            return
        shm, self._shm = self._shm, None
        self.collection = None  # drop the views before freeing the buffer
        shm.close()
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.unlink()
        except Exception:
            pass


def attach_shared_collection(
    handle: SharedCollectionHandle,
) -> Tuple[IntervalCollection, object]:
    """Attach to a shared collection from a worker process.

    Returns the zero-copy :class:`IntervalCollection` plus the underlying
    ``SharedMemory`` object, which the caller must keep alive for as long as
    the collection is used (the arrays are views into its buffer).
    """
    if _shared_memory is None:  # pragma: no cover - platform-dependent
        raise RuntimeError("multiprocessing.shared_memory is unavailable")
    # NOTE on the resource tracker: both fork and spawn pool workers inherit
    # the creating process's tracker (multiprocessing passes the tracker fd
    # in the spawn start-up data), and registration is an idempotent set-add
    # there -- so attaching needs no register/unregister dance; the owner's
    # unlink performs the single deregistration.
    shm = _shared_memory.SharedMemory(name=handle.name)
    matrix = np.ndarray((3, handle.length), dtype=np.int64, buffer=shm.buf)
    return IntervalCollection(matrix[0], matrix[1], matrix[2]), shm
