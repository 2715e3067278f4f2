"""Range-scoped result cache: an LRU whose entries an update evicts by overlap.

A cached answer belongs to a query range, and a range is an interval, so
"which cached answers can this update change?" is the paper's own overlap
question.  A :class:`ResultCache` hands every entry's range to a
:class:`repro.core.updates.RangeWatch` beside its LRU dict; the watch's
int64 slot columns hold the ranges.  The query server
:meth:`~ResultCache.watch`\\ es the store's update feed
(:class:`repro.core.updates.UpdateFeed`), and on every insert or delete one
vectorised mask over those columns drops exactly the entries whose range
overlaps the updated interval -- the local dependency tracking of bdbms
(PAPERS.md).  An update elsewhere leaves a hot range's entry a hit.

Answers that are not a function of the overlapping intervals alone -- an
Allen relation outside :data:`repro.core.allen.RANGE_QUERY_RELATIONS`
(``before``/``after`` see intervals the range never touches) or a probe's
work counters (``stats``) -- span the whole domain in the watch, so
every update drops them.  An epoch publication (``sync`` with a generation
bump) and a delete whose victim the feed could not name clear the cache; a
reorganisation that leaves the answer set alone (``sync`` without a bump:
hybrid rebuilds, maintenance passes) drops nothing.

A fill must not cache an answer an update overtook.  The server reads the
feed's generation before it runs a query and hands that token to
:meth:`~ResultCache.put`, which refuses the fill when the generation has
moved since; the check runs under the cache lock, so an update that commits
after the fill still finds the entry and evicts it in its listener.

An unwatched cache -- the cluster router's, which cannot hear its shards'
updates -- hits only while an entry's stamp equals the caller's current
stamp (the router stamps with per-shard generation tuples), and an optional
TTL bounds entry age for either mode.

The cache is value-agnostic -- the query server stores pre-encoded response
bodies, so a hit costs one dict probe plus a socket write -- and
thread-safe: server worker threads, the asyncio loop and the update
listener share one lock, never held across a probe.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Hashable, Optional, Tuple

from repro.core.allen import RANGE_QUERY_RELATIONS
from repro.core.updates import RangeWatch

__all__ = [
    "CacheStats",
    "ResultCache",
    "normalize_query_key",
    "resolve_cache",
]

_RANGE_RELATION_NAMES = frozenset(relation.value for relation in RANGE_QUERY_RELATIONS)


def normalize_query_key(
    start: int, end: int, kind: str = "ids"
) -> Tuple[str, int, int]:
    """Canonical cache key for one range/stabbing query.

    ``kind`` separates result shapes over the same range: ``"ids"`` or
    ``"count"``, optionally followed by ``":<allen relation>"`` and
    ``":stats"``.  A stabbing query at ``p`` normalises to the degenerate
    range ``(p, p)``, so the point and range forms share entries.
    """
    return (kind, int(start), int(end))


def _watched_range(key: Hashable) -> Tuple[int, int]:
    """The range an update must overlap to change ``key``'s answer: the
    key's own range when only an interval overlapping it can change an
    answer of its kind (no refinement beyond a range-implied relation)."""
    if isinstance(key, tuple) and len(key) == 3 and isinstance(key[0], str):
        if all(part in _RANGE_RELATION_NAMES for part in key[0].split(":")[1:]):
            return key[1], key[2]
    return RangeWatch.EVERYWHERE


@dataclass(frozen=True)
class CacheStats:
    """Point-in-time counters of one :class:`ResultCache`.

    Attributes:
        hits: lookups answered from a cached entry.
        misses: lookups that found nothing usable (cold, invalidated or
            expired).
        invalidated: entries dropped because their answer may have changed:
            an overlapping update or an epoch (watched), or a stale stamp
            found on lookup (unwatched).
        evictions: entries dropped by the LRU capacity bound.
        size: entries currently held.
        capacity: the LRU bound.
        ttl_expired: misses caused specifically by the entry's age exceeding
            the cache TTL.
    """

    hits: int
    misses: int
    invalidated: int
    evictions: int
    size: int
    capacity: int
    ttl_expired: int = 0

    @property
    def hit_rate(self) -> float:
        """Hits over lookups (0.0 before any lookup)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0


class ResultCache:
    """A thread-safe LRU of query results, evicted by range on update.

    Args:
        capacity: maximum entries held; 0 disables the cache entirely
            (every lookup misses, nothing is stored, nothing is watched),
            which is how the server's ``--cache-size 0`` and the uncached
            benchmark legs run.
        ttl: optional wall-clock bound (seconds) on entry age for
            time-sensitive consumers.  An entry older than ``ttl`` misses
            and is dropped even when no update touched it.  ``None`` (the
            default) disables the bound.
        clock: monotonic time source for TTL bookkeeping (tests override).
    """

    __slots__ = (
        "_capacity",
        "_entries",
        "_lock",
        "_hits",
        "_misses",
        "_invalidated",
        "_evictions",
        "_ttl",
        "_ttl_expired",
        "_clock",
        "_watch",
        "_feed",
        "_heard",
    )

    #: sentinel distinguishing "miss" from a cached falsy value
    MISS = object()

    def __init__(
        self,
        capacity: int = 1024,
        ttl: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if capacity < 0:
            raise ValueError(f"cache capacity must be >= 0, got {capacity}")
        if ttl is not None and ttl <= 0:
            raise ValueError(f"cache ttl must be > 0 seconds, got {ttl}")
        self._capacity = capacity
        # entry: (stamp, value, fill timestamp)
        self._entries: "OrderedDict[Hashable, Tuple[object, object, float]]" = (
            OrderedDict()
        )
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._invalidated = 0
        self._evictions = 0
        self._ttl = ttl
        self._ttl_expired = 0
        self._clock = clock
        # the range each entry's answer depends on
        self._watch = RangeWatch(capacity)
        self._feed = None
        self._heard = 0

    # ------------------------------------------------------------------ #
    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def enabled(self) -> bool:
        """False for the capacity-0 pass-through configuration."""
        return self._capacity > 0

    @property
    def hits(self) -> int:
        """Lifetime hit count (lock-free read: a gauge, not an invariant)."""
        return self._hits

    @property
    def ttl(self) -> Optional[float]:
        """The entry-age bound in seconds (``None``: no TTL)."""
        return self._ttl

    @property
    def misses(self) -> int:
        """Lifetime miss count (lock-free gauge read)."""
        return self._misses

    @property
    def invalidated(self) -> int:
        """Lifetime invalidation count (lock-free gauge read)."""
        return self._invalidated

    @property
    def evictions(self) -> int:
        """Lifetime capacity-eviction count (lock-free gauge read)."""
        return self._evictions

    @property
    def ttl_expired(self) -> int:
        """Lifetime TTL-expiry count (lock-free gauge read)."""
        return self._ttl_expired

    def register_metrics(self, registry) -> None:
        """Expose this cache on a :class:`~repro.obs.MetricsRegistry`.

        Everything is registered as *pull* metrics reading the existing
        counters at scrape time, so the cache hot path pays nothing for the
        registry -- the counters it already maintained are the metrics.
        """
        registry.counter_function(
            "repro_cache_hits_total", "Result-cache hits.", lambda: self._hits
        )
        registry.counter_function(
            "repro_cache_misses_total", "Result-cache misses.", lambda: self._misses
        )
        registry.counter_function(
            "repro_cache_invalidated_total",
            "Entries an overlapping update or an epoch dropped.",
            lambda: self._invalidated,
        )
        registry.counter_function(
            "repro_cache_evictions_total",
            "Entries evicted by the LRU capacity bound.",
            lambda: self._evictions,
        )
        registry.counter_function(
            "repro_cache_ttl_expired_total",
            "Entries dropped by the TTL age bound.",
            lambda: self._ttl_expired,
        )
        registry.gauge_function(
            "repro_cache_size", "Entries currently cached.", lambda: len(self._entries)
        )
        registry.gauge_function(
            "repro_cache_capacity",
            "Configured cache capacity (0: disabled).",
            lambda: self._capacity,
        )

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------ #
    def watch(self, feed) -> None:
        """Evict by range on ``feed``'s updates (``None``: stop watching).

        ``feed`` is a store's :class:`~repro.core.updates.UpdateFeed`.  A
        watched cache hits on any present entry, whatever stamp the lookup
        passes; moving to another feed (or to ``None``) unsubscribes from
        the previous one and clears the cache.  A capacity-0 cache never
        subscribes.
        """
        previous = self._feed
        if previous is not None:
            with previous.lock:  # no listener call is in flight past this
                previous.unsubscribe(self._on_update)
                with self._lock:
                    self._feed = None
                    self._reset()
        if feed is None or not self._capacity:
            return
        with feed.lock:  # nothing commits between subscribing and the first fill
            feed.subscribe(self._on_update)
            with self._lock:
                self._feed = feed
                self._heard = feed.generation
                self._reset()

    def _on_update(self, op: str, interval, generation: int) -> None:
        """Update listener (runs under the feed's lock, in generation order)."""
        with self._lock:
            if op == "sync":
                if generation != self._heard:  # an epoch publication
                    self._drop_all()
            elif interval is None:  # a delete whose span is unknown
                self._drop_all()
            else:
                touched = self._watch.touched(interval.start, interval.end)
                for key in touched:
                    self._drop(key)
                self._invalidated += len(touched)
            self._heard = generation

    def _drop(self, key: Hashable) -> None:
        """Remove ``key``'s entry and its watched range (lock held)."""
        del self._entries[key]
        self._watch.remove(key)

    def _drop_all(self) -> None:
        self._invalidated += len(self._entries)
        self._reset()

    def _reset(self) -> None:
        self._entries.clear()
        self._watch.clear()

    # ------------------------------------------------------------------ #
    def get(self, key: Hashable, stamp: Hashable) -> object:
        """The cached value, or :attr:`MISS`.

        A watched cache hits on any present entry: an update that could
        change it already evicted it.  An unwatched cache hits only when
        the entry's stamp equals ``stamp`` (the caller's *current* token --
        the cluster router stamps with a tuple of per-shard generations;
        any hashable equality-comparable stamp works) and drops an entry
        whose stamp went stale.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return self.MISS
            stamped, value, filled_at = entry
            if self._ttl is not None and self._clock() - filled_at > self._ttl:
                self._drop(key)
                self._ttl_expired += 1
                self._misses += 1
                return self.MISS
            if self._feed is None and stamped != stamp:
                self._drop(key)
                self._invalidated += 1
                self._misses += 1
                return self.MISS
            self._entries.move_to_end(key)
            self._hits += 1
            return value

    def put(self, key: Hashable, stamp: Hashable, value: object) -> None:
        """Store ``value`` under ``key``, stamped with ``stamp``.

        ``stamp`` must be read *before* the query whose answer is cached: a
        watched cache refuses the fill when its feed's generation is no
        longer ``stamp`` (an update overtook the query), and an unwatched
        one stamped with a post-query read could mask an update that landed
        mid-query.
        """
        if self._capacity == 0:
            return
        with self._lock:
            if self._feed is not None and self._feed.generation != stamp:
                return
            if key in self._entries:
                self._entries.move_to_end(key)
            else:
                if len(self._entries) >= self._capacity:
                    self._drop(next(iter(self._entries)))
                    self._evictions += 1
                self._watch.add(key, *_watched_range(key))
            self._entries[key] = (stamp, value, self._clock())

    def clear(self) -> None:
        with self._lock:
            self._reset()

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                invalidated=self._invalidated,
                evictions=self._evictions,
                size=len(self._entries),
                capacity=self._capacity,
                ttl_expired=self._ttl_expired,
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        stats = self.stats()
        return (
            f"ResultCache(size={stats.size}/{stats.capacity}, "
            f"hits={stats.hits}, misses={stats.misses}, "
            f"invalidated={stats.invalidated})"
        )


def resolve_cache(spec: "ResultCache | int | None") -> Optional[ResultCache]:
    """Turn a cache spec into a :class:`ResultCache` (or ``None``).

    ``None`` means the server default (a 1024-entry cache); an int is a
    capacity (0 disables caching); an instance passes through.
    """
    if spec is None:
        return ResultCache()
    if isinstance(spec, ResultCache):
        return spec
    if isinstance(spec, bool) or not isinstance(spec, int):
        raise TypeError(f"cache spec must be a ResultCache, int or None, got {spec!r}")
    return ResultCache(capacity=spec)
