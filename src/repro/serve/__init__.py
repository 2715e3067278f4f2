"""The serving subsystem: the layers between clients and the index.

These cooperating parts turn the engine into something that can hold up
under concurrent traffic (see the README's "Serving" section):

* **epoch-based read snapshots** -- queries pin one immutable
  ``(plan, shards, locator)`` generation, so maintenance publishes new
  partition state atomically instead of mutating under readers
  (:class:`repro.engine.sharded.Epoch`);
* an **admission-controlled asyncio query server** -- JSON-over-HTTP with a
  bounded in-flight count (503 backpressure), one store call per query
  answered in its own handler, and graceful drain (:mod:`repro.serve.server`);
* a **range-scoped result cache** -- an LRU keyed on the normalized query
  that watches the store's update feed: an insert or delete evicts exactly
  the cached ranges it overlaps, an epoch publication clears it
  (:mod:`repro.serve.cache`);
* **standing-query push** -- ``/subscribe`` + ``/poll-deltas`` over the
  same server, backed by :mod:`repro.stream`'s delta engine;
  :class:`StreamClient` folds the delta batches client-side.
"""

from repro.serve.cache import (
    CacheStats,
    ResultCache,
    normalize_query_key,
    resolve_cache,
)
from repro.serve.client import (
    ServeClient,
    ServerError,
    ServerOverloaded,
    ServerUnavailableError,
    StreamClient,
)
from repro.serve.http import ServerHandle
from repro.serve.server import QueryServer, start_server_thread

__all__ = [
    "CacheStats",
    "QueryServer",
    "ResultCache",
    "ServeClient",
    "ServerError",
    "ServerHandle",
    "ServerOverloaded",
    "ServerUnavailableError",
    "StreamClient",
    "normalize_query_key",
    "resolve_cache",
    "start_server_thread",
]
