"""The asyncio query server: JSON-over-HTTP serving for an IntervalStore.

Stdlib-only (``asyncio`` + hand-rolled HTTP/1.1 with keep-alive), because the
serving loop is part of the reproduction: the point is to measure what the
layers above the index -- admission control, execution, caching -- cost and
buy, not to benchmark a web framework.

Request lifecycle::

    client -> admission control -> result cache -> store (in the handler)
                   |                    |                    |
                 503 when          hit: respond with the   one store call per
               max_pending         cached pre-encoded body /query or update
              queries admitted     (updates evict by range) (on the loop) or
                                                           /batch chunk (worker
                                                           thread); fill cache

* **Admission control**: at most ``max_pending`` query requests may be
  admitted (executing) at once; beyond that the server answers ``503``
  with a ``Retry-After`` hint instead of queueing unboundedly -- under
  overload it degrades by rejecting, never by falling over.
* **Execution**: every ``/query`` answers in the handler that parsed it,
  with one store call -- ``store.run_batch`` on the one query, the
  fluent builder for a relation/``stats`` query, or a slice of rendered
  id text (below).  On an in-process store
  that call runs on the event loop itself, since the hop to a worker
  thread would cost more than the probe; a store that fans out to worker
  processes, whose reads wait on the pool and may build shards under the
  update lock, takes exactly one worker-thread hop instead.  ``/batch``
  chunks (``max_batch`` queries each), maintenance and subscribe hop to a
  worker thread.  The trade: an inline query cannot be preempted, so
  while a slow one runs the loop reads nothing else -- the requests
  behind it (health checks included) wait for it instead of being
  admitted or answered ``503``, and ``stop()`` starts draining only
  after it.
* **Answers sliced from text**: a plain ids ``/query`` (no
  ``count_only``, ``relation`` or ``stats``) on a HINT^m store read on
  the loop -- ``hintm_opt`` or ``hintm_hybrid``, unsharded or sharded --
  skips ``run_batch`` and the JSON encoder.  :meth:`QueryServer.start`
  renders each optimized index's id column once (each id as ASCII
  decimal plus a comma, an int64 offset per row: its text plus 8 bytes a
  row, ~3.0 MB on 200k TAXIS-shaped intervals, counted by
  ``memory_bytes()``), and the answer is sliced out of it run by run
  (:meth:`~repro.hint.optimized.OptimizedHINTm.ids_text`) into a body
  byte-identical to the encoded ids.  Deletes keep the column: a slice
  is split where a tombstoned row sits.  A hybrid appends its delta's
  few ids as text, a query that spans shards renders its merged ids, and
  a rebuild or repartition renders its fresh indexes before it swaps
  them in.  The fallback, one ``run_batch`` call as before, serves every
  other ``/query``, every other store, and an answer the text does not
  hold.  Both paths read the generation before the probe,
  fill the cache, move the same counters and record the same
  ``run_batch`` span for a traced request.
* **Updates**: an ``/insert`` or ``/delete`` applies on the loop too --
  WAL append, fsync, index apply, then the answer -- so under
  ``fsync="always"`` the loop waits out the update's fsync.  It takes the
  awaited path instead (one worker-thread hop under the server's update
  lock, reads served meanwhile) when applying it now would wait on
  another thread or a slow disk: a hopped ``/maintain``/``/subscribe``
  holds the update lock, another thread holds ``store.updates.lock``, or
  the WAL's previous fsync took longer than :data:`_SLOW_FSYNC_S`.  Once
  it holds the update lock it checks again, and hops only if it still
  cannot apply on the loop.
* **Result cache**: hits are served straight off the event loop as
  pre-encoded bodies.  The cache watches ``store.updates``: an insert or
  delete evicts exactly the cached ranges it overlaps and an epoch
  publication clears it, so every other entry stays a hit
  (:mod:`repro.serve.cache`).  A cached body's ``generation`` is the
  version its answer was computed at; the answer is still exact.
* **Graceful drain**: ``stop()`` flips the server into draining mode (new
  work is rejected with 503), waits for admitted requests to finish, then
  closes the listener.

HTTP itself -- framing, keep-alive, the route table, ``/metrics``,
``/slow-queries`` and ``/health`` -- is :mod:`repro.serve.http`'s; this
module registers the query server's routes on it.  Mutations accept POST
only, every other endpoint GET or POST.

Endpoints (all JSON):

===========================  ==================================================
``GET/POST /query``          one range/stabbing query; ``start``/``end``
                             (+ ``count_only``) as query-string or JSON body
``POST /batch``              ``{"queries": [[s, e], ...], "count_only": bool}``
``POST /insert``             ``{"id": i, "start": s, "end": e}``
``POST /delete``             ``{"id": i}``
``POST /maintain``           one maintenance pass (``{"force": bool}``)
``POST /subscribe``          register a standing query (``start``/``end`` or
                             ``stab``, optional ``relation``,
                             ``min_duration``, ``max_duration``); with
                             ``subscription_id``: resync an existing one
``POST /unsubscribe``        ``{"subscription_id": i}``
``GET/POST /poll-deltas``    long-poll one subscription's delta log
                             (``subscription_id``, ``after`` = last-acked
                             generation, ``timeout`` seconds)
``GET /stats``               serving counters, cache stats, epoch + kernel
                             fan-out health, subscription gauges, latency quantiles
                             (every number sourced from the metrics registry)
``GET /metrics``             the same registry in Prometheus text format
``GET /slow-queries``        the slow-query log: span trees of completed
                             requests over the configured threshold
``GET /health``              liveness (``200``, or ``503`` while draining)
===========================  ==================================================

``/query`` and ``/batch`` also accept ``relation`` (an Allen relation name,
see :class:`repro.core.allen.AllenRelation`) and ``stats`` (truthy: include
per-query :class:`~repro.core.base.QueryStats` in the response).

Standing queries ride the same store hooks as the cache: a
:class:`~repro.stream.deltas.StandingQueryManager` observes inserts/deletes,
routes each to the affected subscriptions through the registry's range
watch, and the server long-polls the per-subscription delta logs with
bounded queues, net-effect coalescing under backpressure and an explicit
resync signal -- see :mod:`repro.stream`.
"""

from __future__ import annotations

import asyncio
import dataclasses
import functools
import json
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro.core.errors import DurabilityDegradedError, ReproError
from repro.core.interval import Interval, Query
from repro.engine.executor import ProcessExecutor
from repro.engine.store import IntervalStore
from repro.obs import MetricsRegistry, SlowQueryLog, global_registry, tracing
from repro.serve.cache import ResultCache, normalize_query_key, resolve_cache
from repro.serve.http import (
    POST,
    READ,
    HttpServer,
    Reject,
    ServerHandle,
    encode,
    int_field,
    run_in_thread,
    truthy,
)
from repro.stream import StandingQueryManager, UnknownSubscriptionError, parse_relation

__all__ = ["QueryServer", "start_server_thread"]

#: endpoint -> latency-histogram operation label; everything else is "other"
_ENDPOINT_OPS = {
    "/query": "query",
    "/batch": "batch",
    "/shard-batch": "shard_batch",
    "/insert": "update",
    "/delete": "update",
    "/maintain": "update",
}

#: an update is applied on the event loop only while the WAL's previous
#: append-path fsync took at most this long (seconds); after a slower one
#: the next update hops to a worker thread, so reads keep flowing beside a
#: slow disk.  Fitted from two measurements on a 2-core VM (ext4 on a
#: virtio disk; a durable 100k-interval 2-shard hybrid, ``fsync="always"``):
#: the store's own fsync took p50 163-196 us, p90 210-291 us, p99 0.8-2.5 ms
#: (5 x 6,000 updates); the awaited path costs the server ~275 us more CPU
#: per update than applying it inline (605 against 330 us, medians of 9 x
#: 4,000 updates a side, server and client on one core), CPU during which
#: the loop serves nothing.  Inline wins while the fsync it waits for costs
#: less than that hop; the limit sits at ~4x the hop, past this disk's p90,
#: so a lone fsync spike does not push updates off the loop, while on a
#: disk whose fsyncs take milliseconds every update hops.
_SLOW_FSYNC_S = 0.001

#: seconds :meth:`QueryServer.stop` waits for admitted requests to finish
_DRAIN_TIMEOUT_S = 10.0

#: most long-polls (``/poll-deltas``, ``/wal-feed``) parked at once: they
#: wait on an event instead of holding admission slots, so they get their
#: own bound (503 past it)
_MAX_POLLERS = 256

#: hard cap in seconds on one long-poll wait; clients ask for less via
#: ``timeout``
_POLL_TIMEOUT_S = 30.0

#: endpoints whose completed requests feed the slow-query log
_SLOW_ENDPOINTS = frozenset(("/query", "/batch", "/shard-batch"))


class _RequestContext:
    """Per-request observability state handed to every route handler.

    Created once per request in :meth:`QueryServer._begin_request`.  Every
    request keeps its timer and the ``args``/``tags`` handlers fill in for
    the slow-query log.  A trace exists only when the request arrived with
    trace headers: then ``root`` is its root span record, :meth:`child`
    hands the trace across executor-thread hops, and ``/shard-batch`` ships
    the span records back in its response body so the caller assembles one
    connected tree.  Nothing else would read them, so an untraced request
    builds no span at all.
    """

    __slots__ = (
        "endpoint", "method", "started", "trace", "root", "args", "tags",
        "root_recorded",
    )

    def __init__(self, endpoint: str, method: str) -> None:
        self.endpoint = endpoint
        self.method = method
        self.started = time.perf_counter()
        self.trace: Optional[tracing.Trace] = None
        self.root: Optional[Dict[str, object]] = None
        self.args: Dict[str, object] = {}
        self.tags: Dict[str, object] = {}
        self.root_recorded = False

    def child(self):
        """The ``(trace, parent span id)`` context for downstream work."""
        if self.trace is None:
            return None
        return self.trace, self.root["span_id"]

    def finish_root(self, status: int) -> None:
        """Close the root span (idempotent; normally done post-request)."""
        if self.trace is None or self.root_recorded:
            return
        self.root["duration_ms"] = (time.perf_counter() - self.started) * 1000.0
        self.root["tags"]["status"] = status
        self.root["tags"].update(self.tags)
        self.trace.add(self.root)
        self.root_recorded = True

    def lone_trace(self, status: int) -> tracing.Trace:
        """A one-node trace for an untraced request the slow log records:
        the root span, built now from the request's timer, endpoint and tags."""
        self.trace = tracing.Trace()
        self.root = tracing.new_span_record(
            self.trace.trace_id, None, f"server:{self.endpoint}", {"method": self.method}
        )
        self.root["start"] -= time.perf_counter() - self.started  # at arrival
        self.finish_root(status)
        return self.trace


class QueryServer(HttpServer):
    """Admission-controlled asyncio HTTP front door for one store.

    The lone ``/query``, ``/insert`` and ``/delete`` are answered inside the
    connection's protocol callback, on the event loop; an update falls
    back to one worker-thread hop only when it would otherwise wait there
    on another thread or a slow disk (see the module docstring).
    ``/batch`` chunks, ``/maintain`` and ``/subscribe`` always hop.

    Args:
        store: the :class:`~repro.engine.store.IntervalStore` (or sharded
            store) to serve.  Updates must flow through the server (or the
            store) so the result cache hears them; mutating the raw index
            behind the store's back would serve stale cached answers.
        host / port: bind address; port 0 picks a free port (see
            :attr:`port` after :meth:`start`).
        cache: a :class:`~repro.serve.cache.ResultCache`, a capacity int
            (0 disables caching), or ``None`` for the 1024-entry default.
            An enabled cache watches ``store.updates`` until :meth:`stop`.
        max_pending: admission bound -- query requests admitted at once
            before new ones get 503s.
        max_batch: the ``/batch`` chunk size: a request's missed queries run
            ``max_batch`` at a time, each chunk one ``store.run_batch`` call
            holding one admission slot.
        stream: a :class:`~repro.stream.deltas.StandingQueryManager` to
            serve subscriptions from (pass the previous server's manager to
            survive a restart with exact catch-up); ``None`` creates one
            lazily on the first ``/subscribe``.
        max_poller_lag: backpressure bound handed to the lazily created
            :class:`~repro.stream.deltas.StandingQueryManager`: a
            subscription whose poller lags past this many retained records
            has its log dropped and is forced through ``resync_required``
            (``None``: lag gauges observe but never act).
        slow_threshold: seconds a ``/query``/``/batch``/``/shard-batch``
            request must take to land in the slow-query log (0 records
            every completed request).  An untraced request lands with a
            one-node span tree; one that carried trace headers with its
            full tree.
    """

    def __init__(
        self,
        store: IntervalStore,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        cache: "ResultCache | int | None" = None,
        max_pending: int = 64,
        max_batch: int = 64,
        stream: "StandingQueryManager | None" = None,
        max_poller_lag: Optional[int] = None,
        slow_threshold: float = 0.25,
    ) -> None:
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        super().__init__(
            host,
            port,
            # per-server registry chained to the process-global one, so one
            # scrape shows serving counters AND engine-wide state
            metrics=MetricsRegistry(parent=global_registry()),
            slow_log=SlowQueryLog(threshold=slow_threshold),
            methods=READ,
        )
        self._store = store
        self._cache = resolve_cache(cache)
        if self._cache.enabled:
            self._cache.watch(store.updates)
        self._max_pending = max_pending
        self._max_batch = max_batch
        self._stream = stream
        self._max_poller_lag = max_poller_lag
        #: whether a /query hops to a worker thread (_fans_out_to_processes)
        self._hop_reads = _fans_out_to_processes(store)
        #: the index a plain ids /query slices its answer from, once
        #: :meth:`start` has rendered its id column (_rendered_index)
        self._rendered = None

        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._loop_thread: Optional[int] = None  # threading.get_ident() of the loop
        self._update_lock: Optional[asyncio.Lock] = None
        #: True while a hopped update (not /maintain or /subscribe) holds
        #: _update_lock; the next update may still apply inline beside it
        self._hopped_update = False
        self._idle: Optional[asyncio.Event] = None
        self._inflight = 0  # admitted query requests (loop thread only)
        self._draining = False
        self._started_at: Optional[float] = None
        #: per-subscription long-poll wakeups (loop thread only); set by the
        #: delta engine's notifier via call_soon_threadsafe
        self._stream_waiters: Dict[int, asyncio.Event] = {}
        self._pollers = 0  # parked /poll-deltas requests (loop thread only)

        self._register_metrics()
        self.routes.update(
            {
                "/stats": (READ, self._handle_stats),
                "/query": (READ, self._handle_query),
                "/batch": (READ, self._handle_batch),
                "/poll-deltas": (READ, self._handle_poll),
                "/insert": (POST, self._handle_insert),
                "/delete": (POST, self._handle_delete),
                "/maintain": (POST, self._handle_maintain),
                "/subscribe": (POST, self._handle_subscribe),
                "/unsubscribe": (POST, self._handle_unsubscribe),
            }
        )

    def _register_metrics(self) -> None:
        """Every serving metric lives on the registry; nothing is kept twice.

        Push counters are incremented inline on the request path; values the
        system already maintains elsewhere (cache counters, stream gauges,
        WAL state, kernel fan-out health) are registered as pull callbacks
        read at scrape time.
        """
        metrics = self.metrics
        self._m_requests = metrics.counter(
            "repro_requests_total", "HTTP requests received"
        )
        self._m_queries = metrics.counter(
            "repro_queries_total", "queries received (incl. per-batch-member)"
        )
        self._m_batches = metrics.counter(
            "repro_batches_total",
            "store calls: one per plain /query, one per /batch chunk",
        )
        self._m_batched_queries = metrics.counter(
            "repro_batched_queries_total", "queries executed by those store calls"
        )
        self._m_rejected = metrics.counter(
            "repro_rejected_total", "requests rejected by admission control (503)"
        )
        self._m_updates = metrics.counter(
            "repro_updates_total", "inserts and deletes applied"
        )
        self._m_errors = metrics.counter(
            "repro_errors_total", "requests answered with a 4xx/5xx error"
        )
        self._m_latency = metrics.histogram(
            "repro_request_seconds",
            "request wall time by operation class",
            labelnames=("op",),
        )
        # pre-bound per-op children: the post-request hook runs on the
        # cache-hit hot path, where the labels() key lookup is measurable
        self._m_latency_ops = {
            op: self._m_latency.labels(op=op)
            for op in set(_ENDPOINT_OPS.values()) | {"other"}
        }
        metrics.gauge_function(
            "repro_inflight_requests", "admitted requests in flight",
            lambda: self._inflight,
        )
        metrics.gauge_function(
            "repro_draining", "1 while the server refuses new work",
            lambda: int(self._draining),
        )
        metrics.gauge_function(
            "repro_intervals", "live intervals in the served store",
            lambda: len(self._store),
        )
        metrics.gauge_function(
            "repro_result_generation", "the store's result generation token",
            lambda: self._store.result_generation(),
        )
        metrics.counter_function(
            "repro_slow_queries_total", "requests recorded by the slow-query log",
            lambda: self.slow_log.recorded,
        )
        self._cache.register_metrics(metrics)
        metrics.gauge_function(
            "repro_stream_gauges", "standing-query gauges by name",
            self._stream_gauge_samples, labelnames=("gauge",),
        )
        metrics.gauge_function(
            "repro_wal_segments", "live WAL segment files",
            lambda: self._durability_value("wal_segments"),
        )
        metrics.gauge_function(
            "repro_wal_bytes", "bytes across live WAL segments",
            lambda: self._durability_value("wal_bytes"),
        )
        metrics.gauge_function(
            "repro_durability_degraded", "1 when the WAL can no longer persist",
            lambda: int(getattr(self._store, "durability", None) is not None
                        and self._store.durability.degraded),
        )
        metrics.gauge_function(
            "repro_fanout_disabled", "1 when kernel fan-out tripped off",
            lambda: int(bool(getattr(self._store.index, "_fanout_disabled", False))),
        )

    def _stream_gauge_samples(self) -> Dict[tuple, float]:
        if self._stream is None:
            return {}
        return {
            (name,): float(value) for name, value in self._stream.gauges().items()
        }

    def _durability_value(self, key: str) -> float:
        durability = getattr(self._store, "durability", None)
        if durability is None:
            return 0.0
        return float(durability.state().get(key, 0.0))

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def store(self) -> IntervalStore:
        return self._store

    @property
    def cache(self) -> ResultCache:
        return self._cache

    @property
    def stream(self) -> Optional[StandingQueryManager]:
        """The standing-query manager (None until the first /subscribe).

        Hand this to the next server's ``stream=`` to survive a restart
        with exact catch-up: the manager stays attached to the store while
        the server is down, so its logs keep accumulating deltas.
        """
        return self._stream

    @property
    def draining(self) -> bool:
        return self._draining

    def serving_stats(self) -> Dict[str, object]:
        """Serving + cache + engine state as one JSON-friendly dict.

        Every counter here *is* the registry's value (``/stats`` is a
        named view over the same snapshot ``/metrics`` renders -- nothing
        is maintained twice), plus exact latency quantiles per operation
        class under ``"latency"``.
        """
        cache = self._cache.stats()
        state: Dict[str, object] = {
            "requests": int(self._m_requests.value),
            "queries": int(self._m_queries.value),
            "batches": int(self._m_batches.value),
            "batched_queries": int(self._m_batched_queries.value),
            "rejected": int(self._m_rejected.value),
            "updates": int(self._m_updates.value),
            "errors": int(self._m_errors.value),
            "slow_queries": int(self.slow_log.recorded),
            "latency": {
                op: histogram.summary()
                for op, histogram in (
                    (labels[0], metric)
                    for labels, metric in self._m_latency.samples()
                )
            },
            "inflight": self._inflight,
            "max_pending": self._max_pending,
            "draining": self._draining,
            "uptime_s": (time.time() - self._started_at) if self._started_at else 0.0,
            "intervals": len(self._store),
            "backend": self._store.backend,
            "result_generation": self._store.result_generation(),
            "cache": {
                "hits": cache.hits,
                "misses": cache.misses,
                "invalidated": cache.invalidated,
                "evictions": cache.evictions,
                "size": cache.size,
                "capacity": cache.capacity,
                "hit_rate": cache.hit_rate,
                "ttl": self._cache.ttl,
                "ttl_expired": cache.ttl_expired,
            },
            "stream": (
                self._stream.gauges()
                if self._stream is not None
                else {
                    "subscriptions_active": 0.0,
                    "deltas_emitted": 0.0,
                    "deltas_coalesced": 0.0,
                    "catchup_resyncs": 0.0,
                    "poller_lag": 0.0,
                    "slowest_poller_lag": 0.0,
                    "backpressure_drops": 0.0,
                }
            ),
        }
        durability = getattr(self._store, "durability", None)
        if durability is not None:
            state["durability"] = durability.state()
            state["durability_degraded"] = durability.degraded
        index = self._store.index
        if hasattr(index, "epoch"):
            state["epoch"] = index.epoch
        if hasattr(index, "kernel_retries"):
            # batch-kernel fan-out health (sharded indexes over a pool)
            state["fanout_disabled"] = bool(index._fanout_disabled)
            state["kernel_retries"] = int(index.kernel_retries)
        if hasattr(index, "worker_residencies"):
            # best-effort: {} while the pool is down or not a process pool
            state["worker_residencies"] = {
                str(pid): list(tokens)
                for pid, tokens in index.worker_residencies().items()
            }
        return state

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Bind the listener (call from the loop)."""
        self._loop = asyncio.get_running_loop()
        self._loop_thread = threading.get_ident()
        self._update_lock = asyncio.Lock()
        self._idle = asyncio.Event()
        self._idle.set()
        self._rendered = _rendered_index(self._store, self._hop_reads)
        await super().start()
        self._started_at = time.time()
        if self._stream is not None:
            # a manager handed over from a previous server: its logs kept
            # accumulating deltas while we were down, so reconnecting
            # clients catch up from their last-acked generation
            self._stream.add_notifier(self._on_deltas)

    async def stop(self, drain: bool = True) -> None:
        """Stop accepting work, optionally drain in-flight requests, close.

        With ``drain`` (the default) new query/update requests are rejected
        with 503 while everything already admitted runs to completion (up to
        :data:`_DRAIN_TIMEOUT_S` seconds); without it, in-flight requests are
        abandoned with the connections.
        """
        self._draining = True
        # drain-on-stop for the push transport: parked long-polls wake,
        # flush whatever their logs hold and answer; the manager itself
        # stays attached to the store so a successor server can serve
        # exact catch-up from the same logs
        for waiter in list(self._stream_waiters.values()):
            waiter.set()
        if self._stream is not None:
            self._stream.remove_notifier(self._on_deltas)
        if drain and self._inflight:
            try:
                await asyncio.wait_for(self._idle.wait(), _DRAIN_TIMEOUT_S)
            except asyncio.TimeoutError:  # pragma: no cover - slow store
                pass
        await super().stop()
        if self._cache.enabled:
            self._cache.watch(None)  # the store outlives us: stop listening

    # ------------------------------------------------------------------ #
    # execution: one store call per /query, or per /batch chunk
    # ------------------------------------------------------------------ #
    def _execute_batch(
        self, queries: List[Query], count_only: bool
    ) -> Tuple[int, List[object]]:
        """One ``store.run_batch`` call: a plain /query or one /batch chunk.

        The generation is read *before* the probe: the result cache refuses
        to fill an answer once the generation has moved past that token, so
        an update racing the call can never be masked by it.
        """
        generation = self._store.result_generation()
        self._m_batches.inc()
        self._m_batched_queries.inc(len(queries))
        result = self._store.run_batch(queries, count_only=count_only)
        # ids leave the store as arrays; JSON encodes lists
        return generation, (
            result.counts if count_only else [ids.tolist() for ids in result.ids]
        )

    # ------------------------------------------------------------------ #
    # request handling
    # ------------------------------------------------------------------ #
    def _begin_request(
        self, method: str, endpoint: str, headers: Dict[str, str]
    ) -> _RequestContext:
        """Open the per-request context; a trace only for a traced caller."""
        self._m_requests.inc()
        ctx = _RequestContext(endpoint, method)
        remote = tracing.context_from_headers(headers)
        if remote is not None:
            trace_id, parent_id = remote
            ctx.trace = tracing.Trace(trace_id)
            ctx.root = tracing.new_span_record(
                trace_id, parent_id, f"server:{endpoint}", {"method": method}
            )
        return ctx

    def _finish_request(self, ctx: _RequestContext, status: int) -> None:
        """The single post-request hook: root span, latency, slow log.

        Every request path funnels through here exactly once, after the
        response body is final.
        """
        duration = time.perf_counter() - ctx.started
        ctx.finish_root(status)
        self._m_latency_ops[_ENDPOINT_OPS.get(ctx.endpoint, "other")].observe(duration)
        if ctx.endpoint in _SLOW_ENDPOINTS and duration >= self.slow_log.threshold:
            tags = dict(ctx.tags)
            tags["status"] = status
            self.slow_log.record(
                ctx.endpoint,
                duration,
                args=ctx.args,
                tags=tags,
                trace=ctx.trace or ctx.lone_trace(status),
            )

    def _count_error(self, status: int) -> None:
        # only admission pressure counts as "rejected" -- a 400 from a
        # malformed request is a client error, and mixing them would
        # inflate the overload signal operators (and client backoff) key on
        if status == 503:
            self._m_rejected.inc()
        else:
            self._m_errors.inc()

    def health(self) -> Dict[str, object]:
        # degraded (WAL can no longer persist writes) stays 200: reads still
        # work, so load balancers keep routing them -- the flag tells
        # operators writes are being refused
        durability = getattr(self._store, "durability", None)
        degraded = durability is not None and durability.degraded
        status = "draining" if self._draining else ("degraded" if degraded else "ok")
        body: Dict[str, object] = {"status": status}
        if durability is not None:
            body["durability_degraded"] = degraded
        return body

    def _admit(self, count: int = 1) -> None:
        """Admission control: count a request's weight in, or reject.

        ``count`` is the request's admission weight (1 per plain query; one
        per ``max_batch``-chunk for ``/batch``).  The *whole* weight must
        fit under ``max_pending`` -- checking only for a free slot would let
        one huge batch admit many multiples of the bound in a single
        request.  A request too heavy to ever fit is a client error (split
        it), not backpressure.
        """
        if self._draining:
            raise Reject(503, "draining", retry_after=None)
        if count > self._max_pending:
            raise Reject(
                400,
                f"request weight {count} exceeds max_pending "
                f"{self._max_pending}; split the batch",
            )
        if self._inflight + count > self._max_pending:
            raise Reject(503, "overloaded", retry_after=1)
        self._inflight += count
        self._idle.clear()

    def _release(self, count: int = 1) -> None:
        self._inflight -= count
        if self._inflight <= 0:
            self._inflight = 0
            self._idle.set()

    # ------------------------------------------------------------------ #
    # endpoints
    # ------------------------------------------------------------------ #
    def _handle_stats(self, payload: Dict[str, object], ctx: _RequestContext):
        return 200, encode(self.serving_stats())

    @staticmethod
    def _parse_query(payload: Dict[str, object]) -> Tuple[Query, bool]:
        if "stab" in payload:
            query = Query.stabbing(int_field(payload["stab"], "stab"))
        else:
            if "start" not in payload or "end" not in payload:
                raise Reject(400, "query needs start and end (or stab)")
            query = Query(
                int_field(payload["start"], "start"), int_field(payload["end"], "end")
            )
        count_only = truthy(payload.get("count_only", False))
        return query, count_only

    @staticmethod
    def _parse_refinement(payload: Dict[str, object]):
        """The optional ``relation`` + ``stats`` refinements of a query."""
        relation = payload.get("relation")
        try:
            relation = parse_relation(relation) if relation else None
        except ReproError as exc:
            raise Reject(400, str(exc)) from exc
        return relation, truthy(payload.get("stats", False))

    @staticmethod
    def _query_kind(count_only: bool, relation, with_stats: bool) -> str:
        """Cache-key kind separating result shapes over the same range."""
        kind = "count" if count_only else "ids"
        if relation is not None:
            kind += f":{relation.value}"
        if with_stats:
            kind += ":stats"
        return kind

    def _handle_query(self, payload: Dict[str, object], ctx: _RequestContext):
        query, count_only = self._parse_query(payload)
        relation, with_stats = self._parse_refinement(payload)
        self._m_queries.inc()
        ctx.args = {"start": query.start, "end": query.end, "count_only": count_only}
        key = None
        if self._cache.enabled:
            key = normalize_query_key(
                query.start, query.end, self._query_kind(count_only, relation, with_stats)
            )
            cached = self._cache.get(key, self._store.result_generation())
            if cached is not ResultCache.MISS:
                ctx.tags["cache"] = "hit"
                return 200, cached
            ctx.tags["cache"] = "miss"
        if (
            self._rendered is not None and self._rendered.renders_ids
            and not count_only and relation is None and not with_stats
        ):
            run = self._execute_text  # a plain ids answer: rendered id text
        else:
            run = self._execution(relation, with_stats)
        execute = tracing.bind(ctx.child(), run)
        self._admit()
        if self._hop_reads:
            return self._query_off_the_loop(execute, query, count_only, key)
        # an in-process probe takes no lock an update holds, and the
        # worker-thread round trip (two wakeups, a self-pipe write, a GIL
        # handoff) costs more than the probe
        try:
            generation, (answer,) = execute([query], count_only)
        finally:
            self._release()
        return 200, self._query_body(key, generation, answer, count_only)

    async def _query_off_the_loop(self, execute, query: Query, count_only: bool, key):
        """A /query on a store whose reads fan out to worker processes:
        exactly one worker-thread hop."""
        try:
            generation, (answer,) = await self._loop.run_in_executor(
                None, execute, [query], count_only
            )
        finally:
            self._release()
        return 200, self._query_body(key, generation, answer, count_only)

    def _query_body(self, key, generation: int, answer: object, count_only: bool) -> bytes:
        """A /query answer's body, cached under ``key`` (None: caching off)."""
        body = _encode_answer(generation, answer, count_only)
        if key is not None:
            self._cache.put(key, generation, body)
        return body

    def _execution(self, relation, with_stats: bool):
        """The store call for one query kind, as ``fn(queries, count_only)``.

        Plain queries run through :meth:`_execute_batch`; relation and
        instrumented ones through :meth:`_execute_refined`, which uses the
        fluent builder -- ``run_batch`` has no lane for them.
        """
        if relation is None and not with_stats:
            return self._execute_batch
        return functools.partial(
            self._execute_refined, relation=relation, with_stats=with_stats
        )

    def _refined_answer(
        self, query: Query, count_only: bool, relation, with_stats: bool
    ) -> Dict[str, object]:
        """One relation/instrumented query through the fluent builder."""
        builder = self._store.query().overlapping(query.start, query.end)
        if relation is not None:
            builder = builder.relation(relation)
        result = builder.build()
        ids = result.ids().tolist()
        answer: Dict[str, object] = (
            {"count": len(ids)} if count_only else {"ids": ids, "count": len(ids)}
        )
        if relation is not None:
            answer["relation"] = relation.value
        if with_stats:
            stats = dataclasses.asdict(result.stats())
            if relation is not None:
                # the probe's counters stand, but "results" reports what
                # this query answered -- the post-refinement ids
                stats["results"] = len(ids)
            answer["stats"] = stats
        return answer

    def _execute_text(
        self, queries: List[Query], count_only: bool
    ) -> Tuple[int, List[Tuple[bytes, int]]]:
        """:meth:`_execute_batch` for a plain ids /query, answered from the
        rendered id column as ``(text, count)``: the same generation read
        before the probe, the same counters, and the ``run_batch`` span a
        traced request would see from ``store.run_batch``."""
        generation = self._store.result_generation()
        with tracing.span("run_batch", queries=len(queries), count_only=count_only):
            answer = self._rendered.ids_text(queries[0])
        if answer is None:  # this answer is not in the text: the store call
            return self._execute_batch(queries, count_only)
        self._m_batches.inc()
        self._m_batched_queries.inc()
        return generation, [answer]

    def _execute_refined(
        self, queries: List[Query], count_only: bool, relation, with_stats: bool
    ) -> Tuple[int, List[Dict[str, object]]]:
        """Relation/instrumented queries: a refined /query or /batch chunk.

        Like :meth:`_execute_batch`, the generation is read before any
        probe, so the cache refuses a fill an update overtook.
        """
        generation = self._store.result_generation()
        return generation, [
            self._refined_answer(query, count_only, relation, with_stats)
            for query in queries
        ]

    async def _handle_batch(self, payload: Dict[str, object], ctx: _RequestContext):
        queries = _query_pairs(payload.get("queries"))
        count_only = truthy(payload.get("count_only", False))
        # relation/stats apply batch-wide: every query in the request is
        # refined the same way (mixed batches are two requests)
        relation, with_stats = self._parse_refinement(payload)
        self._m_queries.inc(len(queries))
        ctx.args = {"queries": len(queries), "count_only": count_only}
        kind = self._query_kind(count_only, relation, with_stats)
        generation = self._store.result_generation()
        answers: List[object] = [None] * len(queries)
        missing: List[int] = []
        for position, query in enumerate(queries):
            key = normalize_query_key(query.start, query.end, kind)
            cached = (
                self._cache.get(key, generation)
                if self._cache.enabled
                else ResultCache.MISS
            )
            if cached is ResultCache.MISS:
                missing.append(position)
            else:
                answers[position] = cached
        if missing:
            # a batch request weighs in proportion to its work: each
            # max_batch-sized chunk counts one admission slot, so a single
            # huge /batch cannot slip past the bound that per-query
            # requests respect, and no run_batch call exceeds max_batch
            chunks = [
                missing[i : i + self._max_batch]
                for i in range(0, len(missing), self._max_batch)
            ]
            self._admit(len(chunks))
            # (generation, value) pairs: each chunk's answers are stamped
            # with the generation read before *that* chunk ran, so the
            # cache refuses the fill of any chunk an update overtook
            filled: List[Tuple[int, object]] = []
            execute = tracing.bind(ctx.child(), self._execution(relation, with_stats))
            try:
                for chunk in chunks:
                    chunk_generation, chunk_values = await self._loop.run_in_executor(
                        None, execute, [queries[i] for i in chunk], count_only
                    )
                    filled.extend((chunk_generation, value) for value in chunk_values)
            finally:
                self._release(len(chunks))
            for position, (fill_generation, value) in zip(missing, filled):
                body = _encode_answer(fill_generation, value, count_only)
                answers[position] = body
                self._cache.put(
                    normalize_query_key(
                        queries[position].start, queries[position].end, kind
                    ),
                    fill_generation,
                    body,
                )
        # answers hold per-query encoded bodies; splice them into one array
        return 200, b'{"results": [' + b", ".join(answers) + b"]}"

    def _handle_insert(self, payload: Dict[str, object], ctx: _RequestContext):
        for field in ("id", "start", "end"):
            if field not in payload:
                raise Reject(400, f"insert needs '{field}'")
        interval = Interval(
            int_field(payload["id"], "id"),
            int_field(payload["start"], "start"),
            int_field(payload["end"], "end"),
        )
        return self._update(
            self._store.insert, interval, lambda _: {"inserted": interval.id}
        )

    def _handle_delete(self, payload: Dict[str, object], ctx: _RequestContext):
        if "id" not in payload:
            raise Reject(400, "delete needs 'id'")
        interval_id = int_field(payload["id"], "id")
        return self._update(
            self._store.delete,
            interval_id,
            lambda found: {"deleted": bool(found), "id": interval_id},
        )

    def _update(self, apply, argument, answer):
        """Apply one insert/delete, answering ``answer(result)`` + generation.

        The update runs right here, on the loop, holding its admission slot:
        WAL append, fsync, index apply, then the answer -- no worker-thread
        round trip.  It waits instead (:meth:`_update_later`) when applying
        it now would wait on another thread or on a slow disk: a hopped
        ``/maintain`` or ``/subscribe`` holds the update lock, another
        thread holds ``store.updates.lock`` (a checkpoint, a lazy shard
        build, an in-process writer), or the WAL's previous fsync took
        longer than :data:`_SLOW_FSYNC_S`.  A hopped update holding the
        update lock is no such reason: were it one, every update from
        other connections would queue behind it, and with two or more
        writers the hops would never stop.
        """
        self._admit()
        if self._update_lock.locked() and not self._hopped_update:
            return self._update_later(apply, argument, answer)
        try:
            applied, result = self._apply_here(apply, argument)
        except BaseException:
            self._release()
            raise
        if not applied:
            return self._update_later(apply, argument, answer)
        self._release()
        return self._updated(answer(result))

    def _apply_here(self, apply, argument):
        """``(True, result)`` with the update applied on the loop, or
        ``(False, None)`` untouched when that would wait on a slow disk or
        on another thread's hold of ``store.updates.lock``."""
        durability = getattr(self._store, "durability", None)
        if durability is not None and durability.last_fsync_s > _SLOW_FSYNC_S:
            return False, None
        lock = self._store.updates.lock
        if not lock.acquire(blocking=False):
            return False, None
        try:
            return True, _apply_update(apply, argument)
        finally:
            lock.release()

    async def _update_later(self, apply, argument, answer):
        """:meth:`_update` once the update lock is free.  By its turn the
        store lock may be free and the disk fast again: then the update
        applies on the loop after all; else it takes one worker-thread hop,
        and the loop keeps serving reads meanwhile."""
        try:
            async with self._update_lock:
                applied, result = self._apply_here(apply, argument)
                if not applied:
                    self._hopped_update = True
                    try:
                        result = await self._loop.run_in_executor(
                            None, _apply_update, apply, argument
                        )
                    finally:
                        self._hopped_update = False
        finally:
            self._release()
        return self._updated(answer(result))

    def _updated(self, body: Dict[str, object]):
        self._m_updates.inc()
        body["generation"] = self._store.result_generation()
        return 200, encode(body)

    async def _handle_maintain(self, payload: Dict[str, object], ctx: _RequestContext):
        force = truthy(payload.get("force", False))
        self._admit()
        try:
            async with self._update_lock:
                report = await self._loop.run_in_executor(
                    None, lambda: self._store.maintain(force=force)
                )
        finally:
            self._release()
        return 200, encode(
            {
                "summary": report.summary(),
                "generation": self._store.result_generation(),
            }
        )

    # ------------------------------------------------------------------ #
    # standing queries: subscribe / unsubscribe / poll-deltas
    # ------------------------------------------------------------------ #
    def _stream_manager(self) -> StandingQueryManager:
        """The manager, created lazily on the first /subscribe."""
        if self._stream is None:
            self._stream = StandingQueryManager(
                self._store, max_poller_lag=self._max_poller_lag
            )
            self._stream.add_notifier(self._on_deltas)
        return self._stream

    def _on_deltas(self, subscription_id: int) -> None:
        """Delta-engine notifier: wake that subscription's parked pollers.

        Fires on whatever thread ran the insert/delete: on the loop thread
        (an update applied inline) it wakes them at once; from any other
        thread it hops to the loop (and swallows the race with loop
        shutdown).
        """
        loop = self._loop
        if loop is None:
            return
        if threading.get_ident() == self._loop_thread:
            self._wake_pollers(subscription_id)
            return
        try:
            loop.call_soon_threadsafe(self._wake_pollers, subscription_id)
        except RuntimeError:  # pragma: no cover - loop already closed
            pass

    def _wake_pollers(self, subscription_id: int) -> None:
        waiter = self._stream_waiters.get(subscription_id)
        if waiter is not None:
            waiter.set()

    async def _handle_subscribe(self, payload: Dict[str, object], ctx: _RequestContext):
        manager = self._stream_manager()
        resync_id = payload.get("subscription_id")
        self._admit()
        try:
            # under the update lock: the snapshot is then exactly consistent
            # with its generation even on plain (unsharded) stores, whose
            # writes the server serialises through this lock
            async with self._update_lock:
                if resync_id is not None:
                    result = await self._loop.run_in_executor(
                        None, manager.resync, int_field(resync_id, "subscription_id")
                    )
                else:
                    query, _ = self._parse_query(payload)
                    relation, _ = self._parse_refinement(payload)
                    min_duration = int_field(
                        payload.get("min_duration", 0), "min_duration"
                    )
                    raw_max = payload.get("max_duration")
                    max_duration = (
                        int_field(raw_max, "max_duration")
                        if raw_max is not None
                        else None
                    )
                    filter_spec = payload.get("filter")
                    if isinstance(filter_spec, str):
                        # query-string transport: the spec arrives JSON-encoded
                        try:
                            filter_spec = json.loads(filter_spec)
                        except ValueError as exc:
                            raise Reject(
                                400, f"invalid JSON in 'filter': {exc}"
                            ) from exc
                    result = await self._loop.run_in_executor(
                        None,
                        lambda: manager.subscribe(
                            query.start,
                            query.end,
                            relation=relation,
                            min_duration=min_duration,
                            max_duration=max_duration,
                            filter_spec=filter_spec,
                        ),
                    )
        except UnknownSubscriptionError as exc:
            self._m_errors.inc()
            return 404, encode({"error": str(exc), "resync_required": True})
        finally:
            self._release()
        return 200, encode(
            {
                "subscription_id": result.subscription.subscription_id,
                "generation": result.generation,
                "ids": list(result.ids),
                "count": len(result.ids),
                "relation": (
                    result.subscription.relation.value
                    if result.subscription.relation is not None
                    else None
                ),
                "filter": result.subscription.filter_spec,
            }
        )

    def _handle_unsubscribe(self, payload: Dict[str, object], ctx: _RequestContext):
        if "subscription_id" not in payload:
            raise Reject(400, "unsubscribe needs 'subscription_id'")
        subscription_id = int_field(payload["subscription_id"], "subscription_id")
        removed = self._stream.unsubscribe(subscription_id) if self._stream else False
        waiter = self._stream_waiters.pop(subscription_id, None)
        if waiter is not None:
            waiter.set()  # parked pollers wake and observe the 404
        return 200, encode(
            {"unsubscribed": bool(removed), "subscription_id": subscription_id}
        )

    async def _handle_poll(self, payload: Dict[str, object], ctx: _RequestContext):
        if "subscription_id" not in payload:
            raise Reject(400, "poll-deltas needs 'subscription_id'")
        subscription_id = int_field(payload["subscription_id"], "subscription_id")
        after = int_field(payload.get("after", -1), "after")
        try:
            timeout = min(
                float(payload.get("timeout", _POLL_TIMEOUT_S)), _POLL_TIMEOUT_S
            )
        except (TypeError, ValueError) as exc:
            raise Reject(400, f"'timeout' must be a number: {exc}") from None
        if self._stream is None:
            self._m_errors.inc()
            return 404, encode(
                {
                    "error": f"unknown subscription {subscription_id}",
                    "resync_required": True,
                }
            )
        if self._pollers >= _MAX_POLLERS:
            raise Reject(503, "too many pollers", retry_after=1)
        deadline = self._loop.time() + timeout
        self._pollers += 1
        try:
            while True:
                waiter = self._stream_waiters.get(subscription_id)
                if waiter is None:
                    waiter = self._stream_waiters[subscription_id] = asyncio.Event()
                # clear BEFORE polling: a delta landing between the poll and
                # the wait sets the event and the wait returns immediately --
                # the other order can sleep through a wakeup
                waiter.clear()
                try:
                    result = self._stream.poll(
                        subscription_id, after_generation=after
                    )
                except UnknownSubscriptionError as exc:
                    self._m_errors.inc()
                    return 404, encode(
                        {"error": str(exc), "resync_required": True}
                    )
                if result.records or result.resync_required or self._draining:
                    break
                remaining = deadline - self._loop.time()
                if remaining <= 0:
                    break
                try:
                    await asyncio.wait_for(waiter.wait(), remaining)
                except asyncio.TimeoutError:
                    continue  # re-poll once: the empty answer must carry a
                    # generation current at return time, not pre-wait
        finally:
            self._pollers -= 1
        return 200, encode(
            {
                "subscription_id": subscription_id,
                "generation": result.generation,
                "resync_required": result.resync_required,
                "deltas": [
                    {
                        "seq": record.seq,
                        "generation": record.generation,
                        "added": list(record.added),
                        "removed": list(record.removed),
                        "coalesced": record.coalesced,
                    }
                    for record in result.records
                ],
            }
        )


# --------------------------------------------------------------------------- #
# helpers
# --------------------------------------------------------------------------- #
def _fans_out_to_processes(store: IntervalStore) -> bool:
    """True when the store's reads go through a worker-process pool: its
    index is a :class:`~repro.engine.sharded.ShardedIndex` holding one.

    Such a read waits on pool futures (and respawns a failed pool), and it
    may build a lazy shard under ``updates.lock`` -- held by an update
    across its WAL fsync -- so it must never run on the event loop.
    """
    return isinstance(getattr(store.index, "executor", None), ProcessExecutor)


def _rendered_index(store: IntervalStore, hop_reads: bool):
    """The store's index with its id column rendered as text, or None.

    Every in-process HINT^m store renders: ``hintm_opt``, the
    ``hintm_hybrid`` main index, and the shards of either at K > 1 (each
    has an ``ids_text``; see :meth:`OptimizedHINTm.ids_text
    <repro.hint.optimized.OptimizedHINTm.ids_text>`).  The index keeps
    rendering through its rebuilds and repartitions.  A store whose reads
    hop to worker processes, or whose backend cannot render, keeps
    ``run_batch``.
    """
    render = getattr(store.index, "render_ids", None)
    if render is None or hop_reads:
        return None
    render()
    return store.index if store.index.renders_ids else None


def _apply_update(apply, argument):
    """``apply(argument)``; a 503 when the WAL could not persist the record.

    The write is refused loudly (no Retry-After -- degraded does not
    self-heal) instead of acknowledging an update a crash would lose.
    """
    try:
        return apply(argument)
    except DurabilityDegradedError as exc:
        raise Reject(503, str(exc)) from exc


def _query_pairs(raw: object) -> List[Query]:
    """The ``queries`` field -- a non-empty list of ``[start, end]`` pairs --
    as queries, or a 400."""
    if not isinstance(raw, list) or not raw:
        raise Reject(400, "'queries' must be a non-empty list of [start, end] pairs")
    queries = []
    for pair in raw:
        if not isinstance(pair, list) or len(pair) != 2:
            raise Reject(400, f"'queries' holds {pair!r:.40}, not a [start, end] pair")
        queries.append(
            Query(int_field(pair[0], "queries"), int_field(pair[1], "queries"))
        )
    return queries


def _encode_answer(generation: int, value: object, count_only: bool) -> bytes:
    """One query's response body, stamped with the generation it was read at.

    The generation rides on every answer: the cluster router keys its
    distributed cache off this token alone.  A refined answer arrives as
    the full answer dict, an answer sliced from a rendered id column as
    ``(text, count)``.
    """
    if isinstance(value, tuple):
        text, count = value
        return b'{"ids":[%b],"count":%d,"generation":%d}' % (text, count, generation)
    if isinstance(value, dict):
        value["generation"] = generation
        return encode(value)
    if count_only:
        return encode({"count": value, "generation": generation})
    return encode({"ids": value, "count": len(value), "generation": generation})


# --------------------------------------------------------------------------- #
# threaded convenience (tests, benchmarks, examples)
# --------------------------------------------------------------------------- #
def start_server_thread(
    store: IntervalStore, *, server_cls: "type | None" = None, **kwargs
) -> ServerHandle:
    """Start a :class:`QueryServer` on a fresh daemon-thread event loop.

    Returns once the listener is bound (so :attr:`ServerHandle.port` is
    real); stop with :meth:`ServerHandle.stop` or use as a context manager.
    ``server_cls`` swaps in a subclass (the cluster tier's
    :class:`~repro.cluster.shard_server.ShardServer`).
    """
    return run_in_thread((server_cls or QueryServer)(store, **kwargs))
