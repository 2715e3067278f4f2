"""Front-tier router: plan, fan out, merge, fail over, cache.

A :class:`ClusterRouter` gives clients the single-store query API over a
:class:`~repro.cluster.topology.ClusterTopology` of remote shard servers:

* **planning** -- the topology's :class:`~repro.engine.sharding.ShardPlan`
  maps each query range to the shards it overlaps, exactly as the
  in-process sharded executor does;
* **fan-out + merge** -- overlapping shards are probed concurrently over
  keep-alive :class:`~repro.serve.client.ServeClient` connections
  (``/shard-batch``), and id answers merge with
  :func:`repro.engine.results.merge_unique_ids` -- the same first-seen,
  domain-order dedup a local ``ShardedIndex`` applies (a lone shard's
  ids pass through).  Counts never ship ids: the first overlapping shard
  counts the query as asked; each later shard ``j`` counts ``[cut, end]``
  minus one stab at ``cut - 1`` per probe (``cut = cuts[j-1]``).  Every
  resident of ``j`` starting before the cut reaches into ``j``, so it
  contains ``cut - 1``: the difference is exactly the residents starting
  in ``[cut, end]``, the intervals at home in ``j``, and the counts sum;
* **failover** -- replicas of one shard are interchangeable.  Probes
  rotate round-robin; a connect failure, 503 or 5xx marks the replica
  failed for a cooldown (recorded as a :class:`ReplicaFailure` row) and
  the probe moves to the next replica.
  Once every replica of a shard has failed, :class:`NoHealthyReplicaError`
  carries the per-replica record;
* **distributed result cache** -- answers are cached keyed on
  ``(query, stamp)`` where the stamp is the tuple of ``(shard,
  generation)`` tokens piggybacked on the shard responses.  Any later
  response from a shard (a query, an update ack) that moves its known
  generation invalidates every cached answer that shard contributed to --
  no invalidation channel beyond the tokens already on the wire.  A
  TTL-mode cache (:class:`~repro.serve.cache.ResultCache` ``ttl=...``)
  additionally bounds staleness against updates the router never saw.

A router instance is **not thread-safe** (same contract as
``ServeClient``): give each client thread its own router.  The internal
fan-out pool is only ever used by the single caller's query.
"""

from __future__ import annotations

import dataclasses
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.errors import ReproError
from repro.engine.results import merge_unique_ids
from repro.cluster.topology import ClusterTopology, Endpoint
from repro.obs import MetricsRegistry, SlowQueryLog, global_registry, tracing
from repro.serve.cache import ResultCache, normalize_query_key, resolve_cache
from repro.serve.client import (
    ServeClient,
    ServerError,
    ServerOverloaded,
    ServerUnavailableError,
)
from repro.serve.http import GET, HttpServer, ServerHandle, encode, run_in_thread

__all__ = [
    "ClusterRouter",
    "ClusterUpdateError",
    "NoHealthyReplicaError",
    "ReplicaFailure",
]


@dataclasses.dataclass(frozen=True)
class ReplicaFailure:
    """One replica endpoint that failed to answer a probe or an update."""

    shard_id: int
    replica_id: int
    error: str


class NoHealthyReplicaError(ReproError, ConnectionError):
    """Every replica of one shard failed to answer a probe."""

    def __init__(self, shard_id: int, failures: Sequence[ReplicaFailure]):
        detail = "; ".join(
            f"replica {f.replica_id}: {f.error}" for f in failures
        ) or "no replicas attempted"
        super().__init__(f"shard {shard_id}: no healthy replica ({detail})")
        self.shard_id = shard_id
        self.failures = list(failures)


class ClusterUpdateError(ReproError):
    """An update could not be applied on every replica it routes to.

    Replicas that did answer have applied it; the listed ones diverged and
    need repair (restart from WAL, or replace) before serving again.
    """

    def __init__(self, failures: Sequence[ReplicaFailure]):
        detail = "; ".join(
            f"shard {f.shard_id} replica {f.replica_id}: {f.error}" for f in failures
        )
        super().__init__(f"update failed on {len(failures)} replica(s): {detail}")
        self.failures = list(failures)


class ClusterRouter:
    """Route single-store queries across a topology of shard servers.

    Args:
        topology: the cluster layout (or a path handled by the caller via
            :meth:`ClusterTopology.load`).
        cache: router-level result cache -- a :class:`ResultCache`
            (e.g. ``ResultCache(4096, ttl=5.0)``), a capacity int (0
            disables), or ``None`` for the default.
        timeout: per-request socket timeout handed to every shard client.
        retries: per-client connection retries (failover across replicas
            happens above this, so the default keeps them low).
        cooldown: seconds a failed replica sits out before probes try it
            again (all-failed shards retry immediately -- a wrongly
            condemned replica must be able to resurrect).
        slow_threshold: seconds a routed batch must take to be recorded in
            the slow-query log (0 records everything).

    Every routed batch is traced end to end (router root span, per-shard
    probe spans, remote subtrees absorbed from the ``/shard-batch``
    responses) and feeds the slow-query log; the fan-out pool has a
    thread per shard.
    """

    def __init__(
        self,
        topology: ClusterTopology,
        *,
        cache: "ResultCache | int | None" = None,
        timeout: float = 30.0,
        retries: int = 1,
        cooldown: float = 5.0,
        slow_threshold: float = 0.25,
    ) -> None:
        self._topology = topology
        self._plan = topology.plan()
        self._cache = resolve_cache(cache)
        self._timeout = timeout
        self._retries = max(0, int(retries))
        self._cooldown = max(0.0, float(cooldown))
        self._pool = ThreadPoolExecutor(
            max_workers=max(2, topology.num_shards),
            thread_name_prefix="repro-router",
        )
        self._clients: Dict[Tuple[int, int], ServeClient] = {}
        self._rr: List[int] = [0] * topology.num_shards
        self._failed_until: Dict[Tuple[int, int], float] = {}
        self._failures: List[ReplicaFailure] = []
        #: highest generation seen per shard (from response piggybacks)
        self._generations: Dict[int, int] = {}
        self.slow_log = SlowQueryLog(threshold=slow_threshold)
        #: the most recent routed query's trace (None until a query is
        #: routed) -- tests and operators dump it via to_json()
        self.last_trace: Optional[tracing.Trace] = None
        self.metrics = MetricsRegistry(parent=global_registry())
        self._m_queries = self.metrics.counter(
            "repro_router_queries_total", "queries routed (incl. per-batch-member)"
        )
        self._m_probes = self.metrics.counter(
            "repro_router_probes_total", "shard-batch probes issued"
        )
        self._m_failovers = self.metrics.counter(
            "repro_router_failovers_total", "probes moved to another replica"
        )
        self._m_replica_failures = self.metrics.counter(
            "repro_router_replica_failures_total",
            "replica failures recorded during routing",
            labelnames=("shard", "replica"),
        )
        self.metrics.counter_function(
            "repro_router_slow_queries_total",
            "routed queries recorded by the slow-query log",
            lambda: self.slow_log.recorded,
        )
        self.metrics.gauge_function(
            "repro_router_known_generation", "latest generation seen per shard",
            lambda: {(str(s),): float(g) for s, g in self._generations.items()},
            labelnames=("shard",),
        )
        self._cache.register_metrics(self.metrics)
        self._admin: Optional[ServerHandle] = None

    # ------------------------------------------------------------------ #
    @property
    def topology(self) -> ClusterTopology:
        return self._topology

    @property
    def cache(self) -> ResultCache:
        return self._cache

    def failures(self) -> List[ReplicaFailure]:
        """Replica failures recorded during routing (newest last)."""
        return list(self._failures)

    def close(self) -> None:
        if self._admin is not None:
            self._admin.stop()
            self._admin = None
        self._pool.shutdown(wait=False)
        for client in self._clients.values():
            client.close()
        self._clients.clear()

    def __enter__(self) -> "ClusterRouter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def query(
        self, start: int, end: int, *, count_only: bool = False
    ) -> Dict[str, object]:
        """One range query; same response shape as the single-node server."""
        return self.batch([(start, end)], count_only=count_only)[0]

    def stab(self, point: int) -> Dict[str, object]:
        return self.query(point, point)

    def exists(self, start: int, end: int) -> bool:
        """Existence probe: true as soon as any overlapping shard matches."""
        shards = self._shards_for(start, end)
        responses = self._fanout(
            shards, {shard: [[start, end]] for shard in shards}, "exists"
        )
        return any(response["results"][0] for response in responses.values())

    def batch(
        self, pairs: Sequence[Tuple[int, int]], *, count_only: bool = False
    ) -> List[Dict[str, object]]:
        """A workload of range queries, each planned/merged independently.

        Queries fan out per shard in one ``/shard-batch`` round-trip per
        shard covering every cache-missed query that touches it.

        Every call originates a fresh trace -- a ``router_batch`` root
        over ``plan``/``shard_probe``/``merge`` spans, with each probed
        shard's remote subtree absorbed from its ``/shard-batch`` response
        body.  The completed trace lands on :attr:`last_trace` and, past
        the threshold, in :attr:`slow_log`.
        """
        kind = "count" if count_only else "ids"
        self._m_queries.inc(len(pairs))
        trace = tracing.Trace()
        started = time.perf_counter()
        with tracing.start_span(
            trace, "router_batch", queries=len(pairs), kind=kind
        ):
            answers = self._route_batch(pairs, kind, count_only)
        self.last_trace = trace
        self.slow_log.record(
            "router:/batch",
            time.perf_counter() - started,
            args={
                "queries": [[int(start), int(end)] for start, end in pairs],
                "kind": kind,
            },
            tags={"queries": len(pairs)},
            trace=trace,
        )
        return answers

    def _route_batch(
        self, pairs: Sequence[Tuple[int, int]], kind: str, count_only: bool
    ) -> List[Dict[str, object]]:
        answers: List[Optional[Dict[str, object]]] = [None] * len(pairs)
        missed: List[int] = []
        plans: List[List[int]] = []
        with tracing.span("plan", queries=len(pairs)) as plan_span:
            for position, (start, end) in enumerate(pairs):
                shards = self._shards_for(start, end)
                plans.append(shards)
                key = normalize_query_key(int(start), int(end), kind)
                cached = self._cache.get(key, self._stamp(shards))
                if cached is not self._cache.MISS:
                    answers[position] = dict(cached)
                else:
                    missed.append(position)
            plan_span["tags"]["missed"] = len(missed)  # batch() always traces
        if missed:
            # per shard: (position, later) rows, where ``later`` marks a
            # count on a shard after the query's first
            per_shard: Dict[int, List[Tuple[int, bool]]] = {}
            for position in missed:
                shards = plans[position]
                for shard in shards:
                    per_shard.setdefault(shard, []).append(
                        (position, count_only and shard != shards[0])
                    )
            payload_queries: Dict[int, List[List[int]]] = {}
            for shard, rows in per_shard.items():
                cut = int(self._plan.cuts[shard - 1]) if shard else 0
                queries = [
                    [cut if later else int(pairs[p][0]), int(pairs[p][1])]
                    for p, later in rows
                ]
                if any(later for _, later in rows):
                    # [cut, end] minus this stab at cut - 1 counts the
                    # residents starting in [cut, end] (module docstring)
                    queries.append([cut - 1, cut - 1])
                payload_queries[shard] = queries
            responses = self._fanout(sorted(per_shard), payload_queries, kind)
            stamps = {
                shard: int(response["generation"])
                for shard, response in responses.items()
            }
            with tracing.span("merge", queries=len(missed)):
                # per-query slices of each shard response, in shard order
                slots: Dict[int, Dict[int, object]] = {p: {} for p in missed}
                for shard, response in responses.items():
                    results = response["results"]
                    for (position, later), value in zip(per_shard[shard], results):
                        slots[position][shard] = value - results[-1] if later else value
                for position in missed:
                    shards = plans[position]
                    parts = [slots[position][shard] for shard in shards]
                    if count_only:
                        answer: Dict[str, object] = {"count": int(sum(parts))}
                    else:
                        ids = (
                            parts[0] if len(parts) == 1
                            else merge_unique_ids(parts).tolist()
                        )
                        answer = {"ids": ids, "count": len(ids)}
                    answers[position] = answer
                    start, end = pairs[position]
                    key = normalize_query_key(int(start), int(end), kind)
                    # stamp with the generations these probes actually saw --
                    # the pre-probe tokens -- so a racing update invalidates
                    # the entry instead of the entry masking the update
                    self._cache.put(
                        key,
                        tuple((shard, stamps[shard]) for shard in shards),
                        answer,
                    )
        return [answer for answer in answers if answer is not None]

    # ------------------------------------------------------------------ #
    # updates
    # ------------------------------------------------------------------ #
    def insert(self, interval_id: int, start: int, end: int) -> Dict[str, object]:
        """Insert on every replica of every shard the interval overlaps."""
        first, last = self._plan.shard_range(int(start), int(end))
        failures: List[ReplicaFailure] = []
        acks = 0
        for shard in range(first, last + 1):
            for replica_id, _ in enumerate(self._topology.replicas_for(shard)):
                try:
                    response = self._client(shard, replica_id).insert(
                        interval_id, start, end
                    )
                except (ServerUnavailableError, ServerError) as exc:
                    failures.append(self._record_failure(shard, replica_id, exc))
                    continue
                self._note_generation(shard, response.get("generation"))
                acks += 1
        if failures:
            raise ClusterUpdateError(failures)
        return {"inserted": int(interval_id), "replicas": acks}

    def delete(self, interval_id: int) -> Dict[str, object]:
        """Delete everywhere: the span is unknown, so every shard is asked."""
        failures: List[ReplicaFailure] = []
        deleted = False
        for shard in range(self._topology.num_shards):
            for replica_id, _ in enumerate(self._topology.replicas_for(shard)):
                try:
                    response = self._client(shard, replica_id).delete(interval_id)
                except (ServerUnavailableError, ServerError) as exc:
                    failures.append(self._record_failure(shard, replica_id, exc))
                    continue
                self._note_generation(shard, response.get("generation"))
                deleted = deleted or bool(response.get("deleted"))
        if failures:
            raise ClusterUpdateError(failures)
        return {"deleted": deleted, "id": int(interval_id)}

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, object]:
        """Router telemetry -- a view over the same registry ``/metrics`` serves."""
        return {
            "queries": int(self._m_queries.value),
            "probes": int(self._m_probes.value),
            "failovers": int(self._m_failovers.value),
            "failures": len(self._failures),
            "slow_queries": self.slow_log.recorded,
            "generations": {
                str(shard): generation
                for shard, generation in sorted(self._generations.items())
            },
            "cache": dataclasses.asdict(self._cache.stats()),
        }

    def start_admin(self, host: str = "127.0.0.1", port: int = 0) -> ServerHandle:
        """Serve ``GET /metrics``, ``/stats``, ``/slow-queries`` and ``/health``.

        The router itself is a client-side library with no listening
        socket; this hangs a read-only admin surface off it, on the same
        HTTP core as the query and shard servers, so the front tier is
        scrapeable like the servers it routes to.  Idempotent -- repeated
        calls return the already-running handle; :meth:`close` stops it.
        """
        if self._admin is None:
            admin = HttpServer(
                host, port, metrics=self.metrics, slow_log=self.slow_log, methods=GET
            )

            def stats(payload: Dict[str, object], ctx) -> Tuple[int, bytes]:
                return 200, encode(self.stats())

            admin.routes["/stats"] = (GET, stats)
            self._admin = run_in_thread(admin)
        return self._admin

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _shards_for(self, start: int, end: int) -> List[int]:
        first, last = self._plan.shard_range(int(start), int(end))
        return list(range(first, last + 1))

    def _stamp(self, shards: Sequence[int]) -> Tuple[Tuple[int, int], ...]:
        return tuple((shard, self._generations.get(shard, -1)) for shard in shards)

    def _note_generation(self, shard: int, generation: object) -> None:
        if generation is None:
            return
        value = int(generation)
        if value > self._generations.get(shard, -1):
            self._generations[shard] = value

    def _client(self, shard: int, replica_id: int) -> ServeClient:
        key = (shard, replica_id)
        client = self._clients.get(key)
        if client is None:
            endpoint: Endpoint = self._topology.replicas_for(shard)[replica_id]
            client = ServeClient(
                endpoint.host,
                endpoint.port,
                timeout=self._timeout,
                retries=self._retries,
            )
            self._clients[key] = client
        return client

    def _record_failure(
        self, shard: int, replica_id: int, exc: Exception
    ) -> ReplicaFailure:
        failure = ReplicaFailure(
            shard_id=shard, replica_id=replica_id, error=f"{type(exc).__name__}: {exc}"
        )
        self._failures.append(failure)
        self._m_replica_failures.labels(shard=shard, replica=replica_id).inc()
        self._failed_until[(shard, replica_id)] = time.monotonic() + self._cooldown
        return failure

    def _fanout(
        self,
        shards: Sequence[int],
        queries: Dict[int, List[List[int]]],
        kind: str,
    ) -> Dict[int, Dict[str, object]]:
        """Probe every shard concurrently; responses keyed by shard."""
        # captured here, on the submitting thread -- probe() runs on pool
        # threads where the thread-local context would be empty
        ctx = tracing.current()

        def probe(shard: int) -> Dict[str, object]:
            return self._probe_shard(
                shard, {"queries": queries[shard], "kind": kind}, ctx
            )

        if len(shards) == 1:
            return {shards[0]: probe(shards[0])}
        futures = {shard: self._pool.submit(probe, shard) for shard in shards}
        return {shard: future.result() for shard, future in futures.items()}

    def _probe_shard(
        self,
        shard: int,
        payload: Dict[str, object],
        ctx: "Optional[Tuple[tracing.Trace, str]]" = None,
    ) -> Dict[str, object]:
        """One probe with replica failover (round-robin + cooldown skip).

        When traced, the probe opens a ``shard_probe`` span, ships the
        trace context downstream as request headers, and absorbs the span
        records the shard server piggybacks on its response -- stitching
        the remote subtree under this probe in one connected tree.
        """
        record = None
        headers = None
        if ctx is not None:
            trace, parent_id = ctx
            record = tracing.new_span_record(
                trace.trace_id, parent_id, "shard_probe", {"shard": shard}
            )
            headers = tracing.headers_for(trace, record["span_id"])
        probe_started = time.perf_counter()
        replica_count = len(self._topology.replicas_for(shard))
        cursor = self._rr[shard]
        self._rr[shard] = (cursor + 1) % replica_count
        order = [(cursor + step) % replica_count for step in range(replica_count)]
        now = time.monotonic()
        candidates = [
            replica_id
            for replica_id in order
            if self._failed_until.get((shard, replica_id), 0.0) <= now
        ]
        if not candidates:
            # every replica is cooling down: try them all anyway rather
            # than fail a query a recovered replica could answer
            candidates = order
        attempt_failures: List[ReplicaFailure] = []
        for replica_id in candidates:
            self._m_probes.inc()
            try:
                response = self._client(shard, replica_id).request(
                    "POST", "/shard-batch", payload, headers=headers
                )
            except (ServerUnavailableError, ServerOverloaded) as exc:
                attempt_failures.append(self._record_failure(shard, replica_id, exc))
                self._m_failovers.inc()
                continue
            except ServerError as exc:
                if exc.status >= 500:
                    attempt_failures.append(
                        self._record_failure(shard, replica_id, exc)
                    )
                    self._m_failovers.inc()
                    continue
                raise  # 4xx: the request itself is wrong; failover cannot help
            self._failed_until.pop((shard, replica_id), None)
            self._note_generation(shard, response.get("generation"))
            if record is not None:
                record["duration_ms"] = (
                    time.perf_counter() - probe_started
                ) * 1000.0
                record["tags"]["replica"] = replica_id
                record["tags"]["failovers"] = len(attempt_failures)
                ctx[0].absorb(response.get("spans") or [])
                ctx[0].add(record)
            return response
        raise NoHealthyReplicaError(shard, attempt_failures)
