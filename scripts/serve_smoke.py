#!/usr/bin/env python
"""Serving smoke: concurrent clients against the query server, oracle-checked.

The CI job runs this under a timeout guard: a sharded hybrid store goes up
behind the query server, then rounds of

* **concurrent reads** -- client threads fire a skewed mix of hot (cache
  hit) and cold (cache miss) range, count, ``relation=during`` and
  ``stats=1`` queries over keep-alive connections, every response checked
  against a brute-force oracle over the live set (the relation through
  :func:`~repro.core.allen.satisfies_relation`);
* **updates mid-stream** -- inserts and deletes applied through the server
  between read phases (so cached answers must invalidate via the generation
  key), with a forced maintenance pass thrown in on alternating rounds;
* **metrics smoke** -- every round scrapes ``GET /metrics``, asserts the
  exposition stays strictly Prometheus-parseable, that every ``_total``
  counter is monotone across scrapes, and that the server's query counter
  moved by exactly the clients' tally (successes plus 503-retried
  attempts -- the server counts a query before admission rejects it);

run until the round budget is spent.  Any divergence -- ids, counts, cache
serving a stale answer -- raises, failing the job.  Admission-control 503s
are retried (they are backpressure, not errors) and counted.

Usage::

    PYTHONPATH=src python scripts/serve_smoke.py --rounds 6
"""

from __future__ import annotations

import argparse
import sys
import threading
import time

import numpy as np

from repro.core.allen import AllenRelation, satisfies_relation
from repro.core.interval import Interval, IntervalCollection, Query
from repro.datasets.real_like import REAL_DATASET_PROFILES, generate_real_like
from repro.engine import IntervalStore
from repro.obs import parse_prometheus_text
from repro.serve.client import ServeClient, ServerOverloaded
from repro.serve.server import start_server_thread


def _check_scrape(admin, previous, round_no):
    """One /metrics scrape: parseable, counters monotone vs ``previous``."""
    scrape = parse_prometheus_text(admin.metrics())  # raises on malformed
    if previous is not None:
        for name, value in scrape.items():
            if name.endswith("_total") and name in previous:
                if value < previous[name]:
                    raise SystemExit(
                        f"round {round_no}: counter {name} went backwards "
                        f"({previous[name]:g} -> {value:g})"
                    )
    return scrape


#: the client mix's query kinds, with their share of the reads
KINDS = (("count", 0.3), ("during", 0.15), ("stats", 0.15), ("ids", 0.4))


def _oracle_ids(live: dict, query: Query, kind: str) -> set:
    if kind == "during":
        return {
            interval_id
            for interval_id, (start, end) in live.items()
            if satisfies_relation(
                Interval(interval_id, start, end), query, AllenRelation.DURING
            )
        }
    return {
        interval_id
        for interval_id, (start, end) in live.items()
        if start <= query.end and query.start <= end
    }


def _client_worker(port, queries, live, counters, failures, retries):
    client = ServeClient(port=port)
    try:
        for query, kind in queries:
            while True:
                try:
                    response = client.query(
                        query.start,
                        query.end,
                        count_only=kind == "count",
                        relation="during" if kind == "during" else None,
                        stats=kind == "stats",
                    )
                    break
                except ServerOverloaded:
                    retries.append(1)
                    time.sleep(0.002)
            expected = _oracle_ids(live, query, kind)
            if kind == "count":
                if response["count"] != len(expected):
                    failures.append(
                        f"count({query}) = {response['count']}, oracle {len(expected)}"
                    )
            elif set(response["ids"]) != expected:
                diff = set(response["ids"]) ^ expected
                failures.append(f"{kind}({query}) diverged on {sorted(diff)[:5]}")
            elif kind == "stats" and response["stats"]["results"] != len(expected):
                failures.append(
                    f"stats({query}) reports {response['stats']['results']} "
                    f"results, oracle {len(expected)}"
                )
            counters.append(1)
    except Exception as exc:  # noqa: BLE001 - surfaced by the main thread
        failures.append(f"client crashed: {exc!r}")
    finally:
        client.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rounds", type=int, default=6)
    parser.add_argument("--cardinality", type=int, default=5_000)
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument("--queries-per-client", type=int, default=40)
    parser.add_argument("--updates-per-round", type=int, default=30)
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--cache-size", type=int, default=256)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    collection = generate_real_like(
        REAL_DATASET_PROFILES["TAXIS"], cardinality=args.cardinality, seed=args.seed
    )
    lo, hi = collection.span()
    live = {
        int(i): (int(s), int(e))
        for i, s, e in zip(collection.ids, collection.starts, collection.ends)
    }
    next_id = int(collection.ids.max()) + 1

    store = IntervalStore.open(
        collection, "hintm_hybrid", num_shards=args.shards, num_bits=8
    )
    handle = start_server_thread(
        store, cache=args.cache_size, max_pending=2 * args.clients
    )
    admin = ServeClient(port=handle.port)
    print(f"# serving {len(store)} intervals on {handle.address}", flush=True)

    # hot queries repeat every round (cache hits across rounds must stay
    # fresh through the update phases); cold ones are fresh per round
    hot = []
    for _ in range(4):
        a = int(rng.integers(lo, hi))
        hot.append(Query(a, a + int(rng.integers(0, (hi - lo) // 5))))

    kinds, shares = zip(*KINDS)
    started = time.perf_counter()
    served_total = 0
    retries_total = 0
    try:
        scrape = _check_scrape(admin, None, -1)
        for round_no in range(args.rounds):
            workload = []
            for _ in range(args.queries_per_client):
                if rng.random() < 0.6:
                    query = hot[int(rng.integers(0, len(hot)))]
                else:
                    a = int(rng.integers(lo, hi))
                    query = Query(a, a + int(rng.integers(0, hi - lo)))
                workload.append((query, str(rng.choice(kinds, p=shares))))

            counters, failures, retries = [], [], []
            threads = [
                threading.Thread(
                    target=_client_worker,
                    args=(handle.port, workload, live, counters, failures, retries),
                )
                for _ in range(args.clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            if failures:
                raise SystemExit(f"round {round_no}: {failures[0]}")
            served_total += len(counters)
            retries_total += len(retries)

            # metrics smoke: parseable scrape, monotone counters, and the
            # query counter reconciling exactly with the client-side tally
            previous, scrape = scrape, _check_scrape(admin, scrape, round_no)
            moved = scrape["repro_queries_total"] - previous["repro_queries_total"]
            tallied = len(counters) + len(retries)
            if int(moved) != tallied:
                raise SystemExit(
                    f"round {round_no}: repro_queries_total moved by "
                    f"{moved:g}, clients tallied {tallied}"
                )

            # update phase: inserts + deletes through the server, so every
            # cached hot answer must invalidate via the generation key
            for op in range(args.updates_per_round):
                if op % 2 == 0:
                    start = int(rng.integers(lo, hi))
                    end = start + int(rng.integers(0, max(1, (hi - lo) // 50)))
                    admin.insert(next_id, start, end)
                    live[next_id] = (start, end)
                    next_id += 1
                else:
                    victim = int(rng.choice(list(live)))
                    if not admin.delete(victim)["deleted"]:
                        raise SystemExit(f"round {round_no}: delete({victim}) missed")
                    del live[victim]

            if round_no % 2 == 0:
                admin.maintain(force=True)

            stats = admin.stats()
            print(
                f"# round {round_no}: served {len(counters)} "
                f"(hit rate {stats['cache']['hit_rate']:.2f}, "
                f"invalidated {stats['cache']['invalidated']}, "
                f"epoch {stats.get('epoch')})",
                flush=True,
            )

        stats = admin.stats()
        if args.cache_size and not stats["cache"]["hits"]:
            raise SystemExit("the hot queries never hit the cache")
        if args.updates_per_round and not stats["cache"]["invalidated"]:
            raise SystemExit("updates never invalidated a cached answer")
    finally:
        admin.close()
        handle.stop()
        store.close()

    elapsed = time.perf_counter() - started
    print(
        f"# OK: {served_total} oracle-checked responses over {args.rounds} "
        f"rounds in {elapsed:.1f}s ({retries_total} backpressure retries)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
