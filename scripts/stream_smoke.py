#!/usr/bin/env python
"""Standing-query smoke: concurrent subscribers against the query server,
oracle-checked.

The CI job runs this under a timeout guard: a sharded hybrid store goes up
behind the query server, a handful of subscribers attach standing queries
(plain ranges, a duration-filtered one and an unbounded ``after`` one, whose
matches never overlap its range), then rounds of

* **updates mid-stream** -- inserts and deletes applied through the server
  while every subscriber concurrently long-polls its delta stream and folds
  it onto its subscribe-time snapshot;
* **disruptions** -- a forced maintenance pass on alternating rounds, which
  may not corrupt a delta stream (maintenance must emit no deltas);

run until the round budget is spent.  After each round the main thread
waits for every subscriber to fold past the store's generation and asserts
its folded id set equals a brute-force oracle over the live intervals.
Resyncs (log truncation) are legal and counted; divergence raises, failing
the job.

Usage::

    PYTHONPATH=src python scripts/stream_smoke.py --rounds 5
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
from repro.serve.client import ServeClient, StreamClient
from repro.serve.server import start_server_thread


class _Subscriber:
    """One standing query long-polled and folded on its own thread."""

    def __init__(self, port, start, end, *, min_duration=0, relation=None):
        self.spec = (start, end, min_duration, relation)
        self.client = StreamClient(port=port)
        self.client.subscribe(
            start, end, min_duration=min_duration or None, relation=relation
        )
        self.lock = threading.Lock()
        self.generation = self.client.generation
        self.ids = frozenset(self.client.ids())
        self.events = 0
        self.stop = threading.Event()
        self.error = None
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()

    def _publish(self):
        with self.lock:
            self.generation = self.client.generation
            self.ids = frozenset(self.client.ids())

    def _run(self):
        try:
            while not self.stop.is_set():
                self.client.poll(timeout=1.0)
                self._publish()
        except Exception as exc:  # noqa: BLE001 - surfaced by the main thread
            self.error = exc

    def oracle(self, live):
        start, end, min_duration, relation = self.spec
        if relation is not None:
            query, relation = Query(start, end), AllenRelation(relation)
            return {
                i
                for i, (s, e) in live.items()
                if satisfies_relation(Interval(i, s, e), query, relation)
            }
        return {
            i
            for i, (s, e) in live.items()
            if s <= end and start <= e and (e - s) >= min_duration
        }

    def snapshot(self):
        with self.lock:
            return self.generation, self.ids

    def close(self):
        self.stop.set()
        self.thread.join(timeout=10)
        try:
            self.client.unsubscribe()
        finally:
            self.client.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--cardinality", type=int, default=5_000)
    parser.add_argument("--subscribers", type=int, default=5)
    parser.add_argument("--updates-per-round", type=int, default=40)
    parser.add_argument("--shards", type=int, default=4)
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
    handle = start_server_thread(store, cache=128)
    admin = ServeClient(port=handle.port)
    print(f"# streaming {len(store)} intervals on {handle.address}", flush=True)

    subscribers = []
    try:
        for position in range(max(3, args.subscribers)):
            a = int(rng.integers(lo, hi))
            b = a + int(rng.integers((hi - lo) // 20, (hi - lo) // 4))
            subscribers.append(
                _Subscriber(
                    handle.port,
                    a,
                    b,
                    # one duration-filtered subscription, one unbounded
                    # (every update is checked against it), the rest plain
                    min_duration=(hi - lo) // 100 if position == 1 else 0,
                    relation="after" if position == 2 else None,
                )
            )

        started = time.perf_counter()
        for round_no in range(args.rounds):
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
                admin.maintain(force=True)  # must emit no deltas

            # barrier: every subscriber folds past the store's generation,
            # then its folded set must equal the brute-force oracle
            target = int(store.result_generation())
            deadline = time.monotonic() + 30
            for subscriber in subscribers:
                while True:
                    if subscriber.error is not None:
                        raise SystemExit(
                            f"round {round_no}: subscriber crashed: "
                            f"{subscriber.error!r}"
                        )
                    generation, ids = subscriber.snapshot()
                    if generation >= target:
                        break
                    if time.monotonic() > deadline:
                        raise SystemExit(
                            f"round {round_no}: subscriber stuck at generation "
                            f"{generation} < {target}"
                        )
                    time.sleep(0.05)
                expected = subscriber.oracle(live)
                if ids != expected:
                    diff = ids ^ expected
                    raise SystemExit(
                        f"round {round_no}: subscription {subscriber.spec} "
                        f"diverged on {sorted(diff)[:5]} "
                        f"({len(ids)} folded vs {len(expected)} oracle)"
                    )

            stats = admin.stats()
            print(
                f"# round {round_no}: {len(subscribers)} subscriptions exact "
                f"(deltas {stats['stream']['deltas_emitted']:.0f}, "
                f"coalesced {stats['stream']['deltas_coalesced']:.0f}, "
                f"resyncs {sum(s.client.resyncs for s in subscribers)}, "
                f"epoch {stats.get('epoch')})",
                flush=True,
            )

        stats = admin.stats()
        if not stats["stream"]["deltas_emitted"]:
            raise SystemExit("the update rounds never emitted a delta")
        total_events = sum(s.client.resyncs for s in subscribers)
        for subscriber in subscribers:
            subscriber.close()
        if admin.stats()["stream"]["subscriptions_active"]:
            raise SystemExit("unsubscribe left subscriptions behind")
    finally:
        for subscriber in subscribers:
            subscriber.stop.set()
        admin.close()
        handle.stop()
        store.close()

    elapsed = time.perf_counter() - started
    print(
        f"# OK: {len(subscribers)} subscribers exact over {args.rounds} rounds "
        f"in {elapsed:.1f}s ({total_events} resyncs)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
