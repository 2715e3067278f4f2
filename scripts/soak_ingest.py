#!/usr/bin/env python
"""Update-heavy soak: interleaved insert/delete/query/maintain, oracle-checked.

The CI smoke job runs this under a timeout guard: a K-shard hybrid store
absorbs rounds of interleaved inserts, deletes, range queries and counts
while a brute-force oracle (a plain id -> span dict) tracks the live set;
every round cross-checks a sample of queries and counts against the oracle,
and a maintenance pass (every tenth one forced) runs between rounds.  Any
divergence -- ids, counts, or index size -- raises, failing the job, and so
does a soak in which no unforced pass rebuilt a shard: the rebuild rule
itself must fire.

A second phase soaks the process pool's per-worker healing: a
process-executor store absorbs updates, refreshes its snapshot and answers
id batches (the one thing that runs in workers) while a killer thread
SIGKILLs pool workers mid-batch; every batch must stay oracle-equal,
retries must be recorded, and the index-wide fan-out kill-switch must never
trip (``--kill-rounds 0`` skips the phase).

Usage::

    PYTHONPATH=src python scripts/soak_ingest.py --rounds 20
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import threading
import time

import numpy as np

from repro.core.interval import HAS_SHARED_MEMORY, Interval, Query
from repro.datasets.real_like import REAL_DATASET_PROFILES, generate_real_like
from repro.engine import IntervalStore


def _oracle_query(live: dict, query: Query) -> set:
    return {
        interval_id
        for interval_id, (start, end) in live.items()
        if start <= query.end and query.start <= end
    }


def _worker_kill_soak(args) -> None:
    """Id batches under SIGKILLed pool workers: exact answers, no trip."""
    if not HAS_SHARED_MEMORY:
        print("worker-kill soak: skipped (no multiprocessing.shared_memory)")
        return
    rng = np.random.default_rng(args.seed + 1)
    collection = generate_real_like(
        REAL_DATASET_PROFILES["TAXIS"], cardinality=args.cardinality, seed=args.seed + 1
    )
    lo, hi = collection.span()
    store = IntervalStore.open(
        collection, "hintm_hybrid", num_shards=args.shards, num_bits=8,
        executor="processes", workers=2,
    )
    index = store.index
    live = {
        int(i): (int(s), int(e))
        for i, s, e in zip(collection.ids, collection.starts, collection.ends)
    }
    # updates first: the workers being killed serve a *refreshed* snapshot
    next_id = int(collection.ids.max()) + 1
    for op in range(args.ops_per_round):
        if op % 2 == 0:
            start = int(rng.integers(lo, hi))
            end = start + int(rng.integers(0, max(1, (hi - lo) // 100)))
            store.insert(Interval(next_id, start, end))
            live[next_id] = (start, end)
            next_id += 1
        else:
            victim = int(rng.choice(list(live)))
            store.delete(victim)
            del live[victim]
    queries = []
    for _ in range(50):
        a = int(rng.integers(lo, hi))
        queries.append(Query(a, a + int(rng.integers(0, hi - lo))))
    expected = [_oracle_query(live, q) for q in queries]
    if store.count_batch(queries) != [len(ids) for ids in expected]:
        raise SystemExit(
            "worker-kill soak: count-pair counts diverged with updates pending"
        )
    if not index.refresh_snapshot():
        raise SystemExit("worker-kill soak: snapshot refresh published nothing")

    def answers():
        return [set(ids) for ids in store.run_batch(queries).ids]

    if answers() != expected:  # warm the pool, check baseline
        raise SystemExit("worker-kill soak: ids diverged before any kill")

    batches = 0
    for round_no in range(args.kill_rounds):
        pids = sorted(index.worker_residencies())
        if not pids:
            raise SystemExit(f"kill round {round_no}: no worker residencies to kill")
        victim_pid = pids[round_no % len(pids)]
        killer = threading.Timer(0.02, os.kill, args=(victim_pid, signal.SIGKILL))
        killer.start()
        deadline = time.perf_counter() + 0.5
        while killer.is_alive() or time.perf_counter() < deadline:
            batches += 1
            if answers() != expected:
                raise SystemExit(
                    f"kill round {round_no}: ids diverged after killing "
                    f"worker {victim_pid}"
                )
        killer.join()
        if index._fanout_disabled:
            raise SystemExit(
                f"kill round {round_no}: fan-out kill-switch tripped -- a "
                "single dead worker must heal per-worker"
            )
    if not index.kernel_retries:
        raise SystemExit("worker-kill soak: no retry was ever recorded")
    if not index._process_fanout_ready():
        raise SystemExit("worker-kill soak: kernel fan-out not ready at the end")
    print(
        f"worker-kill soak ok: {args.kill_rounds} kills across {batches} "
        f"oracle-checked batches, {index.kernel_retries} task retries, "
        f"fan-out still live"
    )
    store.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--cardinality", type=int, default=5_000)
    parser.add_argument("--ops-per-round", type=int, default=200)
    parser.add_argument("--checks-per-round", type=int, default=10)
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--kill-rounds", type=int, default=3,
                        help="worker-kill soak rounds after the update soak "
                             "(0 disables the phase)")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    collection = generate_real_like(
        REAL_DATASET_PROFILES["TAXIS"], cardinality=args.cardinality, seed=args.seed
    )
    lo, hi = collection.span()
    store = IntervalStore.open(
        collection, "hintm_hybrid", num_shards=args.shards, num_bits=8
    )
    coordinator = store.maintenance()
    live = {
        int(i): (int(s), int(e))
        for i, s, e in zip(collection.ids, collection.starts, collection.ends)
    }
    next_id = int(collection.ids.max()) + 1

    started = time.perf_counter()
    total_ops = 0
    rule_rebuilds = 0  # shards rebuilt by unforced passes
    for round_no in range(args.rounds):
        for op in range(args.ops_per_round):
            total_ops += 1
            if op % 2 == 0:
                start = int(rng.integers(lo, hi))
                end = start + int(rng.integers(0, max(1, (hi - lo) // 100)))
                store.insert(Interval(next_id, start, end))
                live[next_id] = (start, end)
                next_id += 1
            else:
                victim = int(rng.choice(list(live)))
                if not store.delete(victim):
                    raise SystemExit(f"round {round_no}: delete({victim}) found nothing")
                del live[victim]
        if len(store) != len(live):
            raise SystemExit(
                f"round {round_no}: index size {len(store)} != oracle {len(live)}"
            )
        for _ in range(args.checks_per_round):
            a = int(rng.integers(lo, hi))
            b = a + int(rng.integers(0, hi - lo))
            expected = _oracle_query(live, Query(a, b))
            got_ids = set(store.query().overlapping(a, b).ids().tolist())
            if got_ids != expected:
                raise SystemExit(
                    f"round {round_no}: ids diverged on [{a}, {b}] "
                    f"(+{sorted(got_ids - expected)[:5]} -{sorted(expected - got_ids)[:5]})"
                )
            got_count = store.query().overlapping(a, b).count()
            if got_count != len(expected):
                raise SystemExit(
                    f"round {round_no}: count diverged on [{a}, {b}]: "
                    f"{got_count} != {len(expected)}"
                )
        forced = round_no % 10 == 9
        report = coordinator.maintain(force=forced)
        if not forced:
            rule_rebuilds += len(report.rebuilt_shards)
        if report.actions:
            print(f"round {round_no:3d}: {report.summary()}", flush=True)
    elapsed = time.perf_counter() - started
    state = coordinator.state()
    print(
        f"soak ok: {args.rounds} rounds, {total_ops} updates, "
        f"{args.rounds * args.checks_per_round} oracle checks in {elapsed:.1f}s; "
        f"{rule_rebuilds} shard rebuilds by unforced passes; "
        f"final state: pending={state.get('pending')}, "
        f"copies={state.get('copies_per_shard')}, "
        f"deltas={state.get('delta_per_shard')}, cuts={state.get('cuts')}"
    )
    store.close()
    if not rule_rebuilds:
        raise SystemExit("soak: no unforced maintenance pass rebuilt a shard")
    if args.kill_rounds > 0:
        _worker_kill_soak(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
