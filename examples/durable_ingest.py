"""Durable ingest: write-ahead log, checkpoint, crash recovery, degraded mode.

Run with::

    PYTHONPATH=src python examples/durable_ingest.py

A booking system cannot re-derive its reservations from anywhere: once an
insert is acknowledged it has to survive the process dying.  Covers the
durability subsystem end to end:

* opening a store over a WAL directory (``IntervalStore.open(wal_dir=...)``)
  so every insert/delete is append-logged *before* it mutates the index,
* the fsync-policy ladder (``always`` / ``interval`` / ``off``) and what
  each buys,
* checkpointing (``store.maintain(checkpoint=True)``): live set +
  generation + standing-query subscriptions snapshotted atomically, dead
  WAL segments truncated,
* crash recovery: "lose" the in-memory store without closing it, reopen
  the directory, and get exactly the acknowledged state back -- including
  the generation counter a ``StreamClient`` acks against,
* torn-tail healing: a record torn mid-write by the crash is dropped,
  everything acknowledged before it survives,
* degraded mode: when the log itself fails (disk full, injected here with
  the fault harness) the store refuses further writes instead of running
  without durability; reads keep working; reopening recovers.
"""

import shutil
import tempfile
from pathlib import Path

from repro import DurabilityDegradedError, Interval, IntervalCollection, IntervalStore
from repro.durability import faults
from repro.durability.wal import list_segments


def live_ids(store):
    lo, hi = 0, 10**9
    return sorted(store.query().overlapping(lo, hi).ids().tolist())


def main() -> None:
    wal_dir = Path(tempfile.mkdtemp(prefix="repro-durable-example-"))

    # ------------------------------------------------------------------ #
    # 1. a durable store: the WAL directory is the source of truth
    # ------------------------------------------------------------------ #
    bookings = IntervalCollection.from_intervals(
        [Interval(i, i * 100, i * 100 + 60) for i in range(100)]
    )
    store = IntervalStore.open(
        bookings,
        "hintm_hybrid",
        wal_dir=str(wal_dir),
        fsync="always",  # per-op crash durability; "interval" trades a
        #                  bounded loss window for near WAL-off throughput
    )
    print(f"opened durable store: {len(live_ids(store))} bookings, "
          f"WAL at {wal_dir}")

    # every acknowledged update is on disk before the index sees it
    store.insert(Interval(1000, 250, 380))
    store.insert(Interval(1001, 999, 1200))
    store.delete(0)
    generation = store.result_generation()
    print(f"3 updates applied and logged; generation {generation}")

    # ------------------------------------------------------------------ #
    # 2. checkpoint: compact the log, snapshot live set + generation
    # ------------------------------------------------------------------ #
    report = store.maintain(force=True, checkpoint=True)
    state = store.durability.state()
    print(f"checkpoint @ generation {state['last_checkpoint_generation']}, "
          f"{state['wal_segments']} live segment(s), "
          f"{state['wal_bytes']} bytes of log")
    assert report.checkpointed

    # ------------------------------------------------------------------ #
    # 3. crash: the process dies without closing the store
    # ------------------------------------------------------------------ #
    store.insert(Interval(1002, 47, 99))  # acknowledged (fsync="always") ...
    acked = live_ids(store)
    del store  # ... and the "process" is gone: no close(), no flush

    recovered = IntervalStore.open(
        bookings, "hintm_hybrid", wal_dir=str(wal_dir), fsync="always"
    )
    assert live_ids(recovered) == acked
    assert recovered.result_generation() >= generation
    print(f"recovered {len(acked)} bookings exactly "
          f"(checkpoint + {recovered.durability.replayed_records} replayed "
          f"WAL records), generation {recovered.result_generation()}")

    # ------------------------------------------------------------------ #
    # 4. torn tail: a crash mid-append leaves half a record; recovery
    #    drops exactly the torn record and keeps everything before it
    # ------------------------------------------------------------------ #
    recovered.insert(Interval(2000, 1, 2))
    before_tear = live_ids(recovered)
    recovered.insert(Interval(2001, 3, 4))  # this record will be torn
    del recovered
    last_segment = list_segments(wal_dir)[-1][1]
    last_segment.write_bytes(last_segment.read_bytes()[:-5])

    healed = IntervalStore.open(
        bookings, "hintm_hybrid", wal_dir=str(wal_dir), fsync="always"
    )
    assert live_ids(healed) == before_tear
    assert 2001 not in live_ids(healed)
    print("torn tail healed: the half-written record is gone, "
          "every prior booking survives")

    # ------------------------------------------------------------------ #
    # 5. degraded mode: the disk "fails" -- refuse writes, keep reads
    # ------------------------------------------------------------------ #
    faults.injector.arm("append.before_write", action="io_error")
    try:
        healed.insert(Interval(3000, 5, 6))
    except DurabilityDegradedError as exc:
        print(f"WAL failure degrades the store: {type(exc).__name__}")
    assert healed.durability.degraded
    assert len(live_ids(healed)) == len(before_tear)  # reads still answer
    del healed

    # reopening the directory is the documented way back to writable
    reopened = IntervalStore.open(
        bookings, "hintm_hybrid", wal_dir=str(wal_dir), fsync="always"
    )
    assert not reopened.durability.degraded
    reopened.insert(Interval(3000, 5, 6))
    print("reopened: degraded flag cleared, store writable again")
    reopened.close()
    shutil.rmtree(wal_dir, ignore_errors=True)
    print("done")


if __name__ == "__main__":
    main()
