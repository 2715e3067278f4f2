"""Acceptance tests for the durability tentpole.

* The fsync policies are pinned *structurally* (``os.fsync`` counted, the
  WAL writer's clock injected), not by a wall-clock ratio: ``"interval"``
  issues at most one append-path fsync per ``fsync_interval`` tick,
  ``"always"`` at least one per acknowledged update, ``"off"`` none before
  close -- which is what keeps durable-by-default ingest near the WAL-off
  rate.  The update latency itself is measured by ``e2e_bench``
  (``durability.update_latency_p50_ms`` on the ``mixed_rw`` workload);
  tier-1 does not assert it.
* Every policy's WAL directory, reopened, recovers *exactly* the applied
  stream, checked against a live-set oracle.
"""

import os
from types import SimpleNamespace

import numpy as np

from repro.core.interval import Interval, IntervalCollection
from repro.durability import wal
from repro.engine import IntervalStore

#: the writer's default ``fsync_interval`` (``IntervalStore.open`` exposes
#: the policy, not the period) and how far the injected clock moves per op
FSYNC_INTERVAL = 0.1
OPS_PER_TICK = 8
STRUCTURAL_OPS = 240


def test_interval_fsync_within_2x_of_wal_off(tmp_path, monkeypatch):
    now = [0.0]
    monkeypatch.setattr(wal, "time", SimpleNamespace(monotonic=lambda: now[0]))
    fsync_at = []  # injected-clock time of every os.fsync issued
    real_fsync = os.fsync

    def counting_fsync(fd):
        fsync_at.append(now[0])
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", counting_fsync)

    rng = np.random.default_rng(24)
    starts = rng.integers(0, 50_000, 1_500)
    collection = IntervalCollection.from_pairs(
        [(int(s), int(s) + int(d)) for s, d in zip(starts, rng.integers(0, 900, 1_500))]
    )
    span = (0, 60_000)

    for policy in ("interval", "always", "off"):
        live = {int(i) for i in collection.ids}
        wal_dir = str(tmp_path / policy)
        store = IntervalStore.open(
            collection, "hintm_hybrid", wal_dir=wal_dir, fsync=policy
        )
        per_op = []  # append-path fsyncs of each acknowledged update
        stream_from = len(fsync_at)
        for step in range(STRUCTURAL_OPS):
            now[0] += FSYNC_INTERVAL / OPS_PER_TICK
            before = len(fsync_at)
            if step % 3 == 2:
                victim = int(rng.choice(sorted(live)))
                assert store.delete(victim)
                live.discard(victim)
            else:
                start = int(rng.integers(0, 50_000))
                store.insert(Interval(1_000_000 + step, start, start + 40))
                live.add(1_000_000 + step)
            per_op.append(len(fsync_at) - before)
        stream = fsync_at[stream_from:]
        if policy == "interval":
            ticks = STRUCTURAL_OPS // OPS_PER_TICK
            assert max(per_op) <= 1
            assert 1 <= len(stream) <= ticks, (
                f"{len(stream)} append-path fsyncs over {ticks} ticks"
            )
            gaps = np.diff(stream)
            assert (gaps >= FSYNC_INTERVAL - 1e-9).all(), (
                "two append-path fsyncs inside one fsync_interval tick"
            )
        elif policy == "always":
            assert min(per_op) >= 1, "an acknowledged update was not fsynced"
        else:
            assert stream == [], "fsync='off' must not fsync before close"
        store.close()
        recovered = IntervalStore.open(
            IntervalCollection.empty(), "hintm_hybrid", wal_dir=wal_dir, fsync="off"
        )
        try:
            assert set(recovered.query().overlapping(*span).ids()) == live
        finally:
            recovered.close()

