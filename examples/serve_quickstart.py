"""Serving quickstart: the query server, its cache and online maintenance.

Run with::

    PYTHONPATH=src python examples/serve_quickstart.py

Covers the serving subsystem end to end:

* opening a sharded store and serving it over JSON-over-HTTP
  with :func:`~repro.start_server_thread` (the ``repro serve`` CLI wraps
  the same server),
* hot queries hitting the result cache,
* updates through the server evicting exactly the cached answers whose
  range they overlap,
* a maintenance pass through the server, under live traffic,
* the serving/epoch state surfaced by ``GET /stats``.

A shard here is one index in one process.  Copies for availability --
replica failover, WAL-shipped followers, promotion -- are whole processes
behind the cluster router: see ``examples/cluster_quickstart.py``.
"""

import numpy as np

from repro import IntervalStore, ServeClient, start_server_thread
from repro.core.interval import IntervalCollection


def main() -> None:
    # ------------------------------------------------------------------ #
    # 1. a store worth serving: 20k bookings over a ~100-day horizon
    #    (minutes since epoch), K=2 shards
    # ------------------------------------------------------------------ #
    rng = np.random.default_rng(42)
    starts = rng.integers(0, 150_000, 20_000)
    ends = starts + rng.integers(10, 2_000, 20_000)
    bookings = IntervalCollection.from_pairs(
        [(int(s), int(e)) for s, e in zip(starts, ends)]
    )
    store = IntervalStore.open(bookings, "hintm_hybrid", num_shards=2)

    # ------------------------------------------------------------------ #
    # 2. serve it: admission-controlled asyncio server on a free port
    # ------------------------------------------------------------------ #
    handle = start_server_thread(store, cache=256, max_pending=32)
    client = ServeClient(port=handle.port)
    print(f"serving {len(store)} bookings on {handle.address}")

    # ------------------------------------------------------------------ #
    # 3. hot queries: the second probe is a cache hit (pre-encoded body)
    # ------------------------------------------------------------------ #
    first = client.query(40_000, 60_000)
    again = client.query(40_000, 60_000)
    assert again == first
    stats = client.stats()
    print(
        f"hot query: {first['count']} bookings; cache "
        f"{stats['cache']['hits']} hits / {stats['cache']['misses']} misses"
    )

    # ------------------------------------------------------------------ #
    # 4. an update evicts the cached ranges it overlaps: the next touch
    #    of this hot range recomputes, ranges elsewhere stay hits
    # ------------------------------------------------------------------ #
    client.insert(999_999, 45_000, 55_000)
    fresh = client.query(40_000, 60_000)
    assert 999_999 in fresh["ids"] and fresh["count"] == first["count"] + 1
    print(
        f"after insert: {fresh['count']} bookings "
        f"(cache invalidated {client.stats()['cache']['invalidated']} entries)"
    )

    # ------------------------------------------------------------------ #
    # 5. maintenance under traffic: a forced pass folds the pending counts
    #    and merges the insert's delta into its shard; a *fresh* query
    #    range (so the probe really hits the shards, not the result cache)
    #    answers exactly what the store itself says
    # ------------------------------------------------------------------ #
    report = client.maintain(force=True)
    after = client.query(10_000, 35_000)
    assert after["count"] == store.query().overlapping(10_000, 35_000).count()
    print(f"maintenance: {report['summary']}")
    print(f"fresh query: {after['count']} bookings, epoch {client.stats()['epoch']}")

    # ------------------------------------------------------------------ #
    # 6. graceful drain: in-flight requests finish, then the port closes
    # ------------------------------------------------------------------ #
    client.close()
    handle.stop()
    store.close()
    print("drained and stopped")


if __name__ == "__main__":
    main()
