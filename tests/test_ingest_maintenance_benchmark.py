"""Acceptance benchmark for the maintenance subsystem.

The PR's bar, on a 150k-interval TAXIS-scale collection with a 2k-op
interleaved insert/delete stream per repeat (that journaling is O(1) per op
is asserted structurally in ``tests/test_maintenance.py``, not timed here):

* multi-shard ``query_count`` answers are identical to the brute-force
  oracle over the live set both before and after ``maintain()`` (asserted
  inside the driver, surfaced here via the ``counts_exact`` flags);
* after ``maintain()`` + snapshot refresh, process-executor batches fan out
  again -- asserted via the residency-token generation, not timing.
"""

import pytest

from repro.bench.experiments import ingest_maintenance
from repro.core.interval import HAS_SHARED_MEMORY

CARDINALITY = 150_000
NUM_UPDATES = 2_000


@pytest.fixture(scope="module")
def result():
    return ingest_maintenance(
        cardinality=CARDINALITY, num_updates=NUM_UPDATES, repeats=3
    )


def test_counts_identical_to_oracle_before_and_after_maintain(result):
    # the driver raises if any multi-shard count diverges from the live-set
    # brute force, both before and after the forced maintain() pass
    assert result["ingest"], "no ingest measurements"
    assert all(r["counts_exact"] for r in result["ingest"])
    assert all(r["maintain_ms"] >= 0 for r in result["ingest"])


@pytest.mark.skipif(not HAS_SHARED_MEMORY, reason="no multiprocessing.shared_memory")
def test_process_fanout_restored_after_maintain(result):
    stages = {r["stage"]: r for r in result["refresh"]}
    assert stages["published"]["fanout_ready"]
    assert not stages["after updates"]["fanout_ready"]
    assert stages["after updates"]["update_dirty"]
    restored = stages["after maintain"]
    assert restored["fanout_ready"]
    assert not restored["update_dirty"]
    assert restored["generation"] > stages["published"]["generation"]
