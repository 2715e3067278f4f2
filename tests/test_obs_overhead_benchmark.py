"""Acceptance gate: observability must be ~free on the cached serving path.

The observability PR instruments every request -- a root span, the
latency histogram, the slow-query check -- and ``instrument=False`` must
switch all of it off.  What instrumentation costs is its per-request work,
so the gate counts that work instead of timing it (a wall-clock ratio of
two servers on a shared host fails on scheduler luck, and shrinks its own
denominator every time the request path gets cheaper):

* uninstrumented, N cached ``/query`` requests create zero
  :class:`~repro.obs.tracing.Trace` objects, zero span records and zero
  latency-histogram observations;
* instrumented, each cached request creates exactly one trace, one root
  span record and one observation -- nothing per request beyond that.
"""

import random

import pytest

from repro.core.interval import Interval, IntervalCollection
from repro.engine import IntervalStore
from repro.obs import tracing
from repro.serve.client import ServeClient
from repro.serve.server import start_server_thread

CARDINALITY = 2_000
REQUESTS = 50


def _collection(seed=19):
    rng = random.Random(seed)
    intervals = []
    for i in range(CARDINALITY):
        start = rng.randrange(0, 1_000_000)
        intervals.append(Interval(i, start, start + rng.randrange(1, 5_000)))
    return IntervalCollection.from_intervals(intervals)


class _Counts:
    def __init__(self) -> None:
        self.traces = 0
        self.span_records = 0
        self.spans_added = 0


@pytest.fixture()
def counts(monkeypatch):
    """Count every trace, span record and recorded span the process makes."""
    seen = _Counts()

    class CountingTrace(tracing.Trace):
        def __init__(self, *args, **kwargs):
            seen.traces += 1
            super().__init__(*args, **kwargs)

        def add(self, record):
            seen.spans_added += 1
            super().add(record)

    original = tracing.new_span_record

    def counting_span_record(*args, **kwargs):
        seen.span_records += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(tracing, "Trace", CountingTrace)
    monkeypatch.setattr(tracing, "new_span_record", counting_span_record)
    return seen


def _observations(server) -> int:
    """Latency-histogram observations so far, over every operation class."""
    return sum(
        histogram.summary()["count"] for _, histogram in server._m_latency.samples()
    )


def _cached_round(counts, instrument: bool) -> None:
    """N cached requests cost exactly the per-request work ``instrument`` asks."""
    store = IntervalStore.open(_collection(), "hintm_opt")
    handle = start_server_thread(store, instrument=instrument)
    client = ServeClient(port=handle.port)
    query = (100_000, 140_000)
    try:
        client.query(*query)  # prime the cache entry
        traces, records, added = counts.traces, counts.span_records, counts.spans_added
        observed = _observations(handle.server)
        hits = handle.server.cache.hits
        for _ in range(REQUESTS):
            client.query(*query)
        assert handle.server.cache.hits == hits + REQUESTS  # all cached
        per_request = 1 if instrument else 0
        assert counts.traces - traces == per_request * REQUESTS
        assert counts.span_records - records == per_request * REQUESTS
        assert counts.spans_added - added == per_request * REQUESTS
        assert _observations(handle.server) - observed == per_request * REQUESTS
    finally:
        client.close()
        handle.stop()
        store.close()


def test_instrumentation_overhead_within_10_percent_on_cached_serving(counts):
    _cached_round(counts, instrument=False)
    _cached_round(counts, instrument=True)
