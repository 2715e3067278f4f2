"""Acceptance gate: a served request pays only for the observability that is read.

Every request keeps its root timer, one latency-histogram observation (the
``/stats`` ``latency`` block) and the slow-log threshold check.  A
:class:`~repro.obs.tracing.Trace` and its span records are built only when
someone will read them: when the request carries ``x-trace-id`` (the router
sends it, and a shard server ships the spans back), or -- one root-only
tree -- when the request crosses ``slow_threshold``.  The gate counts that
work instead of timing it (a wall-clock ratio of two servers on a shared
host fails on scheduler luck):

* N local ``/query`` requests, cached or not, create zero traces and zero
  span records, and make exactly N latency observations;
* a request with ``x-trace-id`` creates exactly one trace: its root span,
  parented under the caller's span, and the ``run_batch`` child below it;
* a local request over ``slow_threshold=0`` lands in ``/slow-queries`` with
  its one-node tree.
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
        self.traces = []
        self.span_records = 0


@pytest.fixture()
def counts(monkeypatch):
    """Count every trace and span record the process makes."""
    seen = _Counts()

    class CountingTrace(tracing.Trace):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            seen.traces.append(self)

    original = tracing.new_span_record

    def counting_span_record(*args, **kwargs):
        seen.span_records += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(tracing, "Trace", CountingTrace)
    monkeypatch.setattr(tracing, "new_span_record", counting_span_record)
    return seen


@pytest.fixture()
def served():
    store = IntervalStore.open(_collection(), "hintm_opt")
    handles = []

    def serve(**kwargs):
        handle = start_server_thread(store, **kwargs)
        handles.append(handle)
        return handle, ServeClient(port=handle.port)

    yield serve
    for handle in handles:
        handle.stop()
    store.close()


def _observations(server) -> int:
    """Latency-histogram observations so far, over every operation class."""
    return sum(
        histogram.summary()["count"] for _, histogram in server._m_latency.samples()
    )


@pytest.mark.parametrize("cached", [True, False], ids=["cached", "uncached"])
def test_local_requests_build_no_trace_and_observe_once(counts, served, cached):
    handle, client = served(cache=1024 if cached else 0)
    with client:
        client.query(100_000, 140_000)  # primes the cache entry when cached
        traces, records = len(counts.traces), counts.span_records
        observed = _observations(handle.server)
        hits = handle.server.cache.hits
        for _ in range(REQUESTS):
            client.query(100_000, 140_000)
        assert handle.server.cache.hits == hits + (REQUESTS if cached else 0)
        assert len(counts.traces) == traces
        assert counts.span_records == records
        assert _observations(handle.server) == observed + REQUESTS
        assert client.stats()["latency"]["query"]["count"] == REQUESTS + 1


def test_a_traced_request_builds_one_trace_with_its_store_span(counts, served):
    _, client = served(cache=0)
    with client:
        answer = client._request(
            "POST",
            "/query",
            {"start": 100_000, "end": 140_000},
            headers={tracing.TRACE_HEADER: "feedface", tracing.PARENT_HEADER: "caller"},
        )
        assert answer["count"] == len(answer["ids"])
        assert len(counts.traces) == 1
        (trace,) = counts.traces
        assert trace.trace_id == "feedface"
        (root,) = trace.tree()
        assert root["name"] == "server:/query"
        assert root["parent_id"] == "caller"
        assert root["tags"]["status"] == 200
        assert [child["name"] for child in root["children"]] == ["run_batch"]
        assert counts.span_records == len(trace.spans()) == 2


def test_a_slow_local_request_lands_with_its_root_only_tree(counts, served):
    _, client = served(cache=0, slow_threshold=0.0)
    with client:
        client.query(100_000, 140_000)
        (entry,) = client.slow_queries()["slow_queries"]
    assert entry["endpoint"] == "/query"
    assert entry["args"] == {"start": 100_000, "end": 140_000, "count_only": False}
    (root,) = entry["trace"]
    assert root["trace_id"] == entry["trace_id"]
    assert root["name"] == "server:/query"
    assert root["parent_id"] is None
    assert root["children"] == []
    assert root["tags"] == {"method": "POST", "status": 200}
    assert root["duration_ms"] == pytest.approx(entry["duration_ms"], abs=1.0)
    assert root["start"] <= entry["recorded_at"]
    assert len(counts.traces) == 1 and counts.span_records == 1
