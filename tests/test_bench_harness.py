"""Unit tests for the one timing loop (repro.bench.harness)."""

from repro.bench.harness import measure_throughput
from repro.engine import create_index


class TestMeasureThroughput:
    def test_times_each_query_through_query_not_query_batch(
        self, synthetic_collection, synthetic_queries
    ):
        calls = {"query": 0, "query_batch": 0}
        index = create_index("hintm_opt", synthetic_collection, num_bits=8)
        query, query_batch = index.query, index.query_batch

        def counted_query(q):
            calls["query"] += 1
            return query(q)

        def counted_batch(qs):
            calls["query_batch"] += 1
            return query_batch(qs)

        index.query, index.query_batch = counted_query, counted_batch
        result = measure_throughput(index, synthetic_queries[:30], repeats=2)
        assert result["qps"] > 0
        assert calls == {"query": 60, "query_batch": 0}

    def test_one_pass_gives_throughput_and_latency_quantiles(
        self, synthetic_collection, synthetic_queries
    ):
        index = create_index("hintm_opt", synthetic_collection, num_bits=8)
        result = measure_throughput(index, synthetic_queries[:30])
        assert set(result) == {"qps", "p50", "p95", "p99"}
        assert 0 < result["p50"] <= result["p95"] <= result["p99"]

    def test_empty_workload(self, synthetic_collection):
        index = create_index("naive-scan", synthetic_collection)
        assert measure_throughput(index, [])["qps"] == 0.0
