"""Benchmark harness: the one timing loop and the paper's experiment drivers."""

from repro.bench.harness import measure_throughput

__all__ = ["measure_throughput"]
