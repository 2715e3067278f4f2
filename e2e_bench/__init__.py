"""End-to-end benchmark of the HINT reproduction (see README.md here).

The contract (metric names, units, bounds, workloads) is ``BENCHMARK.json``
at the repository root; ``run.py`` is the one entry point.
"""
