"""Shared fixtures for the benchmark suite.

Every benchmark regenerates one table or figure of the paper's Section 5 at
an interpreter-friendly scale and writes the resulting rows/series to
``benchmark_results/`` as plain text, so the numbers survive the run and can
be diffed against the committed copies there.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.bench.experiments import default_real_like_datasets
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic
from repro.queries.generator import QueryWorkloadConfig, generate_queries

#: scale knobs for the whole benchmark suite; raise these to approach the
#: paper's workload sizes (at the cost of much longer runs)
BENCH_CARDINALITY = 10_000
BENCH_QUERIES = 100


@pytest.fixture(scope="session")
def results_dir() -> Path:
    path = Path(__file__).resolve().parent.parent / "benchmark_results"
    path.mkdir(exist_ok=True)
    return path


@pytest.fixture(scope="session")
def real_like_datasets():
    """BOOKS/WEBKIT/TAXIS/GREEND stand-ins at benchmark scale."""
    return default_real_like_datasets(cardinality=BENCH_CARDINALITY, seed=7)


@pytest.fixture(scope="session")
def books_taxis_datasets(real_like_datasets):
    """The two datasets the paper uses for its optimization ablations."""
    return {name: real_like_datasets[name] for name in ("BOOKS", "TAXIS")}


@pytest.fixture(scope="session")
def synthetic_default():
    """The default synthetic dataset (Table 5 defaults, scaled)."""
    return generate_synthetic(
        SyntheticConfig(
            domain_length=2_000_000, cardinality=BENCH_CARDINALITY, alpha=1.2,
            sigma=200_000, seed=42,
        )
    )


@pytest.fixture(scope="session")
def synthetic_queries(synthetic_default):
    return generate_queries(
        synthetic_default,
        QueryWorkloadConfig(count=BENCH_QUERIES, extent_fraction=0.001, placement="data", seed=1),
    )


def save_report(results_dir: Path, name: str, text: str) -> None:
    """Persist one experiment's formatted output."""
    (results_dir / f"{name}.txt").write_text(text + "\n")
    print(f"\n{text}\n")
