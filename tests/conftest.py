"""Shared fixtures for the HINT reproduction test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.interval import Interval, IntervalCollection, Query
from repro.datasets.real_like import generate_books_like, generate_taxis_like
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic
from repro.queries.generator import QueryWorkloadConfig, generate_queries


@pytest.fixture(scope="session")
def tiny_collection() -> IntervalCollection:
    """A handful of hand-picked intervals covering the paper's running examples."""
    return IntervalCollection.from_intervals(
        [
            Interval(0, 5, 9),     # the paper's [5, 9] example
            Interval(1, 0, 15),    # spans the whole domain
            Interval(2, 3, 3),     # point interval
            Interval(3, 10, 12),
            Interval(4, 7, 8),
            Interval(5, 14, 15),
            Interval(6, 0, 0),
            Interval(7, 8, 13),
        ]
    )


@pytest.fixture(scope="session")
def synthetic_collection() -> IntervalCollection:
    """A moderate synthetic dataset (Table 5 generator, scaled down)."""
    return generate_synthetic(
        SyntheticConfig(domain_length=60_000, cardinality=3_000, alpha=1.2, sigma=6_000, seed=17)
    )


@pytest.fixture(scope="session")
def books_like_collection() -> IntervalCollection:
    """A BOOKS-like dataset: long intervals relative to the domain."""
    return generate_books_like(cardinality=2_000, seed=23)


@pytest.fixture(scope="session")
def taxis_like_collection() -> IntervalCollection:
    """A TAXIS-like dataset: very short intervals, skewed positions."""
    return generate_taxis_like(cardinality=3_000, seed=29)


@pytest.fixture(scope="session")
def synthetic_queries(synthetic_collection) -> list[Query]:
    """A mixed workload of range and stabbing queries over the synthetic data."""
    ranged = generate_queries(
        synthetic_collection,
        QueryWorkloadConfig(count=120, extent_fraction=0.01, placement="data", seed=31),
    )
    stabbing = generate_queries(
        synthetic_collection, QueryWorkloadConfig(count=60, extent_fraction=0.0, seed=37)
    )
    wide = generate_queries(
        synthetic_collection, QueryWorkloadConfig(count=20, extent_fraction=0.2, seed=41)
    )
    return ranged + stabbing + wide


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(4242)


@pytest.fixture(scope="session")
def pending_updates(rng):
    """``apply(index, collection)``: leave 60 inserts + 30 deletes pending on
    ``index`` and return the brute-force count oracle over the live set."""

    def apply(index, collection, inserts=60, deletes=30):
        live = {
            int(i): (int(s), int(e))
            for i, s, e in zip(collection.ids, collection.starts, collection.ends)
        }
        lo, hi = collection.span()
        next_id = max(live) + 1
        for offset in range(inserts):
            start = int(rng.integers(lo, hi))
            interval = Interval(next_id + offset, start, start + int(rng.integers(0, 2_000)))
            try:
                index.insert(interval)
            except NotImplementedError:  # delete-only backend (hintm_opt)
                break
            live[interval.id] = (interval.start, interval.end)
        for victim in collection.ids[:deletes]:
            assert index.delete(int(victim))
            del live[int(victim)]
        starts = np.array([span[0] for span in live.values()])
        ends = np.array([span[1] for span in live.values()])
        return lambda queries: [
            int(((starts <= q.end) & (ends >= q.start)).sum()) for q in queries
        ]

    return apply


@pytest.fixture
def forbid_shard_probes(monkeypatch):
    """``forbid(index)``: make every probe of a sharded ``index``'s shard
    backend, every shard access (probe or lazy build) and every pool
    submission raise, so a count or exists that still answers touched
    neither a shard index nor the pool.  ``monkeypatch`` undoes it."""
    from repro.engine import ProcessExecutor, ShardedIndex, get_backend

    def forbidden(*args, **kwargs):  # pragma: no cover - failure path
        raise AssertionError("a count reached a shard index or the pool")

    def forbid(index):
        for name in ("query", "query_count", "query_exists"):
            monkeypatch.setattr(get_backend(index.backend), name, forbidden)
        monkeypatch.setattr(ShardedIndex, "_shard", forbidden)
        for name in ("submit", "map"):
            monkeypatch.setattr(ProcessExecutor, name, forbidden)

    return forbid
