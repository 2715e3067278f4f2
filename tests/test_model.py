"""Unit tests for the analytical model (paper Sections 3.2.3 / 3.3)."""

import pytest

from repro.hint.hintm import HINTm
from repro.hint.model import (
    BETA_LEVEL,
    CostModel,
    DatasetStatistics,
    estimate_m_opt,
    expected_comparison_partitions,
    expected_result_count,
    replication_factor,
)


@pytest.fixture(scope="module")
def stats_long():
    """BOOKS-like statistics: long intervals (about 7% of the domain)."""
    return DatasetStatistics(
        cardinality=100_000,
        mean_interval_length=0.07 * 31_507_200,
        domain_length=31_507_200,
        domain_bits=25,
    )


@pytest.fixture(scope="module")
def stats_short():
    """TAXIS-like statistics: very short intervals."""
    return DatasetStatistics(
        cardinality=200_000,
        mean_interval_length=758,
        domain_length=31_768_287,
        domain_bits=25,
    )


class TestDatasetStatistics:
    def test_from_collection(self, synthetic_collection):
        stats = DatasetStatistics.from_collection(synthetic_collection)
        assert stats.cardinality == len(synthetic_collection)
        assert stats.domain_length == synthetic_collection.domain_length()
        assert stats.mean_interval_length == pytest.approx(
            synthetic_collection.mean_duration()
        )
        assert stats.domain_bits >= 1


class TestReplicationFactor:
    def test_long_intervals_replicate_more(self, stats_long, stats_short):
        """Theorem 1: BOOKS-like data has a much larger k than TAXIS-like data."""
        m = 10
        assert replication_factor(stats_long, m) > replication_factor(stats_short, m)

    def test_k_grows_with_m(self, stats_long):
        values = [replication_factor(stats_long, m) for m in range(5, 20)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_k_at_least_one(self, stats_short):
        assert replication_factor(stats_short, 5) >= 1.0

    def test_k_close_to_paper_for_books_profile(self, stats_long):
        """The paper's Table 7 predicts k around 6 for BOOKS at m=10."""
        assert 4.0 <= replication_factor(stats_long, 10) <= 9.0

    def test_prediction_tracks_measured_replication(self, books_like_collection):
        stats = DatasetStatistics.from_collection(books_like_collection)
        index = HINTm(books_like_collection, num_bits=10)
        predicted = replication_factor(stats, 10)
        measured = index.replication_factor
        assert predicted == pytest.approx(measured, rel=0.6)


class TestExpectedCounts:
    def test_expected_result_count_scales_with_extent(self, stats_long):
        small = expected_result_count(stats_long, 1_000)
        large = expected_result_count(stats_long, 1_000_000)
        assert large > small > 0

    def test_expected_comparison_partitions_bounds(self):
        assert expected_comparison_partitions(10, 1_000_000, 31_000_000) == pytest.approx(4.0)
        tiny = expected_comparison_partitions(10, 0, 31_000_000)
        assert 1.0 <= tiny <= 4.0

    def test_expected_comparison_partitions_monotone_in_extent(self):
        values = [
            expected_comparison_partitions(12, extent, 1_000_000)
            for extent in (0, 10, 100, 1_000, 100_000)
        ]
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestCostModel:
    def test_comparison_cost_decreases_with_m(self, stats_long):
        model = CostModel(stats=stats_long)
        costs = [model.comparison_cost(m) for m in range(5, 20)]
        assert all(b <= a for a, b in zip(costs, costs[1:]))

    def test_access_cost_nonnegative(self, stats_long):
        model = CostModel(stats=stats_long)
        for m in range(5, 22):
            assert model.access_cost(m, 31_507) >= 0.0

    def test_query_cost_converges(self, stats_long):
        model = CostModel(stats=stats_long)
        extent = 0.001 * stats_long.domain_length
        late = model.query_cost(stats_long.domain_bits, extent)
        early = model.query_cost(3, extent)
        assert early > late

    def test_space_cost_grows_with_m(self, stats_long):
        model = CostModel(stats=stats_long)
        assert model.space_cost(16) >= model.space_cost(8)


class TestMOpt:
    def test_m_opt_within_range(self, stats_long):
        m_opt = estimate_m_opt(stats_long, query_extent=0.001 * stats_long.domain_length)
        assert 1 <= m_opt <= stats_long.domain_bits

    def test_m_opt_smaller_for_long_intervals(self, stats_long, stats_short):
        """Table 7: BOOKS needs a much smaller m_opt than TAXIS."""
        extent_long = 0.001 * stats_long.domain_length
        extent_short = 0.001 * stats_short.domain_length
        m_long = estimate_m_opt(stats_long, extent_long)
        m_short = estimate_m_opt(stats_short, extent_short)
        assert m_long < m_short

    def test_m_opt_respects_max_m(self, stats_short):
        m_opt = estimate_m_opt(stats_short, query_extent=1_000, max_m=12)
        assert m_opt <= 12

    def test_m_opt_books_profile_close_to_paper(self, stats_long):
        """The paper's model picks m_opt = 9-10 for BOOKS."""
        m_opt = estimate_m_opt(stats_long, query_extent=0.001 * stats_long.domain_length)
        assert 6 <= m_opt <= 14

    def test_m_opt_minimises_the_priced_cost(self, stats_short):
        extent = 0.001 * stats_short.domain_length
        model = CostModel(stats=stats_short)
        costs = {m: model.query_cost(m, extent) for m in range(1, stats_short.domain_bits + 1)}
        m_opt = estimate_m_opt(stats_short, extent)
        assert costs[m_opt] == min(costs.values())
        assert all(costs[m] > costs[m_opt] for m in range(1, m_opt))  # ties: the smaller m
        # the walk's price bounds m well below the domain's resolution
        assert m_opt < stats_short.domain_bits

    def test_walk_cost_is_linear_in_levels(self, stats_short):
        model = CostModel(stats=stats_short)
        assert model.walk_cost(13) - model.walk_cost(12) == pytest.approx(BETA_LEVEL)
        assert model.walk_cost(0) == pytest.approx(BETA_LEVEL)


class TestGatedBands:
    """``num_bits="auto"`` lands where the m-sweep (``scripts/m_sweep.py``,
    seed 1) measured a lone query at <= 0.80x and a 500-query batch at
    <= 1.00x of their cost at m = 16 -- from the statistics alone, with
    nothing built or timed."""

    @staticmethod
    def _auto(stats: DatasetStatistics) -> int:
        return estimate_m_opt(stats, 0.001 * stats.domain_length)

    def test_core_scan(self):
        assert self._auto(DatasetStatistics(400_000, 740.5, 31_768_190, 25)) in {12, 13}

    def test_serve_uniform(self):
        assert self._auto(DatasetStatistics(200_000, 744.0, 31_768_286, 25)) in {11, 12, 13}

    def test_mixed_rw_shard(self):
        # read off the first of the two shards the seed-1 workload builds
        stats = DatasetStatistics(50_069, 705.7656633845294, 15_882_454, 24)
        assert self._auto(stats) in {10, 11, 12}
