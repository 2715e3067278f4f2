"""Unit tests for the experiment drivers (repro.bench.experiments).

The drivers are exercised at a very small scale so the suite stays fast; the
benchmarks run the same code at measurement scale.
"""

import pytest

from repro.bench import experiments
from repro.core.interval import IntervalCollection
from repro.datasets.real_like import generate_books_like, generate_taxis_like


@pytest.fixture(scope="module")
def tiny_datasets():
    return {
        "BOOKS": generate_books_like(cardinality=400, seed=3),
        "TAXIS": generate_taxis_like(cardinality=400, seed=3),
    }


class TestDefaults:
    def test_default_real_like_datasets(self):
        datasets = experiments.default_real_like_datasets(cardinality=50)
        assert set(datasets) == {"BOOKS", "WEBKIT", "TAXIS", "GREEND"}
        assert all(len(c) == 50 for c in datasets.values())

    def test_competitor_configs_cover_paper_baselines(self):
        assert set(experiments.COMPETITOR_CONFIGS) == {
            "interval-tree",
            "period-index",
            "timeline",
            "1d-grid",
        }


class TestFigureDrivers:
    def test_fig10(self, tiny_datasets):
        result = experiments.fig10_evaluation_approaches(
            tiny_datasets, m_values=(4, 6), num_queries=10
        )
        assert set(result) == set(tiny_datasets)
        for series in result.values():
            assert series["m"] == [4, 6]
            assert len(series["top-down"]) == len(series["bottom-up"]) == 2
            assert all(v > 0 for v in series["top-down"] + series["bottom-up"])

    def test_fig11(self, tiny_datasets):
        result = experiments.fig11_subdivision_variants(
            tiny_datasets, m_values=(4, 6), num_queries=10
        )
        for metrics in result.values():
            assert metrics["m"] == [4, 6]
            for metric in ("size_mb", "build_s", "throughput"):
                assert set(metrics[metric]) == {
                    "base",
                    "subs+sort",
                    "subs+sopt",
                    "subs+sort+sopt",
                }
                assert all(len(v) == 2 for v in metrics[metric].values())

    def test_fig12(self, tiny_datasets):
        result = experiments.fig12_optimizations(
            tiny_datasets, m_values=(4, 6), num_queries=10
        )
        for metrics in result.values():
            assert set(metrics["throughput"]) == {
                "subs+sort+sopt",
                "skew&sparsity",
                "cache misses",
                "all optimizations",
            }

    def test_fig13(self, tiny_datasets):
        result = experiments.fig13_real_throughput(
            tiny_datasets, extents=(0.0, 0.01), num_queries=10
        )
        for series in result.values():
            assert series["extent"] == [0.0, 1.0]
            for name, values in series.items():
                if name == "extent":
                    continue
                assert len(values) == 2
                assert all(v > 0 for v in values)

    def test_fig14(self):
        sweep = experiments.SyntheticSweep("cardinality", (200, 400))
        result = experiments.fig14_synthetic_throughput(
            sweeps=(sweep,), num_queries=10, hint_m_bits=6
        )
        assert set(result) == {"cardinality"}
        series = result["cardinality"]
        assert series["value"] == [200, 400]
        assert "hint-m" in series and "interval-tree" in series


class TestTableDrivers:
    def test_table6(self, tiny_datasets):
        rows = experiments.table6_hint_sparsity(tiny_datasets, num_bits=10, num_queries=10)
        assert len(rows) == len(tiny_datasets)
        for name, qps_orig, qps_opt, mb_orig, mb_opt in rows:
            assert name in tiny_datasets
            assert qps_orig > 0 and qps_opt > 0
            assert mb_opt <= mb_orig

    def test_table7(self, tiny_datasets):
        rows = experiments.table7_parameter_setting(
            tiny_datasets, candidate_m=(4, 6), num_queries=10
        )
        assert {row["dataset"] for row in rows} == set(tiny_datasets)
        for row in rows:
            assert row["m_opt_measured"] in (4, 6)
            assert row["k_measured"] >= 1.0
            assert row["avg_compared_partitions"] >= 0.0

    def test_table8_and_table9(self, tiny_datasets):
        sizes = experiments.table8_index_sizes(tiny_datasets)
        times = experiments.table9_index_times(tiny_datasets)
        assert len(sizes) == len(times) == len(tiny_datasets)
        for _, per_index in sizes:
            assert {"interval-tree", "period-index", "timeline", "1d-grid", "hint", "hint-m"} == set(
                per_index
            )
            assert all(v > 0 for v in per_index.values())
        for _, per_index in times:
            assert all(v > 0 for v in per_index.values())

    def test_table10(self, tiny_datasets):
        result = experiments.table10_updates(
            tiny_datasets,
            num_queries=10,
            num_insertions=10,
            num_deletions=5,
            hint_m_bits=6,
        )
        for rows in result.values():
            names = {row["index"] for row in rows}
            assert "hybrid hint-m" in names and "interval-tree" in names
            assert all(row["total_seconds"] > 0 for row in rows)

    def test_table10_empty_dataset_guarded(self):
        result = experiments.table10_updates(
            {"EMPTY": IntervalCollection.from_pairs([(0, 5), (2, 8), (4, 9), (1, 3)] * 5)},
            num_queries=5,
            num_insertions=2,
            num_deletions=1,
            hint_m_bits=4,
        )
        assert "EMPTY" in result

