"""Unit tests for the experiment drivers (repro.bench.experiments) and the
paper-suite entry point (scripts/run_experiments.py).

The drivers are exercised at a very small scale so the suite stays fast; the
entry point runs the same code at measurement scale.
"""

import collections
import importlib.util
import json
import math
from pathlib import Path

import pytest

from repro.bench import experiments
from repro.core.interval import IntervalCollection
from repro.datasets.real_like import generate_books_like, generate_taxis_like
from repro.hint import optimized

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_experiments.py"
_spec = importlib.util.spec_from_file_location("run_experiments", _SCRIPT)
run_experiments = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run_experiments)

KEY_FIELDS = ("experiment", "dataset", "series", "x_name", "x", "metric")
PAPER_INDEXES = {"interval-tree", "period-index", "timeline", "1d-grid", "hint", "hint-m"}


@pytest.fixture(scope="module")
def tiny_datasets():
    return {
        "BOOKS": generate_books_like(cardinality=400, seed=3),
        "TAXIS": generate_taxis_like(cardinality=400, seed=3),
    }


def _check_flat(records, experiment):
    """Every record is flat: the six key fields plus a finite ``value``."""
    assert records
    for record in records:
        assert set(record) == {*KEY_FIELDS, "value"}, record
        assert record["experiment"] == experiment
        assert math.isfinite(record["value"]), record


def _values(records, metric, series=None):
    return [
        r["value"] for r in records
        if r["metric"] == metric and (series is None or r["series"] == series)
    ]


def _series(records, metric=None):
    return {r["series"] for r in records if metric is None or r["metric"] == metric}


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
        records = experiments.fig10_evaluation_approaches(
            tiny_datasets, m_values=(4, 6), num_queries=10
        )
        _check_flat(records, "fig10")
        assert {r["dataset"] for r in records} == set(tiny_datasets)
        assert _series(records) == {"top-down", "bottom-up"}
        assert {(r["x_name"], r["x"]) for r in records} == {("m", 4), ("m", 6)}
        assert all(v > 0 for v in _values(records, "throughput_qps"))

    @pytest.mark.parametrize(
        "driver, variants",
        [
            (experiments.fig11_subdivision_variants, experiments.FIG11_VARIANTS),
            (experiments.fig12_optimizations, experiments.FIG12_VARIANTS),
        ],
    )
    def test_fig11_and_fig12_variant_sweeps(self, tiny_datasets, driver, variants):
        records = driver(tiny_datasets, m_values=(4, 6), num_queries=10)
        _check_flat(records, records[0]["experiment"])
        cells = collections.Counter((r["dataset"], r["metric"], r["series"]) for r in records)
        assert set(cells) == {
            (dataset, metric, variant)
            for dataset in tiny_datasets
            for metric in ("size_mb", "build_s", "throughput_qps")
            for variant in variants
        }
        assert set(cells.values()) == {2}  # one record per m

    def test_fig13_times_a_labelled_batched_series(self, tiny_datasets):
        records = experiments.fig13_real_throughput(
            tiny_datasets, extents=(0.0, 0.01), num_queries=10
        )
        _check_flat(records, "fig13")
        assert {r["x"] for r in records} == {0.0, 1.0}
        assert _series(records) == PAPER_INDEXES | {"hint-m (batched)"}
        assert all(v > 0 for v in _values(records, "throughput_qps"))

    def test_fig14_sweep(self):
        records = experiments.fig14_synthetic_throughput(
            cardinality=300, sweeps={"cardinality": (200, 400)}, num_queries=10, hint_m_bits=6
        )
        _check_flat(records, "fig14")
        assert {r["dataset"] for r in records} == {"synthetic:cardinality"}
        assert sorted({r["x"] for r in records}) == [200, 400]
        assert {"hint-m", "interval-tree"} <= _series(records)

    def test_fig14_cardinality_panel_follows_the_base(self):
        records = experiments.fig14_synthetic_throughput(
            cardinality=80, num_queries=3, hint_m_bits=4
        )
        panels = collections.defaultdict(set)
        for record in records:
            panels[record["x_name"]].add(record["x"])
        assert set(panels) == {"domain_length", "cardinality", "alpha", "sigma", "query_extent"}
        assert sorted(panels["cardinality"]) == [20, 40, 80, 160, 320]


class TestTableDrivers:
    def test_table6(self, tiny_datasets):
        records = experiments.table6_hint_sparsity(tiny_datasets, num_bits=10, num_queries=10)
        _check_flat(records, "table6")
        assert {r["dataset"] for r in records} == set(tiny_datasets)
        assert all(v > 0 for v in _values(records, "throughput_qps"))
        for dataset in tiny_datasets:
            sizes = {
                r["series"]: r["value"] for r in records
                if r["dataset"] == dataset and r["metric"] == "size_mb"
            }
            assert sizes["optimized"] <= sizes["original"]

    def test_table7(self, tiny_datasets):
        records = experiments.table7_parameter_setting(
            tiny_datasets, candidate_m=(4, 6), num_queries=10
        )
        _check_flat(records, "table7")
        assert {r["dataset"] for r in records} == set(tiny_datasets)
        assert set(_values(records, "m_opt", "measured")) <= {4, 6}
        assert all(k >= 1.0 for k in _values(records, "k", "measured"))
        assert all(v >= 0.0 for v in _values(records, "avg_compared_partitions"))
        assert len(_values(records, "throughput_qps")) == 2 * len(tiny_datasets)

    def test_table8_and_table9(self, tiny_datasets):
        sizes = experiments.table8_index_sizes(tiny_datasets)
        times = experiments.table9_index_times(tiny_datasets)
        _check_flat(sizes, "table8")
        _check_flat(times, "table9")
        for records in (sizes, times):
            assert len(records) == len(PAPER_INDEXES) * len(tiny_datasets)
            assert _series(records) == PAPER_INDEXES
            assert all(r["value"] > 0 for r in records)

    def test_table10(self, tiny_datasets):
        records = experiments.table10_updates(
            tiny_datasets,
            num_queries=10,
            num_insertions=10,
            num_deletions=5,
            hint_m_bits=6,
        )
        _check_flat(records, "table10")
        assert {"hybrid hint-m", "interval-tree"} <= _series(records)
        assert all(v > 0 for v in _values(records, "total_s"))

    def test_table10_empty_dataset_guarded(self):
        records = experiments.table10_updates(
            {"EMPTY": IntervalCollection.from_pairs([(0, 5), (2, 8), (4, 9), (1, 3)] * 5)},
            num_queries=5,
            num_insertions=2,
            num_deletions=1,
            hint_m_bits=4,
        )
        assert {r["dataset"] for r in records} == {"EMPTY"}

    def test_batch_crossover_restores_the_constant(self):
        before = optimized._BATCH_CROSSOVER
        records = experiments.batch_crossover(cardinality=300)
        assert optimized._BATCH_CROSSOVER == before
        _check_flat(records, "batch_crossover")
        assert {r["metric"] for r in records} == {"us_per_query"}
        assert _series(records, "us_per_query") == {"loop", "kernel"}
        assert sorted({r["x"] for r in records}) == [1, 2, 4, 8, 16, 32, 64, 128, 256, 512]


class _CountingSpy:
    """A built index that counts how the drivers query it."""

    def __init__(self, backend, index):
        self.backend, self._index = backend, index
        self.calls = collections.Counter()

    def query(self, query):
        self.calls["query"] += 1
        return self._index.query(query)

    def query_batch(self, queries):
        self.calls["query_batch"] += 1
        return self._index.query_batch(queries)

    def __getattr__(self, name):
        return getattr(self._index, name)


class TestEntryPoint:
    def test_one_flat_ledger_and_one_execution_model(self, tmp_path, monkeypatch):
        spies = []
        create_index = experiments.create_index

        def spying_create_index(name, collection, **opts):
            spies.append(_CountingSpy(name, create_index(name, collection, **opts)))
            return spies[-1]

        monkeypatch.setattr(experiments, "create_index", spying_create_index)
        assert run_experiments.main([
            "--cardinality", "300", "--queries", "8",
            "--only", "fig13", "table8", "--output", str(tmp_path),
        ]) == 0

        records = json.loads((tmp_path / "paper_ledger.json").read_text())
        assert {r["experiment"] for r in records} == {"fig13", "table8"}
        for record in records:
            assert all(field in record for field in KEY_FIELDS), record
            assert math.isfinite(record["value"]), record
        fig13 = [r for r in records if r["experiment"] == "fig13"]
        assert "hint-m (batched)" in _series(fig13)

        extents = len({r["x"] for r in fig13})
        timed = [spy for spy in spies if spy.calls]
        assert len(timed) == len(PAPER_INDEXES) * 4  # fig13's indexes, four datasets
        for spy in timed:
            # every throughput series runs its 8 queries one at a time
            assert spy.calls["query"] == 8 * extents, spy.backend
        batched = [spy for spy in timed if spy.calls["query_batch"]]
        # ... and only hint-m (batched) goes through query_batch, once per extent
        assert [spy.backend for spy in batched] == ["hintm_opt"] * 4
        assert all(spy.calls["query_batch"] == extents for spy in batched)

    def test_ledger_keeps_the_experiments_finished_before_a_failure(
        self, tmp_path, monkeypatch
    ):
        def failing(*args, **kwargs):
            raise RuntimeError("experiment failed")

        monkeypatch.setattr(experiments, "table9_index_times", failing)
        with pytest.raises(RuntimeError, match="experiment failed"):
            run_experiments.main([
                "--cardinality", "300", "--only", "table8", "table9",
                "--output", str(tmp_path),
            ])
        records = json.loads((tmp_path / "paper_ledger.json").read_text())
        assert records and {r["experiment"] for r in records} == {"table8"}
