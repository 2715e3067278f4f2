"""Unit tests for the command-line interface (repro.cli)."""

import pytest

from repro.cli import build_parser, main
from repro.core.interval import Query
from repro.datasets.io import load_intervals_csv, save_intervals_csv


@pytest.fixture()
def csv_path(tmp_path, tiny_collection):
    path = tmp_path / "intervals.csv"
    save_intervals_csv(tiny_collection, path)
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_query_requires_target(self, csv_path):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["query", str(csv_path)])

    def test_known_indexes_listed(self):
        parser = build_parser()
        args = parser.parse_args(["query", "x.csv", "--stab", "3", "--index", "interval-tree"])
        assert args.index == "interval-tree"


class TestQueryCommand:
    def test_range_query_prints_sorted_ids(self, csv_path, capsys, tiny_collection):
        assert main(["query", str(csv_path), "--start", "4", "--end", "9"]) == 0
        output = capsys.readouterr().out.splitlines()
        ids = [int(line) for line in output if not line.startswith("#")]
        expected = sorted(tiny_collection.query_ids(Query(4, 9)).tolist())
        assert ids == expected

    def test_stab_query(self, csv_path, capsys):
        assert main(["query", str(csv_path), "--stab", "3"]) == 0
        output = capsys.readouterr().out
        assert "#" in output

    def test_count_only(self, csv_path, capsys):
        assert main(["query", str(csv_path), "--start", "0", "--end", "15", "--count-only"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
        assert lines == ["8"]

    def test_alternative_index(self, csv_path, capsys):
        assert main(
            ["query", str(csv_path), "--start", "4", "--end", "9", "--index", "1d-grid"]
        ) == 0
        baseline = [
            l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")
        ]
        assert main(["query", str(csv_path), "--start", "4", "--end", "9"]) == 0
        hint = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
        assert baseline == hint

    def test_missing_end_rejected(self, csv_path):
        with pytest.raises(SystemExit):
            main(["query", str(csv_path), "--start", "4"])

    def test_empty_csv_rejected(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(SystemExit):
            main(["query", str(empty), "--stab", "1"])


class TestListBackendsCommand:
    def test_lists_every_registered_backend(self, capsys):
        from repro.engine import available_backends

        assert main(["list-backends"]) == 0
        output = capsys.readouterr().out
        for name in available_backends():
            assert name in output
        assert "OptimizedHINTm" in output

    def test_index_choices_come_from_registry(self):
        # canonical names and legacy aliases both parse
        parser = build_parser()
        assert parser.parse_args(["query", "x.csv", "--stab", "1", "--index", "hintm_opt"])
        assert parser.parse_args(["query", "x.csv", "--stab", "1", "--index", "hint-m-opt"])
        with pytest.raises(SystemExit):
            parser.parse_args(["query", "x.csv", "--stab", "1", "--index", "b-tree"])


class TestBatchCommand:
    @pytest.fixture()
    def queries_path(self, tmp_path):
        path = tmp_path / "queries.csv"
        path.write_text("0,5\n4,9\n100,200\n")
        return path

    def test_batch_ids_match_per_query_results(
        self, csv_path, queries_path, capsys, tiny_collection
    ):
        assert main(["batch", str(csv_path), str(queries_path)]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
        assert len(lines) == 3
        for line, (start, end) in zip(lines, [(0, 5), (4, 9), (100, 200)]):
            got = sorted(int(token) for token in line.split()) if line else []
            expected = sorted(tiny_collection.query_ids(Query(start, end)).tolist())
            assert got == expected

    def test_batch_count_only(self, csv_path, queries_path, capsys, tiny_collection):
        assert main(["batch", str(csv_path), str(queries_path), "--count-only"]) == 0
        out = capsys.readouterr().out
        counts = [int(l) for l in out.splitlines() if not l.startswith("#")]
        expected = [
            len(tiny_collection.query_ids(Query(start, end)))
            for start, end in [(0, 5), (4, 9), (100, 200)]
        ]
        assert counts == expected
        assert "# index=" in out

    def test_empty_queries_rejected(self, csv_path, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(SystemExit):
            main(["batch", str(csv_path), str(empty)])


    def test_batch_maintenance_prints_its_line(self, csv_path, queries_path, capsys):
        assert main(
            ["batch", str(csv_path), str(queries_path), "--count-only", "--maintenance"]
        ) == 0
        lines = capsys.readouterr().out.splitlines()
        assert any(line.startswith("# maintenance: ") for line in lines)


class TestMaintainCommand:
    @pytest.fixture()
    def updates_csv(self, tmp_path):
        from repro.core.interval import IntervalCollection

        path = tmp_path / "updates.csv"
        save_intervals_csv(
            IntervalCollection.from_pairs([(10 * i, 10 * i + 25) for i in range(400)]),
            path,
        )
        return path

    def _maintain(self, csv, *extra):
        return main([
            "maintain", str(csv), "--shards", "2", "--inserts", "20",
            "--deletes", "10", "--queries", "10", *extra,
        ])

    @staticmethod
    def _summary(out):
        lines = [line for line in out.splitlines() if line.startswith("# maintain: ")]
        assert len(lines) == 1, out
        return lines[0]

    def test_unforced_pass_leaves_small_deltas(self, updates_csv, capsys):
        assert self._maintain(updates_csv) == 0
        # 20 inserts stay below the rebuild rule's floor
        assert "rebuilt shards" not in self._summary(capsys.readouterr().out)

    def test_forced_pass_rebuilds(self, updates_csv, capsys):
        assert self._maintain(updates_csv, "--force") == 0
        assert "rebuilt shards" in self._summary(capsys.readouterr().out)

    def test_checkpoint_with_wal_dir(self, updates_csv, tmp_path, capsys):
        from repro.durability.checkpoint import checkpoint_path

        wal_dir = tmp_path / "wal"
        assert self._maintain(updates_csv, "--wal-dir", str(wal_dir), "--checkpoint") == 0
        assert "checkpointed @ generation" in self._summary(capsys.readouterr().out)
        assert checkpoint_path(wal_dir).exists()

    def test_checkpoint_requires_wal_dir(self, updates_csv):
        with pytest.raises(SystemExit, match="--checkpoint requires --wal-dir"):
            self._maintain(updates_csv, "--checkpoint")


class TestBenchCommand:
    def test_bench_maintenance_prints_one_line_per_shard_count(self, csv_path, capsys):
        assert main([
            "bench", str(csv_path), "--num-queries", "20", "--repeats", "1",
            "--shards", "1", "2", "--maintenance",
        ]) == 0
        lines = capsys.readouterr().out.splitlines()
        for shards in (1, 2):
            assert any(
                line.startswith(f"# K={shards} maintenance: ") for line in lines
            ), lines

    def test_bench_rows_run_serial_whatever_the_executor_flag(self, csv_path, capsys):
        assert main([
            "bench", str(csv_path), "--num-queries", "20", "--repeats", "1",
            "--shards", "1", "2", "--executor", "processes", "--workers", "2",
        ]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("# bench times one query call at a time in-process")
        header, *rows = lines[1:]
        assert header.split()[:3] == ["shards", "build[s]", "q/s"]
        assert [row.split()[0] for row in rows] == ["1", "2"]
        assert not any("processes" in row for row in rows)


class TestStatsCommand:
    def test_stats_output(self, csv_path, capsys):
        assert main(["stats", str(csv_path)]) == 0
        output = capsys.readouterr().out
        assert "cardinality:" in output
        assert "model m_opt:" in output
        assert "predicted k" in output


class TestGenerateCommand:
    def test_generate_books(self, tmp_path, capsys):
        output = tmp_path / "books.csv"
        assert main(["generate", "books", "--cardinality", "200", "--output", str(output)]) == 0
        generated = load_intervals_csv(output)
        assert len(generated) == 200

    def test_generate_synthetic(self, tmp_path):
        output = tmp_path / "syn.csv"
        assert (
            main(
                [
                    "generate",
                    "synthetic",
                    "--cardinality",
                    "150",
                    "--domain",
                    "10000",
                    "--output",
                    str(output),
                ]
            )
            == 0
        )
        generated = load_intervals_csv(output)
        assert len(generated) == 150
        assert generated.ends.max() < 10000

    def test_roundtrip_query_on_generated_data(self, tmp_path, capsys):
        output = tmp_path / "taxis.csv"
        main(["generate", "taxis", "--cardinality", "300", "--output", str(output)])
        capsys.readouterr()
        assert (
            main(["query", str(output), "--start", "0", "--end", str(10**9), "--count-only"])
            == 0
        )
        lines = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
        assert int(lines[0]) >= 0


class TestSubscribeCommand:
    def test_follows_a_live_insert_as_an_added_delta(self, csv_path, capsys):
        import threading
        import time

        from repro.engine import IntervalStore
        from repro.serve.client import ServeClient
        from repro.serve.server import start_server_thread

        store = IntervalStore.open(load_intervals_csv(csv_path), "hintm_hybrid")
        handle = start_server_thread(store, cache=0)

        def insert_once_subscribed():
            deadline = time.monotonic() + 5
            while time.monotonic() < deadline:
                stream = handle.server.stream
                if stream is not None and stream.gauges()["subscriptions_active"]:
                    break
                time.sleep(0.02)
            with ServeClient(port=handle.port) as client:
                client.insert(100, 6, 7)

        writer = threading.Thread(target=insert_once_subscribed)
        writer.start()
        try:
            code = main([
                "subscribe", "--port", str(handle.port), "--start", "4", "--end", "9",
                "--duration", "1.5", "--poll-timeout", "0.5",
            ])
        finally:
            writer.join(timeout=10)
            handle.stop()
            store.close()
        assert not writer.is_alive()
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert any(line.startswith("# subscription ") for line in lines)
        assert any(line.startswith("# snapshot:") for line in lines)
        deltas = [line for line in lines if line.startswith("generation ")]
        assert any("+[100]" in line for line in deltas), lines
