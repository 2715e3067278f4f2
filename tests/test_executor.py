"""Tests for the process pool and its spec (repro.engine.executor)."""

import pytest

from repro.cli import main as cli_main
from repro.engine import IntervalStore, recommend_shard_count
from repro.engine.executor import EXECUTOR_KINDS, ProcessExecutor, resolve_executor


def _square(x):
    """Module-level so process pools can pickle it."""
    return x * x


def _pid_of(_x):
    import os

    return os.getpid()


class TestProcessExecutor:
    def test_map_preserves_order(self):
        with ProcessExecutor(2) as executor:
            assert executor.map(_square, list(range(20))) == [x * x for x in range(20)]

    def test_runs_in_worker_processes(self):
        import os

        with ProcessExecutor(2) as executor:
            pids = set(executor.map(_pid_of, list(range(8))))
        assert os.getpid() not in pids

    def test_single_item_runs_inline(self):
        executor = ProcessExecutor(4)
        assert executor.map(_square, [3]) == [9]
        assert executor._pool is None  # no pool spun up for trivial work
        executor.close()

    def test_close_is_idempotent(self):
        executor = ProcessExecutor(2)
        executor.map(_square, [1, 2, 3])
        executor.close()
        executor.close()

    def test_start_method_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_MP_START_METHOD", "spawn")
        assert ProcessExecutor(2).start_method == "spawn"

    def test_executor_kinds_lists_both(self):
        assert [name for name, _ in EXECUTOR_KINDS] == ["serial", "processes"]


class TestResolveExecutor:
    def test_serial_is_no_pool(self):
        assert resolve_executor(None) is None
        assert resolve_executor("serial") is None
        assert resolve_executor(None, 1) is None
        assert resolve_executor("serial", 1) is None

    def test_processes_keyword(self):
        executor = resolve_executor("processes")
        assert isinstance(executor, ProcessExecutor)
        assert executor.workers >= 1
        sized = resolve_executor("processes", 3)
        assert isinstance(sized, ProcessExecutor)
        assert sized.workers == 3

    def test_instances_pass_through(self):
        sized = ProcessExecutor(3)
        assert resolve_executor(sized) is sized
        assert resolve_executor(sized, 3) is sized  # matching size is fine

    def test_rejects_conflicting_worker_counts(self):
        with pytest.raises(ValueError, match="cannot resize"):
            resolve_executor(ProcessExecutor(3), 8)

    def test_rejects_non_positive_worker_counts(self):
        with pytest.raises(ValueError, match=">= 1"):
            resolve_executor("processes", 0)
        with pytest.raises(ValueError, match=">= 1"):
            resolve_executor("processes", -1)
        with pytest.raises(ValueError):
            resolve_executor("serial", 4)  # serial is single-threaded

    def test_rejects_garbage(self):
        for bad in ("fork-bomb", 1, 2.5, True):
            with pytest.raises(ValueError, match="unknown executor"):
                resolve_executor(bad)

    def test_workers_is_a_count_not_a_pool(self, synthetic_collection):
        """A pool handed over as ``workers`` is a type error: a pool is
        always the ``executor``."""
        pool = ProcessExecutor(2)
        with pytest.raises(TypeError, match="worker count must be an int"):
            resolve_executor(None, pool)
        with pytest.raises(TypeError, match="worker count must be an int"):
            resolve_executor("processes", "processes")
        for num_shards in (1, 2):
            with pytest.raises(TypeError, match="worker count must be an int"):
                IntervalStore.open(synthetic_collection, "naive", num_shards=num_shards, workers=pool)
        assert pool._pool is None


class TestOneDefaultWorkerCount:
    """The pool, the shard-count model and ``maintain --recommend-only``
    size themselves by the one default, ``min(available_cores(), 8)``."""

    def test_a_16_core_host_sizes_everything_at_8(
        self, synthetic_collection, monkeypatch, tmp_path, capsys
    ):
        import repro.engine.executor as executor_module
        from repro.datasets import save_intervals_csv

        def no_process(self):  # pragma: no cover - failure path
            raise AssertionError("sizing must start no process")

        monkeypatch.setattr(executor_module, "available_cores", lambda: 16)
        monkeypatch.setattr(ProcessExecutor, "_ensure_pool", no_process)
        assert ProcessExecutor().workers == 8
        # the model prices 8 workers: 16 shards would buy no more parallelism
        assert recommend_shard_count(
            synthetic_collection, "hintm_opt", executor="processes"
        ) == recommend_shard_count(
            synthetic_collection, "hintm_opt", executor="processes", workers=8
        ) == 8
        data = tmp_path / "data.csv"
        save_intervals_csv(synthetic_collection, data)
        assert cli_main(["maintain", str(data), "--index", "hintm_opt", "--recommend-only"]) == 0
        assert "processes  K=8  (workers=8)" in capsys.readouterr().out


class TestRemovedSpellings:
    """Thread pools and bare worker counts are gone: each spelling raises and
    names the fix instead of being ignored or re-routed to a process pool."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda c: resolve_executor("threads"),
            lambda c: resolve_executor("thread"),
            lambda c: resolve_executor("procs"),
            lambda c: resolve_executor(4),
            lambda c: resolve_executor(None, 4),
            lambda c: IntervalStore.open(c, "naive", workers=4),
            lambda c: IntervalStore.open(c, "naive", executor=1),
            lambda c: IntervalStore.open(c, "naive", num_shards=2, executor=2),
            lambda c: recommend_shard_count(c, executor="threads"),
        ],
        ids=[
            "threads", "thread", "procs", "int", "workers-alone",
            "store-workers", "store-executor-int", "sharded-executor-int",
            "recommend-threads",
        ],
    )
    def test_library_spellings_raise(self, synthetic_collection, call):
        with pytest.raises(ValueError, match='executor="processes"'):
            call(synthetic_collection)

    @pytest.mark.parametrize("flags", [["--workers", "4"], ["--executor", "threads"]])
    def test_cli_spellings_are_argparse_errors(self, tmp_path, flags):
        data = tmp_path / "data.csv"
        data.write_text("0,1,5\n1,3,9\n")
        queries = tmp_path / "queries.csv"
        queries.write_text("0,10\n")
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["batch", str(data), str(queries), *flags])
        assert excinfo.value.code == 2
