"""Tests for the pluggable executor layer (repro.engine.executor)."""

import pytest

from repro.cli import main as cli_main
from repro.engine import IntervalStore, recommend_shard_count
from repro.engine.batch import execute_batch
from repro.engine.executor import (
    EXECUTOR_KINDS,
    Executor,
    ProcessExecutor,
    SerialExecutor,
    resolve_executor,
    split_chunks,
)
from repro.engine.registry import create_index


class TestSplitChunks:
    def test_concatenation_restores_input(self):
        items = list(range(103))
        for n in (1, 2, 3, 7, 103, 500):
            chunks = split_chunks(items, n)
            assert [x for chunk in chunks for x in chunk] == items
            assert all(chunk for chunk in chunks)  # no empty chunks
            assert len(chunks) <= n

    def test_near_equal_sizes(self):
        sizes = [len(c) for c in split_chunks(list(range(10)), 3)]
        assert max(sizes) - min(sizes) <= 1

    def test_empty_input(self):
        assert split_chunks([], 4) == []


class TestSerialExecutor:
    def test_map_preserves_order(self):
        assert SerialExecutor().map(lambda x: x * 2, [3, 1, 2]) == [6, 2, 4]

    def test_workers_is_one(self):
        assert SerialExecutor().workers == 1


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
    def test_defaults_to_serial(self):
        assert isinstance(resolve_executor(None), SerialExecutor)
        assert isinstance(resolve_executor("serial"), SerialExecutor)
        assert isinstance(resolve_executor(1), SerialExecutor)

    def test_worker_counts(self):
        """``workers`` sizes the process pool; alone, only 1 (serial) is valid."""
        assert isinstance(resolve_executor(None, 1), SerialExecutor)
        assert isinstance(resolve_executor("serial", 1), SerialExecutor)
        assert resolve_executor("processes", 3).workers == 3

    def test_processes_keyword(self):
        executor = resolve_executor("processes")
        assert isinstance(executor, ProcessExecutor)
        assert executor.workers >= 1
        sized = resolve_executor("processes", 3)
        assert isinstance(sized, ProcessExecutor)
        assert sized.workers == 3

    def test_legacy_workers_argument(self):
        """A spec passed through ``workers`` alone still resolves -- but a
        bare count no longer means a pool."""
        with pytest.raises(ValueError, match='executor="processes"'):
            resolve_executor(None, 4)
        assert isinstance(resolve_executor(None, "processes"), ProcessExecutor)
        assert isinstance(resolve_executor(None, None), SerialExecutor)

    def test_instances_pass_through(self):
        executor = SerialExecutor()
        assert resolve_executor(executor) is executor
        sized = ProcessExecutor(3)
        assert resolve_executor(sized, 3) is sized  # matching size is fine

    def test_rejects_conflicting_worker_counts(self):
        with pytest.raises(ValueError, match="cannot resize"):
            resolve_executor(ProcessExecutor(3), 8)
        with pytest.raises(ValueError, match="conflicting"):
            resolve_executor(4, 8)

    def test_rejects_non_positive_worker_counts(self):
        for bad in (0, -1):
            with pytest.raises(ValueError, match=">= 1"):
                resolve_executor(bad)
            with pytest.raises(ValueError, match=">= 1"):
                resolve_executor("processes", bad)
        with pytest.raises(ValueError):
            resolve_executor("serial", 4)  # serial is single-threaded

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            resolve_executor("fork-bomb")
        with pytest.raises(TypeError):
            resolve_executor(2.5)
        with pytest.raises(TypeError):
            resolve_executor(True)

    def test_custom_executor_subclass(self):
        class Doubler(Executor):
            name = "doubler"

            def map(self, fn, items):
                return [fn(item) for item in items]

        assert resolve_executor(Doubler()).name == "doubler"


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
            lambda c: IntervalStore.open(c, "naive", num_shards=2, executor=2),
            lambda c: recommend_shard_count(c, executor="threads"),
        ],
        ids=[
            "threads", "thread", "procs", "int", "workers-alone",
            "store-workers", "sharded-executor-int", "recommend-threads",
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


class TestExecuteBatchWithExecutor:
    def test_parallel_matches_serial(self, synthetic_collection, synthetic_queries):
        index = create_index("hintm_opt", synthetic_collection, num_bits=8)
        serial = execute_batch(index, synthetic_queries)
        with ProcessExecutor(2) as executor:
            parallel = execute_batch(index, synthetic_queries, executor=executor)
        assert [sorted(ids) for ids in parallel.ids] == [
            sorted(ids) for ids in serial.ids
        ]
        assert parallel.counts == serial.counts

    def test_parallel_count_only(self, synthetic_collection, synthetic_queries):
        index = create_index("grid1d", synthetic_collection, num_partitions=64)
        serial = execute_batch(index, synthetic_queries, count_only=True)
        with ProcessExecutor(2) as executor:
            parallel = execute_batch(
                index, synthetic_queries, count_only=True, executor=executor
            )
        assert parallel.ids is None
        assert parallel.counts == serial.counts
