"""Unit tests for the hybrid update setting (paper Sections 3.4 / 4.4)."""

import pytest

from repro.baselines.naive import NaiveIndex
from repro.core.interval import Interval, Query
from repro.hint.updates import HybridHINTm
from repro.queries.generator import QueryWorkloadConfig, generate_queries
from repro.queries.workload import Operation, generate_mixed_workload


class TestHybridBasics:
    def test_initial_state(self, synthetic_collection):
        hybrid = HybridHINTm(synthetic_collection, num_bits=8)
        assert len(hybrid) == len(synthetic_collection)
        assert hybrid.delta_size == 0
        assert hybrid.rebuilds == 0
        assert hybrid.num_bits == 8

    def test_insert_goes_to_delta(self, synthetic_collection):
        hybrid = HybridHINTm(synthetic_collection, num_bits=8)
        lo, _ = synthetic_collection.span()
        hybrid.insert(Interval(10_000_000, lo, lo + 10))
        assert hybrid.delta_size == 1
        assert len(hybrid) == len(synthetic_collection) + 1

    def test_query_sees_both_components(self, synthetic_collection):
        hybrid = HybridHINTm(synthetic_collection, num_bits=8)
        naive = NaiveIndex.build(synthetic_collection)
        lo, hi = synthetic_collection.span()
        new = Interval(10_000_001, lo + 5, lo + 100)
        hybrid.insert(new)
        naive.insert(new)
        q = Query(lo, lo + 50)
        assert sorted(hybrid.query(q)) == sorted(naive.query(q))

    def test_delete_from_main_and_delta(self, synthetic_collection):
        hybrid = HybridHINTm(synthetic_collection, num_bits=8)
        lo, hi = synthetic_collection.span()
        new = Interval(10_000_002, lo, lo + 20)
        hybrid.insert(new)
        assert hybrid.delete(10_000_002) is True          # delta
        assert hybrid.delete(int(synthetic_collection.ids[0])) is True   # main
        assert hybrid.delete(123_456_789) is False
        results = hybrid.query(Query(lo, hi))
        assert 10_000_002 not in results
        assert int(synthetic_collection.ids[0]) not in results

    def test_reinserted_id_does_not_resurrect_its_old_span(self, synthetic_collection):
        hybrid = HybridHINTm(synthetic_collection, num_bits=8)
        naive = NaiveIndex.build(synthetic_collection)
        lo, hi = synthetic_collection.span()
        main_id = int(synthetic_collection.ids[0])
        old = Interval(10_000_003, lo, lo + 20)
        for index in (hybrid, naive):
            index.insert(old)
            # a delta id and a main id, each deleted and re-inserted elsewhere
            for interval_id in (old.id, main_id):
                assert index.delete(interval_id)
                index.insert(Interval(interval_id, hi - 30, hi - 10))
        for q in (Query(lo, lo + 20), Query(hi - 30, hi), Query(lo, hi)):
            assert sorted(hybrid.query(q)) == sorted(naive.query(q))
            assert hybrid.query_count(q) == naive.query_count(q)

    def test_delete_reinsert_delete_keeps_the_dead_row(self, synthetic_collection):
        """A main id deleted, re-inserted through the delta and deleted
        again: the main index's tombstones hold its rows, and only its rows,
        from the first delete on, and every answer is the oracle's."""
        hybrid = HybridHINTm(synthetic_collection, num_bits=8)
        naive = NaiveIndex.build(synthetic_collection)
        main = hybrid.main_index
        victim = synthetic_collection[3]
        lo, hi = synthetic_collection.span()
        queries = [
            Query(victim.start, victim.end), Query.stabbing(victim.start),
            Query(lo, lo + (hi - lo) // 7), Query(lo, hi),
        ]
        assert main._dead is None  # no delete, no mask
        rows = main._rows_of(victim)
        assert rows and set(main._ids[rows].tolist()) == {victim.id}
        for step in ("delete", "insert", "delete"):
            for index in (hybrid, naive):
                if step == "delete":
                    assert index.delete(victim.id)
                else:
                    index.insert(victim)
            assert main._dead_rows[rows].all() and victim.id in main._spans.removed
            assert main._dead.count(1) == len(rows)
            for q in queries:
                assert victim.id not in main.query(q).tolist()
                assert sorted(hybrid.query(q).tolist()) == sorted(naive.query(q)), (step, q)
                assert hybrid.query_count(q) == naive.query_count(q), (step, q)

    def test_memory_bytes(self, synthetic_collection):
        hybrid = HybridHINTm(synthetic_collection, num_bits=8)
        assert hybrid.memory_bytes() > 0


class TestRebuild:
    def test_manual_rebuild_merges_delta(self, synthetic_collection):
        hybrid = HybridHINTm(synthetic_collection, num_bits=8)
        lo, hi = synthetic_collection.span()
        for i in range(20):
            hybrid.insert(Interval(20_000_000 + i, lo + i, lo + i + 50))
        hybrid.delete(int(synthetic_collection.ids[1]))
        before = sorted(hybrid.query(Query(lo, hi)))
        hybrid.rebuild()
        assert hybrid.delta_size == 0
        assert hybrid.rebuilds == 1
        assert sorted(hybrid.query(Query(lo, hi))) == before

    def test_inserts_never_rebuild_on_their_own(self, synthetic_collection):
        """Only an explicit rebuild() (a maintenance pass) folds the delta,
        however large it grows relative to the main index."""
        hybrid = HybridHINTm(synthetic_collection, num_bits=8)
        lo, _ = synthetic_collection.span()
        inserts = len(synthetic_collection) // 5
        for i in range(inserts):
            hybrid.insert(Interval(30_000_000 + i, lo + i, lo + i + 5))
        assert hybrid.rebuilds == 0
        assert hybrid.delta_size == inserts
        assert len(hybrid) == len(synthetic_collection) + inserts


class TestMixedWorkloadEquivalence:
    def test_table10_style_workload_matches_naive(self, synthetic_collection):
        """Replay a Table 10 workload against the oracle."""
        workload = generate_mixed_workload(
            synthetic_collection,
            num_queries=60,
            num_insertions=60,
            num_deletions=30,
            seed=5,
        )
        hybrid = HybridHINTm(workload.preload, num_bits=8)
        naive = NaiveIndex.build(workload.preload)
        for operation, payload in workload.operations:
            if operation is Operation.QUERY:
                assert sorted(hybrid.query(payload)) == sorted(naive.query(payload))
            elif operation is Operation.INSERT:
                hybrid.insert(payload)
                naive.insert(payload)
            else:
                assert hybrid.delete(payload) == naive.delete(payload)

    def test_queries_after_many_updates(self, synthetic_collection):
        hybrid = HybridHINTm(synthetic_collection, num_bits=9)
        naive = NaiveIndex.build(synthetic_collection)
        lo, hi = synthetic_collection.span()
        step = max(1, (hi - lo) // 100)
        for i in range(80):
            interval = Interval(40_000_000 + i, lo + i * step, lo + i * step + 3 * step)
            hybrid.insert(interval)
            naive.insert(interval)
        for sid in synthetic_collection.ids[:40]:
            assert hybrid.delete(int(sid)) == naive.delete(int(sid))
        queries = generate_queries(
            synthetic_collection, QueryWorkloadConfig(count=40, extent_fraction=0.02, seed=8)
        )
        for q in queries:
            assert sorted(hybrid.query(q)) == sorted(naive.query(q))
