"""Tests for Allen-relation selection queries served through the indexes.

The paper lists Allen-algebra selections as the natural extension of range
queries (Section 1 and the conclusions); the library answers them by refining
the range-query candidates of any index.
"""

import pytest

from repro.baselines.naive import NaiveIndex
from repro.core.allen import RANGE_QUERY_RELATIONS, AllenRelation, satisfies_relation
from repro.core.base import IntervalIndex
from repro.core.interval import Interval, Query
from repro.core.spans import SpanTable
from repro.datasets.synthetic import SyntheticConfig, generate_synthetic
from repro.engine import IntervalStore
from repro.engine.registry import backend_specs, create_index
from repro.engine.sharded import ShardedIndex
from repro.hint import OptimizedHINTm, SubdividedHINTm


def oracle_relation(collection, query, relation):
    return sorted(
        s.id for s in collection if satisfies_relation(s, query, relation)
    )


class _Tee:
    """Forward updates to the index under test, then to its oracle."""

    def __init__(self, subject, oracle):
        self._subject, self._oracle = subject, oracle

    def insert(self, interval):
        self._subject.insert(interval)  # may raise: then the oracle skips it too
        self._oracle.insert(interval)

    def delete(self, interval_id):
        return self._subject.delete(interval_id) and self._oracle.delete(interval_id)


@pytest.fixture(scope="module")
def relation_subjects(synthetic_collection, pending_updates):
    """``(label, index, live intervals)`` for every registered non-composite
    backend x K in {1, 2}, clean and with ``pending_updates`` applied."""
    subjects = []
    for spec in backend_specs():
        if spec.composite:
            continue
        for shards in (1, 2):
            for updated in (False, True):
                if shards == 1:
                    index = create_index(spec.name, synthetic_collection)
                else:
                    index = create_index(
                        "sharded", synthetic_collection, backend=spec.name, num_shards=2
                    )
                oracle = NaiveIndex.build(synthetic_collection)
                if updated:
                    pending_updates(_Tee(index, oracle), synthetic_collection)
                state = "updated" if updated else "clean"
                subjects.append(
                    (f"{spec.name} K={shards} {state}", index, list(oracle.live_collection()))
                )
    return subjects


@pytest.mark.parametrize(
    "relation",
    [
        AllenRelation.DURING,
        AllenRelation.CONTAINS,
        AllenRelation.OVERLAPS,
        AllenRelation.OVERLAPPED_BY,
        AllenRelation.STARTS,
        AllenRelation.FINISHES,
        AllenRelation.EQUALS,
        AllenRelation.MEETS,
        AllenRelation.MET_BY,
    ],
)
def test_overlap_relations_match_oracle(synthetic_collection, relation_subjects, relation):
    lo, hi = synthetic_collection.span()
    span = hi - lo
    for label, index, live in relation_subjects:
        for i in range(5):
            start = lo + i * span // 5
            query = Query(start, min(hi, start + span // 20))
            assert sorted(index.query_relation(query, relation)) == oracle_relation(
                live, query, relation
            ), label


@pytest.mark.parametrize("relation", [AllenRelation.BEFORE, AllenRelation.AFTER])
def test_disjoint_relations_fall_back_to_scan(synthetic_collection, relation):
    index = SubdividedHINTm(synthetic_collection, num_bits=8)
    lo, hi = synthetic_collection.span()
    query = Query(lo + (hi - lo) // 2, lo + (hi - lo) // 2 + 100)
    assert sorted(index.query_relation(query, relation)) == oracle_relation(
        synthetic_collection, query, relation
    )


def test_relation_results_subset_of_range_results(synthetic_collection):
    index = OptimizedHINTm(synthetic_collection, num_bits=9)
    lo, hi = synthetic_collection.span()
    query = Query(lo + (hi - lo) // 3, lo + (hi - lo) // 2)
    range_results = set(index.query(query))
    for relation in (AllenRelation.DURING, AllenRelation.CONTAINS, AllenRelation.OVERLAPS):
        assert set(index.query_relation(query, relation)) <= range_results


def test_relations_partition_the_range_results(synthetic_collection):
    """Each range-query result satisfies exactly one overlapping relation."""
    index = OptimizedHINTm(synthetic_collection, num_bits=9)
    naive = NaiveIndex.build(synthetic_collection)
    lo, hi = synthetic_collection.span()
    query = Query(lo + (hi - lo) // 4, lo + (hi - lo) // 3)
    range_results = sorted(index.query(query))
    assert range_results == sorted(naive.query(query))
    per_relation = [
        index.query_relation(query, relation) for relation in RANGE_QUERY_RELATIONS
    ]
    flattened = sorted(sid for results in per_relation for sid in results)
    assert flattened == range_results


@pytest.mark.parametrize(
    "backend, num_shards",
    [("hintm_opt", 1), ("hintm_hybrid", 1), ("hintm_hybrid", 2)],
)
def test_relation_refinement_gathers_candidates_never_the_table(
    backend, num_shards, pending_updates, monkeypatch
):
    """A relation query costs O(candidates): with every whole-table
    enumeration patched to raise, all eleven overlap-implied relations still
    answer what the oracle answers, building at most one ``Interval`` per
    candidate (the vectorised gather builds none)."""
    collection = generate_synthetic(
        SyntheticConfig(domain_length=400_000, cardinality=20_000, sigma=80_000, seed=5)
    )
    store = IntervalStore.open(collection, backend, num_shards=num_shards)
    oracle = NaiveIndex.build(collection)
    pending_updates(_Tee(store.index, oracle), collection)
    live = list(oracle.live_collection())
    queries = [(100_000, 101_000), (200_000, 200_400), (199_000, 260_000)]
    expected = {
        (a, b, relation): oracle_relation(live, Query(a, b), relation)
        for a, b in queries
        for relation in RANGE_QUERY_RELATIONS
    }
    assert any(expected.values())
    candidates = {(a, b): len(store.query().overlapping(a, b).ids()) for a, b in queries}

    def enumerated(*_args, **_kwargs):
        raise AssertionError("a relation query enumerated the whole table")

    for owner, method in (
        (IntervalIndex, "_interval_lookup"),
        (IntervalIndex, "live_collection"),
        (ShardedIndex, "live_collection"),
        (SpanTable, "collection"),
    ):
        monkeypatch.setattr(owner, method, enumerated)
    built = []
    monkeypatch.setattr(Interval, "__post_init__", lambda self: built.append(self.id))
    for (a, b, relation), answer in expected.items():
        del built[:]
        got = store.query().overlapping(a, b).relation(relation).ids()
        assert sorted(got) == answer, (a, b, relation)
        assert len(built) <= candidates[(a, b)]
    store.close()
