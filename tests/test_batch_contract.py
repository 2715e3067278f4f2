"""The batch answer contract: ``query_batch`` returns one owning int64 array
per query, on every backend.

Each answer is a 1-D int64 array that owns its memory (a view would pin
the whole batch it was cut from), shares no memory with another answer or
with any array the index holds, and equals the linear-scan oracle as a set
-- for every registered backend, a two-shard index, and a hybrid index
whose delta holds inserts and whose main index holds tombstones.  Batches
on both sides of the optimized index's crossover take part, so the kernel
and the per-query loop are both held to it.
"""

import itertools

import numpy as np
import pytest

from repro.baselines.naive import NaiveIndex
from repro.core.interval import Interval, Query
from repro.engine import available_backends, create_index, get_spec
from repro.hint.optimized import _BATCH_CROSSOVER

BACKENDS = [name for name in available_backends() if not get_spec(name).composite]

_SCALARS = (int, float, str, bytes, bool, type(None), np.generic)


def _arrays(obj, seen=None):
    """Every NumPy array reachable from ``obj`` through instance attributes
    and containers."""
    seen = set() if seen is None else seen
    if isinstance(obj, _SCALARS) or isinstance(obj, type) or id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
        return
    if isinstance(obj, dict):
        children = list(obj.values())
    elif isinstance(obj, (list, tuple)):
        children = obj
    else:
        children = [getattr(obj, slot, None) for slot in getattr(type(obj), "__slots__", ())]
        attributes = getattr(obj, "__dict__", None)
        if isinstance(attributes, dict):
            children += list(attributes.values())
    for child in children:
        yield from _arrays(child, seen)


def _assert_contract(index, oracle, queries):
    held = list(_arrays(index))
    assert held  # the walk reaches the index's columns
    answers = index.query_batch(queries)
    assert len(answers) == len(queries)
    for ids, query in zip(answers, queries):
        assert isinstance(ids, np.ndarray) and ids.ndim == 1 and ids.dtype == np.int64
        assert ids.flags.owndata  # not a view: keeping it pins nothing else
        assert sorted(ids.tolist()) == sorted(oracle.query(query)), query
        assert not any(np.shares_memory(ids, column) for column in held), query
    for first, second in itertools.combinations(answers, 2):
        assert not np.shares_memory(first, second)


def _batches(queries):
    """A batch past the crossover and one short of it."""
    return [queries, queries[: _BATCH_CROSSOVER - 1]]


@pytest.mark.parametrize("backend", BACKENDS)
def test_every_backend_answers_with_owning_int64_arrays(
    synthetic_collection, synthetic_queries, backend
):
    index = create_index(backend, synthetic_collection)
    oracle = NaiveIndex.build(synthetic_collection)
    for queries in _batches(synthetic_queries[::4]):
        _assert_contract(index, oracle, queries)


def test_two_shard_index_merges_into_owning_arrays(synthetic_collection, synthetic_queries):
    index = create_index("sharded", synthetic_collection, backend="hintm_opt", num_shards=2)
    oracle = NaiveIndex.build(synthetic_collection)
    cut = index.plan.cuts[0]
    spanning = [Query(cut - 500, cut + 500), Query(cut - 1, cut)]
    assert all(index.plan.shard_range(q.start, q.end) == (0, 1) for q in spanning)
    for queries in _batches(spanning + synthetic_queries[::4]):
        _assert_contract(index, oracle, queries)


def test_hybrid_with_delta_and_tombstones(synthetic_collection, synthetic_queries):
    index = create_index("hintm_hybrid", synthetic_collection)
    oracle = NaiveIndex.build(synthetic_collection)
    lo, hi = synthetic_collection.span()
    fresh = int(synthetic_collection.ids.max()) + 1
    for offset in range(40):
        start = lo + (hi - lo) * offset // 40
        interval = Interval(fresh + offset, start, start + 700)
        index.insert(interval)
        oracle.insert(interval)
    for victim in synthetic_collection.ids[::50].tolist() + [fresh, fresh + 7]:
        assert index.delete(victim) and oracle.delete(victim)
    main, delta = index._components
    assert len(delta) and main._spans.removed and delta._spans.removed
    for queries in _batches(synthetic_queries[::4]):
        _assert_contract(index, oracle, queries)
