"""Tests for the domain partitioner (repro.engine.sharding) and the
vectorized IntervalCollection.take/slice helpers it relies on."""

import numpy as np
import pytest

from repro.core.errors import InvalidIntervalError, InvalidQueryError
from repro.core.interval import IntervalCollection, Query
from repro.engine.sharding import PARTITION_STRATEGIES, ShardPlan, partition_collection


class TestTakeAndSlice:
    def test_take_with_boolean_mask(self, tiny_collection):
        mask = tiny_collection.starts >= 7
        picked = tiny_collection.take(mask)
        assert sorted(picked.ids.tolist()) == sorted(
            int(s.id) for s in tiny_collection if s.start >= 7
        )

    def test_take_with_positions_reorders_and_repeats(self, tiny_collection):
        picked = tiny_collection.take(np.array([3, 0, 0]))
        assert picked.ids.tolist() == [3, 0, 0]
        assert picked.starts.tolist() == [10, 5, 5]

    def test_take_rejects_wrong_length_mask(self, tiny_collection):
        with pytest.raises(InvalidIntervalError):
            tiny_collection.take(np.array([True, False]))

    def test_take_matches_iter_based_split(self, synthetic_collection):
        """The vectorized split selects exactly what a per-row loop would."""
        cutoff = int(np.median(synthetic_collection.starts))
        vectorized = synthetic_collection.take(synthetic_collection.starts < cutoff)
        looped = [s.id for s in synthetic_collection if s.start < cutoff]
        assert vectorized.ids.tolist() == looped

    def test_slice_is_a_view(self, tiny_collection):
        window = tiny_collection.slice(2, 5)
        assert len(window) == 3
        assert window.ids.base is tiny_collection.ids  # zero-copy
        assert window.ids.tolist() == tiny_collection.ids[2:5].tolist()

    def test_slice_open_ended(self, tiny_collection):
        assert tiny_collection.slice(stop=3).ids.tolist() == tiny_collection.ids[:3].tolist()
        assert tiny_collection.slice(5).ids.tolist() == tiny_collection.ids[5:].tolist()

    def test_subset_still_works(self, tiny_collection):
        assert tiny_collection.subset([1, 4]).ids.tolist() == [1, 4]


class TestShardPlan:
    def test_single_shard_has_no_cuts(self, synthetic_collection):
        plan = ShardPlan.for_collection(synthetic_collection, 1)
        assert plan.num_shards == 1
        assert plan.cuts == ()
        assert plan.shard_range(-10**9, 10**9) == (0, 0)

    @pytest.mark.parametrize("strategy", PARTITION_STRATEGIES)
    @pytest.mark.parametrize("k", [2, 4, 7])
    def test_requested_shard_count(self, synthetic_collection, strategy, k):
        plan = ShardPlan.for_collection(synthetic_collection, k, strategy)
        assert 1 <= plan.num_shards <= k
        # a non-degenerate synthetic domain should give the full K
        assert plan.num_shards == k

    def test_balanced_equalises_start_counts(self, taxis_like_collection):
        plan = ShardPlan.for_collection(taxis_like_collection, 4, "balanced")
        counts = []
        for shard in range(plan.num_shards):
            lower, upper = plan.shard_bounds(shard)
            starts = taxis_like_collection.starts
            counts.append(int(((starts >= lower) & (starts <= upper)).sum()))
        assert min(counts) >= 0.5 * max(counts), counts

    def test_equi_width_equalises_widths(self, synthetic_collection):
        plan = ShardPlan.for_collection(synthetic_collection, 4, "equi_width")
        widths = [b - a for a, b in zip(plan.cuts, plan.cuts[1:])]
        assert max(widths) - min(widths) <= 2

    def test_shard_of_and_bounds_agree(self, synthetic_collection):
        plan = ShardPlan.for_collection(synthetic_collection, 5)
        lo, hi = synthetic_collection.span()
        for point in np.linspace(lo - 100, hi + 100, 37).astype(int):
            shard = plan.shard_of(int(point))
            lower, upper = plan.shard_bounds(shard)
            assert lower <= point <= upper

    def test_shard_range_covers_query(self, synthetic_collection):
        plan = ShardPlan.for_collection(synthetic_collection, 4)
        lo, hi = synthetic_collection.span()
        first, last = plan.shard_range(lo, hi)
        assert (first, last) == (0, plan.num_shards - 1)
        point = plan.cuts[0]  # first point of shard 1
        assert plan.shard_range(point, point) == (1, 1)
        assert plan.shard_range(point - 1, point) == (0, 1)

    @pytest.mark.parametrize("cuts", [(), (50,), (-30, 0, 7, 1_000), (1, 2, 3)])
    def test_routing_matches_the_searchsorted_rule(self, cuts):
        # shard_range/shard_of bisect the cuts tuple; the rule they keep is
        # np.searchsorted(cuts, bound, side="right") on the int64 cuts
        plan = ShardPlan(cuts=cuts)
        array = np.asarray(cuts, dtype=np.int64)
        rng = np.random.default_rng(5)
        bounds = (
            rng.integers(-2_000, 2_000, 200).tolist()
            + (rng.uniform(-2_000, 2_000, 200)).tolist()
            + list(cuts)  # a bound equal to a cut
            + [cut - 1 for cut in cuts] + [cut + 0.5 for cut in cuts] + [cut - 0.5 for cut in cuts]
            + [10**6, 10**6 + 0.5, -(10**6), float("inf"), float("-inf")]  # past every cut
        )
        for bound in bounds:
            expected = int(np.searchsorted(array, bound, side="right"))
            assert plan.shard_of(bound) == expected, bound
            assert plan.shard_range(bound, bound) == (expected, expected), bound
        for start, end in zip(bounds, sorted(bounds)):
            expected = tuple(
                int(np.searchsorted(array, bound, side="right")) for bound in (start, end)
            )
            assert plan.shard_range(start, end) == expected, (start, end)

    def test_invalid_arguments(self, synthetic_collection):
        with pytest.raises(InvalidQueryError):
            ShardPlan.for_collection(synthetic_collection, 0)
        with pytest.raises(InvalidQueryError):
            ShardPlan.for_collection(synthetic_collection, 2, "round-robin")
        with pytest.raises(InvalidQueryError):
            ShardPlan(cuts=(5, 5))

    def test_empty_collection_degenerates(self):
        plan = ShardPlan.for_collection(IntervalCollection.empty(), 4)
        assert plan.num_shards == 1

    def test_degenerate_domain_shrinks(self):
        same = IntervalCollection.from_pairs([(5, 5)] * 10)
        plan = ShardPlan.for_collection(same, 4)
        assert plan.num_shards == 1


class TestPartitionCollection:
    @pytest.mark.parametrize("strategy", PARTITION_STRATEGIES)
    @pytest.mark.parametrize("k", [2, 4, 7])
    def test_union_covers_everything(self, synthetic_collection, strategy, k):
        plan = ShardPlan.for_collection(synthetic_collection, k, strategy)
        pieces = partition_collection(synthetic_collection, plan)
        assert len(pieces) == plan.num_shards
        union = set()
        for piece in pieces:
            union.update(piece.ids.tolist())
        assert union == set(synthetic_collection.ids.tolist())

    def test_duplication_only_for_boundary_spanners(self, synthetic_collection):
        plan = ShardPlan.for_collection(synthetic_collection, 4)
        pieces = partition_collection(synthetic_collection, plan)
        copies: dict = {}
        for piece in pieces:
            for interval_id in piece.ids.tolist():
                copies[interval_id] = copies.get(interval_id, 0) + 1
        cuts = np.asarray(plan.cuts)
        for interval in synthetic_collection:
            # number of shards [start, end] overlaps == copies stored
            spans = 1 + int(((cuts > interval.start) & (cuts <= interval.end)).sum())
            assert copies[interval.id] == spans, interval

    def test_each_piece_answers_its_own_range(self, synthetic_collection):
        plan = ShardPlan.for_collection(synthetic_collection, 4)
        pieces = partition_collection(synthetic_collection, plan)
        for shard, piece in enumerate(pieces):
            lower, upper = plan.shard_bounds(shard)
            lo, hi = synthetic_collection.span()
            q = Query(int(max(lower, lo)), int(min(upper, hi)))
            expected = set(synthetic_collection.query_ids(q).tolist())
            assert set(piece.query_ids(q).tolist()) == expected

    def test_single_shard_returns_original(self, synthetic_collection):
        plan = ShardPlan.for_collection(synthetic_collection, 1)
        pieces = partition_collection(synthetic_collection, plan)
        assert pieces[0] is synthetic_collection
