"""Unit tests for the standing-query building blocks: DeltaLog + registry."""

import pytest

from repro.core.allen import AllenRelation
from repro.core.errors import ReproError
from repro.core.interval import Interval, Query
from repro.stream.log import DeltaLog, DeltaRecord
from repro.stream.registry import Subscription, SubscriptionRegistry, parse_relation


def _replay(base, records):
    """Fold delta records onto a base id set."""
    state = set(base)
    for record in records:
        state.difference_update(record.removed)
        state.update(record.added)
    return state


class TestDeltaRecord:
    def test_merge_cancels_add_then_remove(self):
        a = DeltaRecord(seq=0, generation=1, first_generation=1, added=(7,), removed=())
        b = DeltaRecord(seq=1, generation=2, first_generation=2, added=(), removed=(7,))
        merged = a.merge(b)
        assert merged.added == () and merged.removed == ()
        assert merged.seq == 1
        assert merged.first_generation == 1 and merged.generation == 2
        assert merged.coalesced

    def test_merge_cancels_remove_then_add(self):
        a = DeltaRecord(seq=0, generation=1, first_generation=1, added=(), removed=(7,))
        b = DeltaRecord(seq=1, generation=2, first_generation=2, added=(7,), removed=())
        merged = a.merge(b)
        assert merged.added == () and merged.removed == ()

    def test_merge_is_net_effect(self):
        a = DeltaRecord(
            seq=0, generation=1, first_generation=1, added=(1, 2), removed=(3,)
        )
        b = DeltaRecord(
            seq=1, generation=2, first_generation=2, added=(3, 4), removed=(2,)
        )
        merged = a.merge(b)
        # folding the merged record equals folding a then b, from any VALID
        # base -- one where each record's added ids are not yet live and its
        # removed ids are (the invariant the delta engine guarantees)
        for base in ({3}, {3, 5}, {3, 5, 9}):
            assert _replay(base, [merged]) == _replay(base, [a, b])


class TestDeltaLog:
    def test_append_and_since(self):
        log = DeltaLog(capacity=16)
        log.append(1, (10,), ())
        log.append(2, (), (10,))
        log.append(3, (11,), ())
        records, resync = log.since(-1)
        assert not resync
        assert [r.generation for r in records] == [1, 2, 3]
        records, resync = log.since(2)
        assert not resync
        assert [r.generation for r in records] == [3]

    def test_ack_prunes(self):
        log = DeltaLog(capacity=16)
        for g in range(1, 6):
            log.append(g, (g,), ())
        log.ack(3)
        assert len(log) == 2
        records, resync = log.since(3)
        assert not resync and [r.generation for r in records] == [4, 5]

    def test_coalescing_preserves_replay(self):
        log = DeltaLog(capacity=4)
        live = set()
        oracle_states = {0: set()}
        for g in range(1, 21):
            if g % 3 == 0 and live:
                victim = min(live)
                live.discard(victim)
                log.append(g, (), (victim,))
            else:
                live.add(g)
                log.append(g, (g,), ())
            oracle_states[g] = set(live)
        assert log.coalesce_ops > 0
        records, resync = log.since(-1)
        if not resync:
            assert _replay(set(), records) == live
        # a client acked exactly at a record boundary replays exactly
        records, resync = log.since(-1)
        boundary = records[0].generation
        tail, resync = log.since(boundary)
        assert not resync
        assert _replay(oracle_states[boundary], tail) == live

    def test_ack_inside_coalesced_span_requires_resync(self):
        log = DeltaLog(capacity=2)
        for g in range(1, 8):
            log.append(g, (g,), ())
        head = log.since(-1)[0][0] if not log.since(-1)[1] else None
        if head is not None and head.coalesced:
            inside = head.first_generation  # strictly inside (span starts before)
            _, resync = log.since(inside)
            assert resync

    def test_truncation_requires_resync(self):
        log = DeltaLog(capacity=2, max_coalesced_ids=4)
        for g in range(1, 30):
            log.append(g, (g,), ())
        assert log.truncations > 0
        _, resync = log.since(-1)
        assert resync
        # an ack past the truncation point can still be served
        last = log.last_generation
        records, resync = log.since(last)
        assert not resync and records == []

    def test_capacity_bound_holds(self):
        log = DeltaLog(capacity=8, max_coalesced_ids=100_000)
        for g in range(1, 1000):
            log.append(g, (g,), ())
        assert len(log) <= 8


def _sub(i, start, end, **kw):
    return Subscription(subscription_id=i, query=Query(start, end), **kw)


class TestSubscriptionMatching:
    def test_overlap_default(self):
        s = _sub(0, 100, 200)
        assert s.matches(Interval(1, 150, 160))
        assert s.matches(Interval(2, 200, 300))  # closed-interval touch
        assert not s.matches(Interval(3, 300, 400))

    def test_duration_bounds(self):
        s = _sub(0, 0, 1000, min_duration=10, max_duration=50)
        assert s.matches(Interval(1, 100, 120))
        assert not s.matches(Interval(2, 100, 105))  # too short
        assert not s.matches(Interval(3, 100, 200))  # too long

    def test_relation_refinement(self):
        s = _sub(0, 100, 200, relation=AllenRelation.DURING)
        assert s.matches(Interval(1, 120, 180))
        assert not s.matches(Interval(2, 50, 300))  # contains, not during

    def test_predicate(self):
        s = _sub(0, 0, 1000, predicate=lambda iv: iv.id % 2 == 0)
        assert s.matches(Interval(2, 100, 200))
        assert not s.matches(Interval(3, 100, 200))

    def test_unbounded_relations_not_prunable(self):
        assert not _sub(0, 100, 200, relation=AllenRelation.BEFORE).range_prunable
        assert not _sub(0, 100, 200, relation=AllenRelation.AFTER).range_prunable
        assert _sub(0, 100, 200, relation=AllenRelation.OVERLAPS).range_prunable


class TestParseRelation:
    def test_accepts_names_and_enums(self):
        assert parse_relation("during") is AllenRelation.DURING
        assert parse_relation("finished-by") is AllenRelation.FINISHED_BY
        assert parse_relation(AllenRelation.MEETS) is AllenRelation.MEETS
        assert parse_relation(None) is None

    def test_rejects_unknown(self):
        with pytest.raises(ReproError, match="unknown Allen relation"):
            parse_relation("sideways")


class TestSubscriptionRegistry:
    def test_linear_until_threshold(self):
        registry = SubscriptionRegistry(index_threshold=8)
        for i in range(7):
            registry.register(Query(i * 100, i * 100 + 50))
        assert not registry.indexed
        registry.register(Query(700, 750))
        assert registry.indexed

    def test_affected_matches_linear_scan(self):
        import random

        rng = random.Random(42)
        indexed = SubscriptionRegistry(index_threshold=2)
        linear = SubscriptionRegistry(index_threshold=10**9)
        for _ in range(200):
            start = rng.randrange(0, 10_000)
            end = start + rng.randrange(1, 500)
            for registry in (indexed, linear):
                registry.register(Query(start, end))
        assert indexed.indexed and not linear.indexed
        for _ in range(100):
            start = rng.randrange(0, 10_000)
            probe = Interval(0, start, start + rng.randrange(0, 300))
            got = {s.subscription_id for s in indexed.affected(probe)}
            want = {s.subscription_id for s in linear.affected(probe)}
            assert got == want

    def test_probe_is_one_store_query_and_o_affected_refinement(self, monkeypatch):
        # the structural fact behind indexed matching's speed-up over
        # re-evaluating every standing query: per update, one overlap probe
        # of the registry's own index, then Subscription.matches only for
        # the ranges that probe returns plus the unbounded subscriptions
        import random

        from repro.engine.store import IntervalStore

        rng = random.Random(29)
        registry = SubscriptionRegistry()
        ranges = []  # registry ids are assigned 0, 1, ... in order
        for _ in range(2_000):
            start = rng.randrange(0, 1_000_000)
            ranges.append((start, start + rng.randrange(0, 2_000)))
            registry.register(Query(*ranges[-1]))
        unbounded = [
            registry.register(Query(500_000, 500_100), relation="after"),
            registry.register(Query(10, 20), relation="before"),
        ]
        calls = {"query": 0, "matches": 0}
        real_query, real_matches = IntervalStore.query, Subscription.matches

        def counting_query(store, *args, **kwargs):
            calls["query"] += 1
            return real_query(store, *args, **kwargs)

        def counting_matches(subscription, interval):
            calls["matches"] += 1
            return real_matches(subscription, interval)

        monkeypatch.setattr(IntervalStore, "query", counting_query)
        monkeypatch.setattr(Subscription, "matches", counting_matches)
        for _ in range(300):
            start = rng.randrange(0, 1_000_000)
            update = Interval(0, start, start + rng.randrange(0, 1_000))
            overlapping = {
                sid
                for sid, (lo, hi) in enumerate(ranges)
                if lo <= update.end and update.start <= hi
            }
            calls.update(query=0, matches=0)
            affected = {s.subscription_id for s in registry.affected(update)}
            assert calls["query"] == 1
            assert calls["matches"] <= len(overlapping) + len(unbounded)
            assert affected - {s.subscription_id for s in unbounded} == overlapping

    def test_unbounded_relations_always_checked(self):
        registry = SubscriptionRegistry(index_threshold=2)
        for i in range(10):  # force the index to build
            registry.register(Query(i * 10, i * 10 + 5))
        after = registry.register(Query(5_000, 5_100), relation="after")
        # an interval entirely after the query range ("interval AFTER
        # query") matches despite never overlapping it
        probe = Interval(99, 9_000, 9_100)
        affected = {s.subscription_id for s in registry.affected(probe)}
        assert after.subscription_id in affected

    def test_unregister_removes_from_matching(self):
        registry = SubscriptionRegistry(index_threshold=2)
        subs = [registry.register(Query(0, 1_000)) for _ in range(5)]
        assert registry.unregister(subs[2].subscription_id)
        assert not registry.unregister(subs[2].subscription_id)
        probe = Interval(1, 500, 600)
        affected = {s.subscription_id for s in registry.affected(probe)}
        assert subs[2].subscription_id not in affected
        assert len(affected) == 4

    def test_registered_after_index_built_is_matched(self):
        registry = SubscriptionRegistry(index_threshold=2)
        for i in range(5):
            registry.register(Query(i * 10, i * 10 + 5))
        late = registry.register(Query(8_000, 8_100))
        affected = {
            s.subscription_id for s in registry.affected(Interval(7, 8_050, 8_060))
        }
        assert affected == {late.subscription_id}
