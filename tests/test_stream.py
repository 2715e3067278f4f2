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
    def test_matches_runs_only_for_overlapping_and_unbounded(self, monkeypatch):
        # per update, one overlap mask over the watched ranges, then
        # Subscription.matches only for the ranges it returns plus the
        # unbounded subscriptions -- never a scan over every subscription
        import random

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
        unbounded_ids = {s.subscription_id for s in unbounded}
        checked = []
        real_matches = Subscription.matches

        def counting_matches(subscription, interval):
            checked.append(subscription.subscription_id)
            return real_matches(subscription, interval)

        monkeypatch.setattr(Subscription, "matches", counting_matches)
        for _ in range(300):
            start = rng.randrange(0, 1_000_000)
            update = Interval(0, start, start + rng.randrange(0, 1_000))
            overlapping = {
                sid
                for sid, (lo, hi) in enumerate(ranges)
                if lo <= update.end and update.start <= hi
            }
            checked.clear()
            affected = {s.subscription_id for s in registry.affected(update)}
            assert sorted(checked) == sorted(overlapping | unbounded_ids)
            assert affected - unbounded_ids == overlapping

    def test_unbounded_relations_always_checked(self):
        registry = SubscriptionRegistry()
        for i in range(10):
            registry.register(Query(i * 10, i * 10 + 5))
        after = registry.register(Query(5_000, 5_100), relation="after")
        # an interval entirely after the query range ("interval AFTER
        # query") matches despite never overlapping it
        probe = Interval(99, 9_000, 9_100)
        affected = {s.subscription_id for s in registry.affected(probe)}
        assert after.subscription_id in affected

    def test_unregister_removes_from_matching(self):
        registry = SubscriptionRegistry()
        subs = [registry.register(Query(0, 1_000)) for _ in range(5)]
        assert registry.unregister(subs[2].subscription_id)
        assert not registry.unregister(subs[2].subscription_id)
        probe = Interval(1, 500, 600)
        affected = {s.subscription_id for s in registry.affected(probe)}
        assert subs[2].subscription_id not in affected
        assert len(affected) == 4

    def test_late_registration_is_matched(self):
        registry = SubscriptionRegistry()
        for i in range(5):
            registry.register(Query(i * 10, i * 10 + 5))
        late = registry.register(Query(8_000, 8_100))
        affected = {
            s.subscription_id for s in registry.affected(Interval(7, 8_050, 8_060))
        }
        assert affected == {late.subscription_id}

    def test_range_past_int64_then_many_registrations(self):
        # a range past int64 is watched clamped to the domain's edge; it
        # once made every later index build raise OverflowError
        registry = SubscriptionRegistry()
        wide = registry.register(Query(100, 2**70))
        low = registry.register(Query(-(2**70), -5))
        plain = [registry.register(Query(i * 10, i * 10 + 5)) for i in range(120)]
        assert len(registry) == 122
        for update, want in (
            (Interval(1, 2**63 - 10, 2**63 - 1), {wide}),
            (Interval(2, -(2**63), -(2**63) + 3), {low}),
            (Interval(3, 502, 503), {wide, plain[50]}),
            (Interval(4, -7, 3), {low, plain[0]}),
        ):
            assert set(registry.affected(update)) == want


class TestAffectedProperty:
    """``affected()`` equals a brute-force ``matches()`` scan over every live
    subscription: 10k registrations (fresh ones and restores of removed
    ids) under unregister churn that keeps at most 600 live, so slots are
    freed, reused and grown past the first column size, and 2k updates."""

    RELATIONS = [None] * 13 + [relation.value for relation in AllenRelation]
    FILTERS = [
        None,
        None,
        {"field": "duration", "op": ">=", "value": 40},
        {"or": [{"field": "start", "op": "<", "value": 30_000},
                {"not": {"field": "end", "op": "le", "value": 70_000}}]},
    ]

    def _register(self, registry, rng):
        start = rng.randrange(0, 100_000)
        if rng.random() < 0.2:  # a stabbing query
            query = Query(start, start)
        else:
            query = Query(start, start + rng.randrange(0, 5_000))
        return registry.register(
            query,
            relation=rng.choice(self.RELATIONS),
            min_duration=rng.choice([0, 0, 0, 10, 100]),
            max_duration=rng.choice([None, None, None, 50, 2_000]),
            filter_spec=rng.choice(self.FILTERS),
        )

    def test_affected_equals_brute_force(self):
        import random

        rng = random.Random(36)
        registry = SubscriptionRegistry()
        live, removed = {}, {}
        for _ in range(2_000):
            for _ in range(5):
                if removed and rng.random() < 0.2:
                    old = removed.pop(rng.choice(list(removed)))
                    subscription = registry.restore(
                        old.subscription_id,
                        old.query,
                        relation=old.relation,
                        min_duration=old.min_duration,
                        max_duration=old.max_duration,
                        filter_spec=old.filter_spec,
                    )
                else:
                    subscription = self._register(registry, rng)
                assert subscription.subscription_id not in live
                live[subscription.subscription_id] = subscription
            while len(live) > 600 or (live and rng.random() < 0.6):
                sid = rng.choice(list(live))
                assert registry.unregister(sid)
                removed[sid] = live.pop(sid)
            start = rng.randrange(-1_000, 101_000)
            update = Interval(0, start, start + rng.randrange(0, 3_000))
            want = {s.subscription_id for s in live.values() if s.matches(update)}
            got = [s.subscription_id for s in registry.affected(update)]
            assert len(got) == len(set(got)) and set(got) == want
        assert len(registry) == len(live)
        assert registry.ids() == sorted(live)
