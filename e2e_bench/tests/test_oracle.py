"""The oracle against a literal scan, through inserts and deletes."""

import numpy as np

from e2e_bench.oracle import Oracle, wrong_id_sets


def _scan(intervals, qs, qe):
    return sorted(i for i, (s, e) in intervals.items() if s <= qe and e >= qs)


def test_counts_and_ids_follow_acknowledged_updates():
    rng = np.random.default_rng(5)
    starts = rng.integers(0, 1000, 300)
    ends = starts + rng.integers(0, 50, 300)
    oracle = Oracle(starts, ends, capacity=310)
    live = {i: (int(s), int(e)) for i, (s, e) in enumerate(zip(starts, ends))}
    for victim in (3, 77, 299):
        oracle.delete(victim)
        del live[victim]
    for new_id, s, e in ((300, 10, 400), (309, 990, 990)):
        oracle.insert(new_id, s, e)
        live[new_id] = (s, e)
    qs = rng.integers(0, 1000, 60)
    qe = qs + rng.integers(0, 100, 60)
    expected = [_scan(live, int(a), int(b)) for a, b in zip(qs, qe)]
    assert oracle.counts(qs, qe).tolist() == [len(ids) for ids in expected]
    for a, b, ids in zip(qs, qe, expected):
        assert oracle.ids(int(a), int(b)).tolist() == ids
    assert oracle.live_ids().tolist() == sorted(live)


def test_wrong_id_sets_compares_sets_not_order():
    oracle = Oracle(np.array([0, 10, 20]), np.array([5, 15, 25]))
    qs, qe = np.array([0, 12, 30]), np.array([11, 22, 40])
    assert wrong_id_sets(oracle, qs, qe, [(0, [1, 0]), (1, [1, 2]), (2, [])]) == 0
    assert wrong_id_sets(oracle, qs, qe, [(0, [0, 2]), (1, [1, 2, 0]), (2, [])]) == 2
