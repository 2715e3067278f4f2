"""Verdicts of compare.py on hand-made run sets."""

from e2e_bench.compare import quartiles, verdict

STEADY = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]


def test_quartiles_match_the_drivers_definition():
    assert quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == (2.75, 5.5, 8.25)
    assert quartiles([4.0]) == (4.0, 4.0, 4.0)


def test_regressed_when_worse_by_more_than_the_bound():
    slower = [v * 1.2 for v in STEADY]
    assert verdict(STEADY, slower, 0.10, lower_is_better=True) == "regressed"
    assert verdict(STEADY, slower, 0.10, lower_is_better=False) == "improved"


def test_unchanged_within_the_bound_and_the_spread():
    assert verdict(STEADY, [v * 1.003 for v in STEADY], 0.10, True) == "unchanged"
    assert verdict(STEADY, [v * 1.05 for v in STEADY], 0.10, True) == "unchanged"


def test_improved_needs_more_than_the_parents_own_spread():
    assert verdict(STEADY, [v * 0.9 for v in STEADY], 0.10, True) == "improved"


def test_unresolved_when_the_parent_is_noisier_than_the_bound_and_runs_overlap():
    noisy = [60.0, 80.0, 100.0, 120.0, 140.0, 70.0, 90.0, 110.0, 130.0, 100.0]
    assert verdict(noisy, [v * 1.15 for v in noisy], 0.10, True) == "unresolved"
    # ... unless every run of one side beats every run of the other
    assert verdict(noisy, [v * 3 for v in noisy], 0.10, True) == "regressed"
