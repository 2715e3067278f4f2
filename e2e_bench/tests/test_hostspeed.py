"""Host-speed scaling: arithmetic only, no wall-clock assertions."""

import pytest

from e2e_bench import hostspeed


def test_slowdown_is_the_mean_of_the_two_probes_over_the_reference():
    ref = hostspeed.REFERENCE_S
    assert hostspeed.slowdown(ref, ref) == pytest.approx(1.0)
    assert hostspeed.slowdown(ref, 3 * ref) == pytest.approx(2.0)


def test_probe_reports_cpu_time_of_the_fixed_work():
    assert hostspeed.probe() > 0


def test_sampler_probes_at_least_once_and_stops():
    with hostspeed.Sampler(interval=0.001) as speed:
        pass
    assert len(speed.probes) >= 1
    assert speed.slowdown() == pytest.approx(
        sum(speed.probes) / len(speed.probes) / hostspeed.REFERENCE_S)
    assert not speed._thread.is_alive()
