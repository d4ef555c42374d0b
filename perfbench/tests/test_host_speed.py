import pytest

from perfbench.harness import PROBE_EXPONENT, PROBE_REF_S, HostSpeed, at_reference_speed


def test_reference_probes_leave_the_time_as_measured():
    assert at_reference_speed(1.5, PROBE_REF_S, PROBE_REF_S) == pytest.approx(1.5)


def test_a_slow_host_scales_the_time_down_by_the_probe_exponent():
    slow = 2.0 * PROBE_REF_S
    assert at_reference_speed(2.0, slow, slow) == pytest.approx(2.0 / 2.0 ** PROBE_EXPONENT)


def test_the_probes_on_either_side_are_averaged():
    assert at_reference_speed(1.0, 0.5 * PROBE_REF_S, 1.5 * PROBE_REF_S) == pytest.approx(1.0)


def test_probe_records_its_samples():
    speed = HostSpeed()
    first = speed.probe()
    second = speed.probe()
    assert speed.samples == [first, second]
    assert first > 0 and second > 0
