import math

import pytest

from perfbench.stats import geomean, highest_supported, percentile, supported


def test_p99_needs_a_thousand_samples():
    assert supported(1000, 99.0)
    assert not supported(999, 99.0)


def test_highest_supported_leaves_ten_beyond():
    assert highest_supported(10_000) == 99.9
    assert highest_supported(1000) == 99.0
    assert highest_supported(999) == 95.0
    assert highest_supported(200) == 95.0
    assert highest_supported(100) == 90.0
    assert highest_supported(40) == 75.0
    assert highest_supported(20) == 50.0
    assert highest_supported(19) is None


@pytest.mark.parametrize("n", [20, 100, 999, 1000, 1234])
def test_supported_percentile_has_ten_larger_samples(n):
    values = list(range(n))
    p = highest_supported(n)
    cut = percentile(values, p)
    assert sum(1 for v in values if v > cut) >= 10


def test_percentile_is_nearest_rank():
    values = [5, 1, 4, 2, 3]
    assert percentile(values, 50) == 3
    assert percentile(values, 100) == 5
    assert percentile(values, 1) == 1
    assert percentile(list(range(1, 101)), 99) == 99


def test_geomean():
    assert geomean([2.0, 8.0]) == pytest.approx(4.0)
    assert geomean([1.0, 10.0, 100.0]) == pytest.approx(10.0)
    # one large subject cannot hide the others the way a sum does
    assert geomean([100.0, 1.0]) == pytest.approx(10.0)
    assert math.isclose(geomean([3.0]), 3.0)
    with pytest.raises(ValueError):
        geomean([1.0, 0.0])
