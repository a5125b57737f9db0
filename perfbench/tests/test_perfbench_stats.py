import pytest

import stats


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == (50, 50)
    assert stats.percentile(values, 90) == (90, 10)
    assert stats.percentile(values, 99) == (99, 1)


@pytest.mark.parametrize("count, expected_q", [
    (19, None),      # even the median has only 9 samples beyond it
    (20, 50.0),
    (99, 50.0),      # p90 would leave 9 beyond
    (100, 90.0),
    (999, 90.0),
    (1000, 99.0),
    (10000, 99.9),
])
def test_tail_percentile_needs_ten_samples_beyond(count, expected_q):
    tail = stats.tail_percentile([float(v) for v in range(count)])
    if expected_q is None:
        assert tail is None
    else:
        assert tail[0] == expected_q
        value, beyond = stats.percentile(range(count), expected_q)
        assert tail[1] == value and beyond >= 10


def test_tail_percentile_ignores_input_order():
    values = [5.0, 1.0, 9.0, 3.0] * 30
    assert stats.tail_percentile(values) == stats.tail_percentile(
        sorted(values))


def test_spread_is_interquartile_range_over_median():
    values = [10.0, 10.0, 10.0, 10.0, 11.0, 9.0, 12.0, 8.0, 10.0, 10.0]
    assert stats.spread([10.0] * 10) == 0.0
    assert 0.0 < stats.spread(values) < 0.2
