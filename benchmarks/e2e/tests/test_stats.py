"""Nearest-rank percentiles and median-of-rounds on known data."""

from e2e import stats


def test_percentile_is_nearest_rank():
    data = [15, 20, 35, 40, 50]
    assert stats.percentile(data, 0.05) == 15
    assert stats.percentile(data, 0.30) == 20
    assert stats.percentile(data, 0.40) == 20
    assert stats.percentile(data, 0.50) == 35
    assert stats.percentile(data, 1.00) == 50
    assert stats.percentile([7], 0.99) == 7
    # order of arrival does not matter, and the value is always a sample
    assert stats.percentile([50, 15, 40, 20, 35], 0.5) == 35


def test_p50_never_exceeds_a_higher_percentile_of_the_same_set():
    data = [((i * 7919) % 101) / 10 for i in range(300)]
    assert stats.p50(data) <= stats.percentile(data, 0.9) \
        <= stats.percentile(data, 0.99) <= max(data)


def test_median_of_rounds_drops_a_spoilt_round():
    quiet = [[1.0, 1.1, 0.9], [1.0, 1.0, 1.0], [0.9, 1.1, 1.0],
             [1.0, 0.9, 1.1]]
    burst = [[9.0, 8.0, 9.5]]                 # a neighbour burst, one round
    assert stats.median_of_rounds(quiet + burst, stats.mean) == 1.0
    assert stats.median_of_rounds(quiet + burst, stats.p50) == 1.0
    # rounds without samples are skipped, not counted as zero
    assert stats.median_of_rounds([[2.0], [], [4.0]], stats.mean) == 3.0


def test_tail_keeps_ten_samples_beyond_it():
    share, value = stats.tail(list(range(1, 2001)))
    assert share == 0.99 and value == 1980
    share, value = stats.tail(list(range(1, 101)))
    assert abs(share - 0.90) < 1e-9 and value == 90
    share, _ = stats.tail([1.0, 2.0, 3.0])
    assert share == 0.5


def test_quartile_spread_and_worsening():
    values = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]
    assert 0.0 < stats.quartile_spread(values) < 0.05
    assert stats.relative_worsening(10.0, 11.0, "lower") > 0.09
    assert stats.relative_worsening(10.0, 11.0, "higher") < -0.09
    assert stats.relative_worsening(10.0, 9.0, "higher") > 0.09
