import pytest

from loadbench.stats import MIN_BEYOND, UnsupportedPercentile, percentile, quartile_spread


def test_median_needs_ten_samples_beyond_it():
    assert percentile(range(20), 50).value == 9  # rank 10 of 20 leaves 10 beyond
    with pytest.raises(UnsupportedPercentile, match="n=19"):
        percentile(range(19), 50)


def test_p90_needs_a_hundred_samples():
    result = percentile([float(i) for i in range(100)], 90)
    assert (result.value, result.n) == (89.0, 100)
    with pytest.raises(UnsupportedPercentile, match=r"n=99 leaves 9 .*n=100 required"):
        percentile(range(99), 90)


def test_the_refusal_counts_samples_strictly_beyond_the_rank():
    samples = list(range(MIN_BEYOND * 4))
    rank = 3 * MIN_BEYOND
    assert percentile(samples, 75).value == samples[rank - 1]
    with pytest.raises(UnsupportedPercentile):
        percentile(samples, 76)


def test_unsorted_input_and_percentile_range():
    assert percentile([5, 1, 4, 2, 3] * 4, 50).value == 3
    with pytest.raises(ValueError):
        percentile(range(100), 100)


def test_quartile_spread_is_a_share_of_the_median():
    assert quartile_spread([10.0] * 10) == 0.0
    assert quartile_spread([8, 9, 10, 11, 12]) == pytest.approx((11.5 - 8.5) / 10)
