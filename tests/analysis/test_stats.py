"""Unit + property tests for boxplot stats and linear fitting."""

import pytest
from hypothesis import given, strategies as st

from repro.analysis.stats import boxplot_stats, linear_fit


class TestBoxplotStats:
    def test_simple_five_numbers(self):
        stats = boxplot_stats([1, 2, 3, 4, 5])
        assert stats.median == 3
        assert stats.minimum == 1 and stats.maximum == 5
        assert stats.q1 == 2 and stats.q3 == 4

    def test_single_value(self):
        stats = boxplot_stats([7.0])
        assert stats.median == 7.0
        assert stats.stdev == 0.0
        assert stats.iqr == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            boxplot_stats([])

    def test_outlier_detection(self):
        values = [10, 11, 12, 13, 14, 100]
        stats = boxplot_stats(values)
        assert 100 in stats.outliers
        assert stats.whisker_high < 100

    def test_no_outliers_whiskers_at_extremes(self):
        stats = boxplot_stats([1, 2, 3, 4, 5])
        assert stats.whisker_low == 1
        assert stats.whisker_high == 5


class TestLinearFit:
    def test_perfect_line(self):
        fit = linear_fit([0, 1, 2, 3], [10, 8, 6, 4])
        assert fit.slope == pytest.approx(-2.0)
        assert fit.intercept == pytest.approx(10.0)
        assert fit.r_squared == pytest.approx(1.0)
        assert fit.is_decreasing

    def test_predict(self):
        fit = linear_fit([0, 1], [0, 2])
        assert fit.predict(3) == pytest.approx(6.0)

    def test_noisy_line_r2_below_one(self):
        fit = linear_fit([0, 1, 2, 3, 4], [0, 2.2, 3.6, 6.5, 7.9])
        assert 0.9 < fit.r_squared < 1.0

    def test_flat_data(self):
        fit = linear_fit([0, 1, 2], [5, 5, 5])
        assert fit.slope == pytest.approx(0.0)
        assert fit.r_squared == pytest.approx(1.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            linear_fit([1, 2], [1])

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            linear_fit([1], [1])


values = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    min_size=1, max_size=50,
)


@given(values)
def test_five_numbers_are_ordered(vals):
    stats = boxplot_stats(vals)
    assert (
        stats.minimum <= stats.whisker_low <= stats.q1
        <= stats.median <= stats.q3 <= stats.whisker_high <= stats.maximum
    )


@given(values)
def test_mean_within_range(vals):
    stats = boxplot_stats(vals)
    assert stats.minimum - 1e-9 <= stats.mean <= stats.maximum + 1e-9


@given(values)
def test_outliers_lie_outside_whiskers(vals):
    stats = boxplot_stats(vals)
    for outlier in stats.outliers:
        assert outlier < stats.whisker_low or outlier > stats.whisker_high


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            st.floats(min_value=-100, max_value=100, allow_nan=False),
        ),
        min_size=2, max_size=30,
    ).filter(lambda pts: max(x for x, _ in pts) - min(x for x, _ in pts) > 1e-6)
)
def test_r_squared_bounded(points):
    xs, ys = zip(*points)
    fit = linear_fit(xs, ys)
    assert fit.r_squared <= 1.0 + 1e-9
