"""Sample series construction, generation, and empirical invariant estimation."""

import sys

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from stasinv import (
    DomainError,
    NoValidWindows,
    SampleSeries,
    StasParams,
    closed_form_invariant,
    detect_errors,
    estimate_invariant,
    eval_f,
    eval_s,
    sample_series,
)
from stasinv.rng import SplitMix64

from conftest import draw_params, params_st

BASE = StasParams(p=0.5, q2=1.0)
EPS = sys.float_info.epsilon


class TestSampleSeries:
    def test_unit_spacing_grid(self):
        series = SampleSeries(2.5, (1, 2, 3))
        assert series.grid() == [2.5, 3.5, 4.5]

    def test_from_s_converts_to_weighted_values(self):
        s_values = [eval_s(BASE, t) for t in (1.0, 2.0, 3.0)]
        series = SampleSeries.from_s(1.0, s_values)
        assert series.values == (-0.5, 1.25, -0.875)

    def test_from_s_rejects_zero_grid_point(self):
        with pytest.raises(DomainError):
            SampleSeries.from_s(-2.0, [1, 1, 1])

    def test_rejects_zero_step(self):
        with pytest.raises(DomainError):
            SampleSeries(0.0, (1, 2), step=0.0)

    @pytest.mark.parametrize("t0, step", [(float("nan"), 1.0), (float("inf"), 1.0),
                                          (0.0, float("nan")), (0.0, float("-inf"))])
    def test_rejects_non_finite_grid(self, t0, step):
        with pytest.raises(DomainError):
            SampleSeries(t0, (1, 2), step=step)


class TestSampleGeneration:
    @given(params_st, st.floats(-10, 10, allow_nan=False), st.integers(4, 32),
           st.sampled_from([1.0, 0.5, 0.125, 1 / 16, 0.3]))
    def test_matches_pointwise_evaluation(self, params, t0, count, step):
        series = sample_series(params, t0, count, step=step)
        scale = 1.0 + abs(params.q1) + abs(params.q2)
        for i, (t, g) in enumerate(zip(series.grid(), series.values)):
            f = eval_f(params, t)
            assert abs(g - f) <= 1e-10 * (abs(f) + scale)

    @given(params_st, st.floats(-4, 4, allow_nan=False), st.integers(1, 16), st.integers(1, 8))
    @example(StasParams(p=0.9 + 0.3j, q1=1 - 0.5j, q2=0.25, r1=5, r2=3), 0.1, 8, 8)
    @example(StasParams(p=0.5, q1=2.0, q2=-1.5j, r1=15, r2=13), -3.7, 16, 1)
    def test_every_window_holds_to_a_few_ulps_at_step_one_over_m(self, params, t0, m, blocks):
        # the trig part is evaluated on the first m grid points and its sign flipped
        # every m samples, so it cancels exactly in each window i, i+m, i+2m, i+3m;
        # evaluated at every grid point, windows at step 1/8 held only to about 2e3 ulps
        series = sample_series(params, t0, (3 + blocks) * m, step=1 / m)
        a = closed_form_invariant(params)
        assert detect_errors(series, a, 64 * EPS * (1 + abs(a))) == []

    def test_fractional_step(self):
        series = sample_series(BASE, 0.1, 8, step=0.125)
        assert series.grid()[1] == pytest.approx(0.225, abs=1e-15)
        assert abs(series.values[3] - eval_f(BASE, 0.1 + 3 * 0.125)) < 1e-12

    def test_rejects_negative_count(self):
        with pytest.raises(DomainError, match="^count must be non-negative$"):
            sample_series(BASE, 0.1, -1)


class TestEstimateInvariant:
    def test_base_sequence_sixteen_samples(self):
        series = sample_series(BASE, 1.0, 16)
        report = estimate_invariant(series)
        assert abs(report.a_hat - 4.0) < 1e-12
        assert report.max_rel_dev < 1e-12
        assert report.windows_used >= 1

    def test_all_zero_series(self):
        with pytest.raises(NoValidWindows):
            estimate_invariant(SampleSeries(0.5, (0,) * 8))

    def test_too_few_samples(self):
        with pytest.raises(NoValidWindows):
            estimate_invariant(SampleSeries(0.5, (1, 2, 3)))

    def test_random_params_match_closed_form(self):
        for trial in range(50):
            rng = SplitMix64.for_trial(11, trial)
            params = draw_params(rng)
            series = sample_series(params, 0.25, 12)
            a = closed_form_invariant(params)
            report = estimate_invariant(series)
            assert abs(report.a_hat - a) / abs(a) < 1e-9

    def test_rejects_a_step_not_one_over_m(self):
        series = sample_series(BASE, 0.1, 12, step=0.3)
        with pytest.raises(DomainError,
                           match="^invariant estimation requires a step of 1/m, got 0.3$"):
            estimate_invariant(series)

    def test_skip_counting(self):
        # every window of an alternating series has g2 + g3 = 0, so everything is
        # skipped; a family series counts each window once, used or skipped
        with pytest.raises(NoValidWindows):
            estimate_invariant(SampleSeries(1.0, (1, -1) * 6))
        series = sample_series(BASE, 1.0, 12)
        report = estimate_invariant(series)
        assert report.windows_used + report.windows_skipped == len(series) - 3
