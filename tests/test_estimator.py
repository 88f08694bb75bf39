"""Parameter recovery: base from pair sums, amplitude fit, search."""

import cmath
import struct
import sys
from fractions import Fraction
from math import cos, fsum, inf, pi, sin, sqrt
from operator import mul
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stasinv import (
    DomainError,
    FitResult,
    IllConditioned,
    NoValidWindows,
    SampleSeries,
    StasParams,
    disambiguate_p,
    estimate_invariant,
    fit_series,
    fit_trig,
    sample_series,
    search_frequencies,
)
from stasinv import estimator
from stasinv.core import _phases
from stasinv.estimator import _TrigBasis
from stasinv.rng import SplitMix64

from _reference import RefIllConditioned, ref_period, ref_rms_bounds, ref_search_frequencies
from conftest import complexes, odd_ints, params_st

BASE = StasParams(p=0.5, q2=1.0)


def draw_params(rng, r_hi=9, q_min=0.1):
    while True:
        p = rng.uniform_complex(0.3, 1.0, -1.5, 1.5)
        if abs(1 + p) >= 1e-6:
            break
    while True:
        q1 = rng.uniform_complex(-2, 2, -2, 2)
        if abs(q1) >= q_min:
            break
    while True:
        q2 = rng.uniform_complex(-2, 2, -2, 2)
        if abs(q2) >= q_min:
            break
    return StasParams(p=p, q1=q1, q2=q2,
                      r1=rng.odd_int(1, r_hi), r2=rng.odd_int(1, r_hi))


class TestDisambiguateP:
    def test_base_sequence_positive_root(self):
        assert disambiguate_p(sample_series(BASE, 1.0, 12)) == 0.5 + 0j

    def test_negative_base_is_exact(self):
        series = sample_series(StasParams(p=-0.5), 1.0, 12)
        assert disambiguate_p(series) == -0.5 + 0j

    def test_complex_base(self):
        params = StasParams(p=0.6 + 0.8j, q1=1.0, q2=-0.5, r1=3, r2=5)
        p = disambiguate_p(sample_series(params, 0.25, 12))
        assert abs(p - params.p) <= 1e-12 * abs(params.p)

    def test_sign_soundness_randomized(self):
        for trial in range(40):
            rng = SplitMix64.for_trial(41, trial)
            params = draw_params(rng)
            p = disambiguate_p(sample_series(params, 0.25, 16))
            assert abs(p - params.p) <= 1e-12 * abs(params.p)

    @settings(max_examples=200)
    @given(modulus=st.floats(0.7, 1.5), arg=st.floats(-2.0, 2.0),
           q1=complexes(-2, 2, -2, 2), q2=complexes(-2, 2, -2, 2), r1=odd_ints, r2=odd_ints,
           t0=st.floats(-2.0, 2.0), count=st.integers(4, 16))
    @example(modulus=1.0, arg=2.0, q1=1 + 1j, q2=-2j, r1=3, r2=5, t0=0.5, count=4)  # one ratio
    def test_recovers_p_with_its_sign(self, modulus, arg, q1, q2, r1, r2, t0, count):
        # |arg p| up to 2 puts Re p below 0, where a = 1/p^2 alone cannot tell p from -p
        params = StasParams(p=cmath.rect(modulus, arg), q1=q1, q2=q2, r1=r1, r2=r2)
        p = disambiguate_p(sample_series(params, t0, count))
        assert abs(p - params.p) <= 1e-12 * abs(params.p)

    def test_ratio_at_the_skip_bound_is_kept(self):
        # |S_0| = 1e-9 is exactly SKIP_THRESHOLD * max |g|: kept, as estimate_invariant keeps it
        assert disambiguate_p(SampleSeries(1.0, (1e-9, 0, 1e-9, 1))) == 1 + 0j

    def test_needs_four_samples(self):
        with pytest.raises(NoValidWindows, match="need at least 4 samples"):
            disambiguate_p(SampleSeries(1.0, (1.0, 0.5, 0.25)))

    @pytest.mark.parametrize("values", [
        (1, -1) * 3,  # every pair sum is 0
        (4, 1e-9 - 4) * 3,  # every |S_i| is about 1e-9, below SKIP_THRESHOLD * 4
    ])
    def test_every_ratio_skipped(self, values):
        with pytest.raises(NoValidWindows, match="every pair-sum ratio was skipped"):
            disambiguate_p(SampleSeries(1.0, values))

    @pytest.mark.parametrize("values, message", [
        ((1, 0, -1, 2, -3, 4, -5, 6), "p = -1 is excluded"),  # pair sums 1, -1, 1, ...
        ((1, 0, 0, 0, 0, 0), "p must be non-zero"),  # the one ratio kept is 0
        ((1e308,) * 6, "must be finite"),  # every pair sum overflows to inf, every ratio is nan
    ])
    def test_median_outside_the_family(self, values, message):
        with pytest.raises(DomainError, match=message):
            disambiguate_p(SampleSeries(1.0, values))

    def test_overflowing_pair_sum_is_domain_error(self):
        # each |g| is finite, |g0 + g1| = |(1.3e308, 1.3e308)| is not
        series = SampleSeries(0.0, (1e308 + 1e308j, 3e307 + 3e307j, 1, 1))
        with pytest.raises(DomainError, match="exceeds the float range"):
            disambiguate_p(series)

    def test_step_of_one_over_m_required(self):
        with pytest.raises(DomainError, match="^base recovery requires a step of 1/m, got 0.3$"):
            disambiguate_p(sample_series(BASE, 1.0, 12, step=0.3))


class TestFitTrig:
    def test_half_step_grid_example(self):
        params = StasParams(p=0.5, q1=2.0, q2=-1.0, r1=1, r2=3)
        series = sample_series(params, 0.1, 16, step=0.5)
        q1, q2 = fit_trig(series, 0.5 + 0j, 1, 3)
        assert abs(q1 - 2.0) < 1e-9
        assert abs(q2 - (-1.0)) < 1e-9

    def test_zero_amplitudes(self):
        params = StasParams(p=0.5 + 0.2j)
        series = sample_series(params, 0.1, 16, step=0.5)
        q1, q2 = fit_trig(series, params.p, 1, 1)
        assert abs(q1) < 1e-12
        assert abs(q2) < 1e-12

    def test_integer_grid_ill_conditioned(self):
        series = sample_series(BASE, 1.0, 16)
        with pytest.raises(IllConditioned):
            fit_trig(series, 0.5 + 0j, 1, 1)

    def test_unit_grid_ill_conditioned(self):
        # on any unit-spaced grid both trig columns are multiples of (-1)^k,
        # so the normal matrix is singular for every odd frequency pair
        params = StasParams(p=0.5, q1=1.0, q2=1.0, r1=3, r2=5)
        series = sample_series(params, 0.25, 24)
        with pytest.raises(IllConditioned):
            fit_trig(series, 0.5 + 0j, 3, 5)

    def test_condition_limit_sits_at_1e12(self):
        # at step 1/8, cos(15*pi*t) is the sine column of r = 1 turned by
        # pi*(16*t0 - 1/2), so near t0 = 1/32 the condition is about
        # 1.6e-3 / offset**2: 2.5e12 and 4.4e11 here, each within a factor
        # of 4 of the limit, which an eigenvalue off by 2 would cross
        params = StasParams(p=0.5, q1=1.0, q2=1.0, r1=1, r2=15)
        near = sample_series(params, 1 / 32 + 2.5e-8, 16, step=0.125)
        with pytest.raises(IllConditioned, match=r"condition 2\.5\d\de\+12 exceeds"):
            fit_trig(near, 0.5 + 0j, 1, 15)
        farther = sample_series(params, 1 / 32 + 6e-8, 16, step=0.125)
        q1, q2 = fit_trig(farther, 0.5 + 0j, 1, 15)
        assert abs(q1 - 1.0) < 1e-3 and abs(q2 - 1.0) < 1e-3

    def test_condition_exactly_at_the_limit_is_solved(self):
        # m00 = 1e12, m11 = 1 and m01 = 0 give eigenvalues 1e12 and 1 exactly:
        # only a condition past COND_LIMIT is refused
        basis = SimpleNamespace(sine={1: (None, 1e12, 1e12 + 0j)}, cosine={1: (None, 1.0, 1 + 0j)},
                                cross={(1, 1): 0.0})
        series = SampleSeries(0.1, (1, 2, 3, 4), step=0.125)
        assert fit_trig(series, 0.5 + 0j, 1, 1, basis=basis) == (1, 1)

    def test_overflowing_solve_names_the_pair(self):
        # finite sums, but m11*b0 overflows in the 2x2 solve
        series = sample_series(StasParams(p=0.5, q1=1.5, q2=0.5, r1=5, r2=7),
                               0.1, 64, step=0.125)
        huge = SampleSeries(series.t0, tuple(v * 1e306 for v in series.values), step=0.125)
        with pytest.raises(DomainError, match=r"least-squares solve for \(r1, r2\) = \(5, 7\)"):
            fit_trig(huge, 0.5 + 0j, 5, 7)

    def test_one_overflowing_amplitude_is_refused(self):
        # only the sine part: q1 overflows in the solve while q2 stays finite
        series = sample_series(StasParams(p=0.5, q1=1.0, r1=5), 0.1, 64, step=0.125)
        huge = SampleSeries(series.t0, tuple(v * 1e306 for v in series.values), step=0.125)
        with pytest.raises(DomainError, match=r"least-squares solve for \(r1, r2\) = \(5, 7\)"):
            fit_trig(huge, 0.5 + 0j, 5, 7)

    def test_four_samples_are_enough(self):
        params = StasParams(p=0.5, q1=2.0, q2=-1.0, r1=1, r2=3)
        q1, q2 = fit_trig(sample_series(params, 0.1, 4, step=0.125), 0.5 + 0j, 1, 3)
        assert abs(q1 - 2.0) < 1e-9 and abs(q2 + 1.0) < 1e-9
        with pytest.raises(NoValidWindows, match="need at least 4 samples, got 3"):
            fit_trig(sample_series(params, 0.1, 3, step=0.125), 0.5 + 0j, 1, 3)

    def test_ratio_at_the_skip_bound_is_kept(self):
        # |S_0| = 1e-9 is exactly SKIP_THRESHOLD * max |g|: kept, as estimate_invariant keeps it
        assert disambiguate_p(SampleSeries(1.0, (1e-9, 0, 1e-9, 1))) == 1 + 0j

    def test_needs_four_samples(self):
        with pytest.raises(NoValidWindows):
            fit_trig(SampleSeries(0.1, (1, 2, 3), step=0.5), 0.5 + 0j, 1, 1)

    def test_overflowing_yy_leaves_the_fit_finite(self):
        # at 3e153 the sum of |g - p^t|^2 overflows, so _TrigBasis falls back to
        # yy = inf; the projections stay finite, so fit_trig still solves the pair,
        # and the search's own sums of squares refuse with DomainError, not OverflowError
        params = StasParams(p=0.5, q1=1.5, q2=0.5, r1=5, r2=7)
        unit = sample_series(params, 0.1, 64, step=0.125)
        series = SampleSeries(unit.t0, tuple(3e153 * v for v in unit.values), step=0.125)
        assert _TrigBasis(series, params.p, {5, 7}).yy == inf
        q1, q2 = fit_trig(series, params.p, 5, 7)
        assert cmath.isfinite(q1) and cmath.isfinite(q2)
        with pytest.raises(DomainError, match="exceeds the float range"):
            search_frequencies(series, params.p, 9)

    def test_huge_samples_are_domain_errors(self):
        # finite samples whose projection sums overflow
        huge = SampleSeries(0.1, (1.5e308 + 0j,) * 16, step=0.125)
        with pytest.raises(DomainError, match="exceeds the float range"):
            fit_trig(huge, 0.5 + 0j, 3, 5)

    def test_overflowing_class_sum_is_domain_error(self):
        # at step 1/8 the 32 samples fold into 16 classes of two, whose sums
        # pass the float range though every sample and product is finite
        huge = SampleSeries(0.1, (1.5e308 + 0j,) * 32, step=0.125)
        with pytest.raises(DomainError, match="a sum of the fit exceeds the float range"):
            fit_trig(huge, 0.5 + 0j, 3, 5)


class TestSearchFrequencies:
    def test_huge_samples_are_domain_errors(self):
        # |g|^2 overflows past about 1.3e154
        huge = SampleSeries(0.1, (1e300 + 1e300j, -1e300 + 0j) * 8, step=0.125)
        with pytest.raises(DomainError, match="exceeds the float range"):
            search_frequencies(huge, 0.5, 15)

    def test_recovers_five_seven(self):
        params = StasParams(p=0.5, q1=1.5, q2=0.5, r1=5, r2=7)
        series = sample_series(params, 0.1, 16, step=0.125)
        result = search_frequencies(series, 0.5 + 0j, r_max=9)
        assert (result.params.r1, result.params.r2) == (5, 7)
        assert result.residual_rms < 1e-9
        assert (5, 7) in result.tied_frequencies

    def test_pure_exponential(self):
        series = sample_series(StasParams(p=0.5), 0.1, 16, step=0.125)
        result = search_frequencies(series, 0.5 + 0j, r_max=3)
        assert abs(result.params.q1) < 1e-10
        assert abs(result.params.q2) < 1e-10
        assert result.residual_rms < 1e-10
        # all pairs fit a signal with no oscillation: everything ties
        assert len(result.tied_frequencies) == 4

    def test_singleton_search(self):
        params = StasParams(p=0.5, q1=1.0, q2=1.0)
        series = sample_series(params, 0.1, 16, step=0.125)
        result = search_frequencies(series, 0.5 + 0j, r_max=1)
        assert (result.params.r1, result.params.r2) == (1, 1)
        assert result.tied_frequencies == ((1, 1),)

    def test_even_r_max_rejected(self):
        series = sample_series(BASE, 0.1, 16, step=0.125)
        with pytest.raises(DomainError):
            search_frequencies(series, 0.5 + 0j, r_max=4)

    def test_needs_eight_samples(self):
        series = sample_series(BASE, 0.1, 6, step=0.125)
        with pytest.raises(NoValidWindows):
            search_frequencies(series, 0.5 + 0j, r_max=3)

    def test_unit_grid_propagates_ill_conditioned(self):
        series = sample_series(StasParams(p=0.5, q1=1.0, q2=1.0, r1=3, r2=5), 0.25, 24)
        with pytest.raises(IllConditioned):
            search_frequencies(series, 0.5 + 0j, r_max=9)

    def test_residual_local_optimality(self):
        params = StasParams(p=0.5, q1=1.5, q2=0.5, r1=5, r2=7)
        series = sample_series(params, 0.1, 16, step=0.125)
        result = search_frequencies(series, 0.5 + 0j, r_max=9)
        rng = SplitMix64(55)
        for _ in range(10):
            phase1 = rng.uniform(0.0, 2 * cmath.pi)
            phase2 = rng.uniform(0.0, 2 * cmath.pi)
            perturbed = StasParams(
                p=result.params.p,
                q1=result.params.q1 + 1e-3 * cmath.exp(1j * phase1),
                q2=result.params.q2 + 1e-3 * cmath.exp(1j * phase2),
                r1=result.params.r1, r2=result.params.r2)
            basis = _TrigBasis(series, perturbed.p, {perturbed.r1, perturbed.r2})
            assert basis.residual_rms(perturbed) >= result.residual_rms


def assert_search_matches_oracle(series, p, r_max):
    """search_frequencies equals the per-pair reference search; returns its result."""
    try:
        best, rms, ties = ref_search_frequencies(series.t0, series.step, series.values,
                                                 p, r_max)
    except RefIllConditioned:
        with pytest.raises(IllConditioned):
            search_frequencies(series, p, r_max)
        return None
    want = FitResult(StasParams(*best), rms, ties)
    result = search_frequencies(series, p, r_max)
    assert result == want
    return result


def noisy(series, relative, seed):
    """series plus seeded uniform noise of `relative` times its largest magnitude."""
    size = relative * max(abs(v) for v in series.values)
    rng = SplitMix64(seed)
    values = tuple(v + size * rng.uniform_complex(-1, 1, -1, 1) for v in series.values)
    return SampleSeries(series.t0, values, step=series.step)


# At step 1/8 and t0 = 0.1, every pair drawn from {7, 9}^2 fits these data exactly.
ALIAS_CLASS = {(7, 7), (7, 9), (9, 7), (9, 9)}
ALIAS_PARAMS = StasParams(p=0.9 + 0.2j, q1=1.5 - 0.5j, q2=-0.7 + 1.2j, r1=7, r2=9)


class TestSearchOracle:
    @given(params_st,
           st.sampled_from([0.125, 0.0625, 1.0]),
           st.sampled_from(range(1, 16, 2)),
           st.integers(8, 40),
           st.one_of(st.floats(-3, 3), st.integers(-3, 3).map(float)))
    @settings(max_examples=80)
    def test_matches_per_pair_search(self, params, step, r_max, count, t0):
        series = sample_series(params, t0, count, step=step)
        assert_search_matches_oracle(series, params.p, r_max)

    @given(params_st,
           st.sampled_from([0.125, 0.0625]),
           st.integers(8, 64),
           st.floats(-3, 3),
           st.integers(0, 2**64 - 1),
           st.floats(-9, 0))
    @settings(max_examples=60)
    def test_matches_per_pair_search_on_noisy_data(self, params, step, count, t0, seed,
                                                    exponent):
        # noise of relative size 1e-9 .. 1 leaves many pairs with comparable
        # residuals, so the screen must keep every pair that could tie
        series = noisy(sample_series(params, t0, count, step=step), 10.0 ** exponent, seed)
        assert_search_matches_oracle(series, params.p, 15)

    def test_near_exact_fit(self):
        # the winner's six closed-form terms are of order n and cancel to
        # below their own rounding
        params = StasParams(p=0.8 + 0.3j, q1=1.5 - 0.5j, q2=-0.7 + 1.2j, r1=5, r2=11)
        result = assert_search_matches_oracle(sample_series(params, 0.1, 256, step=0.0625),
                                              params.p, 15)
        assert result.residual_rms < 1e-12
        assert result.tied_frequencies == ((5, 11),)

    def test_near_tie_inside_the_band(self):
        # g = p^t + x_a + k*x_b with x_a the trig part of pair a = (3, 5) and
        # x_b a cos(7*pi*t) term: pair a's residual is k times that at k = 1,
        # pair b = (3, 7)'s does not depend on k, and every other pair misses
        # more.  k puts pair a half a tie band behind b; both must tie.
        a = StasParams(p=0.8 + 0.3j, q1=1.5 - 0.5j, q2=-0.7 + 1.2j, r1=3, r2=5)
        b = StasParams(p=a.p, q2=1.1 - 0.2j, r1=3, r2=7)
        base = sample_series(a, 0.1, 256, step=0.0625)
        x_b = [v - w for v, w in zip(sample_series(b, 0.1, 256, step=0.0625).values,
                                     sample_series(StasParams(p=a.p), 0.1, 256,
                                                   step=0.0625).values)]

        def series_at(k):
            return SampleSeries(0.1, tuple(v + k * x for v, x in zip(base.values, x_b)),
                                step=0.0625)

        def rms(series, pair):
            basis = _TrigBasis(series, a.p, {pair.r1, pair.r2})
            q1, q2 = fit_trig(series, a.p, pair.r1, pair.r2, basis=basis)
            return basis.residual_rms(StasParams(p=a.p, q1=q1, q2=q2, r1=pair.r1, r2=pair.r2))

        unit = series_at(1.0)
        band = 1e-9 * max(sqrt(fsum(abs(v) ** 2 for v in unit.values) / len(unit)), 1.0)
        series = series_at((rms(unit, b) + band / 2) / rms(unit, a))
        assert 0.4 * band < rms(series, a) - rms(series, b) < 0.6 * band
        result = assert_search_matches_oracle(series, a.p, 15)
        assert result.tied_frequencies == ((3, 5), (3, 7))

    @pytest.mark.parametrize("noise", [0.0, 1e-6, 1.0])
    def test_alias_class_all_tie(self, noise):
        # the four pairs fit the same plane, so they tie at any noise level
        series = noisy(sample_series(ALIAS_PARAMS, 0.1, 128, step=0.125), noise, 7)
        result = assert_search_matches_oracle(series, ALIAS_PARAMS.p, 15)
        assert set(result.tied_frequencies) == ALIAS_CLASS


class TestSearchScreen:
    def test_every_pair_calls_fit_trig_once(self, monkeypatch):
        # the benchmark's pair counters count these calls
        calls = []
        exact = estimator.fit_trig

        def counted(series, p, r1, r2, *, basis=None):
            calls.append((r1, r2))
            return exact(series, p, r1, r2, basis=basis)

        monkeypatch.setattr(estimator, "fit_trig", counted)
        series = sample_series(ALIAS_PARAMS, 0.1, 64, step=0.125)
        search_frequencies(series, ALIAS_PARAMS.p, r_max=15)
        odd = range(1, 16, 2)
        assert len(calls) == 64
        assert calls == [(r1, r2) for r1 in odd for r2 in odd]

    @pytest.fixture
    def exact_passes(self, monkeypatch):
        calls = []
        exact = _TrigBasis.residual_rms

        def counted(basis, params):
            calls.append((params.r1, params.r2))
            return exact(basis, params)

        monkeypatch.setattr(_TrigBasis, "residual_rms", counted)
        return calls

    @pytest.mark.parametrize("params, count", [
        (StasParams(p=0.999 * cmath.exp(0.7j), q1=1.2 + 0.4j, q2=-0.3 + 0.9j, r1=3, r2=5),
         4096),
        (ALIAS_PARAMS, 128),
    ])
    def test_only_candidates_take_the_exact_pass(self, exact_passes, params, count):
        series = sample_series(params, 0.1, count, step=0.125)
        result = search_frequencies(series, params.p, 15)
        assert set(result.tied_frequencies) <= set(exact_passes)
        assert len(result.tied_frequencies) <= len(exact_passes) <= 8

    def test_pairs_past_the_screen_limit_all_take_the_exact_pass(self, exact_passes):
        # at 1e150 the closed form's terms sum past _SCREEN_LIMIT for every pair
        params = StasParams(p=0.7 + 0.3j, q1=1.2 - 0.4j, q2=-0.8 + 0.6j, r1=5, r2=3)
        unit = sample_series(params, 0.1, 64, step=0.125)
        series = SampleSeries(unit.t0, tuple(1e150 * v for v in unit.values), step=unit.step)
        odd = range(1, 10, 2)
        basis = _TrigBasis(series, params.p, odd)
        data_scale = sqrt(fsum(abs(v) ** 2 for v in series.values) / len(series))
        for r1 in odd:
            for r2 in odd:
                q1, q2 = fit_trig(series, params.p, r1, r2, basis=basis)
                pair = StasParams(p=params.p, q1=q1, q2=q2, r1=r1, r2=r2)
                assert basis.rms_bounds(pair, data_scale) == (-inf, inf)
        assert_search_matches_oracle(series, params.p, 9)
        assert len(exact_passes) == 25

    def test_tie_band_is_closed(self, monkeypatch):
        # at 1e150 every pair takes the exact pass, whose residuals are set
        # here: a pair exactly 1e-9 * rms |g| behind the best ties, one twice
        # that far does not
        params = StasParams(p=0.7 + 0.3j, q1=1.2 - 0.4j, q2=-0.8 + 0.6j, r1=1, r2=3)
        unit = sample_series(params, 0.1, 64, step=0.125)
        series = SampleSeries(unit.t0, tuple(1e150 * v for v in unit.values), step=unit.step)
        band = 1e-9 * sqrt(fsum(abs(v) ** 2 for v in series.values) / len(series))
        residuals = {(1, 1): 0.0, (1, 3): band, (3, 1): 2 * band, (3, 3): 1e300}
        monkeypatch.setattr(_TrigBasis, "residual_rms",
                            lambda basis, pair: residuals[pair.r1, pair.r2])
        result = search_frequencies(series, params.p, 3)
        assert (result.residual_rms, result.tied_frequencies) == (0.0, ((1, 1), (1, 3)))

    @given(params_st,
           st.sampled_from([0.125, 0.0625]),
           st.integers(8, 64),
           st.floats(-3, 3),
           st.sampled_from([0.0, 1e-12, 1e-6, 1.0]))
    @settings(max_examples=40)
    def test_bounds_enclose_the_exact_pass(self, params, step, count, t0, noise):
        series = noisy(sample_series(params, t0, count, step=step), noise, count)
        basis = _TrigBasis(series, params.p, range(1, 16, 2))
        data_scale = sqrt(fsum(abs(v) ** 2 for v in series.values) / count)
        for r1 in range(1, 16, 2):
            for r2 in range(1, 16, 2):
                try:
                    q1, q2 = fit_trig(series, params.p, r1, r2, basis=basis)
                except IllConditioned:
                    continue
                pair = StasParams(p=params.p, q1=q1, q2=q2, r1=r1, r2=r2)
                lo, hi = basis.rms_bounds(pair, data_scale)
                assert lo <= basis.residual_rms(pair) <= hi

    @given(params_st,
           st.sampled_from([0.125, 0.0625, 0.3]),
           st.integers(8, 48),
           st.floats(-3, 3),
           st.sampled_from([0.0, 1e-6, 1.0]))
    @settings(max_examples=30)
    @example(StasParams(p=0.8 + 0.3j, q1=1.5 - 0.5j, q2=-0.7 + 1.2j, r1=5, r2=11),
             0.125, 40, 1 / 3, 1e-6)
    def test_bounds_follow_the_closed_form(self, params, step, count, t0, noise):
        # term by term against the reference, so that no term of the bound
        # is dropped or loosened unseen while the bounds still enclose
        series = noisy(sample_series(params, t0, count, step=step), noise, count)
        basis = _TrigBasis(series, params.p, range(1, 16, 2))
        data_scale = sqrt(fsum(abs(v) ** 2 for v in series.values) / count)
        for r1 in range(1, 16, 2):
            for r2 in range(1, 16, 2):
                try:
                    q1, q2 = fit_trig(series, params.p, r1, r2, basis=basis)
                except IllConditioned:
                    continue
                pair = StasParams(p=params.p, q1=q1, q2=q2, r1=r1, r2=r2)
                want = ref_rms_bounds(series.t0, series.step, series.values, params.p,
                                      q1, q2, r1, r2, data_scale)
                assert bits(basis.rms_bounds(pair, data_scale)) == bits(want)

    def test_terms_summing_to_the_screen_limit_are_still_bounded(self):
        # only a sum past _SCREEN_LIMIT gets (-inf, inf): with q1 = q2 = 0 the
        # sum is yy, here exactly 1e300
        a = 0.99e150
        series = SampleSeries(0.0, (complex(a), complex(sqrt(1e300 - a * a))))
        basis = _TrigBasis(series, 0.5 + 0j, {1})
        assert basis.yy == estimator._SCREEN_LIMIT
        pair = StasParams(p=0.5)
        data_scale = sqrt(basis.yy / 2)
        lo, hi = basis.rms_bounds(pair, data_scale)
        assert 0.0 < lo <= basis.residual_rms(pair) <= hi < inf


_signed = st.builds(lambda x, negative: -x if negative else x,
                    st.just(0.0) | st.floats(1e-100, 1e300), st.booleans())


def _folded_inputs():
    """(step, values): at step 1/m, n values with 2m < n and n not a multiple
    of 2m; at step 0.3, which has no period, n from 11 to 39."""
    def draw(step, block):
        counts = st.builds(lambda k, rest: k * block + rest,
                           st.integers(1, 3), st.integers(1, block - 1))
        return counts.flatmap(lambda n: st.tuples(
            st.just(step), st.lists(st.builds(complex, _signed, _signed), min_size=n, max_size=n)))

    return st.sampled_from([(1.0, 2), (0.5, 4), (0.125, 16), (0.0625, 32), (0.3, 10)]).flatmap(
        lambda pair: draw(*pair))


def bits(values):
    return [struct.pack("<d", x) for x in values]


class TestPeriodicColumns:
    def test_columns_within_5e_14_of_the_exact_phase(self):
        # Fraction(t0) + i/8 is the exact sample argument.  The rounded grid
        # fl(t0 + i/8) drifts by up to half an ulp of 512, which put per-sample
        # columns 1.2e-13 (r = 1) to 2.6e-12 (r = 15) off; one period of
        # arguments below 2.5 stays within 8.4e-15.
        # Every sample i is checked, through its column entry i mod 16.
        t0, n = 1 / 3, 4096
        series = sample_series(BASE, t0, n, step=0.125)
        basis = _TrigBasis(series, BASE.p, range(1, 16, 2))
        exact = [Fraction(t0) + Fraction(i, 8) for i in range(n)]
        for r in range(1, 16, 2):
            sine, cosine = basis.sine[r][0], basis.cosine[r][0]
            assert len(sine) == len(cosine) == 16
            phases = [pi * float(r * x % 2) for x in exact]
            worst = max(max(abs(sine[i % 16] - sin(w)), abs(cosine[i % 16] - cos(w)))
                        for i, w in enumerate(phases))
            assert worst < 5e-14, (r, worst)

    @given(st.sampled_from([1.0, 0.5, 0.125, 0.0625, 0.3]), st.integers(1, 80), st.floats(-3, 3))
    @example(1.0, 4, 0.1)  # 2m = 2: two copies
    @example(1.0, 5, 0.1)  # two copies and one sample
    @example(0.125, 16, 0.1)  # n = 2m: one period, untiled
    @example(0.125, 17, 0.1)  # one period and one sample
    @example(0.125, 48, 0.1)  # three copies
    @example(0.0625, 79, 0.1)  # two copies and 15 samples
    @example(0.3, 80, 0.1)  # no period
    def test_period_sums_equal_the_sums_over_every_sample(self, step, n, t0):
        series = sample_series(ALIAS_PARAMS, t0, n, step=step)
        odd = range(1, 16, 2)
        basis = _TrigBasis(series, ALIAS_PARAMS.p, odd)
        period = ref_period(step, n)
        grid = series.grid()[:period]

        def tiled(head):
            return [head[i % period] for i in range(n)]

        for r in odd:
            for (head, norm, _), f in ((basis.sine[r], sin), (basis.cosine[r], cos)):
                assert len(head) == period
                assert bits(head) == bits(map(f, _phases(r, grid)))
                col = tiled(head)
                assert bits([norm]) == bits([fsum(map(mul, col, col))])
        for r1 in odd:
            for r2 in odd:
                want = fsum(map(mul, tiled(basis.sine[r1][0]), tiled(basis.cosine[r2][0])))
                assert bits([basis.cross[r1, r2]]) == bits([want])

    @given(_folded_inputs(), st.floats(-3, 3), complexes(0.3, 1.0, -1.5, 1.5))
    @settings(max_examples=40)
    @example((1.0, [1e300, 1.0, -1e300]), 0.1, 0.5 + 0j)  # a class that cancels
    @example((0.125, [1e300 if i % 2 else 1e-100 for i in range(17)]), 0.1, 0.9 + 0.1j)
    @example((0.0625, [complex(i, -i) for i in range(17)]), 0.1, 0.5 + 0j)  # 2m > n: no fold
    @example((0.0625, [complex(i, -i) for i in range(33)]), 0.1, 0.5 + 0j)  # one class of two
    @example((0.3, [1e300 * (-1) ** i for i in range(11)]), -0.2, 0.5 + 0j)  # no period
    def test_projections_within_3u_of_the_exact_sums(self, inputs, t0, p):
        # Each fold rounds three times (class sum, product, sum over classes),
        # each within u/(1+u) of its exact value: together below 3u times
        # sum |c_i * y_i|, against the exact sum of c_i * y_i over every sample.
        step, values = inputs
        series = SampleSeries(t0, tuple(map(complex, values)), step=step)
        basis = _TrigBasis(series, p, range(1, 16, 2))
        y = [v - w for v, w in zip(series.values, basis.pt)]
        n, period = len(y), ref_period(step, len(y))
        u = Fraction(sys.float_info.epsilon) / 2
        parts = ([Fraction(z.real) for z in y], [Fraction(z.imag) for z in y])
        for r in range(1, 16, 2):
            for head, _, proj in (basis.sine[r], basis.cosine[r]):
                assert len(head) == period
                col = [Fraction(head[i % period]) for i in range(n)]
                for got, part in zip((proj.real, proj.imag), parts):
                    products = list(map(mul, col, part))
                    size = sum(map(abs, products))
                    assert abs(Fraction(got) - sum(products)) <= 3 * u * size, (r, got)


class TestFitSeries:
    def test_full_pipeline_on_eighth_grid(self):
        # Step 1/8 aliases r with 16 - r: at t0 = 0.1 the sine and cosine
        # columns of 9 span the same plane as those of 7, so every pair drawn
        # from {7, 9}^2 fits the data exactly and the four tie.  Any other
        # pair with r <= 9 is separated and recovered uniquely.
        alias_class = {(7, 7), (7, 9), (9, 7), (9, 9)}
        for trial in range(25):
            rng = SplitMix64.for_trial(51, trial)
            params = draw_params(rng)
            series = sample_series(params, 0.1, 64, step=0.125)
            result = fit_series(series, r_max=9)
            true_pair = (params.r1, params.r2)
            assert abs(result.params.p - params.p) / abs(params.p) < 1e-8
            assert true_pair in result.tied_frequencies
            if true_pair in alias_class:
                assert set(result.tied_frequencies) == alias_class
                assert result.residual_rms < 1e-9
            else:
                assert result.tied_frequencies == (true_pair,)
                assert (result.params.r1, result.params.r2) == true_pair
                assert abs(result.params.q1 - params.q1) < 1e-8
                assert abs(result.params.q2 - params.q2) < 1e-8

    def test_unit_series_runs_invariant_stage_directly(self):
        series = sample_series(StasParams(p=0.5, q1=1.0, q2=1.0, r1=3, r2=5), 0.25, 24)
        with pytest.raises(IllConditioned):
            fit_series(series, r_max=9)

    def test_irregular_step_rejected(self):
        for step in (0.3, 1e-320):  # 1/1e-320 is infinite
            series = sample_series(BASE, 0.1, 16, step=step)
            with pytest.raises(DomainError, match=f"^fitting requires a step of 1/m, got {step}$"):
                fit_series(series)

    def test_reports_invariant_of_unit_subseries(self):
        series = sample_series(StasParams(p=0.5, q1=1.5, q2=0.5, r1=5, r2=7),
                               0.1, 64, step=0.125)
        unit = SampleSeries(0.1, series.values[::8])
        assert fit_series(series, r_max=9).invariant == estimate_invariant(unit)
