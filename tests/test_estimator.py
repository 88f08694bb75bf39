"""Parameter recovery: invariant root, sign disambiguation, amplitude fit, search."""

import cmath

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stasinv import (
    DegenerateParameter,
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
    recover_p,
    sample_series,
    search_frequencies,
)
from stasinv.estimator import _residual_rms
from stasinv.rng import SplitMix64

from _reference import RefIllConditioned, ref_search_frequencies
from conftest import params_st

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


class TestRecoverP:
    def test_four_gives_half(self):
        cands = recover_p(4.0)
        assert set(cands) == {0.5 + 0j, -0.5 + 0j}

    def test_unit_invariant(self):
        assert set(recover_p(1.0)) == {1 + 0j, -1 + 0j}

    def test_complex_invariant(self):
        a = -0.28 - 0.96j
        cands = recover_p(a)
        for c in cands:
            assert abs(c * c * a - 1.0) < 1e-12
        assert min(abs(c - (0.6 + 0.8j)) for c in cands) < 1e-12

    def test_zero_rejected(self):
        with pytest.raises(DegenerateParameter):
            recover_p(0.0)


class TestDisambiguateP:
    def test_base_sequence_positive_root(self):
        series = sample_series(BASE, 1.0, 12)
        p, ambiguous = disambiguate_p((0.5 + 0j, -0.5 + 0j), series)
        assert p == 0.5 + 0j
        assert not ambiguous

    def test_complex_base(self):
        params = StasParams(p=0.6 + 0.8j, q1=1.0, q2=-0.5, r1=3, r2=5)
        series = sample_series(params, 0.25, 12)
        p, ambiguous = disambiguate_p((params.p, -params.p), series)
        assert p == params.p
        assert not ambiguous

    def test_minus_one_candidate_never_wins(self):
        series = sample_series(BASE, 1.0, 12)
        p, _ = disambiguate_p((-1.0 + 0j, 0.5 + 0j), series)
        assert p == 0.5 + 0j

    def test_needs_two_samples(self):
        with pytest.raises(NoValidWindows):
            disambiguate_p((0.5 + 0j, -0.5 + 0j), SampleSeries(1.0, (1.0,)))

    def test_sign_soundness_randomized(self):
        for trial in range(40):
            rng = SplitMix64.for_trial(41, trial)
            params = draw_params(rng)
            series = sample_series(params, 0.25, 16)
            p, ambiguous = disambiguate_p((params.p, -params.p), series)
            assert ambiguous or p == params.p


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

    def test_needs_four_samples(self):
        with pytest.raises(NoValidWindows):
            fit_trig(SampleSeries(0.1, (1, 2, 3), step=0.5), 0.5 + 0j, 1, 1)


class TestSearchFrequencies:
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
            assert _residual_rms(series, perturbed) >= result.residual_rms


class TestSearchOracle:
    @given(params_st,
           st.sampled_from([0.125, 0.0625, 1.0]),
           st.sampled_from(range(1, 16, 2)),
           st.integers(8, 40),
           st.one_of(st.floats(-3, 3), st.integers(-3, 3).map(float)))
    @settings(max_examples=80)
    def test_matches_per_pair_search(self, params, step, r_max, count, t0):
        series = sample_series(params, t0, count, step=step)
        try:
            (p, q1, q2, r1, r2), rms, ties = ref_search_frequencies(
                series.t0, series.step, series.values, params.p, r_max)
        except RefIllConditioned:
            with pytest.raises(IllConditioned):
                search_frequencies(series, params.p, r_max)
            return
        want = FitResult(StasParams(p=p, q1=q1, q2=q2, r1=r1, r2=r2), rms, False, ties)
        assert search_frequencies(series, params.p, r_max) == want


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
            assert not result.p_sign_ambiguous
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
        series = sample_series(BASE, 0.1, 16, step=0.3)
        with pytest.raises(DomainError):
            fit_series(series)

    def test_reports_invariant_of_unit_subseries(self):
        series = sample_series(StasParams(p=0.5, q1=1.5, q2=0.5, r1=5, r2=7),
                               0.1, 64, step=0.125)
        unit = SampleSeries(0.1, series.values[::8])
        assert fit_series(series, r_max=9).invariant == estimate_invariant(unit)
