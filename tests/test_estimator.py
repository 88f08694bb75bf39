"""Parameter recovery: base from pair sums, amplitude fit, search."""

import cmath
import struct
import sys
from fractions import Fraction
from math import cos, fsum, inf, pi, sin, sqrt
from types import SimpleNamespace
from unittest import mock

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
    detect_errors,
    disambiguate_p,
    encode_stream,
    estimate_invariant,
    fit_series,
    fit_trig,
    sample_series,
    search_frequencies,
)
import stasinv._windows as _windows
from stasinv import estimator
from stasinv.core import _phases, _powers
from stasinv.errors import StasError
from stasinv.estimator import _TrigBasis
from stasinv.rng import SplitMix64

from _reference import RefIllConditioned, ref_classes, ref_least_squares, ref_search_frequencies
from conftest import complexes, draw_params, odd_ints, params_st
from test_codec import kernel_values

BASE = StasParams(p=0.5, q2=1.0)


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
            params = draw_params(rng, r_hi=9, q_min=0.1)
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


def _base_outcome(series):
    """repr of disambiguate_p(series), or its error's type and message."""
    try:
        return repr(disambiguate_p(series))
    except StasError as exc:
        return f"{type(exc).__name__}: {exc}"


# TestDisambiguateP's error cases and the ratio kept at the skip bound
BASE_EDGE_SERIES = [
    SampleSeries(1.0, (1e-9, 0, 1e-9, 1)),
    SampleSeries(1.0, (1.0, 0.5, 0.25)),
    SampleSeries(1.0, (1, -1) * 3),
    SampleSeries(1.0, (4, 1e-9 - 4) * 3),
    SampleSeries(1.0, (1, 0, -1, 2, -3, 4, -5, 6)),
    SampleSeries(1.0, (1, 0, 0, 0, 0, 0)),
    SampleSeries(1.0, (1e308,) * 6),
    SampleSeries(0.0, (1e308 + 1e308j, 3e307 + 3e307j, 1, 1)),
    sample_series(BASE, 1.0, 12, step=0.3),
]


@st.composite
def base_streams(draw):
    """A series at step 1/m, m in {1, 2, 8}, of 3m+1 .. 3m+24 samples: a family member
    or arbitrary window-kernel values."""
    m = draw(st.sampled_from([1, 2, 8]))
    n = draw(st.integers(3 * m + 1, 3 * m + 24))
    if draw(st.booleans()):
        return sample_series(draw(params_st), draw(st.floats(-2, 2)), n, step=1 / m)
    return SampleSeries(1.0, draw(st.lists(kernel_values, min_size=n, max_size=n)), step=1 / m)


def _assert_block_free(series, block):
    """The base, or error, of series with the window kernel's _BLOCK patched to block is
    that of one block."""
    want = _base_outcome(series)
    with mock.patch.object(_windows, "_BLOCK", block):
        assert _base_outcome(series) == want


class TestDisambiguatePBlocks:
    # blocks of a few windows put the kernel's block edges everywhere

    @pytest.mark.parametrize("series", BASE_EDGE_SERIES)
    @pytest.mark.parametrize("block", [1, 2])
    def test_edge_cases(self, series, block):
        _assert_block_free(series, block)

    @given(base_streams(), st.sampled_from([1, 2]))
    # |S_i| past the float range in the last blocks, and |g_20| in a middle one
    @example(SampleSeries(1.0, [1 + 0j] * 16 + [0.75e308 + 0.75e308j] * 8, step=0.5), 1)
    @example(SampleSeries(1.0, [1 + 0j] * 20 + [1.5e308 + 1.5e308j] + [1 + 0j] * 20, step=1 / 8), 2)
    # |S_i| past the float range in the first blocks, a nan or |g_10| past it in the last
    @example(SampleSeries(1.0, [0.75e308 * (1 + 1j)] * 4 + [1 + 0j] * 6 + [complex("nan")]), 1)
    @example(SampleSeries(1.0, [0.75e308 * (1 + 1j)] * 4 + [1 + 0j] * 6
                          + [complex(1.5e308, 1.5e308)]), 1)
    def test_streams(self, series, block):
        _assert_block_free(series, block)

    @pytest.mark.parametrize("block", [1, 2, _windows._BLOCK])
    @given(base_streams())
    # S_0 = 2e-9 is above 1e-9 times window 0's scale 1, below 1e-9 times the 100 of its
    # block: kept, as the block takes its windows' scales
    @example(SampleSeries(1.0, (1, -1 + 2e-9, 0.5, 0.25, 100, 1, 2)))
    @example(SampleSeries(1.0, (1, 1, -1, 2, 1, -2, 3, 0, 1), step=0.5))  # S_i exactly 0
    # |S_0| equals the skip bound, 1e-9 times its scale, in a block with S_1 = 0: kept
    @example(SampleSeries(1.0, (1e-9, 0, 0, 1, 1)))
    @example(SampleSeries(1.0, (0,) * 6 + (1, 2, 3, 4, 5)))  # all-zero blocks
    @example(SampleSeries(1.0, (3e-320, 1e-320, 5e-324, 5e-324j, 1e-321, 2e-322, 1e-323)))
    def test_ratios_are_those_of_each_window(self, block, series):
        # the base's kept ratios S_{i+m} / S_i, against a window-by-window oracle
        g, m = series.values, round(1 / series.step)
        try:
            want = [(g[i + m] + g[i + 2 * m]) / (g[i] + g[i + m])
                    for i in range(len(g) - 3 * m) if _ref_kept(g, i, m)]
        except OverflowError:  # |S_i| past the float range
            want = None
        with mock.patch.object(_windows, "_BLOCK", block):
            if want is None:
                with pytest.raises(DomainError):
                    _windows._ratio_parts(g, m, (m, 0), "")
                return
            re, im, least, top = _windows._ratio_parts(g, m, (m, 0), "")
        assert repr([*map(complex, re, im)]) == repr(want)
        # the least denominator of every window and the greatest magnitude of every sample
        assert least == min(abs(g[i] + g[i + m]) for i in range(len(g) - 3 * m))
        assert top == max(map(abs, g))


def _ref_kept(g, i, m):
    """Whether window i of g at stride m keeps its base ratio: S_i is not 0 and not
    below SKIP_THRESHOLD times the window's scale."""
    den = g[i] + g[i + m]
    return den != 0 and not abs(den) < 1e-9 * max(abs(g[i + s * m]) for s in range(4))


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

    def test_small_normal_matrix_is_solved(self):
        # m00 = m11 = 2^-10 and m01 = 0 give the eigenvalue 2^-10 twice, condition
        # 1: the eigenvalue gap is floored at 0 only, whatever the matrix's scale
        basis = SimpleNamespace(sine={1: (None, 2.0 ** -10, 2.0 ** -10 + 0j)},
                                cosine={1: (None, 2.0 ** -10, 2.0 ** -9 + 0j)}, cross={(1, 1): 0.0})
        series = SampleSeries(0.1, (1, 2, 3, 4), step=0.125)
        assert fit_trig(series, 0.5 + 0j, 1, 1, basis=basis) == (1, 2)

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

    @pytest.mark.parametrize("bad, message", [
        (complex("nan"), "samples must be finite, found nan or inf"),
        (complex(1.5e308, 1.5e308), "a sample's magnitude exceeds the float range"),
    ])
    def test_non_finite_y_is_refused_by_its_magnitudes(self, bad, message):
        # the basis checks y = g - p^t sample by sample before any sum; a nan that
        # reached the sums would be refused only later, as an overflowed solve
        values = list(sample_series(StasParams(p=0.5, q1=1.0, r1=5), 0.1, 64, step=0.125).values)
        values[40] = bad
        with pytest.raises(DomainError, match=f"^{message}$"):
            fit_trig(SampleSeries(0.1, values, step=0.125), 0.5 + 0j, 5, 7)

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

    def test_overflowing_spread_leaves_the_fit_finite(self):
        # 1e154 added to every sample cancels in the signed class sums but not in
        # W, whose squares sum past the float range, so _TrigBasis falls back to
        # W = inf; the projections stay finite, so fit_trig still solves the pair,
        # and the search refuses with DomainError, not OverflowError
        params = StasParams(p=0.5, q1=1.5, q2=0.5, r1=5, r2=7)
        unit = sample_series(params, 0.1, 64, step=0.125)
        series = SampleSeries(unit.t0, tuple(3e153 * v + 1e154 for v in unit.values), step=0.125)
        assert _TrigBasis(series, params.p, {5, 7}).spread == inf
        q1, q2 = fit_trig(series, params.p, 5, 7)
        assert cmath.isfinite(q1) and cmath.isfinite(q2)
        with pytest.raises(DomainError, match="exceeds the float range"):
            search_frequencies(series, params.p, 9)

    def test_huge_samples_are_domain_errors(self):
        # finite samples that change sign every m = 8 samples, against the sign
        # flip of the fold: each of the 8 classes sums 1.5e308 + 1.5e308
        huge = SampleSeries(0.1, (1.5e308 + 0j,) * 8 + (-1.5e308 + 0j,) * 8, step=0.125)
        with pytest.raises(DomainError, match="exceeds the float range"):
            fit_trig(huge, 0.5 + 0j, 3, 5)

    def test_overflowing_class_sum_is_domain_error(self):
        # at step 1/8 the 32 samples fold into 8 classes of four, whose signed sums
        # pass the float range though every sample and product is finite
        huge = SampleSeries(0.1, ((1.5e308 + 0j,) * 8 + (-1.5e308 + 0j,) * 8) * 2, step=0.125)
        with pytest.raises(DomainError, match="a sum of the fit exceeds the float range"):
            fit_trig(huge, 0.5 + 0j, 3, 5)

    def test_huge_samples_that_cancel_in_the_fold_are_fitted(self):
        # the same 1.5e308 at every sample cancels exactly in each signed class
        # sum, so the least squares is q1 = q2 = 0, though W is inf
        huge = SampleSeries(0.1, (1.5e308 + 0j,) * 16, step=0.125)
        assert fit_trig(huge, 0.5 + 0j, 3, 5) == (0j, 0j)


class TestSearchFrequencies:
    def test_huge_samples_are_domain_errors(self):
        # |g|^2 overflows past about 1.3e154
        huge = SampleSeries(0.1, (1e300 + 1e300j, -1e300 + 0j) * 8, step=0.125)
        with pytest.raises(DomainError, match="exceeds the float range"):
            search_frequencies(huge, 0.5, 15)

    def test_overflowing_spread_is_refused(self):
        # p = 2 at t near 1000 makes y = g - p^t about -2^t: the signed class sums
        # and every solve stay finite, and so does rms |g|, but W is inf
        series = sample_series(StasParams(p=0.5, q1=1.0, r1=3), 1000.0, 64, step=0.125)
        assert _TrigBasis(series, 2 + 0j, {3}).spread == inf
        with pytest.raises(DomainError, match="^a sum of the fit exceeds the float range$"):
            search_frequencies(series, 2 + 0j, 3)

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
    values = tuple(v + size * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                   for v in series.values)
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


class TestSearchPairs:
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

    def test_tie_band_is_closed(self, monkeypatch):
        # every pair's residual is set here: a pair exactly 1e-9 * rms |g|
        # behind the best ties, one twice that far does not
        params = StasParams(p=0.7 + 0.3j, q1=1.2 - 0.4j, q2=-0.8 + 0.6j, r1=1, r2=3)
        unit = sample_series(params, 0.1, 64, step=0.125)
        series = SampleSeries(unit.t0, tuple(1e150 * v for v in unit.values), step=unit.step)
        band = 1e-9 * sqrt(fsum(abs(v) ** 2 for v in series.values) / len(series))
        residuals = {(1, 1): 0.0, (1, 3): band, (3, 1): 2 * band, (3, 3): 1e300}
        monkeypatch.setattr(_TrigBasis, "residual_rms",
                            lambda basis, pair: residuals[pair.r1, pair.r2])
        result = search_frequencies(series, params.p, 3)
        assert (result.residual_rms, result.tied_frequencies) == (0.0, ((1, 1), (1, 3)))

    def test_tie_band_is_at_least_1e_9(self, monkeypatch):
        # rms |g| is about 1e-3 here, so the band is 1e-9 * max(rms |g|, 1) = 1e-9:
        # a pair 1e-9 behind the best ties, one 1.25e-9 behind does not
        params = StasParams(p=0.7 + 0.3j, q1=1.2 - 0.4j, q2=-0.8 + 0.6j, r1=1, r2=3)
        unit = sample_series(params, 0.1, 64, step=0.125)
        series = SampleSeries(unit.t0, tuple(1e-3 * v for v in unit.values), step=unit.step)
        residuals = {(1, 1): 0.0, (1, 3): 1e-9, (3, 1): 1.25e-9, (3, 3): 1.0}
        monkeypatch.setattr(_TrigBasis, "residual_rms",
                            lambda basis, pair: residuals[pair.r1, pair.r2])
        result = search_frequencies(series, params.p, 3)
        assert result.tied_frequencies == ((1, 1), (1, 3))


_signed = st.builds(lambda x, negative: -x if negative else x,
                    st.just(0.0) | st.floats(1e-100, 1e300), st.booleans())


def _folded_inputs():
    """(step, values): at step 1/m, n values with 2m < n and n not a multiple
    of 2m, so the classes differ in size and in their count of flipped samples;
    at step 0.3, where each class is one sample, n from 11 to 39."""
    def draw(step, block):
        counts = st.builds(lambda k, rest: k * block + rest,
                           st.integers(1, 3), st.integers(1, block - 1))
        return counts.flatmap(lambda n: st.tuples(
            st.just(step), st.lists(st.builds(complex, _signed, _signed), min_size=n, max_size=n)))

    return st.sampled_from([(1.0, 2), (0.5, 4), (0.125, 16), (0.0625, 32), (0.3, 10)]).flatmap(
        lambda pair: draw(*pair))


def bits(values):
    return [struct.pack("<d", x) for x in values]


class TestFold:
    def test_columns_within_5e_14_of_the_exact_phase(self):
        # Fraction(t0) + i/8 is the exact sample argument.  The rounded grid
        # fl(t0 + i/8) drifts by up to half an ulp of 512, which put per-sample
        # columns 1.2e-13 (r = 1) to 2.6e-12 (r = 15) off; the m = 8 arguments
        # below 1.3, sign-flipped every 8 samples, stay within 4.7e-15.
        # Every sample i is checked, through its column entry i mod 8.
        t0, n = 1 / 3, 4096
        series = sample_series(BASE, t0, n, step=0.125)
        basis = _TrigBasis(series, BASE.p, range(1, 16, 2))
        exact = [Fraction(t0) + Fraction(i, 8) for i in range(n)]
        for r in range(1, 16, 2):
            sine, cosine = basis.sine[r][0], basis.cosine[r][0]
            assert len(sine) == len(cosine) == 8
            phases = [pi * float(r * x % 2) for x in exact]
            worst = max(max(abs((-1) ** (i // 8) * sine[i % 8] - sin(w)),
                            abs((-1) ** (i // 8) * cosine[i % 8] - cos(w)))
                        for i, w in enumerate(phases))
            assert worst < 5e-14, (r, worst)

    @given(st.sampled_from([1.0, 0.5, 0.125, 0.0625, 0.3]), st.integers(1, 80), st.floats(-3, 3))
    @example(1.0, 4, 0.1)  # m = 1: one class of four
    @example(1.0, 5, 0.1)  # one class of five, three of them flipped
    @example(0.125, 8, 0.1)  # n = m: classes of one
    @example(0.125, 9, 0.1)  # one class of two, its second sample flipped
    @example(0.125, 48, 0.1)  # classes of six
    @example(0.0625, 79, 0.1)  # classes of five and of four
    @example(0.3, 80, 0.1)  # off the 1/m grids: classes of one
    def test_columns_norms_and_cross_products_are_the_weighted_sums(self, step, n, t0):
        series = sample_series(ALIAS_PARAMS, t0, n, step=step)
        odd = range(1, 16, 2)
        basis = _TrigBasis(series, ALIAS_PARAMS.p, odd)
        m = ref_classes(step, n)
        counts = [sum(1 for i in range(n) if i % m == k) for k in range(m)]
        assert basis.counts == counts
        grid = series.grid()[:m]
        for r in odd:
            for (col, norm, _), f in ((basis.sine[r], sin), (basis.cosine[r], cos)):
                assert bits(col) == bits(map(f, _phases(r, grid)))
                assert bits([norm]) == bits([fsum(k * (x * x) for k, x in zip(counts, col))])
        for r1 in odd:
            for r2 in odd:
                want = fsum(k * (x * z) for k, x, z in
                            zip(counts, basis.sine[r1][0], basis.cosine[r2][0]))
                assert bits([basis.cross[r1, r2]]) == bits([want])

    @given(_folded_inputs(), st.floats(-3, 3), complexes(0.3, 1.0, -1.5, 1.5))
    @settings(max_examples=40)
    @example((1.0, [1e300, 1.0, -1e300]), 0.1, 0.5 + 0j)  # a class that cancels
    @example((0.125, [1e300 if i % 2 else 1e-100 for i in range(17)]), 0.1, 0.9 + 0.1j)
    @example((0.125, [complex(i, 1) for i in range(8)]), 0.1, 0.5 + 0j)  # n = m: classes of one
    @example((0.0625, [complex(i, -i) for i in range(17)]), 0.1, 0.5 + 0j)  # one class of two
    @example((0.0625, [complex(i, -i) for i in range(33)]), 0.1, 0.5 + 0j)  # one class of three
    @example((0.3, [1e300 * (-1) ** i for i in range(11)]), -0.2, 0.5 + 0j)  # classes of one
    def test_class_sums_and_projections_within_their_rounding(self, inputs, t0, p):
        # A signed class sum is one fsum, so within u/(1+u) of its exact value
        # (u = eps/2).  A projection rounds three times (class sum, product, sum
        # over classes), each within u/(1+u) of its exact value: together below
        # 3u times sum |s_k * T_k| with T_k exact, against the exact sum of
        # col_i * y_i over every sample, which is sum s_k * T_k.
        step, values = inputs
        series = SampleSeries(t0, tuple(map(complex, values)), step=step)
        basis = _TrigBasis(series, p, range(1, 16, 2))
        y = [v - w for v, w in zip(series.values, _powers(p, series.grid()))]
        n, m = len(y), ref_classes(step, len(y))
        u = Fraction(sys.float_info.epsilon) / 2
        exact = [[sum((-1) ** (i // m) * Fraction(getattr(y[i], part)) for i in range(k, n, m))
                  for k in range(m)] for part in ("real", "imag")]
        for got, want in zip(([t.real for t in basis.sums], [t.imag for t in basis.sums]), exact):
            assert len(got) == m
            for t, e in zip(got, want):
                assert abs(Fraction(t) - e) <= u * abs(e), (t, e)
        for r in range(1, 16, 2):
            for col, _, proj in (basis.sine[r], basis.cosine[r]):
                for got, sums in zip((proj.real, proj.imag), exact):
                    products = [Fraction(x) * t for x, t in zip(col, sums)]
                    assert abs(Fraction(got) - sum(products)) <= 3 * u * sum(map(abs, products))


class TestPerSampleLeastSquares:
    @given(params_st,
           st.sampled_from([0.5, 0.125, 0.0625, 0.3]),
           st.integers(8, 48),
           st.floats(-3, 3),
           st.sampled_from([0.0, 1e-12, 1e-6, 1.0]),
           st.one_of(st.none(), st.tuples(odd_ints, odd_ints)))
    @settings(max_examples=60)
    @example(ALIAS_PARAMS, 0.5, 8, 0.1, 0.0, None)  # m = 2: classes of four
    @example(ALIAS_PARAMS, 0.125, 40, 0.1, 1e-6, (3, 5))  # classes of five, a wrong pair
    @example(ALIAS_PARAMS, 0.0625, 48, -1.7, 1.0, None)  # classes of three
    @example(ALIAS_PARAMS, 0.3, 16, 0.1, 1e-12, None)  # classes of one
    def test_fold_matches_the_exact_per_sample_fit(self, params, step, count, t0, noise, pair):
        # Against the least squares over every sample in exact rationals
        # (ref_least_squares), by first-order bounds with the normal matrix's
        # eigenvalues lo <= hi and condition k = hi / lo: the norms, cross product
        # and projections within 3u of their absolute sums (u = eps/2) and the
        # 2x2 solve put each of q1, q2 within 4 eps * (k * (|q1| + |q2|) +
        # sqrt(hi) * ||y|| / lo).  The residual's parts are each within a few u
        # of rms |y| + |q1| + |q2|, so residual_rms is within 4 eps of that sum
        # plus the rms at the exact minimum, and the rounded (q1, q2) add at most
        # sqrt(hi / n) * (|dq1| + |dq2|) to that minimum.
        series = noisy(sample_series(params, t0, count, step=step), noise, count)
        r1, r2 = pair or (params.r1, params.r2)
        basis = _TrigBasis(series, params.p, {r1, r2})
        try:
            q1, q2 = fit_trig(series, params.p, r1, r2, basis=basis)
        except IllConditioned:
            return
        rms = basis.residual_rms(StasParams(p=params.p, q1=q1, q2=q2, r1=r1, r2=r2))
        exact = ref_least_squares(series.t0, step, series.values, params.p, r1, r2)
        assert exact is not None
        (re1, im1), (re2, im2), want_rms = exact
        want1, want2 = complex(re1, im1), complex(re2, im2)
        m00, m11, m01 = basis.sine[r1][1], basis.cosine[r2][1], basis.cross[r1, r2]
        disc = sqrt((m00 - m11) ** 2 + 4.0 * m01 * m01)
        lo, hi = (m00 + m11 - disc) / 2.0, (m00 + m11 + disc) / 2.0
        y = [v - w for v, w in zip(series.values, _powers(params.p, series.grid()))]
        norm_y = sqrt(fsum(abs(z) ** 2 for z in y))
        eps = sys.float_info.epsilon
        tol = 4 * eps * (hi / lo * (abs(want1) + abs(want2)) + sqrt(hi) * norm_y / lo)
        assert abs(q1 - want1) <= tol and abs(q2 - want2) <= tol
        slack = sqrt(hi / count) * (abs(q1 - want1) + abs(q2 - want2))
        bound = 4 * eps * (want_rms + norm_y / sqrt(count) + abs(q1) + abs(q2)) + slack
        assert abs(rms - want_rms) <= bound

    @given(params_st,
           st.sampled_from([1.0, 0.5, 0.125, 0.0625, 0.3]),
           st.integers(4, 48),
           st.floats(-3, 3),
           st.tuples(odd_ints, odd_ints),
           complexes(-3, 3, -3, 3),
           complexes(-3, 3, -3, 3))
    @settings(max_examples=60)
    @example(ALIAS_PARAMS, 0.125, 40, 0.1, (3, 5), 0j, 0j)  # q = 0: the rms of y itself
    @example(ALIAS_PARAMS, 1.0, 5, 0.1, (1, 1), 1 + 1j, -2j)  # m = 1: one class of five
    @example(ALIAS_PARAMS, 0.0625, 48, -1.7, (7, 9), 2.5, -1.5)  # classes of three
    @example(ALIAS_PARAMS, 0.3, 16, 0.1, (15, 1), -1j, 0.5)  # classes of one
    def test_residual_at_any_amplitudes_is_the_per_sample_sum(self, params, step, count, t0,
                                                              pair, q1, q2):
        # The fold identity ||y - q1 s - q2 c||^2 = W + sum_k |T_k - n_k (q1 s_k +
        # q2 c_k)|^2 / n_k holds for every (q1, q2), not only the least squares:
        # against the sum over every sample in exact rationals, with each sample's
        # columns (-1)^(i // m) times the basis' column entry i mod m.  Each part
        # of the residual is within a few u of rms |y| + |q1| + |q2|, as in
        # test_fold_matches_the_exact_per_sample_fit.
        series = sample_series(params, t0, count, step=step)
        r1, r2 = pair
        basis = _TrigBasis(series, params.p, {r1, r2})
        rms = basis.residual_rms(StasParams(p=params.p, q1=q1, q2=q2, r1=r1, r2=r2))
        y = [v - w for v, w in zip(series.values, _powers(params.p, series.grid()))]
        m = ref_classes(step, count)
        sine, cosine = basis.sine[r1][0], basis.cosine[r2][0]
        total = Fraction(0)
        for i, v in enumerate(y):
            sign = (-1) ** (i // m)
            x, z = sign * Fraction(sine[i % m]), sign * Fraction(cosine[i % m])
            for part, a1, a2 in ((v.real, q1.real, q2.real), (v.imag, q1.imag, q2.imag)):
                total += (Fraction(part) - Fraction(a1) * x - Fraction(a2) * z) ** 2
        want_rms = sqrt(total / count)
        norm_y = sqrt(fsum(abs(z) ** 2 for z in y))
        eps = sys.float_info.epsilon
        bound = 4 * eps * (want_rms + norm_y / sqrt(count) + abs(q1) + abs(q2))
        assert abs(rms - want_rms) <= bound, (rms, want_rms, bound)


class TestFitSeries:
    def test_full_pipeline_on_eighth_grid(self):
        # Step 1/8 aliases r with 16 - r: at t0 = 0.1 the sine and cosine
        # columns of 9 span the same plane as those of 7, so every pair drawn
        # from {7, 9}^2 fits the data exactly and the four tie.  Any other
        # pair with r <= 9 is separated and recovered uniquely.
        alias_class = {(7, 7), (7, 9), (9, 7), (9, 9)}
        for trial in range(25):
            rng = SplitMix64.for_trial(51, trial)
            params = draw_params(rng, r_hi=9, q_min=0.1)
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

    @pytest.mark.parametrize("nan_at", [0, 2])
    def test_magnitude_past_the_float_range_wins_over_a_nan_in_another_class(self, nan_at):
        # a nan in class 0, which the invariant and base stages read, and a magnitude
        # past the float range at sample 9001, in class 1: the fit reports the magnitude,
        # as estimate_invariant, disambiguate_p and the codec's sweeps do
        values = list(sample_series(BASE, 0.1, 9010, step=0.5).values)
        values[nan_at], values[9001] = complex("nan"), complex(1.5e308, 1.5e308)
        series = SampleSeries(0.1, values, step=0.5)
        message = "^a sample's magnitude exceeds the float range$"
        for operation in (fit_series, estimate_invariant, disambiguate_p,
                          lambda s: detect_errors(s, 4.0, 1e-6), lambda s: encode_stream(s, 4.0)):
            with pytest.raises(DomainError, match=message):
                operation(series)

    @pytest.mark.parametrize("step, n, need", [(1.0, 3, 4), (1.0, 4, 8), (1.0, 7, 8),
                                               (0.5, 6, 7), (0.5, 7, 8)])
    def test_short_series_names_the_samples_it_needs(self, step, n, need):
        # 3m + 1 samples hold a window of every stage but the frequency search's 8
        with pytest.raises(NoValidWindows, match=f"^need at least {need} samples, got {n}$"):
            fit_series(sample_series(BASE, 0.1, n, step=step))

    def test_reports_invariant_of_unit_subseries(self):
        series = sample_series(StasParams(p=0.5, q1=1.5, q2=0.5, r1=5, r2=7),
                               0.1, 64, step=0.125)
        unit = SampleSeries(0.1, series.values[::8])
        assert fit_series(series, r_max=9).invariant == estimate_invariant(unit)


@pytest.mark.parametrize("operation", [
    estimate_invariant, disambiguate_p, fit_series, lambda s: detect_errors(s, 4.0, 1e-6),
    lambda s: encode_stream(s, 4.0), lambda s: search_frequencies(s, 0.5, 3)],
    ids=["estimate_invariant", "disambiguate_p", "fit_series", "detect_errors", "encode_stream",
         "search_frequencies"])
def test_an_earlier_overflow_leaves_a_nan_a_nan(operation):
    # an overflow leaves errno at ERANGE, and CPython's abs of a complex with a nan
    # part then raises OverflowError unless something clears errno first
    series = SampleSeries(0.1, [complex("nan")] + [1 + 0j] * 15, step=0.5)
    with pytest.raises(OverflowError):
        abs(complex(1.5e308, 1.5e308))
    with pytest.raises(DomainError, match="^samples must be finite, found nan or inf$"):
        operation(series)
