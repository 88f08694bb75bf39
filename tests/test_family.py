"""Parametric family evaluation and the four-point invariant."""

import cmath
import math
import re
import struct
from itertools import islice

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from stasinv import (
    DomainError,
    SingularWindow,
    StasParams,
    closed_form_invariant,
    eval_f,
    eval_s,
    invariant_ratio,
)
from stasinv.core import _phases
from stasinv.rng import SplitMix64, _flat_pass, _lanes, _one_by_one, _trial_params, verify_trials

from conftest import complexes, odd_ints, params_st
from _reference import (_ref_reduced_phase, ref_f, ref_invariant, ref_invariant_ratio_coherent,
                        ref_verify_draws)

BASE = StasParams(p=0.5, q2=1.0)  # the discrete alternating-decay specialization


class TestStasParams:
    def test_rejects_zero_p(self):
        with pytest.raises(DomainError):
            StasParams(p=0)

    def test_rejects_minus_one_p(self):
        with pytest.raises(DomainError):
            StasParams(p=-1)

    @pytest.mark.parametrize("r", [0, 2, -4])
    def test_rejects_even_frequencies(self, r):
        with pytest.raises(DomainError):
            StasParams(p=0.5, r1=r)

    def test_rejects_non_integer_frequency(self):
        with pytest.raises(DomainError):
            StasParams(p=0.5, r2=3.0)

    def test_negative_odd_frequency_allowed(self):
        params = StasParams(p=0.5, q1=1, r1=-3)
        assert params.r1 == -3

    @pytest.mark.parametrize("kwargs", [{"p": float("nan")}, {"p": complex(float("-inf"), 0)},
                                        {"p": 0.5, "q1": float("nan")},
                                        {"p": 0.5, "q2": complex(0, float("inf"))}])
    def test_rejects_non_finite_values(self, kwargs):
        with pytest.raises(DomainError, match="must be finite"):
            StasParams(**kwargs)

    def test_coerces_to_complex(self):
        params = StasParams(p=0.5, q1=1, q2=2)
        assert params.p == 0.5 + 0j and isinstance(params.p, complex)


class TestEvalF:
    def test_base_at_one(self):
        # (1/2)^1 + cos(pi) = 0.5 - 1
        assert eval_f(BASE, 1.0) == -0.5

    def test_base_at_zero(self):
        # p^0 + q2*cos(0) = 1 + 1
        assert eval_f(BASE, 0.0) == 2.0

    def test_pure_exponential(self):
        params = StasParams(p=0.7 + 0.2j)
        for t in (2.0, -3.5, 0.25):
            expected = cmath.exp(t * cmath.log(params.p))
            assert abs(eval_f(params, t) - expected) <= 1e-15 * abs(expected)

    def test_integer_exponent_is_exact(self):
        assert eval_f(StasParams(p=2.0), 3.0) == 8.0

    def test_an_int_t_is_its_float(self):
        # p^t finds the integer-valued t by float(t), so an int t, too large for a float included
        params = StasParams(p=0.7 + 0.2j, q2=1.0)
        assert eval_f(params, 3) == eval_f(params, 3.0)
        assert invariant_ratio(params, 5) == invariant_ratio(params, 5.0)
        with pytest.raises(DomainError, match="^p\\^t exceeds the float range"):
            eval_f(params, 10**400)

    @given(params_st, st.floats(-20, 20, allow_nan=False))
    def test_matches_reference_pointwise(self, params, t):
        ref = ref_f(params.p, params.q1, params.q2, params.r1, params.r2, t)
        scale = abs(ref) + abs(params.q1) + abs(params.q2) + 1.0
        assert abs(eval_f(params, t) - ref) <= 1e-10 * scale


class TestPhases:
    @given(st.integers(-15, 15).map(lambda k: 2 * k + 1),
           st.lists(st.floats(-1e300, 1e300) | st.floats(-40, 40), max_size=20))
    def test_matches_reference_bit_for_bit(self, r, ts):
        want = [math.pi * _ref_reduced_phase(r, t) for t in ts]
        assert [struct.pack("<d", x) for x in _phases(r, ts)] == \
            [struct.pack("<d", x) for x in want]

    @given(st.sampled_from([3, -5, 15]),
           st.lists(st.floats(-40, 40), max_size=5),
           st.floats(1.2e308, 1.7e308) | st.sampled_from([float("inf"), float("-inf")]),
           st.booleans())
    def test_product_past_the_float_range_names_its_t(self, r, ts, big, negate):
        bad = -big if negate else big
        with pytest.raises(DomainError, match=(
                rf"^the phase r\*t = {r}\*{re.escape(str(bad))} is outside the float range$")):
            _phases(r, ts + [bad] + ts)


class TestEvalS:
    def test_base_at_two(self):
        assert eval_s(BASE, 2.0) == 0.625

    def test_base_at_three(self):
        # ((1/8) - 1) / 3 = -7/24
        assert abs(eval_s(BASE, 3.0) - (-7 / 24)) < 1e-16

    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            eval_s(BASE, 0.0)


class TestInvariantRatio:
    def test_base_window_at_one_is_four(self):
        assert invariant_ratio(BASE, 1.0) == 4.0

    def test_pure_exponential_ratio(self):
        params = StasParams(p=2.0)
        for t in (0.5, 5.0, -7.25):
            assert abs(invariant_ratio(params, t) - 0.25) < 1e-14

    def test_complex_params_far_negative_t(self):
        params = StasParams(p=0.6 + 0.8j, q1=1.1 - 0.3j, q2=-0.7 + 0.2j, r1=3, r2=5)
        value = invariant_ratio(params, -17.5)
        # independent route: the defining s-based ratio, checked for constancy
        for t in (-17.5, -12.25, 4.75, 8.5):
            assert abs(ref_invariant(params.p, params.q1, params.q2,
                                     params.r1, params.r2, t) - value) < 1e-9
        assert abs(value - (-0.28 - 0.96j)) < 1e-12

    @pytest.mark.parametrize("t", [0.0, -1.0, -2.0, -3.0, -2, 0, -0.0])
    def test_excluded_points(self, t):
        message = f"t = {t} is outside the invariant's domain"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            invariant_ratio(BASE, t)

    def test_zero_ratio_is_positive_zero(self):
        # the numerator underflows to 0 and the denominator is (-0.0, 1e-299) before its + 0j,
        # whose -0.0 would flip the sign of the ratio's zero imaginary part
        value = invariant_ratio(StasParams(p=-1e23j), -16.0)
        assert value == 0
        assert math.copysign(1.0, value.real) == math.copysign(1.0, value.imag) == 1.0

    def test_singular_window(self):
        # p small enough that p^{t+2} and p^{t+3} underflow to exactly zero
        params = StasParams(p=1e-300)
        with pytest.raises(SingularWindow):
            invariant_ratio(params, 2.0)


class TestRatios:
    # a trial's ratios one at a time raise the error of its first failing window
    @pytest.mark.parametrize("p, ts, error", [
        (0.5, [-1023.5, -1030.5], "^a pair sum exceeds the float range$"),
        (2.0, [1020.5], "^a pair sum exceeds the float range$"),  # the denominator's only
        (0.5, [-1030.5, -1023.5], "^p\\^t exceeds the float range"),
        (0.5, [-1030.5, -3.0], "^p\\^t exceeds the float range"),
        (0.5, [-10.5, -3.0, -1030.5], "^t = -3.0 is outside the invariant's domain$"),
        (1e-150, [-2.5, 2.0], "^p\\^t exceeds the float range"),
    ])
    def test_the_first_failing_window_raises(self, p, ts, error):
        with pytest.raises(DomainError, match=error) as info:
            list(_one_by_one([StasParams(p)], ts, len(ts), 0.0))
        assert not isinstance(info.value.__context__, DomainError)  # not another window's error

    def test_a_singular_window_after_a_good_one(self):
        # p^(t+2) underflows to 0 from t = 0.16 on, and p^t overflows below t = -2.05
        with pytest.raises(SingularWindow, match="^f\\(t\\+2\\) \\+ f\\(t\\+3\\) = 0 at t = 2.0$"):
            list(_one_by_one([StasParams(1e-150)], [-0.98, 2.0, -2.5], 3, 0.0))


class TestClosedForm:
    def test_base_value(self):
        assert closed_form_invariant(BASE) == 4.0

    def test_identity_base(self):
        assert closed_form_invariant(StasParams(p=1.0)) == 1.0

    def test_unit_modulus_complex(self):
        # |p| = 1, so 1/p^2 is the conjugate of p^2
        value = closed_form_invariant(StasParams(p=0.6 + 0.8j))
        assert abs(value - (-0.28 - 0.96j)) < 1e-12

    @pytest.mark.parametrize("p, message", [
        (1e-320, "p^2 underflows to 0 for p = (1e-320+0j)"),
        (1e-160, "1/p^2 exceeds the float range for p = (1e-160+0j)"),  # p^2 is subnormal
        (1e-160 + 1e-160j, "1/p^2 exceeds the float range for p = (1e-160+1e-160j)"),
    ])
    def test_out_of_range_is_domain_error(self, p, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            closed_form_invariant(StasParams(p))

    def test_a_value_near_the_float_maximum_is_returned(self):
        assert closed_form_invariant(StasParams(p=7.5e-155)) == 1.7777777777777781e308


class TestInvariantProperties:
    @given(params_st,
           st.floats(-20, -10, allow_nan=False),
           st.floats(0.5, 20, allow_nan=False))
    def test_constancy_across_t(self, params, t1, t2):
        a = closed_form_invariant(params)
        r1 = invariant_ratio(params, t1)
        r2 = invariant_ratio(params, t2)
        assert abs(r1 - r2) / abs(a) < 1e-9

    @given(params_st, st.floats(-20, 20, allow_nan=False))
    # exact powering of p^-4 = 1/p^4 overflows inside and gives nan; the
    # principal branch gives the underflowed value
    @example(StasParams(p=-1e100), -4.0)
    def test_agrees_with_closed_form(self, params, t):
        assume(t not in (0.0, -1.0, -2.0, -3.0))
        a = closed_form_invariant(params)
        assert abs(invariant_ratio(params, t) - a) / abs(a) < 1e-9

    @given(params_st, complexes(-2, 2, -2, 2), complexes(-2, 2, -2, 2),
           st.floats(0.5, 20, allow_nan=False))
    def test_oscillation_independence(self, params, q1_new, q2_new, t):
        swapped = StasParams(p=params.p, q1=q1_new, q2=q2_new,
                             r1=params.r1, r2=params.r2)
        a = closed_form_invariant(params)
        assert abs(invariant_ratio(params, t) - invariant_ratio(swapped, t)) / abs(a) < 1e-9

    def test_real_extension_specialization(self):
        rng = SplitMix64(77)
        for _ in range(100):
            t = rng.uniform(3.0, 50.0)
            while t in (3.0,):
                t = rng.uniform(3.0, 50.0)
            assert abs(invariant_ratio(BASE, t) - 4.0) / 4.0 < 1e-12

    @given(st.one_of(complexes(0.3, 1.0, -1.5, 1.5), complexes(-4, 4, -4, 4)),
           st.one_of(complexes(-2, 2, -2, 2), complexes(-1.7e308, 1.7e308, -1.7e308, 1.7e308)),
           st.one_of(complexes(-2, 2, -2, 2), complexes(-1.7e308, 1.7e308, -1.7e308, 1.7e308)),
           odd_ints, odd_ints,
           st.one_of(st.floats(-20, 20), st.integers(-60, 60).map(float),
                     st.floats(-1100, 1100), st.floats(-1e300, 1e300)))
    @settings(max_examples=300)
    # the numerator's parts sum to -0.0, which the exactly rounded sum turns into 0.0
    @example(complex(2.605553329049934e-119, -8.98935281940497e+223), 0j, 0j, 1, 1,
             -2.5456405741346657)
    def test_matches_coherent_oracle_bit_for_bit(self, p, q1, q2, r1, r2, t):
        # the oscillatory terms cancel exactly in fsum, so dropping them changes
        # no result wherever the oracle returns one
        assume(p not in (0, -1) and t not in (0.0, -1.0, -2.0, -3.0))
        try:
            expected = ref_invariant_ratio_coherent(p, q1, q2, r1, r2, t)
        except (OverflowError, ValueError, ZeroDivisionError):
            return
        got = invariant_ratio(StasParams(p=p, q1=q1, q2=q2, r1=r1, r2=r2), t)
        assert struct.pack("<2d", got.real, got.imag) == \
            struct.pack("<2d", expected.real, expected.imag)

    @given(params_st, st.floats(-20, 20, allow_nan=False))
    @settings(max_examples=200)
    def test_pair_sum_cancellation(self, params, t):
        lhs = eval_f(params, t) + eval_f(params, t + 1)
        p_t = cmath.exp(t * cmath.log(params.p)) if not t.is_integer() else params.p ** int(t)
        rhs = p_t * (1 + params.p)
        budget = 1e-10 * (abs(p_t) + abs(p_t * params.p)
                          + abs(params.q1) + abs(params.q2))
        assert abs(lhs - rhs) <= budget


def _bits(*zs):
    """The binary64 bits of the real and imaginary parts of zs."""
    return struct.pack(f"<{2 * len(zs)}d", *(x for z in zs for x in (z.real, z.imag)))


@st.composite
def flat_batches(draw):
    """Bases (of verify's range, real, or wide), the points of a trial, and that many t a base."""
    ps = draw(st.lists(st.one_of(complexes(0.3, 1.0, -1.5, 1.5), complexes(0.3, 1.0, 0.0, 0.0),
                                 complexes(-4, 4, -4, 4)), min_size=1, max_size=4))
    points = draw(st.integers(1, 3))
    ts = draw(st.lists(st.one_of(st.floats(-20, 20), st.integers(-30, 30).map(float),
                                 st.floats(-1100, 1100)),
                       min_size=points * len(ps), max_size=points * len(ps)))
    return ps, points, ts


class TestVerifyTrials:
    def test_excluded_t_is_redrawn(self):
        # about half the draws in [-3, -3 + ulp) land on the excluded -3.0
        t_max = math.nextafter(-3.0, 0.0)
        for _, _, rows, _ in verify_trials(1, 3, -3.0, t_max):
            assert [t for t, _, _ in rows] == [t_max] * 5
            assert all(cmath.isfinite(ratio) for _, ratio, _ in rows)

    @pytest.mark.parametrize("seed", [0, -3, 2**64 + 5])
    @pytest.mark.parametrize("trials", [1, 63, 64, 65, 130])  # the edges of 64-trial batches
    @pytest.mark.parametrize("points", [1, 5, 7])
    @pytest.mark.parametrize("t_min, t_max", [(-20.0, -10.0), (-3.0, -3.0 + 8 * math.ulp(3.0)),
                                              (-20.0, -20.0 + 8 * math.ulp(20.0))])
    def test_draws_match_a_scalar_oracle_bit_for_bit(self, seed, trials, points, t_min, t_max):
        # in [-3, -3 + 8 ulp) about one t in 16 lands on -3 and is drawn again, often
        # past the 8 + points outputs that a batch takes of each trial; in [-20, -20 + 8 ulp]
        # about one t in 16 is exactly -20, which takes exact integer powering
        got = list(verify_trials(seed, trials, t_min, t_max, points))
        expected = list(ref_verify_draws(seed, trials, t_min, t_max, points))
        assert len(got) == len(expected) == trials
        worst = 0.0
        for (params, a, rows, got_worst), ((p, q1, q2, r1, r2), ts, _) in zip(got, expected):
            assert _bits(params.p, params.q1, params.q2) == _bits(p, q1, q2)
            assert (params.r1, params.r2) == (r1, r2)
            assert _bits(*(t for t, _, _ in rows)) == _bits(*ts)
            ref_a = 1.0 / (p * p)
            assert _bits(a) == _bits(ref_a)
            for (_, ratio, dev), t in zip(rows, ts):
                ref_ratio = ref_invariant_ratio_coherent(p, q1, q2, r1, r2, t)
                assert _bits(ratio, dev) == _bits(ref_ratio, abs(ref_ratio - ref_a) / abs(ref_a))
                worst = max(worst, dev)
            assert _bits(got_worst) == _bits(worst)
        if t_min == -3.0 and trials >= 63:
            assert any(drawn > points for *_, drawn in expected)

    @pytest.mark.parametrize("seed, yielded, error", [
        (0, 88, "^a pair sum exceeds the float range$"),
        (2, 27, "^p\\^t exceeds the float range for p = "),  # inside the first batch
    ])
    def test_a_failing_trial_raises_after_the_trials_before_it(self, seed, yielded, error):
        # at t in [-800, -700) a small |p| takes p^t, or only a pair sum, past the float range
        trials = verify_trials(seed, 200, -800.0, -700.0)
        assert sum(1 for _ in islice(trials, yielded)) == yielded
        with pytest.raises(DomainError, match=error):
            next(trials)

    def test_a_zero_denominator_raises_after_the_trials_before_it(self):
        # at t in [1000, 1100) both powers of a pair underflow to 0 for a small |p|
        trials = verify_trials(0, 70, 1000.0, 1100.0, points=2)
        assert sum(1 for _ in islice(trials, 50)) == 50  # inside the first batch
        message = "f(t+2) + f(t+3) = 0 at t = 1099.446764759893"
        with pytest.raises(SingularWindow, match="^" + re.escape(message) + "$"):
            next(trials)

    @given(st.integers(-2**65, 2**65), st.integers(1, 130))
    @example(0, 130)  # every trial index up to the third batch's second
    def test_unchecked_members_pass_the_checked_constructor(self, seed, trials):
        # _trial_params builds its members without StasParams' checks, which the draw bounds hold
        for params, _, _, _ in verify_trials(seed, trials, -20.0, -10.0, points=1):
            checked = StasParams(params.p, params.q1, params.q2, params.r1, params.r2)
            assert params == checked and repr(params) == repr(checked)

    @given(flat_batches(), st.sampled_from([0.0, 1e-3, math.inf]))
    # a real base: a power's imaginary part is -0.0 at t < 0, so at t = -2.5 the
    # numerator's is -0.0 until `+ 0j`, and the ratio's follows it
    @example(([0.5 + 0j, 0.5 - 1j], 2, [-2.5, -10.25, 3.25, -0.5]), 0.0)
    # t + 1 is not (t + 0.5) + 0.5, and the ratio tells them apart
    @example(([0.9097230778575793 - 0.4079567164578919j], 1, [0.27593028151026616]), 0.0)
    def test_the_flat_pass_is_one_trial_at_a_time(self, batch, worst):
        # bit for bit, or None where it cannot be: an integer-valued argument, a power or
        # a pair sum past the float range, a zero denominator
        ps, points, ts = batch
        assume(all(p not in (0, -1) for p in ps))
        members = [StasParams(p, 1j, -1.0, 3, 5) for p in ps]
        flat = _flat_pass(members, ts, points, worst)
        got, error = [], None
        try:
            for params, a, rows, trial_worst in _one_by_one(members, ts, points, worst):
                got.append((params, _bits(a, trial_worst, *(x for row in rows for x in row))))
        except (DomainError, SingularWindow) as exc:
            error = exc
        if flat is not None:
            assert error is None
            assert [(params, _bits(a, w, *(x for row in rows for x in row)))
                    for params, a, rows, w in flat] == got
        else:  # one trial at a time raises or takes an exact integer power
            assert error is not None or any((t + j).is_integer() for t in ts for j in range(4))

    def test_one_point_per_trial(self):
        (_, a, rows, worst), = verify_trials(1, 1, -20.0, -10.0, points=1)
        [(t, ratio, dev)] = rows
        assert -20.0 <= t < -10.0 and worst == dev == abs(ratio - a) / abs(a)

    def test_empty_span_is_refused(self):
        # -20 is not excluded, so accepting the empty span would yield trials at t = -20
        with pytest.raises(DomainError, match="^need --t-min < --t-max with a finite span"):
            next(verify_trials(1, 1, -20.0, -20.0))

    @given(st.integers(-2**65, 2**65), st.integers(0, 70))
    @example(0, 0)
    def test_trial_params_takes_the_first_eight_outputs(self, seed, trial):
        # the oracle's member from the trial's own stream
        [params] = _trial_params(_lanes(seed, trial, 1, 8))
        *_, (member, _, _) = ref_verify_draws(seed, trial + 1, -20.0, -10.0, 1)
        assert (params.p, params.q1, params.q2, params.r1, params.r2) == member

    @given(st.integers(0, 2**64 - 1), st.integers(0, 2**32))
    def test_drawn_p_stays_far_from_minus_one(self, seed, trial):
        # why _trial_params needs no redraw: p = -1 is excluded from the family
        [params] = _trial_params(_lanes(seed, trial, 1, 8))
        assert params.p.real >= 0.3 and abs(1 + params.p) >= 1.3
