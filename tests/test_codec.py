"""4-to-3 block codec and sliding-window integrity detection."""

import math
import random
import statistics

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from stasinv import (
    DegenerateParameter,
    DomainError,
    IdentityViolation,
    InvariantReport,
    NoValidWindows,
    SampleSeries,
    StasParams,
    closed_form_invariant,
    decode_stream,
    detect_errors,
    encode_stream,
    estimate_invariant,
    repair_samples,
    sample_series,
    seq_a,
)
from stasinv.codec import EncodedStream
from stasinv.core import (ENCODE_TOL, _SELECT_MIN, _checked_tol, _estimate, _median,
                          _window_residuals, _window_scales)
from stasinv.errors import FormatError
from stasinv.rng import SplitMix64

from conftest import complexes, params_st
from _reference import (
    RefIdentityViolation,
    RefNoValidWindows,
    ref_encode_stored,
    ref_estimate_invariant,
    ref_localize,
    ref_residuals,
)

BASE = StasParams(p=0.5, q2=1.0)


def draw_params(rng, r_hi=15):
    while True:
        p = rng.uniform_complex(0.3, 1.0, -1.5, 1.5)
        if abs(1 + p) >= 1e-6:
            break
    return StasParams(
        p=p,
        q1=rng.uniform_complex(-2, 2, -2, 2),
        q2=rng.uniform_complex(-2, 2, -2, 2),
        r1=rng.odd_int(1, r_hi),
        r2=rng.odd_int(1, r_hi),
    )


class TestEncodedStream:
    def test_count_consistency_enforced(self):
        # 9 samples store 7, and no stream has a negative count
        for count, stored in [(9, (1 + 0j,) * 4), (-1, ())]:
            with pytest.raises(FormatError, match=f"^count {count} inconsistent"):
                EncodedStream(a=4.0, t0=1.0, count=count, stored=stored)

    def test_remainder_bounded(self):
        # a full 4-block stores 3 samples, so 4 unblocked samples cannot remain
        with pytest.raises(FormatError, match="^count 4 inconsistent"):
            EncodedStream(a=4.0, t0=1.0, count=4, stored=(1 + 0j,) * 4)

    def test_zero_invariant_rejected(self):
        with pytest.raises(FormatError):
            EncodedStream(a=0.0, t0=1.0, count=0, stored=())

    @pytest.mark.parametrize("a, t0", [(complex("nan"), 1.0), (complex(0, float("inf")), 1.0),
                                       (4.0, float("nan")), (4.0, float("-inf"))])
    def test_non_finite_header_rejected(self, a, t0):
        with pytest.raises(FormatError):
            EncodedStream(a=a, t0=t0, count=0, stored=())


class TestEncode:
    def test_base_block(self):
        # weighted samples g(n) = n * a_n for n = 1..4
        g = tuple(float(n * seq_a(n)) for n in range(1, 5))
        series = SampleSeries(1.0, g)
        enc = encode_stream(series, 4.0)
        assert enc.stored == (-0.5, 1.25, -0.875)
        assert enc.count == 4

    def test_six_samples_leave_two_verbatim(self):
        series = sample_series(BASE, 1.0, 6)
        enc = encode_stream(series, 4.0)
        assert enc.stored == series.values[:3] + series.values[4:]

    def test_corrupted_block_raises(self):
        values = list(sample_series(BASE, 1.0, 8).values)
        values[3] += 1.0
        with pytest.raises(IdentityViolation) as exc_info:
            encode_stream(SampleSeries(1.0, tuple(values)), 4.0)
        assert exc_info.value.block_index == 0

    def test_zero_invariant_rejected(self):
        series = sample_series(BASE, 1.0, 4)
        with pytest.raises(DegenerateParameter):
            encode_stream(series, 0.0)

    def test_residual_exactly_at_the_tolerance_encodes(self):
        # |1e-6 + 0 - a*(1 - 1)| / max|g| is exactly ENCODE_TOL, which a block may reach
        series = SampleSeries(1.0, (1e-6, 0.0, 1.0, -1.0))
        assert _window_residuals(series.values, 1.0, 1) == [ENCODE_TOL]
        assert encode_stream(series, 1.0).stored == series.values[:3]

    @pytest.mark.parametrize("a", [float("nan"), float("inf"), complex(4.0, float("nan"))])
    def test_non_finite_invariant_rejected(self, a):
        with pytest.raises(DomainError):
            encode_stream(sample_series(BASE, 1.0, 8), a)

    @pytest.mark.parametrize("index", [2, 5])  # in a block and in the verbatim tail
    @pytest.mark.parametrize("bad", [complex("nan"), complex(0, float("inf")),
                                     complex(1.5e308, 1.5e308)])
    def test_non_finite_sample_rejected(self, index, bad):
        values = list(sample_series(BASE, 1.0, 6).values)
        values[index] = bad
        with pytest.raises(DomainError):
            encode_stream(SampleSeries(1.0, tuple(values)), 4.0)

    def test_overflowing_pair_sum_raises(self):
        # finite samples whose pair sums overflow give a nan residual
        series = SampleSeries(1.0, (1e308,) * 4 + (1.0,) * 4)
        with pytest.raises(IdentityViolation) as exc_info:
            encode_stream(series, 1.0)
        assert exc_info.value.block_index == 0

    def test_overflowing_window_between_blocks_is_domain_error(self):
        # blocks 0 and 1 hold, but window 1's pair sum g1 + g2 has magnitude 2.3e308
        big = complex(8e307, 8e307)
        series = SampleSeries(1.0, (0j, big, big) + (0j,) * 5)
        for call in (lambda: encode_stream(series, 1.0),
                     lambda: detect_errors(series, 1.0, ENCODE_TOL)):
            with pytest.raises(DomainError, match="^a window's pair sum or defect exceeds"):
                call()

    @given(st.integers(0, 40))
    def test_storage_count(self, count):
        series = sample_series(BASE, 1.0, count)
        enc = encode_stream(series, 4.0)
        assert len(enc.stored) == count - count // 4
        assert enc.stored == tuple(v for i, v in enumerate(series.values)
                                   if i % 4 != 3 or i >= count - count % 4)


class TestDecode:
    def test_restores_base_block(self):
        series = sample_series(BASE, 1.0, 4)
        dec = decode_stream(encode_stream(series, 4.0))
        assert dec.values[3] == 1.0625
        assert dec.t0 == 1.0

    def test_empty_stream(self):
        enc = EncodedStream(a=4.0, t0=0.5, count=0, stored=())
        assert decode_stream(enc).values == ()

    def test_overflowing_slot_3_names_block(self):
        # (g0 + g1)/a overflows for a tiny invariant: slot 3 of block 1 would be inf
        enc = EncodedStream(a=1e-310, t0=0.0, count=8, stored=(0j,) * 3 + (1 + 0j,) * 3)
        with pytest.raises(DomainError, match="block 1"):
            decode_stream(enc)

    def test_round_trip_random_series(self):
        for trial in range(50):
            rng = SplitMix64.for_trial(31, trial)
            params = draw_params(rng)
            count = 4 + rng.next_u64() % 61
            series = sample_series(params, rng.uniform(-10, 10), count)
            a = closed_form_invariant(params)
            dec = decode_stream(encode_stream(series, a))
            assert len(dec) == count
            for x, y in zip(series.values, dec.values):
                err = abs(x - y) / abs(x) if x != 0 else abs(y)
                assert err < 1e-9


class TestDetect:
    def test_clean_series_all_clean(self):
        series = sample_series(BASE, 1.0, 16)
        assert detect_errors(series, 4.0, 1e-6) == []
        residuals = _window_residuals(series.values, 4.0, 1)
        assert len(residuals) == 13
        assert all(r < 1e-12 for r in residuals)

    def test_single_corruption_localized(self):
        series = sample_series(BASE, 1.0, 16)
        scale = max(abs(v) for v in series.values)
        values = list(series.values)
        values[5] += 1e-2 * scale
        findings = detect_errors(SampleSeries(1.0, tuple(values)), 4.0, 1e-6)
        assert [f.window_index for f in findings] == [2, 3, 4, 5]
        assert all(f.implicated_samples == (5,) and f.verdict == "flagged" for f in findings)

    def test_all_zero_series_is_clean(self):
        series = SampleSeries(1.0, (0,) * 8)
        assert detect_errors(series, 4.0, 1e-6) == []
        assert _window_residuals(series.values, 4.0, 1) == [0.0] * 5

    def test_too_few_samples(self):
        with pytest.raises(NoValidWindows):
            detect_errors(SampleSeries(1.0, (1, 2, 3)), 4.0, 1e-6)

    @pytest.mark.parametrize("a", [float("nan"), complex(float("-inf"), 0.0)])
    def test_non_finite_invariant_rejected(self, a):
        with pytest.raises(DomainError):
            detect_errors(sample_series(BASE, 1.0, 8), a, 1e-6)

    def test_residual_exactly_at_tol_is_clean(self):
        series = SampleSeries(1.0, (1e-6, 0.0, 1.0, -1.0))  # window 0's residual is 1e-6
        assert detect_errors(series, 1.0, 1e-6) == []
        below = math.nextafter(1e-6, 0.0)
        assert [(f.window_index, f.residual) for f in detect_errors(series, 1.0, below)] == \
            [(0, 1e-6)]

    def test_zero_tol_is_accepted(self):
        # tol = 0 asks for exact windows; only a negative or non-finite tol is refused
        assert _checked_tol(0.0) is None
        assert detect_errors(SampleSeries(1.0, (1, 1, 1, 1, 1)), 1.0, 0.0) == []
        assert [f.window_index for f in detect_errors(SampleSeries(1.0, (1, 1, 1, 2)), 1.0, 0.0)] \
            == [0]

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0, -1e-6])
    def test_bad_tol_rejected(self, tol):
        # a nan or negative tol would flag every window of a clean series
        with pytest.raises(DomainError,
                           match=f"^--tol must be finite and non-negative, got {tol}$"):
            detect_errors(sample_series(BASE, 1.0, 8), 4.0, tol)

    @pytest.mark.parametrize("bad", [complex("nan"), complex(float("inf"), 0.0),
                                     complex(-1.5e308, 1.5e308)])
    def test_non_finite_sample_rejected(self, bad):
        values = list(sample_series(BASE, 1.0, 8).values)
        values[3] = bad
        with pytest.raises(DomainError):
            detect_errors(SampleSeries(1.0, tuple(values)), 4.0, 1e-6)

    def test_overflowing_pair_sum_flagged(self):
        series = SampleSeries(1.0, (1e308,) * 4 + (1.0,) * 4)
        findings = detect_errors(series, 1.0, 1e-6)
        assert [f.window_index for f in findings] == [0, 1, 2, 3]
        assert findings[0].residual != findings[0].residual  # nan
        residuals = _window_residuals(series.values, 1.0, 1)
        assert residuals[0] != residuals[0] and residuals[4] <= 1e-6

    def test_pair_sum_magnitude_overflow_is_domain_error(self):
        # finite parts, but |g2 + g3| = |(1.3e308, 1.3e308)| exceeds the float range
        g = (1 + 0j, 1 + 0j, complex(1e308, 1e308), complex(3e307, 3e307))
        series = SampleSeries(1.0, g)
        for call in (lambda: detect_errors(series, 1.0, 1e-6),
                     lambda: encode_stream(series, 1.0),
                     lambda: estimate_invariant(series)):
            with pytest.raises(DomainError, match="exceeds the float range"):
                call()

    def test_boundary_corruption_localized(self):
        series = sample_series(BASE, 1.0, 16)
        scale = max(abs(v) for v in series.values)
        for j in (0, 1, 14, 15):
            values = list(series.values)
            values[j] += 1e-2 * scale * 1j
            findings = detect_errors(SampleSeries(1.0, tuple(values)), 4.0, 1e-6)
            implicated = sorted({s for f in findings for s in f.implicated_samples})
            assert implicated == [j]

    def test_distant_corruptions_localized_independently(self):
        rng = SplitMix64.for_trial(32, 0)
        params = draw_params(rng)
        series = sample_series(params, 0.5, 32)
        a = closed_form_invariant(params)
        scale = max(abs(v) for v in series.values)
        values = list(series.values)
        values[5] += 1e-2 * scale
        values[20] += 1e-2 * scale * 1j
        findings = detect_errors(SampleSeries(0.5, tuple(values)), a, 1e-6)
        implicated = sorted({s for f in findings for s in f.implicated_samples})
        assert implicated == [5, 20]

    def test_adjacent_corruptions_reported_window_level(self):
        rng = SplitMix64.for_trial(32, 1)
        params = draw_params(rng)
        series = sample_series(params, 0.5, 32)
        a = closed_form_invariant(params)
        scale = max(abs(v) for v in series.values)
        values = list(series.values)
        values[5] += 1e-2 * scale
        values[8] += 1e-2 * scale * 1j
        findings = detect_errors(SampleSeries(0.5, tuple(values)), a, 1e-6)
        assert findings
        assert all(f.implicated_samples == () for f in findings)

    def test_soundness_on_clean_random_series(self):
        for trial in range(40):
            rng = SplitMix64.for_trial(33, trial)
            params = draw_params(rng)
            count = 16 + rng.next_u64() % 49
            t0 = rng.uniform(-20.0, 20.0 - count)
            series = sample_series(params, t0, count)
            a = closed_form_invariant(params)
            assert detect_errors(series, a, 1e-6) == []

    def test_implicated_samples_within_window(self):
        series = sample_series(BASE, 1.0, 16)
        scale = max(abs(v) for v in series.values)
        values = list(series.values)
        values[7] += 1e-2 * scale
        for f in detect_errors(SampleSeries(1.0, tuple(values)), 4.0, 1e-6):
            w = range(f.window_index, f.window_index + 4)
            assert all(j in w for j in f.implicated_samples)


class TestRepair:
    def test_rebuilds_exactly_and_refuses_what_it_cannot_repair(self):
        series = sample_series(BASE, 1.0, 16)  # dyadic: g_t = 0.5^t + (-1)^t
        values = list(series.values)
        values[5] += 0.25
        assert repair_samples(SampleSeries(1.0, tuple(values)), [5], 4.0) == series
        with pytest.raises(DomainError, match="^repair requires a step of 1/m, got 0.3$"):
            repair_samples(sample_series(BASE, 1.0, 8, step=0.3), [5], 4.0)
        with pytest.raises(NoValidWindows):
            repair_samples(SampleSeries(1.0, (1, 2, 3)), [1], 4.0)
        assert repair_samples(SampleSeries(1.0, (1, 2, 3, 0)), [3], 0.5) == \
            SampleSeries(1.0, (1, 2, 3, 3))  # the fewest samples: one window
        for j in (16, -1):
            with pytest.raises(DomainError,
                               match=f"^sample {j} is in no window of the series of 16 samples$"):
                repair_samples(series, [j], 4.0)


def _corrupted(n, faults):
    values = list(sample_series(BASE, 1.0, n).values)
    for j in faults:
        values[j] += (1.0 + abs(values[j])) * (0.5 + 0.5j)
    return SampleSeries(1.0, tuple(values))


fault_cases = st.integers(4, 40).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(0, n - 1), max_size=8, unique=True)))


class TestLocalizationOracle:
    @given(fault_cases)
    @example((4, [2]))
    @example((5, [0, 4]))
    @example((20, [0, 7, 19]))
    @example((20, [5, 8]))
    def test_matches_per_sample_reference(self, case):
        n, faults = case
        series = _corrupted(n, faults)
        flagged = [i for i, r in enumerate(ref_residuals(series.values, 4.0)) if not r <= 1e-6]
        implicated = ref_localize(set(flagged), n)
        expected = [(i, tuple(j for j in range(i, i + 4) if j in implicated)) for i in flagged]
        findings = detect_errors(series, 4.0, 1e-6)
        assert [(f.window_index, f.implicated_samples) for f in findings] == expected

    def test_run_touching_both_ends_implicates_nothing(self):
        # on 4 samples the one window is flagged by a fault at any of them
        findings = detect_errors(_corrupted(4, [2]), 4.0, 1e-6)
        assert [f.implicated_samples for f in findings] == [()]

    @given(st.integers(4, 40).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n - 1))))
    @example((4, 2))
    @example((5, 1))
    @example((6, 3))
    @example((7, 3))
    def test_single_fault_is_never_mislocalized(self, case):
        # a single fault implicates itself or nothing, itself from 8 samples on,
        # and repairing it restores it and touches no other sample
        n, j = case
        clean = sample_series(BASE, 1.0, n).values
        series = _corrupted(n, [j])
        implicated = {s for f in detect_errors(series, 4.0, 1e-6) for s in f.implicated_samples}
        assert implicated <= {j}
        assert implicated == {j} or n < 8
        if implicated:
            repaired = repair_samples(series, [j], 4.0).values
            i = max(0, j - 3)
            assert abs(repaired[j] - clean[j]) <= 1e-6 * max(map(abs, clean[i:i + 4]))
            rest = [k for k in range(n) if k != j]
            assert [repr(repaired[k]) for k in rest] == [repr(series.values[k]) for k in rest]


# Values that reach every branch of the window kernel: exact zeros (the scale
# floor), magnitudes below the floor, pairs whose sum is exactly or nearly
# zero (windows skipped as near-singular), and generic values.
kernel_values = st.one_of(
    st.sampled_from([0j, 1 + 0j, -1 + 0j, -1 + 1e-12j, 1e-305 + 0j, -1e-305j, 3e-310 + 0j]),
    complexes(-10, 10, -10, 10),
)
arbitrary_streams = st.tuples(st.lists(kernel_values, min_size=4, max_size=40),
                              complexes(-8, 8, -8, 8).filter(lambda a: a != 0))
# Family members with their own invariant, so that most blocks encode.
family_streams = st.builds(
    lambda params, t0, n: (list(sample_series(params, t0, n).values), closed_form_invariant(params)),
    params_st, st.floats(-5, 5), st.integers(4, 40))
kernel_streams = st.one_of(arbitrary_streams, family_streams)

median_values = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, math.inf, -math.inf,
                                           1e-300, -1e-300, 1e308, -1e308]),
                          st.floats(allow_nan=False))


@st.composite
def long_median_lists(draw):
    """_SELECT_MIN - 2 to 2 * _SELECT_MIN + 1 values: a few drawn values repeated,
    mixed with spread ones near 1, 1e-300 or 1e308, as drawn, sorted or reversed."""
    pool = draw(st.lists(median_values, min_size=1, max_size=9))
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))  # a few bytes of data, not one per value
    n = draw(st.integers(_SELECT_MIN - 2, 2 * _SELECT_MIN + 1))
    spread, scale = draw(st.floats(0.0, 1.0)), draw(st.sampled_from([1.0, 1e-300, 1e308]))
    xs = [scale * rnd.uniform(-1.0, 1.0) if rnd.random() < spread else rnd.choice(pool)
          for _ in range(n)]
    order = draw(st.sampled_from(["as drawn", "sorted", "reversed"]))
    return xs if order == "as drawn" else sorted(xs, reverse=order == "reversed")


class TestWindowKernelOracle:
    """The shared window kernel against the per-window loops it replaced, bit for bit."""

    @given(kernel_streams)
    @example(([0j] * 4, 4.0))
    @example(([1 + 0j, -1 + 0j] * 3, 2.0))
    @example(([1e-305 + 0j, 3e-310 + 0j, 0j, -1e-305j, 2 + 0j], 0.5j))
    def test_residuals(self, case):
        values, a = case
        series = SampleSeries(1.0, values)
        g = series.values
        want = ref_residuals(g, a)
        assert repr(_window_residuals(g, a, 1)) == repr(want)
        assert repr(_window_residuals(g, a, 1, _window_scales(g, 1))) == repr(want)
        flagged = [(f.window_index, f.residual) for f in detect_errors(series, a, 1e-6)]
        assert repr(flagged) == repr([(i, r) for i, r in enumerate(want) if not r <= 1e-6])

    @given(kernel_streams)
    @example(([0j] * 4, 4.0))
    @example(([1 + 0j, 2 + 0j, 1 + 0j, -1 + 0j], 4.0))
    @example(([1 + 0j, 2 + 0j, 1 + 0j, -1 + 1e-12j, 1 + 0j], 4.0))
    @example(([1 + 0j, 0j, 1e-9 + 0j, 0j], 4.0))  # |hi| equals the skip bound: kept
    def test_estimate_invariant(self, case):
        # the estimate also hands its window scales to the sweep that follows it
        values, a = case
        series = SampleSeries(1.0, values)
        try:
            want = InvariantReport(*ref_estimate_invariant(series.values))
        except RefNoValidWindows:
            with pytest.raises(NoValidWindows):
                estimate_invariant(series)
        else:
            assert repr(estimate_invariant(series)) == repr(want)
            report, scales = _estimate(series)
            assert repr(report) == repr(want)
            assert repr(_window_residuals(series.values, a, 1, scales)) == \
                repr(ref_residuals(series.values, a))

    @given(st.one_of(st.lists(median_values, min_size=1, max_size=9), long_median_lists()))
    @example([math.inf, -math.inf])
    @example([-0.0, 0.0, -0.0])
    @example([2.0, 1.0, 2.0, 1.0])
    @example([1.7976931348623157e308] * 3)
    @example([0.0, -0.0] * (_SELECT_MIN // 2) + [-0.0])  # signed zeros in the middle
    @example([-0.0] * _SELECT_MIN + [0.0] * _SELECT_MIN)
    @example([float(i) for i in range(2 * _SELECT_MIN)])  # sorted
    @example([float(i) for i in reversed(range(2 * _SELECT_MIN + 1))])  # reversed
    @example([1e308 if i % 32 == 0 else 1e-300 for i in range(2 * _SELECT_MIN)])  # bracket misses
    @example([math.inf, -math.inf] + [1.0] * _SELECT_MIN)  # the sum is nan: sorts them all
    @example([math.nan] + [float(i) for i in range(2 * _SELECT_MIN)])  # a nan: sorts them all
    # the bracket [16, 48] ends one value below the middle: sorts them all
    @example([float(i // 32) if i % 32 == 0 else 30.5 if i < 1007 else 100.0
              for i in range(_SELECT_MIN)])
    def test_median(self, xs):
        # odd and even lengths on both sides of the selection cutoff, ties and
        # signed zeros; the bits must match, nan included, and xs stays as it was
        ys = list(xs)
        assert repr(_median(ys)) == repr(statistics.median(xs))
        assert repr(ys) == repr(xs)

    @given(kernel_streams)
    @example(([0j] * 5, 4.0))
    @example(([1 + 0j, 2 + 0j, 3 + 0j, 4 + 0j], 4.0))
    @example(([0j] * 7 + [1 + 0j], 1j))  # only block 1 fails: gating on every fifth window misses it
    def test_encode_stream(self, case):
        values, a = case
        series = SampleSeries(1.0, values)
        try:
            stored = ref_encode_stored(series.values, a)
        except RefIdentityViolation as exc:
            with pytest.raises(IdentityViolation) as info:
                encode_stream(series, a)
            assert (info.value.block_index, repr(info.value.residual)) == \
                (exc.args[0], repr(exc.args[1]))
        else:
            assert encode_stream(series, a) == EncodedStream(
                a=a, t0=1.0, count=len(values), stored=stored)

    @given(kernel_streams)
    @example(([0j, 8e307 + 8e307j, 8e307 + 8e307j] + [0j] * 5, 1.0))
    @example(([1 + 0j, -1 + 0j, 2 + 0j, -2 + 0j, 5 + 0j, -5 + 0j, 0j, 0j], 1.0))
    def test_encode_refuses_exactly_what_check_flags_at_a_block(self, case):
        # block b is window 4b: encode raises IdentityViolation for the first flagged
        # window that starts a block, and DomainError exactly when check does.  The
        # examples overflow window 1, and flag windows 1-3 while both blocks hold.
        values, a = case
        series = SampleSeries(1.0, values)
        try:
            findings = detect_errors(series, a, ENCODE_TOL)
        except DomainError:
            with pytest.raises(DomainError):
                encode_stream(series, a)
            return
        at_blocks = [f for f in findings if f.window_index % 4 == 0]
        if at_blocks:
            with pytest.raises(IdentityViolation) as info:
                encode_stream(series, a)
            assert (4 * info.value.block_index, repr(info.value.residual)) == \
                (at_blocks[0].window_index, repr(at_blocks[0].residual))
        else:
            assert isinstance(encode_stream(series, a), EncodedStream)
