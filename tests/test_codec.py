"""4-to-3 block codec and sliding-window integrity detection."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from stasinv import (
    DegenerateParameter,
    IdentityViolation,
    NoValidWindows,
    SampleSeries,
    StasParams,
    closed_form_invariant,
    decode_stream,
    detect_errors,
    encode_stream,
    sample_series,
    seq_a,
)
from stasinv.codec import EncodedStream
from stasinv.errors import FormatError
from stasinv.rng import SplitMix64

from _reference import ref_localize

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
        with pytest.raises(FormatError):
            EncodedStream(a=4.0, t0=1.0, count=9,
                          blocks=(((1 + 0j),) * 3,), remainder=(1 + 0j,))

    def test_remainder_bounded(self):
        with pytest.raises(FormatError):
            EncodedStream(a=4.0, t0=1.0, count=4, blocks=(), remainder=(1,) * 4)

    def test_zero_invariant_rejected(self):
        with pytest.raises(FormatError):
            EncodedStream(a=0.0, t0=1.0, count=0, blocks=(), remainder=())


class TestEncode:
    def test_base_block(self):
        # weighted samples g(n) = n * a_n for n = 1..4
        g = tuple(float(n * seq_a(n)) for n in range(1, 5))
        series = SampleSeries(1.0, g)
        enc = encode_stream(series, 4.0)
        assert enc.blocks == ((-0.5, 1.25, -0.875),)
        assert enc.remainder == ()
        assert enc.count == 4

    def test_six_samples_leave_two_verbatim(self):
        series = sample_series(BASE, 1.0, 6)
        enc = encode_stream(series, 4.0)
        assert len(enc.blocks) == 1
        assert len(enc.remainder) == 2
        assert enc.remainder == series.values[4:]

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

    @given(st.integers(0, 40))
    def test_storage_count(self, count):
        series = sample_series(BASE, 1.0, count)
        enc = encode_stream(series, 4.0)
        stored = 3 * len(enc.blocks) + len(enc.remainder)
        assert stored == count - count // 4


class TestDecode:
    def test_restores_base_block(self):
        series = sample_series(BASE, 1.0, 4)
        dec = decode_stream(encode_stream(series, 4.0))
        assert dec.values[3] == 1.0625
        assert dec.t0 == 1.0

    def test_empty_stream(self):
        enc = EncodedStream(a=4.0, t0=0.5, count=0, blocks=(), remainder=())
        assert decode_stream(enc).values == ()

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
        findings = detect_errors(series, 4.0, 1e-6)
        assert len(findings) == 13
        assert all(f.verdict == "clean" for f in findings)
        assert all(f.residual < 1e-12 for f in findings)

    def test_single_corruption_localized(self):
        series = sample_series(BASE, 1.0, 16)
        scale = max(abs(v) for v in series.values)
        values = list(series.values)
        values[5] += 1e-2 * scale
        findings = detect_errors(SampleSeries(1.0, tuple(values)), 4.0, 1e-6)
        flagged = [f.window_index for f in findings if f.verdict == "flagged"]
        assert flagged == [2, 3, 4, 5]
        for f in findings:
            if f.verdict == "flagged":
                assert f.implicated_samples == (5,)

    def test_all_zero_series_is_clean(self):
        findings = detect_errors(SampleSeries(1.0, (0,) * 8), 4.0, 1e-6)
        assert all(f.verdict == "clean" and f.residual == 0.0 for f in findings)

    def test_too_few_samples(self):
        with pytest.raises(NoValidWindows):
            detect_errors(SampleSeries(1.0, (1, 2, 3)), 4.0, 1e-6)

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
        assert any(f.verdict == "flagged" for f in findings)
        assert all(f.implicated_samples == () for f in findings)

    def test_soundness_on_clean_random_series(self):
        for trial in range(40):
            rng = SplitMix64.for_trial(33, trial)
            params = draw_params(rng)
            count = 16 + rng.next_u64() % 49
            t0 = rng.uniform(-20.0, 20.0 - count)
            series = sample_series(params, t0, count)
            a = closed_form_invariant(params)
            findings = detect_errors(series, a, 1e-6)
            assert all(f.verdict == "clean" for f in findings)

    def test_implicated_samples_within_window(self):
        series = sample_series(BASE, 1.0, 16)
        scale = max(abs(v) for v in series.values)
        values = list(series.values)
        values[7] += 1e-2 * scale
        for f in detect_errors(SampleSeries(1.0, tuple(values)), 4.0, 1e-6):
            w = range(f.window_index, f.window_index + 4)
            assert all(j in w for j in f.implicated_samples)


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
        findings = detect_errors(_corrupted(n, faults), 4.0, 1e-6)
        flagged = {f.window_index for f in findings if f.verdict == "flagged"}
        implicated = ref_localize(flagged, n)
        expected = [tuple(j for j in range(i, i + 4) if j in implicated) if i in flagged else ()
                    for i in range(n - 3)]
        assert [f.implicated_samples for f in findings] == expected

    def test_single_window_implicates_all_four(self):
        findings = detect_errors(_corrupted(4, [2]), 4.0, 1e-6)
        assert [f.implicated_samples for f in findings] == [(0, 1, 2, 3)]
