"""Windows of stride m on a grid of step 1/m, against the unit operations.

On a grid of step 1/m the samples i, i+m, i+2m, i+3m form a window, so the
windows of residue class c = i mod m are the unit windows of the subseries
values[c::m].  Each strided operation must equal the unit operation run on
every residue class, with window and sample indices mapped back by
k -> c + m*k, bit for bit.
"""

import contextlib
import io
import os

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from stasinv import (
    DomainError,
    IdentityViolation,
    NoValidWindows,
    SampleSeries,
    StasParams,
    closed_form_invariant,
    decode_stream,
    detect_errors,
    dump_sig1,
    encode_stream,
    estimate_invariant,
    load_sig1,
    repair_samples,
    sample_series,
)
from stasinv.cli import main
from stasinv.codec import EncodedStream, dump_stasc1, load_stasc1
from stasinv.core import ENCODE_TOL, _median, _window_residuals, _window_scales, _window_terms
from stasinv.errors import FormatError

from conftest import complexes, params_st
from test_codec import kernel_values

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def _faulted(values, faults):
    values = list(values)
    for j in faults:
        values[j] += (1.0 + abs(values[j])) * (0.5 + 0.5j)
    return values


@st.composite
def strided_cases(draw):
    """(m, values, a): m in 1..4 and 3m+1 .. 12m+3 samples, either arbitrary kernel
    values with an arbitrary invariant or a family member sampled at step 1/m with
    its own, and up to four faults."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(3 * m + 1, 12 * m + 3))
    if draw(st.booleans()):
        values = draw(st.lists(kernel_values, min_size=n, max_size=n))
        a = draw(complexes(-8, 8, -8, 8).filter(lambda a: a != 0))
    else:
        params = draw(params_st)
        values = sample_series(params, draw(st.floats(-5, 5)), n, step=1 / m).values
        a = closed_form_invariant(params)
    faults = draw(st.lists(st.integers(0, n - 1), max_size=4, unique=True))
    return m, _faulted(values, faults), a


def _classes(values, m):
    return [SampleSeries(1.0, values[c::m]) for c in range(m)]


def _unit_findings(sub, a):
    """detect_errors on one residue class; a class below 4 samples has no window."""
    try:
        return detect_errors(sub, a, ENCODE_TOL)
    except NoValidWindows:
        return []


CLEAN_2 = (2, [1 + 0j, 2 + 0j, -1 + 0j, 0j, 1 + 0j, 2 + 0j, -1 + 0j], 1.0)
# step 1/2, 9 samples: class 0 has 5 samples and a fault at its first, class 1 has 4
FAULT_AT_0 = (2, _faulted(sample_series(StasParams(p=0.5, q2=1.0), 1.0, 9, step=0.5).values,
                          [0]), 4.0)


class TestAgainstUnitOperationsPerClass:
    @given(strided_cases())
    @example(CLEAN_2)
    @example((3, [0j] * 10, 2.0))
    @example((2, [1 + 0j, 0j, 1 + 0j, 0j, -1 + 1e-12j, 0j, 1 + 0j, 0j], 4.0))
    def test_window_kernel_and_estimate(self, case):
        # the kernel's (lo, hi, scale) and residual of window c + m*k are those of
        # window k of class c, and the estimate takes the median over all of them
        m, values, a = case
        series = SampleSeries(1.0, values, step=1 / m)
        g = series.values
        scales = _window_scales(g, m)
        terms = list(_window_terms(g, scales, m))
        residuals = _window_residuals(g, a, m)
        want_terms, want_residuals = {}, {}
        for c, sub in enumerate(_classes(g, m)):
            unit_terms = _window_terms(sub.values, _window_scales(sub.values, 1), 1)
            for k, (term, r) in enumerate(zip(unit_terms, _window_residuals(sub.values, a, 1))):
                want_terms[c + m * k], want_residuals[c + m * k] = term, r
        assert repr(terms) == repr([want_terms[i] for i in range(len(g) - 3 * m)])
        assert repr(residuals) == repr([want_residuals[i] for i in range(len(g) - 3 * m)])
        ratios = [x / y for x, y, c in terms if not (y == 0 or abs(y) < 1e-9 * c)]
        try:
            report = estimate_invariant(series)
        except NoValidWindows:
            assert not ratios
        except DomainError:
            pass  # an overflowing ratio, as for a unit series
        else:
            assert (report.windows_used, report.windows_skipped) == \
                (len(ratios), len(terms) - len(ratios))
            assert repr(report.a_hat) == repr(complex(_median([r.real for r in ratios]),
                                                      _median([r.imag for r in ratios])))

    @given(strided_cases())
    @example(CLEAN_2)
    @example(FAULT_AT_0)
    @example((2, _faulted([0j] * 8, [1]), 1.0))  # the run of class 1 touches both its ends
    @example((2, _faulted([0j] * 16, [5, 6]), 1.0))  # one fault in each class
    def test_detect_errors(self, case):
        m, values, a = case
        series = SampleSeries(1.0, values, step=1 / m)
        want = sorted((c + m * f.window_index, repr(f.residual),
                       tuple(c + m * j for j in f.implicated_samples))
                      for c, sub in enumerate(_classes(series.values, m))
                      for f in _unit_findings(sub, a))
        got = [(f.window_index, repr(f.residual), f.implicated_samples)
               for f in detect_errors(series, a, ENCODE_TOL)]
        assert got == want

    @given(strided_cases())
    @example(CLEAN_2)
    @example((2, _faulted([0j] * 17, [16]), 1.0))  # a fault in the tail is stored verbatim
    @example((2, _faulted([0j] * 16, [15, 10]), 1.0))  # class 1 fails first, in block 1
    @example((1, [0j] * 7 + [1 + 0j], 1j))
    def test_encode_and_decode(self, case):
        # the full blocks of 4m samples hold the first 4B samples of each class, B
        # blocks; encoding them is the unit encoding of each class's first 4B samples
        m, values, a = case
        series = SampleSeries(1.0, values, step=1 / m)
        g = series.values
        blocks = len(g) // (4 * m)
        try:
            _window_residuals(g, a, m)
        except DomainError:
            with pytest.raises(DomainError):
                encode_stream(series, a)
            return
        units, failures = [], []
        for c, sub in enumerate(_classes(g[:4 * m * blocks], m)):
            try:
                units.append(encode_stream(sub, a))
            except IdentityViolation as exc:
                failures.append((exc.block_index, c, repr(exc.residual)))
        if failures:
            b, _, residual = min(failures)
            with pytest.raises(IdentityViolation) as info:
                encode_stream(series, a)
            assert (info.value.block_index, repr(info.value.residual)) == (b, residual)
            return
        enc = encode_stream(series, a)
        stored = [units[s % m].stored[3 * b + s // m] for b in range(blocks) for s in range(3 * m)]
        assert enc == EncodedStream(a, 1.0, len(g), tuple(stored) + g[4 * m * blocks:], 1 / m)
        assert load_stasc1(dump_stasc1(enc)) == enc
        try:
            unit_decoded = [decode_stream(unit).values for unit in units]
        except DomainError:
            with pytest.raises(DomainError, match="^block "):
                decode_stream(enc)
            return
        want = list(g)
        for c, decoded in enumerate(unit_decoded):
            want[c:4 * m * blocks:m] = decoded
        assert repr(decode_stream(enc)) == repr(SampleSeries(1.0, want, step=1 / m))

    @given(strided_cases(), st.data())
    @example(FAULT_AT_0, None)
    @example((3, _faulted([1 + 0j] * 13, [12, 0]), 2.0), None)
    def test_repair_samples(self, case, data):
        # repairs in one class see only that class, in the order given
        m, values, a = case
        series = SampleSeries(1.0, values, step=1 / m)
        covered = [j for j in range(len(values)) if len(values[j % m::m]) >= 4]
        implicated = (data.draw(st.lists(st.sampled_from(covered), max_size=6, unique=True))
                      if data else [0, len(values) - 1])
        want = list(series.values)
        try:
            for c, sub in enumerate(_classes(series.values, m)):
                mine = [j // m for j in implicated if j % m == c]
                if mine:
                    want[c::m] = repair_samples(sub, mine, a).values
        except DomainError:
            with pytest.raises(DomainError):
                repair_samples(series, implicated, a)
            return
        assert repr(repair_samples(series, implicated, a)) == \
            repr(SampleSeries(1.0, want, step=1 / m))


class TestStrideEdges:
    def test_a_sample_in_no_window_is_a_domain_error(self):
        # 7 samples at step 1/2: window 0 holds samples 0, 2, 4, 6; 1, 3 and 5 are in none
        series = SampleSeries(1.0, (1, 2, 3, 4, 5, 6, 7), step=0.5)
        assert repair_samples(series, [6], 1.0).values[6] == (1 + 3) / 1.0 - 5
        for j in (1, 3, 5):
            with pytest.raises(DomainError,
                               match=f"^sample {j} is in no window of the series of 7 samples$"):
                repair_samples(series, [j], 1.0)

    def test_too_few_samples_for_one_window(self):
        for call in (estimate_invariant, lambda s: detect_errors(s, 1.0, 1e-6),
                     lambda s: repair_samples(s, [0], 1.0)):
            with pytest.raises(NoValidWindows, match="^need at least 25 samples, got 24$"):
                call(SampleSeries(1.0, (1,) * 24, step=0.125))
        # encoding needs no window: 24 samples are all stored verbatim
        assert encode_stream(SampleSeries(1.0, (1,) * 24, step=0.125), 1.0).stored == (1,) * 24

    def test_encoded_stream_step(self):
        # 21 samples at step 1/4 are one block of 16 (12 stored) and a tail of 5;
        # at step 1, five blocks of 4 and a tail of 1 store 16
        assert EncodedStream(4.0, 0.0, 21, (1 + 0j,) * 17, 0.25).step == 0.25
        with pytest.raises(FormatError, match="^count 21 inconsistent with 16 stored samples$"):
            EncodedStream(4.0, 0.0, 21, (1 + 0j,) * 16, 0.25)
        for step in (0.3, 0.0, -0.5, float("nan"), 2.0):
            with pytest.raises(FormatError,
                               match=f"^encoded stream requires a step of 1/m, got {step}$"):
                EncodedStream(4.0, 0.0, 0, (), step)

    def test_a_huge_m_costs_nothing(self):
        # m = 2**1000: no block, no column and no window, whatever the count
        step = 2.0 ** -1000
        series = SampleSeries(1.0, (1, 2, 3), step=step)
        enc = encode_stream(series, 1.0)
        assert enc.stored == series.values and decode_stream(enc) == series
        assert load_stasc1(dump_stasc1(enc)) == enc

    def test_fault_on_the_fit_dense_input_flags_its_class(self, tmp_path, monkeypatch):
        # fit-dense seed 1: 4096 samples at step 1/8; a fault at sample 1000 flags
        # the windows j - 3m .. j of its class, and no other
        monkeypatch.syspath_prepend(PERFBENCH)
        import workloads
        work = workloads.FitDense(str(tmp_path), 1)
        values = list(work.values)
        values[1000] += 0.5 + 0.25j
        series = SampleSeries(work.params["t0"], values, step=workloads.FIT_STEP)
        a = estimate_invariant(series).a_hat
        findings = detect_errors(series, a, ENCODE_TOL)
        assert [f.window_index for f in findings] == [976, 984, 992, 1000]
        assert all(f.implicated_samples == (1000,) for f in findings)
        repaired = repair_samples(series, [1000], a).values[1000]
        assert abs(repaired - work.values[1000]) <= 1e-9 * abs(work.values[1000])


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestCommandsAtStepOneEighth:
    def test_check_encode_decode(self, tmp_path):
        src, enc, dec = (tmp_path / name for name in ("in.sig1", "in.stasc1", "out.sig1"))
        params = StasParams(p=0.9 + 0.3j, q1=1 - 0.5j, q2=0.25, r1=5, r2=3)
        series = sample_series(params, 0.3, 203, step=0.125)
        src.write_text(dump_sig1(series))
        assert _run(["check", "--estimate", "--input", str(src)]) == (0, "", "")
        assert _run(["encode", "--estimate", "--input", str(src), "--output", str(enc)]) == \
            (0, "", "")
        assert "count=203 step=0.125" in enc.read_text().splitlines()[1]
        assert _run(["decode", "--input", str(enc), "--output", str(dec)]) == (0, "", "")
        decoded = load_sig1(dec.read_text())
        assert decoded.step == 0.125 and len(decoded) == 203
        # only slot 3 of a window, sample j of window j - 24, is rebuilt
        scales = _window_scales(series.values, 8)
        for j, (x, y) in enumerate(zip(series.values, decoded.values)):
            assert x == y or abs(x - y) <= ENCODE_TOL * scales[j - 24] and j % 32 >= 24

    def test_a_step_that_is_not_one_over_m_exits_2(self, tmp_path):
        src = tmp_path / "in.sig1"
        src.write_text(dump_sig1(SampleSeries(0.0, (1,) * 16, step=0.3)))
        for argv in (["check", "--p", "0.5,0"], ["check", "--estimate"],
                     ["encode", "--p", "0.5,0", "--output", str(tmp_path / "x")]):
            code, out, err = _run([*argv, "--input", str(src)])
            assert code == 2 and out == "" and err.startswith("DomainError: ")
            assert err.endswith("requires a step of 1/m, got 0.3\n")
