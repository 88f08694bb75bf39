"""The estimate's screen: the report estimate_invariant returns bounds every window's
residual at its a_hat, and detect_errors and encode_stream, given that report for
that same series, skip a sweep the bound decides.

The bound must hold for every residual the sweep computes; any other report (of
another series, copied, pickled, with a skipped window, or with a bound above tol)
must run the full sweep; and the commands that take the screen must write what
they wrote with the full sweep, byte for byte.
"""

import contextlib
import copy
import io
import math
import os
import pickle
import random
import struct
import tracemalloc
from array import array
from itertools import repeat
from math import hypot
from operator import sub

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from stasinv import (
    DegenerateParameter,
    IdentityViolation,
    NoValidWindows,
    SampleSeries,
    StasParams,
    detect_errors,
    encode_stream,
    estimate_invariant,
    fit_series,
    sample_series,
)
import stasinv._windows as _windows
from stasinv.cli import main
from stasinv.core import ENCODE_TOL
from stasinv.errors import DomainError

from conftest import params_st

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")

# Both ends of the scale range the bound's derivation covers, each reached by exactly one
# window: halving samples 2**1000 .. 2**993 give window 0 the scale 2**1000, the greatest
# sample magnitude the bound accepts; 2**-965 .. 2**-972, window 4 the scale 2**-969, whose
# least pair sum, 1.5 * 2**-971, is below the 2**-967 the bound asks of every denominator.
# Relative noise of 1e-15 leaves residuals to bound, those near 2**-969 in the subnormal
# range.
TOP_EDGE = (1, [2.0 ** (1000 - i) * (1 + 1e-15j * (-1) ** i) for i in range(8)])
BOTTOM_EDGE = (1, [2.0 ** (-965 - i) * (1 + 1e-15j * (-1) ** i) for i in range(8)])


def _faulted(values, faults):
    values = list(values)
    for j in faults:
        values[j] += (1.0 + abs(values[j])) * (0.5 + 0.5j)
    return values


@st.composite
def screen_cases(draw):
    """(m, values): a family member at step 1/m, m in {1, 2, 8}, 4m to 40m samples,
    scaled by 2**k, clean, with relative noise from 1e-12 to 1e-4, or with up to
    three faults."""
    m = draw(st.sampled_from([1, 2, 8]))
    n = draw(st.integers(4 * m, 40 * m))
    params = draw(params_st)
    scale = 2.0 ** draw(st.integers(-900, 900))
    values = [scale * v for v in sample_series(params, draw(st.floats(-5, 5)), n, 1 / m).values]
    kind = draw(st.sampled_from(["clean", "noisy", "faulted"]))
    if kind == "noisy":
        noise = 10.0 ** draw(st.floats(-12, -4))
        rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
        values = [v * (1 + noise * complex(rnd.gauss(0, 1), rnd.gauss(0, 1))) for v in values]
    elif kind == "faulted":
        values = _faulted(values, draw(st.lists(st.integers(0, n - 1), max_size=3, unique=True)))
    return m, values


@given(screen_cases())
@example(TOP_EDGE)
@example(BOTTOM_EDGE)
@example((1, _faulted(TOP_EDGE[1], [5])))
@example((8, [2.0 ** (1000 - i // 8) for i in range(64)]))
def test_bound_covers_every_residual(case):
    m, values = case
    series = SampleSeries(1.0, values, step=1 / m)
    try:
        report = estimate_invariant(series)
    except (NoValidWindows, DomainError):
        return
    residuals = list(_windows._window_residuals(series.values, report.a_hat, m))
    assert report._series is series
    assert max(residuals) <= report._bound


# BOTTOM_EDGE times 16 has the least pair sum 1.5 * 2**-967, and times 8, 1.5 * 2**-968
@pytest.mark.parametrize("case, finite", [
    (TOP_EDGE, True), ((1, [2 * v for v in TOP_EDGE[1]]), False),
    ((1, [16 * v for v in BOTTOM_EDGE[1]]), True), ((1, [8 * v for v in BOTTOM_EDGE[1]]), False),
    (BOTTOM_EDGE, False),
])
def test_bound_refuses_scales_outside_its_range(case, finite):
    m, values = case
    series = SampleSeries(1.0, values, step=1 / m)
    report = estimate_invariant(series)
    assert report.windows_skipped == 0 and report.max_rel_dev <= 1e-14
    assert (report._bound < 1e-12) == finite and (report._bound == math.inf) != finite
    assert max(_windows._window_residuals(series.values, report.a_hat, m)) <= report._bound


def test_bound_takes_its_range_from_the_least_denominator_and_the_greatest_magnitude():
    least, top = 2.0 ** -967, 2.0 ** 1000
    assert _windows._residual_bound(0.0, 1.0, 0, least, top) < 1e-12
    assert _windows._residual_bound(0.0, 1.0, 0, math.nextafter(least, 0.0), top) == math.inf
    assert _windows._residual_bound(0.0, 1.0, 0, least, math.nextafter(top, math.inf)) == math.inf


@pytest.mark.parametrize("dev, a", [(0.0, 0j), (2.0 ** -30, 3 + 4j), (1e-12, 1e-300j)])
def test_bound_is_the_documented_formula(dev, a):
    # B = 2(1 + 16e)(D(1 + 32e) + 32e|a|) + 2**-100, e = 2**-52; with D = 0 and a = 0
    # only the allowance for underflowing roundings is left
    e = 2.0 ** -52
    want = 2 * (1 + 16 * e) * (dev * (1 + 32 * e) + 32 * e * abs(a)) + 2.0 ** -100
    assert _windows._residual_bound(dev, a, 0, 1.0, 1.0) == want


def test_bound_refuses_a_deviation_past_2_to_the_minus_20():
    at = _windows._residual_bound(2.0 ** -20, 4.0, 0, 1.0, 1.0)
    past = _windows._residual_bound(math.nextafter(2.0 ** -20, 1.0), 4.0, 0, 1.0, 1.0)
    assert 2.0 ** -19 < at < 2.0 ** -18 and past == math.inf


deviation_parts = st.one_of(st.floats(-1e300, 1e300), st.sampled_from([math.nan, math.inf, -math.inf]))


def _largest_deviations(re, im, a_hat):
    """(the largest hypot of the parts' differences, as _estimate takes it; the largest
    abs(ratio - a_hat) of the complex ratios)."""
    return (max(map(hypot, map(sub, re, repeat(a_hat.real)), map(sub, im, repeat(a_hat.imag)))),
            max(_windows._abs_each(map(sub, map(complex, re, im), repeat(a_hat)))))


@given(st.lists(st.tuples(deviation_parts, deviation_parts), min_size=1, max_size=20),
       st.tuples(deviation_parts, deviation_parts))
@example([(math.nan, math.inf), (1.0, 2.0)], (0.0, 0.0))
@example([(1.0, math.nan), (-math.inf, 0.0)], (math.nan, 1.0))
@example([(8.36, 5.53)], (0.0, 0.0))  # hypot ...643, complex abs ...641 with glibc's hypot
def test_hypot_of_the_parts_is_complex_abs_to_an_ulp(ratios, a):
    # complex abs is inf for an inf part and nan for another nan one, as hypot is, so
    # with a non-finite part the two maxima agree bit for bit; for finite parts math.hypot
    # is correctly rounded and complex abs, the platform's hypot, is within an ulp of it
    # (in about 1 of 1300 random pairs it is not the correctly rounded value).  Parts
    # whose hypot passes the float range, where abs raises, are left out: kept ratios
    # stay below 2e9
    re, im = (array("d", parts) for parts in zip(*ratios))
    via_hypot, via_abs = _largest_deviations(re, im, complex(*a))
    if math.isfinite(via_abs):
        assert abs(via_hypot - via_abs) <= math.ulp(via_abs)
    else:
        assert struct.pack("<d", via_hypot) == struct.pack("<d", via_abs)


@given(screen_cases())
def test_the_estimate_reports_the_largest_deviation_of_its_ratios(case):
    m, values = case
    series = SampleSeries(1.0, values, step=1 / m)
    try:
        report = estimate_invariant(series)
    except (NoValidWindows, DomainError):
        return
    re, im, _, _ = _windows._ratio_parts(series.values, m, (0, 2 * m), "overflow")
    dev = _largest_deviations(re, im, report.a_hat)[0]
    assert report.max_rel_dev == dev / max(abs(report.a_hat), 1.0)


def _clean(n, step=1.0):
    return sample_series(StasParams(p=0.9999 + 0.0001j, q1=0.5j, q2=1.0, r1=3), 1.0, n, step)


@pytest.fixture
def sweeps(monkeypatch):
    """The number of sweeps detect_errors and encode_stream have run, as a one-item list."""
    count = [0]
    sweep = _windows._window_residuals

    def counted(*args):
        count[0] += 1
        return sweep(*args)

    monkeypatch.setattr(_windows, "_window_residuals", counted)
    return count


def test_the_report_of_the_series_skips_both_sweeps(sweeps):
    series = _clean(2003, step=0.5)
    report = estimate_invariant(series)
    assert report._bound <= ENCODE_TOL
    assert detect_errors(series, report, ENCODE_TOL) == []
    assert encode_stream(series, report) == encode_stream(series, report.a_hat)
    assert sweeps == [1]  # the encoding given a_hat alone


def test_the_report_of_another_series_finds_its_faults(sweeps):
    # estimate on one reference segment, check another of the same length
    reference, other = _clean(2000), _clean(2000)
    faulted = SampleSeries(1.0, _faulted(other.values, [700]))
    report = estimate_invariant(reference)
    findings = detect_errors(faulted, report, ENCODE_TOL)
    assert [f.window_index for f in findings] == [697, 698, 699, 700]
    assert all(f.implicated_samples == (700,) for f in findings)
    assert findings == detect_errors(faulted, report.a_hat, ENCODE_TOL)
    with pytest.raises(IdentityViolation):
        encode_stream(faulted, report)
    # the clean segment equal to the reference, but another object, is swept too
    assert detect_errors(other, report, ENCODE_TOL) == []
    assert sweeps == [4]


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                   lambda r: pickle.loads(pickle.dumps(r))],
                         ids=["copy", "deepcopy", "pickle"])
def test_a_copied_or_pickled_report_is_swept(clone, sweeps):
    series = _clean(1000)
    report = estimate_invariant(series)
    twin = clone(report)
    assert twin == report and twin._bound is None and twin._series is None
    assert detect_errors(series, twin, ENCODE_TOL) == []
    encode_stream(series, twin)
    assert sweeps == [2]


def test_a_fit_keeps_no_series_in_its_report():
    # the fit estimates on its own copy of residue class 0; its report drops it
    series = _clean(4096, step=0.125)
    fit = fit_series(series)
    assert fit.invariant == estimate_invariant(SampleSeries(1.0, series.values[::8]))
    assert fit.invariant._series is None and fit.invariant._bound is None


def test_a_report_with_a_skipped_window_is_swept(sweeps):
    # pair sums 0, 1, 0, 1/4, 0, 1/16, ...: a = 4 holds in every window, and the
    # windows whose second pair sum is 0 are skipped
    values = [1.0]
    for i in range(11):
        values.append((0.0 if i % 2 == 0 else 4.0 ** -(i // 2)) - values[-1])
    series = SampleSeries(1.0, values)
    report = estimate_invariant(series)
    assert report.a_hat == 4 and report.windows_skipped == 5
    assert report._bound == math.inf
    assert detect_errors(series, report, ENCODE_TOL) == []
    assert sweeps == [1]


def test_a_tol_one_ulp_below_the_bound_is_swept(sweeps):
    series = _clean(1000)
    report = estimate_invariant(series)
    bound = report._bound
    assert detect_errors(series, report, bound) == []
    assert sweeps == [0]
    assert detect_errors(series, report, math.nextafter(bound, 0.0)) == []
    assert sweeps == [1]


def test_entry_checks_run_before_the_screen():
    series = _clean(1000)
    report = estimate_invariant(series)
    with pytest.raises(DomainError, match="--tol"):
        detect_errors(series, report, math.nan)
    zero = estimate_invariant(SampleSeries(1.0, [1.0, -1.0, 1.0, 0.0, 1.0]))
    assert zero.a_hat == 0
    with pytest.raises(DegenerateParameter):
        encode_stream(SampleSeries(1.0, [1.0, -1.0, 1.0, 0.0, 1.0]), zero)


def test_a_screened_check_adds_nothing_to_the_estimates_peak():
    series = _clean(20000)

    def peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    estimate_invariant(series)  # once untraced, so nothing it loads on first use is counted
    alone = peak(lambda: estimate_invariant(series))
    checked = peak(lambda: detect_errors(series, estimate_invariant(series), ENCODE_TOL))
    assert checked <= alone + 1024


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _commands(tmp_path, src):
    """check --estimate, encode --estimate and check --estimate --repair on src, each
    with its (exit code, stdout, stderr) and the bytes of the file it wrote, if any."""
    outcomes = []
    for argv, out in ((["check", "--estimate"], None),
                      (["encode", "--estimate"], tmp_path / "out.stasc1"),
                      (["check", "--estimate", "--repair"], tmp_path / "out.sig1")):
        argv = [*argv, "--input", src] + (["--output", str(out)] if out else [])
        outcomes.append((_run(argv), out.read_bytes() if out and out.exists() else None))
        if out and out.exists():
            out.unlink()
    return outcomes


@pytest.mark.parametrize("workload", ["StreamRoundtrip", "CheckFaulted"])
def test_screen_writes_what_the_sweep_writes_on_the_benchmark_inputs(
        workload, tmp_path, monkeypatch, sweeps):
    monkeypatch.syspath_prepend(PERFBENCH)
    import workloads
    work = getattr(workloads, workload)(str(tmp_path), 1)
    src = work.commands[0][0][work.commands[0][0].index("--input") + 1]
    screened = _commands(tmp_path, src)
    screened_sweeps = sweeps[0]
    monkeypatch.setattr(_windows, "_residual_bound", lambda *args: math.inf)
    swept = _commands(tmp_path, src)
    assert screened == swept
    if workload == "StreamRoundtrip":
        assert screened_sweeps == 0 and sweeps == [3]
        assert [code for (code, _, _), _ in screened] == [0, 0, 0]
    else:
        assert screened_sweeps == 3 and sweeps == [6]
        assert [code for (code, _, _), _ in screened] == [1, 2, 1]  # encode: IdentityViolation
