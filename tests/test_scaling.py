"""Run time of the window sweeps, localization, the frequency fit and text I/O is linear in N.

Each case is timed at N and 4N, taking the fastest of 3 interleaved repeats
per size.  Linear code reads a ratio near 4 (about 7 under the speed swings
of a shared machine); code quadratic in N reads 16.  The text I/O also has
memory guards: reading and writing hold about the series, not copies of its text,
the CLI parses a file as it reads it and writes it a block of the window kernel's
samples at a time, and an estimate and the sweep or encoding after it, like the
fit's base stage, hold one block of window terms at a time.
The fit's trig basis has a counting guard: on a step-1/m grid only its signed
class sums of y and its sum of squares W take a number of terms that grows with
N; and a memory guard: its columns hold m points.  The text parse has a counting
guard too: canonical text, as the writers and the benchmark write it, never reaches
the line-by-line parse.
"""

import math
import os
import time
import tracemalloc

from stasinv import (
    SampleSeries,
    StasParams,
    detect_errors,
    disambiguate_p,
    encode_stream,
    estimate_invariant,
    fit_series,
    sample_series,
)
from stasinv import codec, core, estimator
from stasinv.cli import main
from stasinv.codec import (_line_blocks, _load, _sig1, _sig1_parts, _stasc1, _stasc1_parts, _write,
                           decode_stream, dump_sig1, dump_stasc1, load_sig1, load_stasc1)
from stasinv.core import _fmt_complex
from stasinv.estimator import _TrigBasis, fit_trig, search_frequencies
from stasinv.rng import SplitMix64, verify_trials

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")

RATIO_LIMIT = 10.0
REPEATS = 3


def _best_times(fn, inputs):
    best = [float("inf")] * len(inputs)
    for _ in range(REPEATS):
        for k, x in enumerate(inputs):
            start = time.perf_counter()
            fn(x)
            best[k] = min(best[k], time.perf_counter() - start)
    return best


def _every_tenth_faulted(n):
    values = list(sample_series(StasParams(p=0.9999, q2=1.0), 1.0, n).values)
    for j in range(0, n, 10):
        values[j] += (1.0 + abs(values[j])) * (0.5 + 0.5j)
    return SampleSeries(1.0, tuple(values))


def _clean(n):
    return sample_series(StasParams(p=0.9999, q1=0.5j, q2=1.0, r1=3), 1.0, n)


def test_estimate_invariant_linear_in_clean_stream_length():
    small, large = _best_times(estimate_invariant, [_clean(2500), _clean(10000)])
    assert large / small < RATIO_LIMIT


def test_detect_errors_linear_in_clean_stream_length():
    a = 1.0 / 0.9999 ** 2
    small, large = _best_times(lambda s: detect_errors(s, a, 1e-6), [_clean(2500), _clean(10000)])
    assert large / small < RATIO_LIMIT


def test_encode_stream_linear_in_clean_stream_length():
    a = 1.0 / 0.9999 ** 2
    small, large = _best_times(lambda s: encode_stream(s, a), [_clean(2500), _clean(10000)])
    assert large / small < RATIO_LIMIT


def test_detect_errors_linear_in_faulted_stream_length():
    a = 1.0 / 0.9999 ** 2
    small, large = _best_times(lambda s: detect_errors(s, a, 1e-6),
                               [_every_tenth_faulted(1000), _every_tenth_faulted(4000)])
    assert large / small < RATIO_LIMIT


def test_fit_series_linear_in_eighth_grid_length():
    params = StasParams(p=0.95 + 0.2j, q1=1.0, q2=0.5 - 0.5j, r1=3, r2=5)
    small, large = _best_times(lambda s: fit_series(s),
                               [sample_series(params, 0.1, n, step=0.125) for n in (512, 2048)])
    assert large / small < RATIO_LIMIT


def _fsum_sizes(monkeypatch, fn):
    """The term count of every fsum call of the estimator that fn() makes, sorted."""
    sizes = []

    def counted(terms):
        terms = list(terms)
        sizes.append(len(terms))
        return math.fsum(terms)

    monkeypatch.setattr(estimator, "fsum", counted)
    fn()
    return sorted(sizes)


def _basis_fsum_sizes(monkeypatch, series, p):
    """The term count of every fsum call that building a _TrigBasis over the
    odd frequencies up to 15 makes, sorted."""
    return _fsum_sizes(monkeypatch, lambda: _TrigBasis(series, p, range(1, 16, 2)))


def test_trig_basis_norm_and_cross_sums_do_not_grow_with_length(monkeypatch):
    # counted, not timed: of the basis's fsum calls only the 2m = 16 signed
    # class sums of y (2N terms between them) and W (2N terms) grow with N;
    # the 32 projections, 16 norms and 64 cross products each sum m = 8
    # products.  Per-sample projections took N terms each.
    params = StasParams(p=0.95 + 0.2j, q1=1.0, q2=0.5 - 0.5j, r1=3, r2=5)
    for n in (4096, 16384):
        sizes = _basis_fsum_sizes(monkeypatch, sample_series(params, 1.3, n, step=0.125), params.p)
        assert sizes[:-17] == [8] * (32 + 16 + 64)
        assert sizes[-17:] == [n // 8] * 16 + [2 * n]


def test_trig_basis_with_classes_of_one_sample(monkeypatch):
    # at step 0.3, and at step 1/8 with m = n, each class is one sample: its
    # signed sum has one term, and every per-frequency sum has n
    params = StasParams(p=0.95 + 0.2j, q1=1.0, q2=0.5 - 0.5j, r1=3, r2=5)
    for step, n in ((0.3, 100), (0.125, 8)):
        sizes = _basis_fsum_sizes(monkeypatch, sample_series(params, 1.3, n, step=step), params.p)
        assert sizes == [1] * (2 * n) + [n] * (32 + 16 + 64) + [2 * n]


def test_each_basis_sums_w_once(monkeypatch):
    # counted, not timed: W, the one 2N-term sum, is summed once as a basis is built, so
    # a standalone fit_trig, which reads no residual, sums it once, and the search's
    # 64 residuals share their one basis's W
    params = StasParams(p=0.95 + 0.2j, q1=1.0, q2=0.5 - 0.5j, r1=3, r2=5)
    n = 4096
    series = sample_series(params, 1.3, n, step=0.125)
    alone = _fsum_sizes(monkeypatch, lambda: fit_trig(series, params.p, 3, 5))
    # 4 columns of m = 8 points, each a norm and two projection parts, and 4 cross sums
    assert alone == [8] * (4 * 3 + 4) + [n // 8] * 16 + [2 * n]
    searched = _fsum_sizes(monkeypatch, lambda: search_frequencies(series, params.p))
    assert searched.count(2 * n) == 1


def test_verify_takes_one_powers_pass_a_batch(monkeypatch):
    # counted, not timed: a 64-trial batch's ratios come from one p^t pass over its
    # trials' 4 * 5 arguments, with one log p a trial, and no trial falls back to
    # core.invariant_ratio where no argument is integer-valued, redrawn t included;
    # only a trial with an excluded t draws again from its own stream
    calls, redraws = [], []
    powers, for_trial = core._powers, SplitMix64.for_trial

    def counted(p, ts, logs=None):
        logs = list(logs)
        calls.append((len(ts), len(set(logs))))
        return powers(p, ts, logs)

    monkeypatch.setattr(core, "_powers", counted)
    monkeypatch.setattr(core, "invariant_ratio", None)
    monkeypatch.setattr(SplitMix64, "for_trial", lambda seed, k: redraws.append(k) or for_trial(seed, k))
    for seed in (0, 1, 2**64 + 5):
        for t_min, t_max in (-20.0, -10.0), (-3.0, -3.0 + 8 * math.ulp(3.0)):
            calls.clear()
            redraws.clear()
            assert sum(1 for _ in verify_trials(seed, 130, t_min, t_max)) == 130
            assert calls == [(1280, 64), (1280, 64), (40, 2)]
            assert (len(redraws) > 0) == (t_min == -3.0)


def _encoded(n):
    return encode_stream(_clean(n), 1.0 / 0.9999 ** 2)


def test_load_sig1_linear_in_sample_count():
    small, large = _best_times(load_sig1, [dump_sig1(_clean(2500)), dump_sig1(_clean(10000))])
    assert large / small < RATIO_LIMIT


def test_dump_sig1_linear_in_sample_count():
    small, large = _best_times(dump_sig1, [_clean(2500), _clean(10000)])
    assert large / small < RATIO_LIMIT


def test_load_stasc1_linear_in_sample_count():
    small, large = _best_times(load_stasc1,
                               [dump_stasc1(_encoded(2500)), dump_stasc1(_encoded(10000))])
    assert large / small < RATIO_LIMIT


def test_dump_stasc1_linear_in_sample_count():
    small, large = _best_times(dump_stasc1, [_encoded(2500), _encoded(10000)])
    assert large / small < RATIO_LIMIT


def test_written_text_is_never_parsed_line_by_line(monkeypatch, tmp_path):
    # counted, not timed: the text the writers and perfbench's workloads.sig1_text write
    # is canonical, so each block of it, from a string or a file, is parsed at once and
    # _parse_complex takes no body line; it parses only a STASC1 header's a=
    monkeypatch.syspath_prepend(PERFBENCH)
    from workloads import sig1_text
    taken = []
    parse_complex = codec._parse_complex
    monkeypatch.setattr(codec, "_parse_complex", lambda text: taken.append(text) or parse_complex(text))
    path = tmp_path / "in"
    for n in (1000, 4000):
        series, enc = _clean(n), _encoded(n)
        for text, parse, header in (("".join(_sig1_parts(series)), _sig1, []),
                                    (sig1_text(series.t0, series.values), _sig1, []),
                                    ("".join(_stasc1_parts(enc)), _stasc1, [_fmt_complex(enc.a)])):
            path.write_text(text)
            for load in (lambda: parse(_line_blocks(text)), lambda: _load(path, parse)):
                taken.clear()
                load()
                assert taken == header


def _traced(fn):
    """(fn(), bytes fn allocated and still held, peak bytes traced while it ran)."""
    tracemalloc.start()
    try:
        result = fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held, peak


def test_load_sig1_peak_is_near_the_series_it_returns():
    # the whole text split into lines at once peaked at 3.6 times the series
    text = dump_sig1(_clean(20000))
    series, held, peak = _traced(lambda: load_sig1(text))
    assert len(series) == 20000
    assert peak <= 1.5 * held


def test_writing_parts_adds_under_0_25_mib_to_the_series(tmp_path):
    # the whole text formatted at once peaked at 13.1 MiB above 1e5 samples; 4096
    # samples a '%', at 0.62 MiB at any length; the window kernel's 1024, at 0.16-0.18
    series = _clean(20000)
    for parts in (_sig1_parts(series), _stasc1_parts(_encoded(20000))):
        _, _, peak = _traced(lambda: _write(tmp_path / "out", parts))
        assert peak < 0.25 * 2**20


def test_check_repair_command_peak_at_most_0_9_mib(tmp_path, capsys):
    # `check --estimate --repair` on 8192 samples with 63 isolated faults, as the CLI
    # runs it: reading, estimate, sweep, repair and write peaked at 1.08 MiB in the
    # write with 4096 samples a '%', and at 0.75 MiB with the window kernel's 1024
    values = list(_clean(8192).values)
    for j in range(50, 8192, 130):
        values[j] += (1.0 + abs(values[j])) * (0.5 + 0.5j)
    src, out = tmp_path / "in.sig1", tmp_path / "out.sig1"
    src.write_text(dump_sig1(SampleSeries(1.0, values)))
    argv = ["check", "--estimate", "--repair", "--input", str(src), "--output", str(out)]
    assert main(argv) == 1  # once untraced, so nothing it loads on first use is counted
    rc, _, peak = _traced(lambda: main(argv))
    assert rc == 1
    faults = ",".join(map(str, range(50, 8192, 130)))
    assert capsys.readouterr().out.endswith(f"repaired=[{faults}]\n")
    assert peak <= 0.9 * 2**20


def test_estimate_and_sweep_peak_at_most_1_05_mib():
    # as `check --estimate` runs them: two full window kernels peaked at 1.95 MiB, one,
    # with full-length lists of ratios and residuals, at 1.74 MiB; blocks of 4096
    # windows keeping full-length window scales, the ratios' parts and the flagged
    # windows, at 1.13 MiB; blocks that compute their own scales keep none: 0.97 MiB
    series = _clean(20000)
    findings, _, peak = _traced(
        lambda: detect_errors(series, estimate_invariant(series).a_hat, 1e-6))
    assert findings == []
    assert peak <= 1.05 * 2**20


def test_estimate_and_encode_peak_at_most_1_05_mib():
    # as `encode --estimate` runs them: 1.72 MiB with full-length lists, 1.13 MiB in
    # blocks with full-length window scales
    series = _clean(20000)
    enc, _, peak = _traced(lambda: encode_stream(series, estimate_invariant(series).a_hat))
    assert enc.count == 20000
    assert peak <= 1.05 * 2**20


def test_base_recovery_peak_at_most_2_mib():
    # the fit's base stage on 40003 samples: full-length lists of pair sums and
    # ratios peaked at 4.71 MiB; blocks of 4096 windows, keeping the ratios' parts,
    # at 1.94 MiB, most of it the medians' boxed copy of the all-zero imaginary parts
    series = _clean(40003)
    p, _, peak = _traced(lambda: disambiguate_p(series))
    assert abs(p - 0.9999) <= 1e-12
    assert peak <= 2 * 2**20


def test_file_parse_peaks_near_the_series_it_returns(tmp_path):
    # the CLI's parse of a file: read whole, the text and its bytes peaked at 2.3
    # times the 40003 samples; parsed as read, a block of lines at a time, at 1.26
    path = tmp_path / "in.sig1"
    path.write_text(dump_sig1(_clean(40003)))
    series, held, peak = _traced(lambda: _load(path, _sig1))
    assert len(series) == 40003
    assert peak <= 1.3 * held


def test_decode_path_peaks_near_the_series_it_returns(tmp_path):
    # `decode` on 40003 samples: whole-text read and block lines held peaked at 2.85
    # times the decoded series; block lines parsed as they arrive, at 1.39
    path = tmp_path / "in.stasc1"
    path.write_text(dump_stasc1(_encoded(40003)))
    series, held, peak = _traced(lambda: decode_stream(_load(path, _stasc1)))
    assert len(series) == 40003
    assert peak <= 1.5 * held


def test_trig_basis_peak_at_most_2_mib():
    # 16384 samples at step 1/8: n-sample columns, tiled from one period,
    # peaked at 3.51 MiB; one period per column, at 2.52 MiB; m points per
    # column over the signed class sums, with no grid held past p^t, at 1.39 MiB
    params = StasParams(p=0.95 + 0.2j, q1=1.0, q2=0.5 - 0.5j, r1=3, r2=5)
    series = sample_series(params, 1.3, 16384, step=0.125)
    basis, _, peak = _traced(lambda: _TrigBasis(series, params.p, range(1, 16, 2)))
    assert peak <= 2 * 2**20
    assert len(basis.sine[1][0]) == 8
