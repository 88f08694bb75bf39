"""Run time of the window sweeps, localization, the frequency fit and text I/O is linear in N.

Each case is timed at N and 4N, taking the fastest of 3 interleaved repeats
per size.  Linear code reads a ratio near 4 (about 7 under the speed swings
of a shared machine); code quadratic in N reads 16.  The text I/O also has
memory guards: reading and writing hold about the series, not copies of its text,
and an estimate and the sweep after it hold one set of window terms at a time.
The fit's trig basis has a counting guard: on a step-1/m grid only its sum of
squares and its residue-class sums of y take a number of terms that grows with
N; and a memory guard: its columns hold one period.
"""

import math
import time
import tracemalloc

from stasinv import (
    SampleSeries,
    StasParams,
    detect_errors,
    encode_stream,
    estimate_invariant,
    fit_series,
    sample_series,
)
from stasinv import estimator
from stasinv.cli import _write
from stasinv.codec import (_detect, _sig1_parts, _stasc1_parts, dump_sig1, dump_stasc1, load_sig1,
                           load_stasc1)
from stasinv.core import _estimate
from stasinv.estimator import _TrigBasis

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


def _basis_fsum_sizes(monkeypatch, series, p):
    """The term count of every fsum call that building a _TrigBasis over the
    odd frequencies up to 15 makes, sorted."""
    sizes = []

    def counted(terms):
        terms = list(terms)
        sizes.append(len(terms))
        return math.fsum(terms)

    monkeypatch.setattr(estimator, "fsum", counted)
    _TrigBasis(series, p, range(1, 16, 2))
    return sorted(sizes)


def test_trig_basis_norm_and_cross_sums_do_not_grow_with_length(monkeypatch):
    # counted, not timed: of the basis's fsum calls only yy (2N terms) and the
    # 2P = 32 class sums of y (2N terms between them) grow with N; the 32
    # projections, 16 norms and 64 cross products each sum one period of
    # P = 16 products.  Per-sample projections took N terms each.
    params = StasParams(p=0.95 + 0.2j, q1=1.0, q2=0.5 - 0.5j, r1=3, r2=5)
    for n in (4096, 16384):
        sizes = _basis_fsum_sizes(monkeypatch, sample_series(params, 1.3, n, step=0.125), params.p)
        assert sizes[:-33] == [16] * (32 + 16 + 64)
        assert sum(sizes[-33:]) == 4 * n


def test_trig_basis_without_a_period_makes_no_class_sums(monkeypatch):
    # at step 0.3, and at step 1/8 with 2m = n, the period is the whole grid:
    # y is its own fold, with no one-term class sums
    params = StasParams(p=0.95 + 0.2j, q1=1.0, q2=0.5 - 0.5j, r1=3, r2=5)
    for step, n in ((0.3, 100), (0.125, 16)):
        sizes = _basis_fsum_sizes(monkeypatch, sample_series(params, 1.3, n, step=step), params.p)
        assert sizes == [n] * (32 + 16 + 64) + [2 * n]


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


def test_writing_parts_adds_under_1_mib_to_the_series(tmp_path):
    # the whole text formatted at once peaked at 13.1 MiB above 1e5 samples
    series = _clean(20000)
    for parts in (_sig1_parts(series), _stasc1_parts(_encoded(20000))):
        _, _, peak = _traced(lambda: _write(tmp_path / "out", parts))
        assert peak < 2**20


def test_estimate_and_sweep_peak_at_most_1_95_mib():
    # as `check --estimate` runs them: the estimate keeps only its window scales,
    # 8 bytes a window, for the sweep; two full window kernels peaked at 1.95 MiB
    series = _clean(20000)

    def check_estimate():
        report, scales = _estimate(series)
        return _detect(series, report.a_hat, 1e-6, scales)

    findings, _, peak = _traced(check_estimate)
    assert findings == []
    assert peak <= 1.95 * 2**20


def test_trig_basis_peak_at_most_3_mib():
    # 16384 samples at step 1/8: n-sample columns, tiled from one period,
    # peaked at 3.51 MiB; one period per column, at 2.52 MiB
    params = StasParams(p=0.95 + 0.2j, q1=1.0, q2=0.5 - 0.5j, r1=3, r2=5)
    series = sample_series(params, 1.3, 16384, step=0.125)
    basis, _, peak = _traced(lambda: _TrigBasis(series, params.p, range(1, 16, 2)))
    assert peak <= 3 * 2**20
    assert len(basis.sine[1][0]) == 16
