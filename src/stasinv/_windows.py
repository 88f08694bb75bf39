"""The window kernel: the operations over every window i, i+m, i+2m, i+3m of a
series on a grid of step 1/m, run over blocks of _BLOCK windows.

Each block takes the series slice g[i : i + _BLOCK + 3m]; across blocks only
per-window floats are kept, in array('d')s of 8 bytes a window, and callers see
the windows in window order.  core's estimate_invariant and the fit's base stage
(pair-sum ratios) and codec's sweeps (residuals) share it.
"""

from __future__ import annotations

import cmath
from itertools import islice, repeat
from math import isfinite, isqrt
from operator import sub

from .core import (SKIP_THRESHOLD, InvariantReport, SampleSeries, _checked_values,
                   _in_range)
from .errors import DomainError, NoValidWindows

_SELECT_MIN = 2048  # from this many values on, _median selects the middle instead of sorting all
_BLOCK = 4096  # windows per block of the window kernel
# Floor on a window's scale, so an all-zero window has residual 0, not 0/0.
_SCALE_FLOOR = 1e-300
_NOT_FINITE = "samples must be finite, found nan or inf"


def _magnitudes(g) -> list[float]:
    """|g_i| of every sample; DomainError for a magnitude past the float range.
    A sample with a nan or inf part has a nan or inf one, which the callers refuse."""
    with _in_range("a sample's magnitude exceeds the float range"):
        return [abs(v) for v in g]


def _check_finite(g) -> None:
    """DomainError for a sample whose magnitude is past the float range, else for a
    nan or inf sample: the magnitude error wins wherever the two samples are."""
    if not all(map(isfinite, _magnitudes(g))):
        raise DomainError(_NOT_FINITE)


def _window_scales(g, m: int):
    """The scale max(M_i, M_{i+2m}) of every window i of g at stride m, as an array('d'),
    8 bytes a window, with pairwise maxima M_j = max(|g_j|, |g_{j+m}|), one block of
    _BLOCK windows at a time.  Every sample's magnitude is taken before the nan check,
    so one past the float range wins over a nan anywhere, as in _check_finite."""
    from array import array  # here, not at the top: a shared library only the sweeps need
    scales, finite = array("d"), True
    for i in range(0, max(len(g) - 3 * m, 1), _BLOCK):  # with no window, once for every sample
        mags = _magnitudes(g[i:i + _BLOCK + 3 * m])
        finite = finite and all(map(isfinite, mags))
        peaks = [x if x >= y else y for x, y in zip(mags, islice(mags, m, None))]
        scales.fromlist([x if x >= y else y for x, y in zip(peaks, islice(peaks, 2 * m, None))])
    if not finite:
        raise DomainError(_NOT_FINITE)
    return scales


def _window_terms(g, scales, m: int, lags):
    """The window kernel: for each block of _BLOCK windows i of g at stride m, a zip of
    their (S_{i+j}, S_{i+k}, scale), (j, k) = lags, given their scales; the block's pair
    sums S_i = g_i + g_{i+m}, each computed once, are held until the next block."""
    j, k = lags
    for i in range(0, len(scales), _BLOCK):
        block = g[i:i + _BLOCK + 3 * m]
        sums = [x + y for x, y in zip(block, islice(block, m, None))]
        yield zip(islice(sums, j, None), islice(sums, k, None), scales[i:i + _BLOCK])


_PAIR_SUM_OVERFLOW = "a window's pair sum or defect exceeds the float range in magnitude"


def _window_residuals(g, a: complex, m: int, scales=None):
    """|lo - a*hi| / max(scale, _SCALE_FLOOR) of every window of g at stride m, in
    window order, with lo = S_i and hi = S_{i+2m}: how far each is from
    g_i + g_{i+m} = a*(g_{i+2m} + g_{i+3m}).  The _window_scales, if not given, are
    computed for every window before the first residual.

    Raises DomainError for a non-finite invariant or sample, and for a
    defect whose magnitude exceeds the float range, before any residual of its block.
    """
    if not cmath.isfinite(a):
        raise DomainError(f"the invariant must be finite, got {a}")
    with _in_range(_PAIR_SUM_OVERFLOW):
        for terms in _window_terms(g, _window_scales(g, m) if scales is None else scales,
                                   m, (0, 2 * m)):
            yield from [abs(x - a * y) / (c if c > _SCALE_FLOOR else _SCALE_FLOOR)
                        for x, y, c in terms]


def _ratio_parts(g, scales, m: int, lags) -> tuple:
    """(re, im): array('d')s of the parts of the pair-sum ratios S_{i+j} / S_{i+k},
    (j, k) = lags, of the windows i of g at stride m with the given scales, skipping as
    near-singular each whose S_{i+k} is 0 or below SKIP_THRESHOLD times its scale.
    OverflowError where |S_{i+k}| leaves the float range, for the caller to name."""
    from array import array
    re, im = array("d"), array("d")
    for terms in _window_terms(g, scales, m, lags):
        ratios = [x / y for x, y, c in terms if y and not abs(y) < SKIP_THRESHOLD * c]
        re.fromlist([r.real for r in ratios])
        im.fromlist([r.imag for r in ratios])
    return re, im


def _median(xs) -> float:
    """statistics.median(xs) of a list or array('d'), bit for bit, without loading
    statistics or changing xs.  From _SELECT_MIN values on, a sorted 1-in-32 sample
    brackets the middle, and only the values inside are sorted (Floyd and Rivest,
    CACM 1975); a bracket that misses, or a nan (which the sum of xs keeps), sorts
    them all."""
    n, below, inside = len(xs), 0, None
    if n >= _SELECT_MIN and (total := sum(xs)) == total:
        sample = sorted(xs[::32])
        j, d = len(sample) // 2, 2 * isqrt(len(sample))
        lo, hi = sample[j - d], sample[j + d]
        below = len([1 for x in xs if x < lo])  # counted, not held: an array's are new floats
        inside = sorted(x for x in xs if lo <= x <= hi)  # one list: repeats can fill it
        if not (below <= (n - 1) // 2 and n // 2 < below + len(inside)):
            below, inside = 0, None
    if inside is None:
        inside = sorted(xs)
    i = n // 2 - below
    return inside[i] if n % 2 else (inside[i - 1] + inside[i]) / 2


def _estimate(series: SampleSeries) -> tuple:
    """(estimate_invariant(series), its _window_scales), the scales for the sweep to reuse."""
    g, m = _checked_values(series, 4, "invariant estimation")
    scales = _window_scales(g, m)
    with _in_range(_PAIR_SUM_OVERFLOW):
        re, im = _ratio_parts(g, scales, m, (0, 2 * m))
    if not re:
        raise NoValidWindows("every window was skipped as near-singular")
    a_hat = complex(_median(re), _median(im))
    # dividing by norm >= 1 keeps the order of the deviations, so it can follow the max
    deviations = map(abs, map(sub, map(complex, re, im), repeat(a_hat)))
    max_rel_dev = max(deviations) / max(abs(a_hat), 1.0)
    if not (cmath.isfinite(a_hat) and isfinite(max_rel_dev)):
        raise DomainError(f"the estimate is not finite: a_hat={a_hat}, max_rel_dev={max_rel_dev}")
    return InvariantReport(a_hat=a_hat, max_rel_dev=max_rel_dev, windows_used=len(re),
                           windows_skipped=len(scales) - len(re)), scales
