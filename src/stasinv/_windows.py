"""The window kernel: the operations over every window i, i+m, i+2m, i+3m of a
series on a grid of step 1/m, run over blocks of _BLOCK windows.

Each block takes the series slice g[i : i + _BLOCK + 3m]; across blocks only
per-window floats are kept, in array('d')s of 8 bytes a window.  core's
estimate_invariant, codec's sweeps and the fit's base stage share it.
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


def _window_terms(g, scales, m: int):
    """The window kernel: for each block of _BLOCK windows of g at stride m, its first
    window i and a zip of the (lo, hi, scale) of windows i, i+1, ..., given their scales.
    lo = g_i + g_{i+m} is also window i-2m's hi, so each pair sum is computed once;
    only the zip holds a block's pair sums, so they are freed with it."""
    for i in range(0, len(scales), _BLOCK):
        yield i, _block_terms(g[i:i + _BLOCK + 3 * m], scales[i:i + _BLOCK], m)


def _block_terms(block, scales, m: int) -> zip:
    sums = [x + y for x, y in zip(block, islice(block, m, None))]
    return zip(sums, islice(sums, 2 * m, None), scales)


_PAIR_SUM_OVERFLOW = "a window's pair sum or defect exceeds the float range in magnitude"


def _window_residuals(g, a: complex, m: int, scales=None):
    """For each block of _BLOCK windows of g at stride m, its first window and the list of
    |lo - a*hi| / max(scale, _SCALE_FLOOR) of its windows: how far each is from
    g_i + g_{i+m} = a*(g_{i+2m} + g_{i+3m}).  The _window_scales, if not given, are
    computed for every window before the first block.

    Raises DomainError for a non-finite invariant or sample, and for a
    defect whose magnitude exceeds the float range, as the blocks are taken.
    """
    if not cmath.isfinite(a):
        raise DomainError(f"the invariant must be finite, got {a}")
    with _in_range(_PAIR_SUM_OVERFLOW):
        for i, terms in _window_terms(g, _window_scales(g, m) if scales is None else scales, m):
            yield i, [abs(x - a * y) / (c if c > _SCALE_FLOOR else _SCALE_FLOOR)
                      for x, y, c in terms]


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
    """(estimate_invariant(series), its _window_scales), the scales for the sweep to reuse.
    The ratios are kept as their parts, 16 bytes a window."""
    from array import array
    g, m = _checked_values(series, 4, "invariant estimation")
    scales = _window_scales(g, m)
    re, im = array("d"), array("d")
    with _in_range(_PAIR_SUM_OVERFLOW):
        for _, terms in _window_terms(g, scales, m):
            ratios = [x / y for x, y, c in terms if y and not abs(y) < SKIP_THRESHOLD * c]
            del terms  # and with it the block's pair sums
            re.fromlist([r.real for r in ratios])
            im.fromlist([r.imag for r in ratios])
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
