"""The window kernel: the operations over every window i, i+m, i+2m, i+3m of a
series on a grid of step 1/m, run over blocks of _BLOCK windows.

Each block takes the series slice g[i : i + _BLOCK + 3m] and computes its windows'
scales and pair sums; past the block only what its caller keeps stays, the ratios'
parts in array('d')s of 16 bytes a window or the flagged windows, and callers see
the windows in window order.  core's estimate_invariant and the fit's base stage
(pair-sum ratios) and codec's sweeps (residuals) share it.
"""

from __future__ import annotations

import cmath
from itertools import chain, islice, repeat
from math import isfinite, isqrt
from operator import sub

from .core import SKIP_THRESHOLD, InvariantReport, SampleSeries, _checked_values, _in_range
from .errors import DomainError, NoValidWindows

_SELECT_MIN = 2048  # from this many values on, _median selects the middle instead of sorting all
_BLOCK = 1024  # windows per block of the window kernel
# Floor on a window's scale, so an all-zero window has residual 0, not 0/0.
_SCALE_FLOOR = 1e-300
_NOT_FINITE = "samples must be finite, found nan or inf"
_MAGNITUDE_OVERFLOW = "a sample's magnitude exceeds the float range"


def _abs_each(g):
    """map(abs, g), with errno cleared first: CPython's abs of a complex with a nan part
    and no inf part leaves errno as it was, and raises OverflowError where an earlier
    overflow or underflow (math.exp(-1000)) left it at ERANGE; abs(0j) sets it to 0.
    Every other abs sets errno itself."""
    abs(0j)
    return map(abs, g)


def _magnitudes(g) -> list[float]:
    """|g_i| of every sample; DomainError for a magnitude past the float range.
    A sample with a nan or inf part has a nan or inf one, which the callers refuse."""
    with _in_range(_MAGNITUDE_OVERFLOW):
        return list(_abs_each(g))


def _check_finite(g) -> None:
    """DomainError for a sample whose magnitude is past the float range, else for a
    nan or inf sample: the magnitude error wins wherever the two samples are.  min
    takes every magnitude, one at a time, so a nan stops nothing and no list is kept."""
    with _in_range(_MAGNITUDE_OVERFLOW):
        finite = min(map(isfinite, _abs_each(g)), default=True)
    if not finite:
        raise DomainError(_NOT_FINITE)


def _window_terms(g, m: int, lags, fn, overflow: str):
    """The window kernel: fn of a zip of the (S_{i+j}, S_{i+k}, scale), (j, k) = lags, of
    the windows i of each block of _BLOCK windows of g at stride m, in window order (once,
    of an empty zip, if g has no window), with pair sums S_i = g_i + g_{i+m} and scales
    max(|g_i|, |g_{i+m}|, |g_{i+2m}|, |g_{i+3m}|).  As if every sample were checked first,
    a block with a non-finite magnitude and an OverflowError of fn run _check_finite(g): a
    magnitude past the float range anywhere wins over a nan anywhere, and both over the
    DomainError(overflow) that replaces the OverflowError."""
    j, k = lags
    for i in range(0, max(len(g) - 3 * m, 1), _BLOCK):  # with no window, once for every sample
        block = g[i:i + _BLOCK + 3 * m]
        scales = _magnitudes(block)  # each list replaces the one before it
        if not all(map(isfinite, scales)):
            _check_finite(g)
        scales = [x if x >= y else y for x, y in zip(scales, islice(scales, m, None))]
        scales = [x if x >= y else y for x, y in zip(scales, islice(scales, 2 * m, None))]
        sums = [x + y for x, y in zip(block, islice(block, m, None))]
        try:
            out = fn(zip(islice(sums, j, None), islice(sums, k, None), scales))
        except OverflowError:
            _check_finite(g)
            raise DomainError(overflow) from None
        yield out


_PAIR_SUM_OVERFLOW = "a window's pair sum or defect exceeds the float range in magnitude"


def _window_residuals(g, a: complex, m: int):
    """|lo - a*hi| / max(scale, _SCALE_FLOOR) of every window of g at stride m, in
    window order, with lo = S_i and hi = S_{i+2m}: how far each is from
    g_i + g_{i+m} = a*(g_{i+2m} + g_{i+3m}).

    Raises DomainError for a non-finite invariant, before any residual, and for a
    non-finite sample or a defect whose magnitude exceeds the float range, in the order
    of _window_terms.
    """
    if not cmath.isfinite(a):
        raise DomainError(f"the invariant must be finite, got {a}")
    return chain.from_iterable(_window_terms(g, m, (0, 2 * m), lambda terms: [
        abs(x - a * y) / (c if c > _SCALE_FLOOR else _SCALE_FLOOR) for x, y, c in terms],
        _PAIR_SUM_OVERFLOW))


def _ratio_parts(g, m: int, lags, overflow: str) -> tuple:
    """(re, im): array('d')s of the parts of the pair-sum ratios S_{i+j} / S_{i+k},
    (j, k) = lags, of the windows i of g at stride m, skipping as near-singular each
    whose S_{i+k} is 0 or below SKIP_THRESHOLD times its scale.  DomainError(overflow)
    where |S_{i+k}| leaves the float range."""
    from array import array  # here, not at the top: a shared library only the ratios need
    re, im = array("d"), array("d")
    for ratios in _window_terms(g, m, lags, lambda terms: [
            x / y for x, y, c in terms if y and not abs(y) < SKIP_THRESHOLD * c], overflow):
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


def _estimate(series: SampleSeries) -> InvariantReport:
    """estimate_invariant(series)."""
    g, m = _checked_values(series, 4, "invariant estimation")
    re, im = _ratio_parts(g, m, (0, 2 * m), _PAIR_SUM_OVERFLOW)
    if not re:
        raise NoValidWindows("every window was skipped as near-singular")
    a_hat = complex(_median(re), _median(im))
    # dividing by norm >= 1 keeps the order of the deviations, so it can follow the max
    deviations = map(abs, map(sub, map(complex, re, im), repeat(a_hat)))
    max_rel_dev = max(deviations) / max(abs(a_hat), 1.0)
    if not (cmath.isfinite(a_hat) and isfinite(max_rel_dev)):
        raise DomainError(f"the estimate is not finite: a_hat={a_hat}, max_rel_dev={max_rel_dev}")
    return InvariantReport(a_hat=a_hat, max_rel_dev=max_rel_dev, windows_used=len(re),
                           windows_skipped=len(g) - 3 * m - len(re))
