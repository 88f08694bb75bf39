"""The window kernel: the operations over every window i, i+m, i+2m, i+3m of a
series on a grid of step 1/m, run over blocks of _BLOCK windows.

Each block takes the series slice g[i : i + _BLOCK + 3m] and computes its samples'
magnitudes and its windows' pair sums, and its windows' scales where its caller needs
them; past the block only what its caller keeps stays, the ratios' parts in
array('d')s of 16 bytes a window or the flagged windows, and callers see the windows
in window order.  core's estimate_invariant and the fit's base stage
(pair-sum ratios) and codec's sweeps (residuals) share it.  The screen is here too:
the bound _estimate keeps on every residual, and _screened, the one check that reads it.
"""

from __future__ import annotations

import cmath
from itertools import chain, islice, repeat
from math import inf, isfinite, isqrt
from operator import add, sub, truediv

from .core import InvariantReport, SampleSeries, _checked_values, _in_range
from .errors import DomainError, NoValidWindows

_SELECT_MIN = 2048  # from this many values on, _median selects the middle instead of sorting all
_BLOCK = 1024  # windows per block of the window kernel
SKIP_THRESHOLD = 1e-9  # a window whose |S| is below this times its scale is near-singular
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


def _check_finite(g) -> None:
    """DomainError for a sample whose magnitude is past the float range, else for a
    nan or inf sample: the magnitude error wins wherever the two samples are.  min
    takes every magnitude, one at a time, so a nan stops nothing and no list is kept."""
    with _in_range(_MAGNITUDE_OVERFLOW):
        finite = min(map(isfinite, _abs_each(g)), default=True)
    if not finite:
        raise DomainError(_NOT_FINITE)


def _window_terms(g, m: int, lags, fn, overflow: str):
    """The window kernel: fn(xs, ys, mags) of each block of _BLOCK windows of g at stride
    m, in window order (once, of no window, if g has none), with xs and ys the lists of
    the block's windows' pair sums S_{i+j} and S_{i+k}, (j, k) = lags, S_i = g_i + g_{i+m},
    and mags the magnitudes of the block's samples, whose _scales are its windows'.  As
    if every sample were checked first, a block with a non-finite magnitude and an
    OverflowError of fn run _check_finite(g): a magnitude past the float range anywhere
    wins over a nan anywhere, and both over the DomainError(overflow) that replaces the
    OverflowError."""
    j, k = lags
    for i in range(0, max(len(g) - 3 * m, 1), _BLOCK):  # with no window, once for every sample
        block = g[i:i + _BLOCK + 3 * m]
        # DomainError past the float range; a nan or inf part gives a nan or inf, refused below
        with _in_range(_MAGNITUDE_OVERFLOW):
            mags = list(_abs_each(block))
        if not all(map(isfinite, mags)):
            _check_finite(g)
        n = max(len(block) - 3 * m, 0)  # the block's windows
        sums = list(map(add, block, islice(block, m, None)))
        try:
            out = fn(sums[j:j + n], sums[k:k + n], mags)
        except OverflowError:
            _check_finite(g)
            raise DomainError(overflow) from None
        yield out


def _scales(mags, m: int) -> list[float]:
    """The scales max(|g_i|, |g_{i+m}|, |g_{i+2m}|, |g_{i+3m}|) of the windows i of a block
    whose samples' magnitudes are mags."""
    scales = [x if x >= y else y for x, y in zip(mags, islice(mags, m, None))]
    return [x if x >= y else y for x, y in zip(scales, islice(scales, 2 * m, None))]


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
    return chain.from_iterable(_window_terms(g, m, (0, 2 * m), lambda xs, ys, mags: [
        abs(x - a * y) / (c if c > _SCALE_FLOOR else _SCALE_FLOOR)
        for x, y, c in zip(xs, ys, _scales(mags, m))], _PAIR_SUM_OVERFLOW))


def _ratio_parts(g, m: int, lags, overflow: str) -> tuple:
    """(re, im, least, top): array('d')s of the parts of the pair-sum ratios
    S_{i+j} / S_{i+k}, (j, k) = lags, of the windows i of g at stride m (g must have
    one), skipping as near-singular each whose S_{i+k} is 0 or below SKIP_THRESHOLD
    times its scale, with the least |S_{i+k}| and the greatest sample magnitude.
    DomainError(overflow) where |S_{i+k}| leaves the float range.  A window's scale is
    at most its block's greatest magnitude, so only a block with an |S_{i+k}| of 0 or
    below SKIP_THRESHOLD times the greatest takes its windows' scales."""
    from array import array  # here, not at the top: a shared library only the ratios need

    def ratios(xs, ys, mags):
        least, top = min(map(abs, ys)), max(mags)
        if least and not least < SKIP_THRESHOLD * top:  # no window is skipped
            return list(map(truediv, xs, ys)), least, top
        return [x / y for x, y, c in zip(xs, ys, _scales(mags, m))
                if y and not abs(y) < SKIP_THRESHOLD * c], least, top

    re, im, least, top = array("d"), array("d"), inf, 0.0
    for kept, block_least, block_top in _window_terms(g, m, lags, ratios, overflow):
        re.fromlist([r.real for r in kept])
        im.fromlist([r.imag for r in kept])
        least, top = min(least, block_least), max(top, block_top)
    return re, im, least, top


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


# The screen: a bound B on every window's residual at a_hat, from what the estimate
# measured.  A window's pair sums x = S_i and y = S_{i+2m} and its scale c are the same
# floats in the estimate and in the sweep.  Take the estimate's ratio rho = fl(x / y), its
# largest deviation D = max fl(|fl(rho - a)|), a = a_hat, and the unit roundoff u = _EPS / 2.
# By first-order error analysis:
# - the deviation's difference errs by u and its abs (hypot, under 1 ulp) by 2u, so
#   |rho - a| <= D(1 + 3u);
# - CPython's complex division (Smith's) errs by at most 7u |x/y| normwise: 3u in its
#   numerators, 3u in its denominator and u in the quotient (under 2.7u measured against
#   Fraction over 200 000 random pairs).  With |x/y| <= |a| + D, |x/y - a| is at most
#   D(1 + 10u) + 7u|a|, and |x - a*y| = |x/y - a| * |y|;
# - the sweep's product a*y errs by at most sqrt(5) u |a||y| normwise (Brent, Percival and
#   Zimmermann, 2007; under 2u measured), its difference by u, its abs by 2u and its
#   quotient by c by u; |y| <= 2c(1 + 3u), one rounding of a sum of two slots whose
#   magnitudes c bounds up to its own rounding of 2u.
# So every residual is at most 2(1 + 7u)(D(1 + 10u) + 9.3u|a|), and
#   B = 2(1 + 16 _EPS)(D(1 + 32 _EPS) + 32 _EPS |a|) + 2**-100
# takes each constant at least twice, which also covers the terms of second order and
# the roundings of B.  Scales in [2**-969, 2**1000] and D <= 2**-20 keep every step in
# range: |a*y| is then about |x| <= 2**1001, so nothing overflows, and a rounding that
# underflows errs by at most 2**-1074 absolutely, which reaches a residual at most
# doubled and divided by c >= 2**-969: 2**-104 for each of the under 16 roundings of a
# window, 2**-100 in all.  Every scale is in that range where the least computed |y| is
# at least 2**-967 and the greatest sample magnitude at most 2**1000: each computed |y| is
# at most 2c(1 + 5u), and c is a sample's magnitude.  A skipped window has no deviation,
# so with one B is inf.
_EPS = 2.0 ** -52
_SCREEN_SCALES = (2.0 ** -967, 2.0 ** 1000)
_SCREEN_MAX_DEV = 2.0 ** -20


def _residual_bound(max_dev: float, a_hat: complex, skipped: int, least: float,
                    top: float) -> float:
    """B, above, from the estimate's largest deviation max_dev, its skipped windows, its
    least |S_{i+2m}| and its greatest sample magnitude; inf where the analysis does not
    hold."""
    lo, hi = _SCREEN_SCALES
    if skipped or not (max_dev <= _SCREEN_MAX_DEV and lo <= least and top <= hi):
        return inf
    return 2 * (1 + 16 * _EPS) * (max_dev * (1 + 32 * _EPS) + 32 * _EPS * abs(a_hat)) + 2.0 ** -100


def _estimate(series: SampleSeries) -> InvariantReport:
    """estimate_invariant(series), holding series and _residual_bound in its private slots."""
    g, m = _checked_values(series, 4, "invariant estimation")
    re, im, least, top = _ratio_parts(g, m, (0, 2 * m), _PAIR_SUM_OVERFLOW)
    if not re:
        raise NoValidWindows("every window was skipped as near-singular")
    a_hat = complex(_median(re), _median(im))
    # dividing by norm >= 1 keeps the order of the deviations, so it can follow the max
    max_dev = max(map(abs, map(sub, map(complex, re, im), repeat(a_hat))))
    max_rel_dev = max_dev / max(abs(a_hat), 1.0)
    if not (cmath.isfinite(a_hat) and isfinite(max_rel_dev)):
        raise DomainError(f"the estimate is not finite: a_hat={a_hat}, max_rel_dev={max_rel_dev}")
    skipped = len(g) - 3 * m - len(re)
    report = InvariantReport(a_hat=a_hat, max_rel_dev=max_rel_dev, windows_used=len(re),
                             windows_skipped=skipped)
    object.__setattr__(report, "_bound", _residual_bound(max_dev, a_hat, skipped, least, top))
    object.__setattr__(report, "_series", series)
    return report


def _screened(series: SampleSeries, a, tol: float) -> tuple[complex, bool]:
    """(the invariant a gives, whether it proves every window of series within tol): the
    report estimate_invariant returned for this very series bounds every residual at
    its a_hat, and any other report gives only its a_hat."""
    if isinstance(a, InvariantReport):
        return a.a_hat, a._series is series and a._bound <= tol
    return a, False
