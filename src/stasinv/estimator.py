"""Parameter recovery from sampled data.

The pipeline inverts the family definition step by step: the oscillatory
terms cancel in pair sums one unit apart, S_i = g_i + g_{i+m} = p^{t_i} * (1 + p)
on a grid of step 1/m, so S_{i+m} / S_i = p exactly, sign included; the residual after removing p^t
is a linear model in (q1, q2) for fixed frequencies, solved by 2x2 normal
equations; frequencies are found by exhaustive search over odd pairs.  The
empirical invariant a = 1/p^2 is estimated alongside and reported.

Identifiability caveat: on a unit-spaced grid both sin(r1*pi*(t0+k)) and
cos(r2*pi*(t0+k)) reduce to a constant times (-1)^k for every odd r, so the
two amplitude columns are collinear and only the single combination
q1*sin(r1*pi*t0) + q2*cos(r2*pi*t0) is observable.  Joint recovery of
(q1, q2, r1, r2) needs sub-unit sampling.  A step of 1/m aliases r with
2m - r, so it separates only the odd frequencies below m: a step of 1/16
separates all odd frequencies below 16, while at 1/8 the pairs in {7, 9}^2
tie.
"""

from __future__ import annotations

import cmath
import sys
from array import array
from itertools import chain, cycle, repeat
from math import cos, fsum, inf, sin, sqrt
from operator import mul

from ._windows import _check_finite, _median, _ratio_parts
from .core import (DEFAULT_R_MAX, InvariantReport, SampleSeries, StasParams, estimate_invariant,
                   _Record, _checked_values, _in_range, _phases, _powers, _steps_per_unit)
from .errors import DomainError, IllConditioned, NoValidWindows

__all__ = [
    "FitResult",
    "disambiguate_p",
    "fit_trig",
    "search_frequencies",
    "fit_series",
]

COND_LIMIT = 1e12

# Bounds of the closed-form screen in search_frequencies, by first-order error
# analysis with unit roundoff u = _EPS / 2:
# - fsum(T0 .. T5) is within 16u * sum |T_k| of the exact squared norm: yy,
#   m00, m11, m01 are within 2u of their absolute sums, b0, b1 within 3u (the
#   fold in _TrigBasis), and 2|q1|*sqrt(m00*yy) <= T3 + T0 (AM-GM) makes T1's
#   error 5u * (T0 + T3), T2's 5u * (T0 + T4), T5's 5u * (T3 + T4), T3's and
#   T4's 5u; with the fsum's u, 13u on T0 and 16u on T3 and T4;
# - a sample of the exact pass, w + q1*s + q2*c - v, is within
#   4u * (|w| + |q1*s| + |q2*c| + |v|), and y = v - w within u*|y|; with
#   rms(w) <= rms(v) + rms(y) that moves the rms by less than
#   8u * (rms(v) + rms(y) + rms(q1*s) + rms(q2*c));
# - abs, the square, the n-term sum, /n and sqrt add a relative (n + 7) * u / 2.
# Each constant is at least twice its bound, which also covers the roundings
# of the bounds themselves.  A pair whose |T_k| sum past _SCREEN_LIMIT, or are
# not finite, is kept, so a pass that would overflow still runs and raises.
_EPS = sys.float_info.epsilon
_CF_ERR = 16 * _EPS
_PASS_ERR = 8 * _EPS
_SCREEN_LIMIT = 1e300

_FIT_SUMS = "a sum of the fit exceeds the float range"


class FitResult(_Record):
    """Recovered parameters with fit diagnostics.

    tied_frequencies lists every (r1, r2) pair whose residual matches the
    winner's to within rounding; aliasing on coarse grids makes distinct
    odd pairs literally indistinguishable, and the tie set reports that
    instead of asserting uniqueness.  `invariant` is fit_series' estimate of
    a = 1/p^2, reported alongside p, which comes from the pair sums instead;
    search_frequencies, which is given p, leaves it None.
    """

    __slots__ = ("params", "residual_rms", "tied_frequencies", "invariant")

    def __init__(self, params: StasParams, residual_rms: float,
                 tied_frequencies: tuple[tuple[int, int], ...] = (),
                 invariant: InvariantReport | None = None):
        super().__init__(params, residual_rms, tied_frequencies, invariant)


def disambiguate_p(series: SampleSeries) -> complex:
    """The base p: the component-wise median of the pair-sum ratios S_{i+m} / S_i.

    On a grid of step 1/m each S_i = g_i + g_{i+m} = p^{t_i} * (1 + p), so each
    ratio is p, with the sign that a = 1/p^2 leaves open.  A ratio is skipped by
    estimate_invariant's rule, S_i being the denominator.  NoValidWindows when every
    ratio is skipped; DomainError where |S_i| leaves the float range or the median
    is 0, -1 or not finite.
    """
    g, m = _checked_values(series, 4, "base recovery")
    re, im = _ratio_parts(g, m, (m, 0), _FIT_SUMS)
    if not re:
        raise NoValidWindows("every pair-sum ratio was skipped as near-singular")
    return StasParams(p=complex(_median(re), _median(im))).p


class _TrigBasis:
    """The pair-independent parts of the (q1, q2) fit for one series, base p
    and set of odd frequencies, all built on construction: p^t, yy = ||g - p^t||^2,
    sine[r] and cosine[r] = (column, squared norm, projection on y = g - p^t)
    from one list of _phases per r, and cross[r1, r2], the inner product of the
    sine column of r1 and the cosine column of r2.  A non-finite sample or
    g - p^t raises DomainError.

    Odd-r columns repeat every 2m samples on a step-1/m grid, so with P = 2m
    there (if 2m < n) and P = n elsewhere, a column holds one period: sample i's
    entry is column[i mod P], its phase taken at t0 + (i mod P)*step.  Norms and
    cross products take product k n // P + (k < n % P) times in exact power-of-two
    multiples, bit for bit the fsum over the n samples.  Projections sum the P
    products column[k] * fsum(y[k::P]): within 3u of sum |column[i] * y_i|
    (u = _EPS / 2), against 2u per sample, whose last bits they may not match.
    """

    def __init__(self, series: SampleSeries, p: complex, freqs):
        self.series = series
        grid = series.grid()
        self.pt = _powers(p, grid)
        y = [v - w for v, w in zip(series.values, self.pt)]
        _check_finite(y)
        y_re, y_im = array("d", [z.real for z in y]), array("d", [z.imag for z in y])
        del y  # only the two arrays are needed from here on
        try:
            self.yy = fsum(chain(map(mul, y_re, y_re), map(mul, y_im, y_im)))
        except OverflowError:
            self.yy = inf
        n = len(grid)
        period = min(2 * _steps_per_unit(series.step) or n, n)
        if period < n:  # without a period each class is one sample: y itself
            y_re, y_im = ([fsum(part[k::period]) for k in range(period)] for part in (y_re, y_im))
        copies, rest = divmod(n, period)
        weights = [float(1 << j) for j in range(copies.bit_length()) if copies >> j & 1]

        def period_sum(a, b) -> float:
            products = list(map(mul, a, b))
            return fsum(chain(*[map(mul, products, repeat(w)) for w in weights],
                              products[:rest]))

        def column(values) -> tuple[array, float, complex]:
            head = array("d", values)
            proj = complex(fsum(map(mul, head, y_re)), fsum(map(mul, head, y_im)))
            return head, period_sum(head, head), proj

        self.sine, self.cosine = {}, {}
        for r in freqs:
            phases = _phases(r, grid[:period])
            self.sine[r] = column(map(sin, phases))
            self.cosine[r] = column(map(cos, phases))
        self.cross = {(r1, r2): period_sum(self.sine[r1][0], self.cosine[r2][0])
                      for r1 in freqs for r2 in freqs}

    def rms_bounds(self, params: StasParams, data_scale: float) -> tuple[float, float]:
        """(lo, hi) with lo <= residual_rms(params) <= hi, from the closed form
        in search_frequencies' docstring: its six terms T0 .. T5, in that
        order, summed with fsum.  The error bounds are derived above _CF_ERR;
        data_scale is rms |g|.  A pair past _SCREEN_LIMIT gets (-inf, inf).
        """
        q1, q2, r1, r2 = params.q1, params.q2, params.r1, params.r2
        _, m00, b0 = self.sine[r1]
        _, m11, b1 = self.cosine[r2]
        t3 = (q1.real * q1.real + q1.imag * q1.imag) * m00
        t4 = (q2.real * q2.real + q2.imag * q2.imag) * m11
        terms = (self.yy,
                 -2.0 * (q1.real * b0.real + q1.imag * b0.imag),
                 -2.0 * (q2.real * b1.real + q2.imag * b1.imag),
                 t3, t4,
                 2.0 * self.cross[r1, r2] * (q1.real * q2.real + q1.imag * q2.imag))
        size = sum(map(abs, terms))
        if not size <= _SCREEN_LIMIT:
            return -inf, inf
        n = len(self.pt)
        total = fsum(terms)
        err = _CF_ERR * size
        pass_err = _PASS_ERR * (data_scale + sqrt(self.yy / n) + sqrt(t3 / n) + sqrt(t4 / n))
        rel = (n + 8) * _EPS
        lo = (sqrt(max(total - err, 0.0) / n) - pass_err) * (1.0 - rel)
        hi = (sqrt(max(total + err, 0.0) / n) + pass_err) * (1.0 + rel)
        return lo, hi

    def residual_rms(self, params: StasParams) -> float:
        """RMS of (p^t + q1*sin(r1*pi*t) + q2*cos(r2*pi*t)) - g over the grid."""
        q1, q2 = params.q1, params.q2
        total = 0.0
        for w, x, z, v in zip(self.pt, cycle(self.sine[params.r1][0]),
                              cycle(self.cosine[params.r2][0]), self.series.values):
            total += abs(w + q1 * x + q2 * z - v) ** 2
        return sqrt(total / len(self.pt))


def fit_trig(series: SampleSeries, p: complex, r1: int, r2: int, *,
             basis: _TrigBasis | None = None) -> tuple[complex, complex]:
    """Least-squares (q1, q2) for fixed p, r1, r2 via 2x2 normal equations.

    Minimizes sum |g_i - p^{t_i} - q1*sin(r1*pi*t_i) - q2*cos(r2*pi*t_i)|^2.
    Raises IllConditioned when the normal matrix condition exceeds 1e12,
    which happens in particular on integer grids (the sine column vanishes
    for every odd r) and on unit-spaced grids (the two columns are
    collinear), and DomainError where a sum of the fit leaves the float
    range or, naming the pair, where q1 or q2 overflows.
    `basis`, built for the same series and p with r1 and r2 among its freqs,
    shares columns between calls; without one a single-use basis is built.
    """
    _checked_values(series, 4)
    if basis is None:
        with _in_range(_FIT_SUMS):
            basis = _TrigBasis(series, p, {r1, r2})
    _, m00, b0 = basis.sine[r1]
    _, m11, b1 = basis.cosine[r2]
    m01 = basis.cross[r1, r2]
    # eigenvalues of the symmetric 2x2 normal matrix
    tr = m00 + m11
    disc = sqrt(max((m00 - m11) ** 2 + 4.0 * m01 * m01, 0.0))
    lo = (tr - disc) / 2.0
    hi = (tr + disc) / 2.0
    cond = hi / lo if lo > 0.0 else inf
    if cond > COND_LIMIT:
        raise IllConditioned(
            f"normal matrix condition {cond:.3e} exceeds {COND_LIMIT:.0e} "
            f"for (r1, r2) = ({r1}, {r2})")

    det = m00 * m11 - m01 * m01
    q1 = (m11 * b0 - m01 * b1) / det
    q2 = (m00 * b1 - m01 * b0) / det
    if not (cmath.isfinite(q1) and cmath.isfinite(q2)):
        raise DomainError(f"the least-squares solve for (r1, r2) = ({r1}, {r2}) overflowed")
    return q1, q2


def search_frequencies(series: SampleSeries, p: complex,
                       r_max: int = DEFAULT_R_MAX) -> FitResult:
    """Exhaustive fit over odd (r1, r2) pairs in [1, r_max]^2.

    Returns the minimal-residual fit; exact residual ties are broken by the
    lexicographically smaller pair and the full tie set is reported.
    Raises IllConditioned only when every pair fails, and DomainError where
    a sum leaves the float range.

    One _TrigBasis over every odd frequency holds p^t, ||y||^2 for y = g - p^t,
    each frequency's columns, from 2m phases on a step-1/m grid, their norms and
    their projections on y folded by residue class mod 2m, and each pair's cross
    product, all summed over one period, so a pair costs the 2x2 solve.
    Every float is that of a fit_trig or residual_rms call on its own basis.

    The per-sample residual pass is screened.  For each solved (q1, q2) the
    closed form
        ||y - q1 s - q2 c||^2 = ||y||^2 - 2Re(conj(q1) b0) - 2Re(conj(q2) b1)
                                + |q1|^2 m00 + |q2|^2 m11 + 2 m01 Re(conj(q1) q2)
    holds for any (q1, q2), so it needs no optimality of the rounded solve.
    It costs a few products, and with first-order bounds on its rounding and
    on that of the pass it gives lo <= residual_rms <= hi
    (_TrigBasis.rms_bounds).  A pair whose lo exceeds the least hi plus the
    tie band's 1e-9 * max(rms |g|, 1) can neither win nor tie, and is
    dropped; the others, always including the winner and every tie, take the
    exact pass, and the result comes from the exact residuals alone.
    """
    if r_max < 1 or r_max % 2 == 0:
        raise DomainError(f"r_max must be a positive odd integer, got {r_max}")
    _checked_values(series, 8)
    odd = range(1, r_max + 1, 2)
    with _in_range(_FIT_SUMS):
        basis = _TrigBasis(series, p, odd)
        solved = []
        failure: IllConditioned | None = None
        for r1 in odd:
            for r2 in odd:
                try:
                    q1, q2 = fit_trig(series, p, r1, r2, basis=basis)
                except IllConditioned as exc:
                    failure = exc
                    continue
                solved.append(StasParams(p=p, q1=q1, q2=q2, r1=r1, r2=r2))
        if not solved:
            assert failure is not None
            raise failure
        # pow(x, 2) is abs(v) ** 2: the same float_pow, so the same libm pow call
        data_scale = sqrt(fsum(map(pow, map(abs, series.values), repeat(2))) / len(series))
        tie_slack = 1e-9 * max(data_scale, 1.0)
        bounds = [basis.rms_bounds(params, data_scale) for params in solved]
        bar = min(hi for _, hi in bounds) + tie_slack
        fits = [(basis.residual_rms(params), (params.r1, params.r2), params)
                for params, (lo, _) in zip(solved, bounds) if not lo > bar]
        best_rms, best_pair, best_params = min(fits, key=lambda item: (item[0], item[1]))
        tie_band = best_rms + tie_slack
        ties = tuple(pair for rms, pair, _ in fits if rms <= tie_band)
    return FitResult(params=best_params, residual_rms=best_rms, tied_frequencies=ties)


def fit_series(series: SampleSeries, r_max: int = DEFAULT_R_MAX) -> FitResult:
    """Full recovery pipeline: invariant, base from pair sums, frequencies/amplitudes.

    The series needs a step of 1/m.  Every sample is checked first, as every window
    operation checks them: a magnitude past the float range anywhere raises
    DomainError before a nan or inf anywhere.  The invariant and base stages read
    residue class 0, values[::m]: bit for bit the stride-m windows from sample 0 on,
    at 1/m of the cost of all windows.  The frequency search uses the full grid.  A
    sum past the float range raises DomainError.
    """
    values, m = _checked_values(series, 4, "fitting")
    _check_finite(values)
    unit = SampleSeries(series.t0, values[::m])
    report = estimate_invariant(unit)
    # rebuilt from its fields, so the fit does not keep unit alive in the report's private slots
    report = InvariantReport(report.a_hat, report.max_rel_dev, report.windows_used,
                             report.windows_skipped)
    result = search_frequencies(series, disambiguate_p(unit), r_max)
    return FitResult(result.params, result.residual_rms, result.tied_frequencies, report)
