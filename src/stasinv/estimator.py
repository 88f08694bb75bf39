"""Parameter recovery from sampled data.

The pipeline inverts the family definition step by step: the oscillatory
terms cancel in pair sums one unit apart, S_i = g_i + g_{i+m} = p^{t_i} * (1 + p)
on a grid of step 1/m, so S_{i+m} / S_i = p exactly, sign included; the residual after removing p^t
is a linear model in (q1, q2) for fixed frequencies, solved by 2x2 normal
equations; frequencies are found by exhaustive search over odd pairs.  Odd-r
columns change sign over one unit of t, so on a step-1/m grid the residual
folds into m signed class sums, and each pair of the search is an m-point solve
and an m-point residual.  The empirical invariant a = 1/p^2 is estimated
alongside and reported.

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
from array import array
from itertools import chain, repeat
from math import cos, fsum, inf, sin, sqrt
from operator import mul, neg, sub, truediv

from ._windows import _check_finite, _median, _ratio_parts
from .core import (DEFAULT_R_MAX, InvariantReport, SampleSeries, StasParams, estimate_invariant,
                   _Record, _checked_values, _grid, _in_range, _phases, _powers, _steps_per_unit)
from .errors import DomainError, IllConditioned, NoValidWindows

__all__ = [
    "FitResult",
    "disambiguate_p",
    "fit_trig",
    "search_frequencies",
    "fit_series",
]

COND_LIMIT = 1e12

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
    re, im, _, _ = _ratio_parts(g, m, (m, 0), _FIT_SUMS)
    if not re:
        raise NoValidWindows("every pair-sum ratio was skipped as near-singular")
    return StasParams(p=complex(_median(re), _median(im))).p


class _TrigBasis:
    """The pair-independent parts of the (q1, q2) fit for one series, base p
    and set of odd frequencies, all built on construction.  A non-finite sample
    or g - p^t raises DomainError.

    On a step-1/m grid every odd-r column changes sign over one unit of t, as
    the oscillatory part of sample_series' data does, so y = g - p^t folds into
    m signed class sums: sums[k] = T_k = sum over j of (-1)^j y_{k+jm}, over
    counts[k] = n_k samples.  Off the 1/m grids, and where m >= n, m = n and
    each class is one sample.  sine[r] and cosine[r] are (column, norm,
    projection): the m values sin or cos of _phases(r, grid[:m]), the points
    sample_series evaluates, sum n_k s_k^2 and sum s_k T_k; cross[r1, r2] is
    sum n_k s_k c_k, the sine column of r1 against the cosine column of r2.
    spread is W = sum |y_i - (-1)^j T_k / n_k|^2 over every sample, the part of
    each pair's squared residual that no pair changes, or inf past the float
    range.  Each sum is one fsum, so T_k is correctly rounded, and a projection,
    rounded three times, is within 3u of sum |s_k T_k| (u = 2^-53).
    """

    def __init__(self, series: SampleSeries, p: complex, freqs):
        y = [v - w for v, w in zip(series.values, _powers(p, series.grid()))]
        _check_finite(y)
        n = self.n = len(y)
        m = min(_steps_per_unit(series.step) or n, n)
        parts = array("d", [z.real for z in y]), array("d", [z.imag for z in y])
        del y  # only the two arrays are needed from here on

        def signed(part, k):  # class k, each sample times (-1)^j
            return chain(part[k::2 * m], map(neg, part[k + m::2 * m]))

        self.counts = [len(range(k, n, m)) for k in range(m)]
        re, im = ([fsum(signed(part, k)) for k in range(m)] for part in parts)
        self.sums = list(map(complex, re, im))
        try:
            self.spread = fsum(d * d for part, sums in zip(parts, (re, im))
                               for k, mean in enumerate(map(truediv, sums, self.counts))
                               for d in map(sub, signed(part, k), repeat(mean)))
        except OverflowError:
            self.spread = inf

        def weighted(a, b) -> float:
            return fsum(map(mul, self.counts, map(mul, a, b)))

        def column(values) -> tuple[list[float], float, complex]:
            col = list(values)
            return col, weighted(col, col), complex(fsum(map(mul, col, re)),
                                                    fsum(map(mul, col, im)))

        self.sine, self.cosine = {}, {}
        head = _grid(series.t0, series.step, m)  # series.grid()[:m]
        for r in freqs:
            phases = _phases(r, head)
            self.sine[r] = column(map(sin, phases))
            self.cosine[r] = column(map(cos, phases))
        self.cross = {(r1, r2): weighted(self.sine[r1][0], self.cosine[r2][0])
                      for r1 in freqs for r2 in freqs}

    def residual_rms(self, params: StasParams) -> float:
        """RMS of (p^t + q1*sin(r1*pi*t) + q2*cos(r2*pi*t)) - g over the grid, by the
        exact identity ||y - q1 s - q2 c||^2 = W + sum_k |T_k - n_k (q1 s_k + q2 c_k)|^2
        / n_k.  Past the float range, OverflowError, as from the basis' own sums."""
        q1, q2 = params.q1, params.q2
        misses = (t - k * (q1 * x + q2 * z) for t, k, x, z in
                  zip(self.sums, self.counts, self.sine[params.r1][0], self.cosine[params.r2][0]))
        total = fsum(chain([self.spread], ((e.real * e.real + e.imag * e.imag) / k
                                           for e, k in zip(misses, self.counts))))
        if not total < inf:
            raise OverflowError
        return sqrt(total / self.n)


def fit_trig(series: SampleSeries, p: complex, r1: int, r2: int, *,
             basis: _TrigBasis | None = None) -> tuple[complex, complex]:
    """Least-squares (q1, q2) for fixed p, r1, r2 via 2x2 normal equations.

    Minimizes sum |g_i - p^{t_i} - q1*sin(r1*pi*t_i) - q2*cos(r2*pi*t_i)|^2,
    whose normal equations _TrigBasis holds exactly as m-point sums over the
    signed class sums of y = g - p^t.
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

    One _TrigBasis over every odd frequency folds y = g - p^t into its m signed
    class sums and holds each frequency's m-point columns, their weighted norms,
    their projections and each pair's cross product, so a pair costs the 2x2
    solve and an m-point residual, exact through the basis' W; every solved
    pair's residual is taken.  Every float is that of a fit_trig or
    residual_rms call on its own basis.
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
        fits = [(basis.residual_rms(params), (params.r1, params.r2), params) for params in solved]
        best_rms, best_pair, best_params = min(fits, key=lambda item: (item[0], item[1]))
        tie_band = best_rms + 1e-9 * max(data_scale, 1.0)
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
    unit = SampleSeries._of(series.t0, values[::m])
    report = estimate_invariant(unit)
    # rebuilt from its fields, so the fit does not keep unit alive in the report's private slots
    report = InvariantReport(report.a_hat, report.max_rel_dev, report.windows_used,
                             report.windows_skipped)
    result = search_frequencies(series, disambiguate_p(unit), r_max)
    return FitResult(result.params, result.residual_rms, result.tied_frequencies, report)
