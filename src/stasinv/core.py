"""Parametric signal family, exact discrete sequences, and the four-point invariant.

The family is

    f(t) = p^t + q1*sin(r1*pi*t) + q2*cos(r2*pi*t),      s(t) = f(t) / t,

with complex p, q1, q2 and odd integers r1, r2.  For every such function the
four-point ratio

    (f(t) + f(t+1)) / (f(t+2) + f(t+3))

is the constant 1/p^2: unit shifts flip the sign of both oscillatory terms
(odd frequency multipliers), so they cancel in adjacent pair sums and only
the exponential survives.

The discrete specialization p=1/2, q1=0, q2=1, r1=r2=1 restricted to integer
arguments is a_n = ((1/2)^n + (-1)^n)/n, which satisfies an exact two-step
recurrence and a four-term integer-coefficient identity; those are verified
here in exact rational arithmetic (fractions.Fraction).
"""

from __future__ import annotations

import cmath
import math
from contextlib import contextmanager
from itertools import islice, repeat
from math import isfinite, isqrt
from operator import sub

from .errors import DomainError, FormatError, NoValidWindows, SingularWindow

__all__ = [
    "StasParams",
    "SampleSeries",
    "InvariantReport",
    "eval_f",
    "eval_s",
    "invariant_ratio",
    "closed_form_invariant",
    "seq_a",
    "recurrence_next",
    "four_term_residual",
    "sample_series",
    "estimate_invariant",
]

SKIP_THRESHOLD = 1e-9
DEFAULT_R_MAX = 15  # the fit's largest odd frequency; here so the CLI parser need not load it
ENCODE_TOL = 1e-6  # the codec's window tolerance, check's default --tol; here for the same reason
_FLOAT_FMT = "%.17g"  # a float as text: 17 significant digits parse back to the same binary64
_SELECT_MIN = 2048  # from this many values on, _median selects the middle instead of sorting all

# Arguments where the s-form of the four-point ratio has a pole.
EXCLUDED_T = (0.0, -1.0, -2.0, -3.0)

# Floor on a window's scale, so an all-zero window has residual 0, not 0/0.
_SCALE_FLOOR = 1e-300

P_RE_BOUNDS = (0.3, 1.0)
P_IM_BOUNDS = (-1.5, 1.5)
Q_BOUNDS = (-2.0, 2.0)
R_BOUNDS = (1, 15)


class _Record:
    """Immutable record of its __slots__, equal only within its class, repr Name(f=v, ...)."""

    __slots__ = ()

    def __init__(self, *values):  # the fields in slot order, once a subclass checked them
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable record")

    __delattr__ = __setattr__

    def __reduce__(self):  # (class, fields): what copy and pickle rebuild it from, via __init__
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__reduce__() == other.__reduce__()

    def __hash__(self):
        return hash(self.__reduce__())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class StasParams(_Record):
    """Parameters (p, q1, q2, r1, r2) of one member of the family.

    p is the base of the exponential part (p not in {0, -1}); q1, q2 are the
    sine/cosine amplitudes; r1, r2 are odd integer frequency multipliers.
    """

    __slots__ = ("p", "q1", "q2", "r1", "r2")

    def __init__(self, p: complex, q1: complex = 0j, q2: complex = 0j, r1: int = 1, r2: int = 1):
        p, q1, q2 = complex(p), complex(q1), complex(q2)
        if not all(map(cmath.isfinite, (p, q1, q2))):
            raise DomainError(f"p, q1 and q2 must be finite, got {p}, {q1}, {q2}")
        if p == 0:
            raise DomainError("p must be non-zero")
        if p == -1:
            raise DomainError("p = -1 is excluded (paired sums vanish identically)")
        for name, r in (("r1", r1), ("r2", r2)):
            if not isinstance(r, int) or isinstance(r, bool):
                raise DomainError(f"{name} must be an integer, got {r!r}")
            if r % 2 == 0:
                raise DomainError(f"{name} must be odd, got {r}")
        super().__init__(p, q1, q2, r1, r2)


class SampleSeries(_Record):
    """Weighted samples g(t0 + i*step) = f(t0 + i*step) on an evenly spaced grid.

    The stored values are always f-values; series ingested as s-values are
    converted via g = t*s by from_s, and their original form is not kept.  The
    four-point machinery takes a step of 1/m and reads samples i, i+m, i+2m,
    i+3m as a window; the least-squares fitting accepts any step.
    """

    __slots__ = ("t0", "values", "step")

    def __init__(self, t0: float, values: tuple[complex, ...], step: float = 1.0):
        values = tuple(map(complex, values))
        if not (math.isfinite(t0) and math.isfinite(step)):
            raise DomainError(f"t0 and step must be finite, got t0={t0}, step={step}")
        if step == 0:
            raise DomainError("step must be non-zero")
        super().__init__(t0, values, step)

    @classmethod
    def from_s(cls, t0: float, values, step: float = 1.0) -> "SampleSeries":
        """Ingest s-values; converts to weighted form g = t*s (grid must avoid 0)."""
        t0, step, values = float(t0), float(step), list(values)
        grid = _grid(t0, step, len(values))
        if 0.0 in grid:
            raise DomainError("s-value series has a grid point at t = 0")
        return cls(t0, [t * complex(v) for t, v in zip(grid, values)], step=step)

    def grid(self) -> list[float]:
        return _grid(self.t0, self.step, len(self.values))

    def __len__(self) -> int:
        return len(self.values)


class InvariantReport(_Record):
    """Empirical invariant estimate plus dispersion diagnostics."""

    __slots__ = ("a_hat", "max_rel_dev", "windows_used", "windows_skipped")

    def __init__(self, a_hat: complex, max_rel_dev: float, windows_used: int, windows_skipped: int):
        super().__init__(a_hat, max_rel_dev, windows_used, windows_skipped)


@contextmanager
def _in_range(message: str):
    """Raises an OverflowError of the block, from a value past the float
    range, as DomainError(message)."""
    try:
        yield
    except OverflowError:
        raise DomainError(message) from None


def _grid(t0: float, step: float, count: int) -> list[float]:
    """The sample arguments t0 + i*step, i = 0 .. count-1."""
    return [t0 + i * step for i in range(count)]


def _powers(p: complex, ts) -> list[complex]:
    """p^t for each t in ts, on the principal branch: exp(t*(ln|p| + i*Arg p)),
    Arg p in (-pi, pi].

    Integer t uses exact integer powering, which agrees with the principal
    branch there (e^{i*pi*n} = (-1)^n) and is exact for dyadic bases; where
    an intermediate product overflows it gives nan (z != z), and the principal
    branch decides.  A power past the float range raises DomainError.
    """
    log_p = cmath.log(p)
    try:
        return [z if float(t).is_integer() and (z := p ** int(t)) == z
                else cmath.exp(t * log_p) for t in ts]
    except (OverflowError, ZeroDivisionError):  # the latter: 1 / (p^-t underflowed to 0)
        raise DomainError(f"p^t exceeds the float range for p = {p}") from None


def _phases(r: int, ts) -> list[float]:
    """pi*w for each t in ts, with w in [0, 2) and r*t congruent to w (mod 2),
    so sin(r*pi*t) = sin(pi*w).

    fmod is exact; the only rounding is in the product r*t.  A product past
    the float range raises DomainError naming its t.
    """
    phases = []
    for t in ts:
        try:
            w = math.fmod(r * t, 2.0)
        except (OverflowError, ValueError):
            raise DomainError(f"the phase r*t = {r}*{t} is outside the float range") from None
        phases.append(math.pi * (w + 2.0 if w < 0.0 else w))
    return phases


def _trig(params: StasParams, ts) -> list[complex]:
    """q1*sin(r1*pi*t) + q2*cos(r2*pi*t) for each t in ts, via _phases."""
    q1, q2 = params.q1, params.q2
    return [q1 * s + q2 * c for s, c in zip(map(math.sin, _phases(params.r1, ts)),
                                            map(math.cos, _phases(params.r2, ts)))]


def eval_f(params: StasParams, t: float) -> complex:
    """f(t) = p^t + q1*sin(r1*pi*t) + q2*cos(r2*pi*t); defined for all real t."""
    return _powers(params.p, (t,))[0] + _trig(params, (t,))[0]


def eval_s(params: StasParams, t: float) -> complex:
    """s(t) = f(t) / t; t must be non-zero."""
    if t == 0:
        raise DomainError("s(t) is undefined at t = 0")
    return eval_f(params, t) / t


def closed_form_invariant(params: StasParams) -> complex:
    """The constant value of the four-point ratio: 1/p^2; DomainError where p^2 underflows to 0."""
    p2 = params.p * params.p
    if p2 == 0:
        raise DomainError(f"p^2 underflows to 0 for p = {params.p}")
    return 1.0 / p2


def invariant_ratio(params: StasParams, t: float) -> complex:
    """The four-point ratio (f(t)+f(t+1)) / (f(t+2)+f(t+3)) at real t.

    The defining form uses s(t)*t terms, whose t-factors cancel; the domain
    of that form excludes t in {0, -1, -2, -3}, and the exclusion is enforced
    even though the f-form stays finite there.

    Only the powers are summed: a unit shift flips the sign of both oscillatory
    terms exactly (odd r), so the exactly rounded sum of [e0, trig, e1, -trig] is
    e0 + e1, one rounding; `+ 0j` turns -0.0 into 0.0, as math.fsum does.  The
    ratio is independent of q1, q2, r1 and r2 by construction, and large
    amplitudes cannot overflow it; a pair sum past the float range is a DomainError.
    """
    if t in EXCLUDED_T:
        raise DomainError(f"t = {t} is outside the invariant's domain")
    e0, e1, e2, e3 = _powers(params.p, (t, t + 1, t + 2, t + 3))
    num = e0 + e1 + 0j
    den = e2 + e3 + 0j
    if cmath.isinf(num) or cmath.isinf(den):
        raise DomainError("a pair sum exceeds the float range")
    if den == 0:
        raise SingularWindow(f"f(t+2) + f(t+3) = 0 at t = {t}")
    return num / den


def draw_trial_params(rng) -> StasParams:
    """One random family member, drawn from the SplitMix64 rng in the order p,
    q1, q2, r1, r2; p needs no redraw, as Re p >= 0.3 keeps it far from the
    excluded -1: |1 + p| >= 1.3."""
    p = rng.uniform_complex(*P_RE_BOUNDS, *P_IM_BOUNDS)
    q1 = rng.uniform_complex(*Q_BOUNDS, *Q_BOUNDS)
    q2 = rng.uniform_complex(*Q_BOUNDS, *Q_BOUNDS)
    r1 = rng.odd_int(*R_BOUNDS)
    r2 = rng.odd_int(*R_BOUNDS)
    return StasParams(p=p, q1=q1, q2=q2, r1=r1, r2=r2)


def verify_trials(seed: int, trials: int, t_min: float, t_max: float, points: int = 5):
    """The trials of `stasinv verify`: per trial, draw_trial_params on
    SplitMix64.for_trial(seed, trial), then the ratio at `points` t uniform in
    [t_min, t_max), each redrawn while in EXCLUDED_T.  Yields, per trial,
    (params, a, [(t, ratio, dev), ...], worst): a = 1/p^2,
    dev = |ratio - a| / |a|, worst the running maximum dev, nan once any is nan.
    """
    if trials < 1:
        raise DomainError(f"--trials must be >= 1, got {trials}")
    if points < 1:
        raise DomainError(f"--points must be >= 1, got {points}")
    # A positive, finite span also rules out a nan or infinite bound.
    if not 0.0 < t_max - t_min < math.inf:
        raise DomainError(f"need --t-min < --t-max with a finite span, got {t_min}, {t_max}")
    from .rng import SplitMix64  # here, not at the top: only verify draws trials
    worst = 0.0
    for trial in range(trials):
        rng = SplitMix64.for_trial(seed, trial)
        params = draw_trial_params(rng)
        a = closed_form_invariant(params)
        rows = []
        for _ in range(points):
            t = rng.uniform(t_min, t_max)
            while t in EXCLUDED_T:
                t = rng.uniform(t_min, t_max)
            ratio = invariant_ratio(params, t)
            dev = abs(ratio - a) / abs(a)
            # max() keeps a nan first argument but drops a nan second one
            worst = dev if math.isnan(dev) else max(worst, dev)
            rows.append((t, ratio, dev))
        yield params, a, rows, worst


# -- exact discrete sequence -------------------------------------------------

def seq_a(n: int) -> Fraction:
    """a_n = ((1/2)^n + (-1)^n) / n, exactly, for n >= 1."""
    from fractions import Fraction  # here, not at the top: it loads decimal
    if n < 1:
        raise DomainError(f"sequence index must be >= 1, got {n}")
    sign = 1 if n % 2 == 0 else -1
    return Fraction(1 + sign * 2**n, n * 2**n)


def recurrence_next(n: int, a_prev2: Fraction) -> Fraction:
    """a_n from a_{n-2} via the exact two-step recurrence.

    a_n = ((n-2) * a_{n-2} + 3*(-1)^n) / (4n), for n >= 3.
    """
    from fractions import Fraction
    if n < 3:
        raise DomainError(f"recurrence needs n >= 3, got {n}")
    sign = 1 if n % 2 == 0 else -1
    return Fraction((n - 2) * a_prev2 + 3 * sign) / (4 * n)


def four_point_sums(n: int) -> tuple[Fraction, Fraction]:
    """(n-2)*a_{n-2} + (n-3)*a_{n-3} and n*a_n + (n-1)*a_{n-1}, exactly: the
    numerator and denominator of the discrete four-point ratio, for n >= 4."""
    if n < 4:
        raise DomainError(f"four-term identity needs n >= 4, got {n}")
    return ((n - 2) * seq_a(n - 2) + (n - 3) * seq_a(n - 3),
            n * seq_a(n) + (n - 1) * seq_a(n - 1))


def four_term_residual(n: int) -> Fraction:
    """4n*a_n + 4(n-1)*a_{n-1} - (n-2)*a_{n-2} - (n-3)*a_{n-3}, exactly.

    Identically zero for n >= 4; computed, not assumed.
    """
    num, den = four_point_sums(n)
    return 4 * den - num


# -- series generation and empirical invariant -------------------------------

def sample_series(params: StasParams, t0: float, count: int,
                  step: float = 1.0) -> SampleSeries:
    """Synthesize count weighted samples g(t0 + i*step) = f(t0 + i*step).

    On unit-spaced grids the oscillatory part is generated with exact sign
    alternation from a single reduced-phase evaluation, matching how the
    invariant machinery evaluates windows.
    """
    if count < 0:
        raise DomainError("count must be non-negative")
    t0 = float(t0)
    step = float(step)
    grid = _grid(t0, step, count)
    pt = _powers(params.p, grid)
    if step == 1.0:
        trig0 = _trig(params, (t0,))[0]
        values = [w + (-1.0 if i % 2 else 1.0) * trig0 for i, w in enumerate(pt)]
    else:
        values = [w + x for w, x in zip(pt, _trig(params, grid))]
    return SampleSeries(t0, values, step=step)


def _magnitudes(g) -> list[float]:
    """|g_i| of every sample; DomainError for a sample with a nan or inf part
    or with a magnitude past the float range."""
    with _in_range("a sample's magnitude exceeds the float range"):
        mags = [abs(v) for v in g]
    if not all(map(isfinite, mags)):
        raise DomainError("samples must be finite, found nan or inf")
    return mags


def _window_scales(g, m: int):
    """The scale max(M_i, M_{i+2m}) of every window i of g at stride m, as an array('d'),
    8 bytes a window, with pairwise maxima M_j = max(|g_j|, |g_{j+m}|) (see _magnitudes)."""
    from array import array  # here, not at the top: a shared library only the sweeps need
    mags = _magnitudes(g)
    peaks = [x if x >= y else y for x, y in zip(mags, islice(mags, m, None))]
    del mags
    return array("d", [x if x >= y else y for x, y in zip(peaks, islice(peaks, 2 * m, None))])


def _window_terms(g, scales, m: int) -> zip:
    """The window kernel: (lo, hi, scale) of every window i of g at stride m, given
    its scales.  lo = g_i + g_{i+m} is also window i-2m's hi, so each pair sum is
    computed once; the pair sums are freed with the zip."""
    sums = [x + y for x, y in zip(g, islice(g, m, None))]
    return zip(sums, islice(sums, 2 * m, None), scales)


_PAIR_SUM_OVERFLOW = "a window's pair sum or defect exceeds the float range in magnitude"


def _window_residuals(g, a: complex, m: int, scales=None) -> list[float]:
    """|lo - a*hi| / max(scale, _SCALE_FLOOR) of every window of g at stride m, its
    _window_scales given or computed: how far each is from g_i + g_{i+m} = a*(g_{i+2m} + g_{i+3m}).

    Raises DomainError for a non-finite invariant or sample, and for a
    defect whose magnitude exceeds the float range.
    """
    if not cmath.isfinite(a):
        raise DomainError(f"the invariant must be finite, got {a}")
    terms = _window_terms(g, _window_scales(g, m) if scales is None else scales, m)
    with _in_range(_PAIR_SUM_OVERFLOW):
        return [abs(x - a * y) / (c if c > _SCALE_FLOOR else _SCALE_FLOOR) for x, y, c in terms]


def _checked_tol(tol: float) -> None:
    """DomainError unless tol is finite and non-negative."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise DomainError(f"--tol must be finite and non-negative, got {tol}")


def _steps_per_unit(step: float) -> int:
    """The integer m >= 1 with m * step == 1.0, or 0 where the step is not 1/m."""
    inverse = 1.0 / step if step else math.inf  # infinite for 0 and for a subnormal step
    return m if isfinite(inverse) and (m := round(inverse)) >= 1 and m * step == 1.0 else 0


def _checked_values(series: SampleSeries, need: int,
                    operation: str | None = None) -> tuple[tuple[complex, ...], int]:
    """(series.values, m) once the series passes the entry checks of an operation: a
    named one reads windows i, i+m, i+2m, i+3m with m * step == 1 (DomainError for
    another step) and needs (need - 1) * m + 1 samples, else NoValidWindows; unnamed,
    m is 1.  No stride past the sample count n has a window, so m is at most n + 1."""
    m = 1
    if operation is not None and not (m := _steps_per_unit(series.step)):
        raise DomainError(f"{operation} requires a step of 1/m, got {series.step}")
    if (n := len(series.values)) < (need := (need - 1) * m + 1):
        raise NoValidWindows(f"need at least {need} samples, got {n}")
    return series.values, min(m, n + 1)


def _median(xs: list[float]) -> float:
    """statistics.median(xs), bit for bit, without loading statistics or changing xs.
    From _SELECT_MIN values on, a sorted 1-in-32 sample brackets the middle,
    and only the values inside are sorted (Floyd and Rivest, CACM 1975); a
    bracket that misses, or a nan (which the sum of xs keeps), sorts them all."""
    n, below, inside = len(xs), 0, None
    if n >= _SELECT_MIN and (total := sum(xs)) == total:
        sample = sorted(xs[::32])
        j, d = len(sample) // 2, 2 * isqrt(len(sample))
        lo, hi = sample[j - d], sample[j + d]
        below = len([x for x in xs if x < lo])
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
    with _in_range(_PAIR_SUM_OVERFLOW):  # the pair sums are freed once the ratios are taken
        ratios = [x / y for x, y, c in _window_terms(g, scales, m)
                  if not (y == 0 or abs(y) < SKIP_THRESHOLD * c)]
    if not ratios:
        raise NoValidWindows("every window was skipped as near-singular")
    a_hat = complex(_median([r.real for r in ratios]), _median([r.imag for r in ratios]))
    # dividing by norm >= 1 keeps the order of the deviations, so it can follow the max
    max_rel_dev = max(map(abs, map(sub, ratios, repeat(a_hat)))) / max(abs(a_hat), 1.0)
    if not (cmath.isfinite(a_hat) and isfinite(max_rel_dev)):
        raise DomainError(f"the estimate is not finite: a_hat={a_hat}, max_rel_dev={max_rel_dev}")
    return InvariantReport(a_hat=a_hat, max_rel_dev=max_rel_dev, windows_used=len(ratios),
                           windows_skipped=len(scales) - len(ratios)), scales


def estimate_invariant(series: SampleSeries) -> InvariantReport:
    """Estimate the invariant from data: component-wise median over windows.

    Window i of a step-1/m grid contributes ratio_i = (g_i + g_{i+m}) / (g_{i+2m}
    + g_{i+3m}); windows whose denominator magnitude falls below SKIP_THRESHOLD
    times the window's max slot magnitude (or is exactly zero) are skipped as
    near-singular.  max_rel_dev is max |ratio_i - a_hat| / max(|a_hat|, 1)
    over retained windows.  A non-finite sample, a_hat or max_rel_dev raises DomainError.
    """
    return _estimate(series)[0]


# Private, so a tracer that wraps public functions never wraps these per-sample helpers.
def _fmt_float(x: float) -> str:
    return _FLOAT_FMT % x


def _fmt_complex(z: complex) -> str:
    return f"{_fmt_float(z.real)},{_fmt_float(z.imag)}"


def _parse_complex(text: str) -> complex:
    re_part, sep, im_part = text.partition(",")
    if not sep or "," in im_part:
        raise FormatError(f"expected 're,im', got {text!r}")
    try:
        return complex(float(re_part), float(im_part))
    except ValueError as exc:
        raise FormatError(f"bad complex literal {text!r}") from exc
