"""Independent straight-line reference implementations used as test oracles.

These deliberately mirror the defining formulas term by term (pointwise trig
evaluation, ratio built from s-values times t) and share no code with the
package, so agreement between the two routes is meaningful.
"""

import cmath
import math
import statistics
from fractions import Fraction


def ref_f(p, q1, q2, r1, r2, t):
    exp_part = cmath.exp(t * cmath.log(p))
    trig_part = q1 * math.sin(r1 * math.pi * t) + q2 * math.cos(r2 * math.pi * t)
    return exp_part + trig_part


def ref_s(p, q1, q2, r1, r2, t):
    if t == 0:
        raise ValueError("t must be non-zero")
    return ref_f(p, q1, q2, r1, r2, t) / t


def ref_invariant(p, q1, q2, r1, r2, t):
    """The defining ratio, built from s-values weighted by their arguments."""
    s0 = ref_s(p, q1, q2, r1, r2, t)
    s1 = ref_s(p, q1, q2, r1, r2, t + 1)
    s2 = ref_s(p, q1, q2, r1, r2, t + 2)
    s3 = ref_s(p, q1, q2, r1, r2, t + 3)
    return (s0 * t + s1 * (t + 1)) / (s2 * (t + 2) + s3 * (t + 3))


def ref_seq(n):
    """((1/2)^n + (-1)^n) / n via plain Fraction arithmetic."""
    return (Fraction(1, 2) ** n + (-1) ** n) / n


# -- verify's draws -------------------------------------------------------------

_REF_GAMMA = 0x9E3779B97F4A7C15


def _ref_mix(z):
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 % 2**64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB % 2**64
    return z ^ (z >> 31)


def ref_verify_draws(seed, trials, t_min, t_max, points):
    """Per trial of `verify`: ((p, q1, q2, r1, r2), [t, ...], the number of t drawn),
    one scalar SplitMix64 stream a trial, as the rng module's docstring states it.
    The draws follow the README: p (Re in [0.3, 1], Im in [-1.5, 1.5]), q1, q2 (in
    [-2, 2]^2, real part first), odd r1, r2 in [1, 15], then each t in [t_min, t_max),
    drawn again while in {0, -1, -2, -3}."""
    for index in range(trials):
        state = _ref_mix((seed + (index + 1) * _REF_GAMMA) % 2**64)  # the trial's substream

        def output():
            nonlocal state
            state = (state + _REF_GAMMA) % 2**64
            return _ref_mix(state)

        def uniform(lo, hi):
            return lo + (output() >> 11) * 2.0**-53 * (hi - lo)

        p = complex(uniform(0.3, 1.0), uniform(-1.5, 1.5))
        q1 = complex(uniform(-2.0, 2.0), uniform(-2.0, 2.0))
        q2 = complex(uniform(-2.0, 2.0), uniform(-2.0, 2.0))
        r1 = [1, 3, 5, 7, 9, 11, 13, 15][output() % 8]
        r2 = [1, 3, 5, 7, 9, 11, 13, 15][output() % 8]
        ts, drawn = [], 0
        while len(ts) < points:
            t = uniform(t_min, t_max)
            drawn += 1
            if t not in (0.0, -1.0, -2.0, -3.0):
                ts.append(t)
        yield (p, q1, q2, r1, r2), ts, drawn


# -- integrity localization ---------------------------------------------------

def ref_localize(flagged, n):
    """Samples implicated by a set of flagged window indices on n samples.

    Per-sample comparison of each sample's covering-window set against every
    maximal run of consecutive flagged windows, O(n * runs).  A run of every
    window, touching both ends, implicates nothing.
    """
    n_windows = n - 3

    def covering(j):
        return set(range(max(0, j - 3), min(j, n_windows - 1) + 1))

    runs = []
    for i in sorted(flagged):
        if runs and i == max(runs[-1]) + 1:
            runs[-1].add(i)
        else:
            runs.append({i})
    return {j for j in range(n) for run in runs
            if covering(j) == run != set(range(n_windows))}


# -- frequency search ---------------------------------------------------------

class RefIllConditioned(Exception):
    pass


def _ref_pow(p, t):
    if float(t).is_integer():
        return p ** int(t)
    return cmath.exp(t * cmath.log(p))


def _ref_reduced_phase(r, t):
    w = math.fmod(r * t, 2.0)
    return w + 2.0 if w < 0.0 else w


def ref_invariant_ratio_coherent(p, q1, q2, r1, r2, t):
    """The four-point ratio with the oscillatory part evaluated once at the
    reduced base phase and carried, sign-flipped, through both pair sums:
    fsum of [p^t, trig, p^(t+1), -trig] over fsum of [p^(t+2), trig, p^(t+3), -trig]."""
    e = [_ref_pow(p, t + k) for k in range(4)]
    trig = (q1 * math.sin(math.pi * _ref_reduced_phase(r1, t))
            + q2 * math.cos(math.pi * _ref_reduced_phase(r2, t)))

    def csum(terms):
        return complex(math.fsum(z.real for z in terms), math.fsum(z.imag for z in terms))

    return csum([e[0], trig, e[1], -trig]) / csum([e[2], trig, e[3], -trig])


def ref_classes(step, n):
    """m, the first integer with m * step == 1 and m < n, else n: the residue
    classes of the fit's fold, each one sample where m is n."""
    for m in range(1, n):
        if m * step == 1.0:
            return m
    return n


def ref_fold(t0, step, g, p):
    """The fit's fold, built sample by sample: (m, counts, sums, spread) with
    y = g - p^t, sample i in class i mod m with sign (-1)^(i // m), sums[k] the
    fsum of class k's signed samples (real and imaginary parts apart), counts[k]
    its size, and spread the fsum of every sample's squared parts of
    sign * y_i - sums[k] / counts[k], or inf where that sum overflows."""
    n = len(g)
    m = ref_classes(step, n)
    y = [g[i] - _ref_pow(p, t0 + i * step) for i in range(n)]
    signed = [-y[i] if i // m % 2 else y[i] for i in range(n)]
    counts = [0] * m
    re, im = [[] for _ in range(m)], [[] for _ in range(m)]
    for i, z in enumerate(signed):
        counts[i % m] += 1
        re[i % m].append(z.real)
        im[i % m].append(z.imag)
    sums = [complex(math.fsum(re[k]), math.fsum(im[k])) for k in range(m)]
    squares = []
    for i, z in enumerate(signed):
        k = i % m
        for d in (z.real - sums[k].real / counts[k], z.imag - sums[k].imag / counts[k]):
            squares.append(d * d)
    try:
        spread = math.fsum(squares)
    except OverflowError:
        spread = math.inf
    return m, counts, sums, spread


def ref_columns(t0, step, m, r1, r2):
    """sin(r1*pi*t) and cos(r2*pi*t) at the first m grid points, t0 + k * step."""
    args = [t0 + k * step for k in range(m)]
    return ([math.sin(math.pi * _ref_reduced_phase(r1, t)) for t in args],
            [math.cos(math.pi * _ref_reduced_phase(r2, t)) for t in args])


def ref_fit_trig(t0, step, g, p, r1, r2):
    """Least-squares (q1, q2) for one pair on the fold, every part from scratch."""
    m, counts, sums, _ = ref_fold(t0, step, g, p)
    s, c = ref_columns(t0, step, m, r1, r2)
    m00 = math.fsum(counts[k] * (s[k] * s[k]) for k in range(m))
    m01 = math.fsum(counts[k] * (s[k] * c[k]) for k in range(m))
    m11 = math.fsum(counts[k] * (c[k] * c[k]) for k in range(m))
    tr = m00 + m11
    disc = math.sqrt(max((m00 - m11) ** 2 + 4.0 * m01 * m01, 0.0))
    lo = (tr - disc) / 2.0
    hi = (tr + disc) / 2.0
    cond = hi / lo if lo > 0.0 else math.inf
    if cond > 1e12:
        raise RefIllConditioned((r1, r2))
    b0 = complex(math.fsum(s[k] * sums[k].real for k in range(m)),
                 math.fsum(s[k] * sums[k].imag for k in range(m)))
    b1 = complex(math.fsum(c[k] * sums[k].real for k in range(m)),
                 math.fsum(c[k] * sums[k].imag for k in range(m)))
    det = m00 * m11 - m01 * m01
    return (m11 * b0 - m01 * b1) / det, (m00 * b1 - m01 * b0) / det


def ref_residual_rms(t0, step, g, p, q1, q2, r1, r2):
    """The rms residual by the fold's identity: spread plus, per class,
    |sums[k] - counts[k] * (q1 s_k + q2 c_k)|^2 / counts[k], in one fsum."""
    m, counts, sums, spread = ref_fold(t0, step, g, p)
    s, c = ref_columns(t0, step, m, r1, r2)
    terms = [spread]
    for k in range(m):
        e = sums[k] - counts[k] * (q1 * s[k] + q2 * c[k])
        terms.append((e.real * e.real + e.imag * e.imag) / counts[k])
    return math.sqrt(math.fsum(terms) / len(g))


def ref_least_squares(t0, step, g, p, r1, r2):
    """(q1, q2, rms) of the least squares over all n samples, exact in Fraction:
    y = g - p^t in floats, each sample's columns (-1)^(i // m) times those of
    ref_columns at i mod m, as sample_series evaluates them, and the normal
    equations, their solve and the residual sum of squares as exact rationals;
    q1 and q2 are (real, imaginary) pairs of Fractions, and only the rms is
    rounded, to a float and by its square root.  None where the normal matrix
    is singular."""
    n = len(g)
    m = ref_classes(step, n)
    s, c = ref_columns(t0, step, m, r1, r2)
    sign = [(-1) ** (i // m) for i in range(n)]
    cs = [Fraction(sign[i] * s[i % m]) for i in range(n)]
    cc = [Fraction(sign[i] * c[i % m]) for i in range(n)]
    y = [g[i] - _ref_pow(p, t0 + i * step) for i in range(n)]
    m00 = sum(x * x for x in cs)
    m01 = sum(x * z for x, z in zip(cs, cc))
    m11 = sum(z * z for z in cc)
    det = m00 * m11 - m01 * m01
    if det == 0:
        return None
    q1, q2, total = [], [], Fraction(0)
    for part in ([Fraction(z.real) for z in y], [Fraction(z.imag) for z in y]):
        b0 = sum(x * v for x, v in zip(cs, part))
        b1 = sum(z * v for z, v in zip(cc, part))
        a1, a2 = (m11 * b0 - m01 * b1) / det, (m00 * b1 - m01 * b0) / det
        total += sum((v - a1 * x - a2 * z) ** 2 for v, x, z in zip(part, cs, cc))
        q1.append(a1)
        q2.append(a2)
    return tuple(q1), tuple(q2), math.sqrt(total / n)


def ref_search_frequencies(t0, step, g, p, r_max):
    """Exhaustive per-pair search: ((p, q1, q2, r1, r2), rms, ties).

    Raises RefIllConditioned when every pair is ill-conditioned.
    """
    fits = []
    for r1 in range(1, r_max + 1, 2):
        for r2 in range(1, r_max + 1, 2):
            try:
                q1, q2 = ref_fit_trig(t0, step, g, p, r1, r2)
            except RefIllConditioned:
                continue
            rms = ref_residual_rms(t0, step, g, p, q1, q2, r1, r2)
            fits.append((rms, (r1, r2), (p, q1, q2, r1, r2)))
    if not fits:
        raise RefIllConditioned(r_max)
    best_rms, _, best = min(fits, key=lambda item: (item[0], item[1]))
    data_scale = math.sqrt(math.fsum(abs(v) ** 2 for v in g) / len(g))
    tie_band = best_rms + 1e-9 * max(data_scale, 1.0)
    ties = tuple(pair for rms, pair, _ in fits if rms <= tie_band)
    return best, best_rms, ties


# -- window residuals, invariant estimate, block check ------------------------
# The per-window loops as first written: each window's scale is a max over a
# generator of its four magnitudes, and its sums are formed in place.

SCALE_FLOOR = 1e-300
ENCODE_TOL = 1e-6


class RefIdentityViolation(Exception):
    pass


class RefNoValidWindows(Exception):
    pass


def ref_window_scale(g, i):
    return max(abs(g[i + j]) for j in range(4))


def ref_residuals(g, a):
    """Scale-relative residual of every window, as detect_errors reports it."""
    residuals = []
    for i in range(len(g) - 3):
        scale = max(ref_window_scale(g, i), SCALE_FLOOR)
        residuals.append(abs(g[i] + g[i + 1] - a * (g[i + 2] + g[i + 3])) / scale)
    return residuals


def ref_estimate_invariant(g):
    """(a_hat, max_rel_dev, windows_used, windows_skipped) by the median of window ratios;
    a window whose |g2 + g3| is 0 or below 1e-9 times its scale is skipped."""
    if len(g) < 4:
        raise RefNoValidWindows(len(g))
    ratios = []
    skipped = 0
    for i in range(len(g) - 3):
        den = g[i + 2] + g[i + 3]
        scale = ref_window_scale(g, i)
        if den == 0 or abs(den) < 1e-9 * scale:
            skipped += 1
            continue
        ratios.append((g[i] + g[i + 1]) / den)
    if not ratios:
        raise RefNoValidWindows(len(g))
    a_hat = complex(statistics.median(r.real for r in ratios),
                    statistics.median(r.imag for r in ratios))
    norm = max(abs(a_hat), 1.0)
    max_rel_dev = max(abs(r - a_hat) / norm for r in ratios)
    return a_hat, max_rel_dev, len(ratios), skipped


def ref_encode_stored(g, a):
    """Stored samples of the 4-to-3 encoding; RefIdentityViolation(b, residual) on a bad block."""
    n_blocks = len(g) // 4
    stored = []
    for b in range(n_blocks):
        i = 4 * b
        scale = max(ref_window_scale(g, i), SCALE_FLOOR)
        residual = abs(g[i] + g[i + 1] - a * (g[i + 2] + g[i + 3])) / scale
        if residual > ENCODE_TOL:
            raise RefIdentityViolation(b, residual)
        stored.extend((g[i], g[i + 1], g[i + 2]))
    return tuple(stored) + tuple(g[4 * n_blocks:])


# -- SIG1 / STASC1 text -------------------------------------------------------
# The line-by-line parsers and formatters as first written: every body line is
# stripped, split and parsed on its own, and every value is formatted with an
# f-string.  The loaders return the parsed fields instead of package objects
# and raise RefFormatError wherever the text itself is rejected.

class RefFormatError(Exception):
    pass


def _ref_fmt_float(x):
    return f"{x:.17g}"


def _ref_fmt_complex(z):
    return f"{_ref_fmt_float(z.real)},{_ref_fmt_float(z.imag)}"


def ref_parse_complex(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise RefFormatError(f"expected 're,im', got {text!r}")
    try:
        return complex(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise RefFormatError(f"bad complex literal {text!r}") from exc


def _ref_parse_fields(line, expected, optional=()):
    fields = {}
    for token in line.split():
        key, sep, value = token.partition("=")
        if not sep or key in fields:
            raise RefFormatError(f"bad header token {token!r}")
        fields[key] = value
    missing = [k for k in expected if k not in fields]
    extra = [k for k in fields if k not in expected + optional]
    if missing or extra:
        raise RefFormatError(f"header fields: missing {missing}, unexpected {extra}")
    return fields


def ref_dump_sig1(series):
    """SIG1 text of anything with t0, step and values attributes."""
    header = f"t0={_ref_fmt_float(series.t0)} kind=f count={len(series.values)}"
    if series.step != 1.0:
        header += f" step={_ref_fmt_float(series.step)}"
    lines = ["SIG1", header]
    lines.extend(_ref_fmt_complex(v) for v in series.values)
    return "\n".join(lines) + "\n"


def ref_load_sig1(text):
    """(t0, kind, step, values) of SIG1 text."""
    lines = text.splitlines()
    if not lines or lines[0] != "SIG1":
        raise RefFormatError("missing SIG1 magic line")
    if len(lines) < 2:
        raise RefFormatError("missing SIG1 header line")
    fields = _ref_parse_fields(lines[1], ("t0", "kind", "count"), optional=("step",))
    try:
        t0 = float(fields["t0"])
        count = int(fields["count"])
        step = float(fields.get("step", "1"))
    except ValueError as exc:
        raise RefFormatError(f"bad SIG1 header: {lines[1]!r}") from exc
    kind = fields["kind"]
    if kind not in ("f", "s"):
        raise RefFormatError(f"kind must be 'f' or 's', got {kind!r}")
    if count < 0:
        raise RefFormatError("count must be non-negative")
    body = [line for line in lines[2:] if line.strip()]
    if len(body) != count:
        raise RefFormatError(f"expected {count} sample lines, found {len(body)}")
    return t0, kind, step, tuple(ref_parse_complex(line.strip()) for line in body)


def ref_dump_stasc1(enc):
    """STASC1 text of anything with a, t0, count and stored attributes."""
    lines = ["STASC1",
             f"a={_ref_fmt_complex(enc.a)} t0={_ref_fmt_float(enc.t0)} count={enc.count}"]
    n_blocks = enc.count // 4
    for b in range(n_blocks):
        lines.append(";".join(_ref_fmt_complex(v) for v in enc.stored[3 * b:3 * b + 3]))
    remainder = enc.stored[3 * n_blocks:]
    lines.append(f"rem={len(remainder)}")
    lines.extend(_ref_fmt_complex(v) for v in remainder)
    return "\n".join(lines) + "\n"


def ref_load_stasc1(text):
    """(a, t0, count, stored) of STASC1 text: the block samples, then the remainder."""
    lines = text.splitlines()
    if not lines or lines[0] != "STASC1":
        raise RefFormatError("missing STASC1 magic line")
    if len(lines) < 2:
        raise RefFormatError("missing STASC1 header line")
    fields = _ref_parse_fields(lines[1], ("a", "t0", "count"))
    a = ref_parse_complex(fields["a"])
    try:
        t0 = float(fields["t0"])
        count = int(fields["count"])
    except ValueError as exc:
        raise RefFormatError(f"bad STASC1 header: {lines[1]!r}") from exc
    if count < 0:
        raise RefFormatError("count must be non-negative")
    n_blocks = count // 4
    pos = 2
    stored = []
    for _ in range(n_blocks):
        if pos >= len(lines):
            raise RefFormatError("truncated STASC1 block section")
        parts = lines[pos].split(";")
        if len(parts) != 3:
            raise RefFormatError(f"block line needs 3 samples, got {lines[pos]!r}")
        stored.extend(ref_parse_complex(p) for p in parts)
        pos += 1
    if pos >= len(lines) or not lines[pos].startswith("rem="):
        raise RefFormatError("missing rem= line")
    try:
        k = int(lines[pos][4:])
    except ValueError as exc:
        raise RefFormatError(f"bad rem= line: {lines[pos]!r}") from exc
    if k != count - 4 * n_blocks:
        raise RefFormatError(f"rem={k} inconsistent with count={count}")
    pos += 1
    tail = [line for line in lines[pos:] if line.strip()]
    if len(tail) != k:
        raise RefFormatError(f"expected {k} remainder lines, found {len(tail)}")
    stored.extend(ref_parse_complex(line.strip()) for line in tail)
    return a, t0, count, tuple(stored)
