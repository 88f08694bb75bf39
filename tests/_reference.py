"""Independent straight-line reference implementations used as test oracles.

These deliberately mirror the defining formulas term by term (pointwise trig
evaluation, ratio built from s-values times t) and share no code with the
package, so agreement between the two routes is meaningful.
"""

import cmath
import math
import statistics
import sys
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


def ref_period(step, n):
    """2m for the first integer m with m * step == 1 and 2m < n, else n.

    sin(r*pi*t) and cos(r*pi*t) with odd r repeat when t grows by 2, so on a
    step-1/m grid the column entry at sample i is the one at i mod 2m.
    """
    m = 1
    while 2 * m < n:
        if m * step == 1.0:
            return 2 * m
        m += 1
    return n


def _ref_trig_args(t0, step, n):
    """The argument of each sample's trig columns: t0 + (i mod P) * step."""
    period = ref_period(step, n)
    return [t0 + (i % period) * step for i in range(n)]


def _ref_projection(col, y, step):
    """sum col_i * y_i folded by residue class: with P = ref_period, the fsum over
    k < P of col_k times the fsum of the y_i with i = k (mod P), real and
    imaginary parts apart."""
    period = ref_period(step, len(y))
    classes = [y[k::period] for k in range(period)]
    re = [math.fsum(z.real for z in ys) for ys in classes]
    im = [math.fsum(z.imag for z in ys) for ys in classes]
    return complex(math.fsum(col[k] * re[k] for k in range(period)),
                   math.fsum(col[k] * im[k] for k in range(period)))


def ref_fit_trig(t0, step, g, p, r1, r2):
    """Least-squares (q1, q2) for one pair, every column built from scratch."""
    grid = [t0 + i * step for i in range(len(g))]
    args = _ref_trig_args(t0, step, len(g))
    s = [math.sin(math.pi * _ref_reduced_phase(r1, t)) for t in args]
    c = [math.cos(math.pi * _ref_reduced_phase(r2, t)) for t in args]
    y = [g[i] - _ref_pow(p, grid[i]) for i in range(len(g))]
    m00 = math.fsum(x * x for x in s)
    m01 = math.fsum(x * z for x, z in zip(s, c))
    m11 = math.fsum(z * z for z in c)
    tr = m00 + m11
    disc = math.sqrt(max((m00 - m11) ** 2 + 4.0 * m01 * m01, 0.0))
    lo = (tr - disc) / 2.0
    hi = (tr + disc) / 2.0
    cond = hi / lo if lo > 0.0 else math.inf
    if cond > 1e12:
        raise RefIllConditioned((r1, r2))
    b0 = _ref_projection(s, y, step)
    b1 = _ref_projection(c, y, step)
    det = m00 * m11 - m01 * m01
    return (m11 * b0 - m01 * b1) / det, (m00 * b1 - m01 * b0) / det


def ref_residual_rms(t0, step, g, p, q1, q2, r1, r2):
    total = 0.0
    args = _ref_trig_args(t0, step, len(g))
    for i in range(len(g)):
        t = t0 + i * step
        arg = args[i]
        s = math.sin(math.pi * _ref_reduced_phase(r1, arg))
        c = math.cos(math.pi * _ref_reduced_phase(r2, arg))
        model = _ref_pow(p, t) + q1 * s + q2 * c
        total += abs(model - g[i]) ** 2
    return math.sqrt(total / len(g))


def ref_rms_bounds(t0, step, g, p, q1, q2, r1, r2, data_scale):
    """(lo, hi) around ref_residual_rms by the screen's closed form: the six terms
    ||y||^2, -2Re(conj(q1) b0), -2Re(conj(q2) b1), |q1|^2 m00, |q2|^2 m11 and
    2 m01 Re(conj(q1) q2), their fsum within 16 eps times the sum of their
    magnitudes, the pass within 8 eps (data_scale + rms y + rms q1 s + rms q2 c),
    and a relative (n + 8) eps; (-inf, inf) once that sum passes 1e300."""
    eps = sys.float_info.epsilon
    n = len(g)
    args = _ref_trig_args(t0, step, n)
    s = [math.sin(math.pi * _ref_reduced_phase(r1, t)) for t in args]
    c = [math.cos(math.pi * _ref_reduced_phase(r2, t)) for t in args]
    y = [g[i] - _ref_pow(p, t0 + i * step) for i in range(n)]
    yy = math.fsum([z.real * z.real for z in y] + [z.imag * z.imag for z in y])
    b0 = _ref_projection(s, y, step)
    b1 = _ref_projection(c, y, step)
    t3 = (q1.real * q1.real + q1.imag * q1.imag) * math.fsum(x * x for x in s)
    t4 = (q2.real * q2.real + q2.imag * q2.imag) * math.fsum(z * z for z in c)
    m01 = math.fsum(x * z for x, z in zip(s, c))
    terms = [yy,
             -2.0 * (q1.real * b0.real + q1.imag * b0.imag),
             -2.0 * (q2.real * b1.real + q2.imag * b1.imag),
             t3, t4,
             2.0 * m01 * (q1.real * q2.real + q1.imag * q2.imag)]
    size = sum(abs(x) for x in terms)
    if not size <= 1e300:
        return -math.inf, math.inf
    total = math.fsum(terms)
    err = 16 * eps * size
    pass_err = 8 * eps * (data_scale + math.sqrt(yy / n) + math.sqrt(t3 / n)
                          + math.sqrt(t4 / n))
    rel = (n + 8) * eps
    return ((math.sqrt(max(total - err, 0.0) / n) - pass_err) * (1.0 - rel),
            (math.sqrt(max(total + err, 0.0) / n) + pass_err) * (1.0 + rel))


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
