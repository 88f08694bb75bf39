"""4-to-3 block codec and sliding-window integrity checking for sample streams.

On a grid of step 1/m, the window of weighted samples i, i+m, i+2m, i+3m
satisfies g_i + g_{i+m} = a*(g_{i+2m} + g_{i+3m}), so in a block of 4m samples
the last m are implied by the first 3m and the invariant: a stream of N
samples stores only N - m*floor(N/4m) explicit values.  The same identity,
swept over overlapping windows, yields a deterministic integrity check with
single-error localization.

Text formats:

  SIG1 (sample series)          STASC1 (encoded stream)
  ----------------------        ------------------------------
  SIG1                          STASC1
  t0=<dec> kind=<f|s> count=<N> a=<re>,<im> t0=<dec> count=<N>
  <re>,<im>         (N lines)   re,im;re,im;re,im  (m*floor(N/4m) lines)
                                rem=<k>            (k = N mod 4m)
                                <re>,<im>          (k lines)

Decimals use '.' and up to 17 significant digits (binary64 round-trip
exact); lines end with LF.  kind=s series are converted to weighted f-values
on load.  A step other than 1 is recorded with an optional trailing
`step=<dec>` header token in either format; STASC1 needs a step of 1/m.
"""

from __future__ import annotations

import cmath
import math
from itertools import chain, islice, repeat

from .core import (ENCODE_TOL, SampleSeries, _FLOAT_FMT, _Record, _checked_tol, _checked_values,
                   _fmt_complex, _fmt_float, _parse_complex, _steps_per_unit,
                   _window_residuals)
from .errors import DegenerateParameter, DomainError, FormatError, IdentityViolation
from .reconstruct import Window, predict_next, recover_missing

__all__ = [
    "EncodedStream",
    "IntegrityFinding",
    "encode_stream",
    "decode_stream",
    "detect_errors",
    "repair_samples",
    "dump_sig1",
    "load_sig1",
    "dump_stasc1",
    "load_stasc1",
]


class EncodedStream(_Record):
    """Header (invariant, grid) plus the stored samples of a 4->3 encoding.

    `stored` is the series in order without the last m samples of each full
    block of 4m, m * step == 1: count - m * (count // 4m) samples; a, t0 and
    every stored sample must be finite and the step 1/m, else FormatError.
    """

    __slots__ = ("a", "t0", "count", "stored", "step")

    def __init__(self, a: complex, t0: float, count: int, stored: tuple[complex, ...],
                 step: float = 1.0):
        if a == 0:
            raise FormatError("encoded stream requires a != 0")
        if not (cmath.isfinite(a) and math.isfinite(t0)):
            raise FormatError(f"encoded stream requires finite a and t0, got a={a}, t0={t0}")
        if not all(map(cmath.isfinite, stored)):
            raise FormatError("encoded stream samples must be finite, found nan or inf")
        if not (m := _steps_per_unit(step)):
            raise FormatError(f"encoded stream requires a step of 1/m, got {step}")
        if not (count >= 0 and len(stored) == count - m * (count // (4 * m))):
            raise FormatError(f"count {count} inconsistent with {len(stored)} stored samples")
        super().__init__(a, t0, count, stored, step)


class IntegrityFinding(_Record):
    """A window flagged by detect_errors, with the samples it implicates."""

    __slots__ = ("window_index", "residual", "implicated_samples")
    verdict = "flagged"  # the same for every finding; perfbench/traced.py filters on it


def encode_stream(series: SampleSeries, a: complex) -> EncodedStream:
    """Compress disjoint blocks of 4m samples, on a grid of step 1/m, to their first 3m.

    Every full block is verified against the identity (relative residual
    <= 1e-6, as in detect_errors) before its last m samples are dropped; the
    first failing block raises IdentityViolation rather than encoding lossy
    data silently.  Block b is checked on windows 4mb .. 4mb + m - 1 of the
    sweep detect_errors runs, whose slots 3 are the dropped samples, so a
    non-finite invariant or sample, and a window anywhere in the stream
    whose pair sum or defect overflows, raise DomainError as they do there.
    Samples past the last full block are stored verbatim.
    """
    return _encode(series, a, None)


def _encode(series: SampleSeries, a: complex, scales) -> EncodedStream:
    """encode_stream(series, a); its sweep reuses the window scales of an estimate if given."""
    if a == 0:
        raise DegenerateParameter("a = 0 cannot encode (slot 3 would be unrecoverable)")
    g, m = _checked_values(series, 0, "encoding")
    span = len(g) - len(g) % (q := 4 * m)  # the full blocks
    residuals = _window_residuals(g, a, m, scales)
    if bad := [i for c in range(m) for i in range(c, span, q) if not residuals[i] <= ENCODE_TOL]:
        raise IdentityViolation(min(bad) // q, residuals[min(bad)])
    del residuals  # 32 bytes a window, freed before the stored samples are built
    stored = [0j] * (span - span // 4)
    for c in range(3 * m):
        stored[c::3 * m] = g[c:span:q]
    return EncodedStream(a, series.t0, len(g), (*stored, *g[span:]), series.step)


def decode_stream(enc: EncodedStream) -> SampleSeries:
    """Reconstruct the full series: g_{i+3m} = (g_i + g_{i+m})/a - g_{i+2m} for each
    window i that starts in a block of 4m samples.

    A rebuilt sample that overflows to nan or inf raises DomainError naming its block.
    """
    m = _steps_per_unit(enc.step)
    span = enc.count - enc.count % (q := 4 * m)
    kept = span - span // 4
    values = [0j] * span + [*enc.stored[kept:]]
    for c in range(min(3 * m, span)):  # none without a full block: m may exceed the count
        values[c:span:q] = enc.stored[c:kept:3 * m]
    rebuilt = range(3 * m, min(q, span))
    for c in rebuilt:
        values[c:span:q] = map(predict_next, values[c - 3 * m:span:q], values[c - 2 * m:span:q],
                               values[c - m:span:q], repeat(enc.a))
    if not all(map(cmath.isfinite, chain.from_iterable(values[c:span:q] for c in rebuilt))):
        i = next(i for i, v in enumerate(values) if not cmath.isfinite(v))  # stored ones are finite
        raise DomainError(f"block {i // q}: reconstructed slot 3 is not finite ({values[i]})")
    return SampleSeries(enc.t0, values, step=enc.step)


def detect_errors(series: SampleSeries, a: complex, tol: float) -> list[IntegrityFinding]:
    """Sweep all windows and return, in window order, a finding for each window
    whose residual is not within tol; localize single errors.

    On a grid of step 1/m, residual_i = |g_i + g_{i+m} - a*(g_{i+2m} + g_{i+3m})|
    normalized by the window's max slot magnitude; it is nan, and flagged,
    where a pair sum overflows.  A non-finite invariant or sample, and a tol
    that is nan, infinite or negative, raise DomainError.
    Localization matches flag patterns in each residue class mod m, counting its
    samples and windows: a single corrupted sample j perturbs exactly the valid
    windows covering j, the range max(0, j-3) .. min(j, n_windows-1), so sample j is
    implicated when that range equals a maximal run of consecutive flagged windows,
    unless the run touches both ends of the class (4 to 7 samples), where other
    faults flag it too.  Testing each run only against the at most four samples in
    [last, first+3] keeps localization linear.  Corruptions at least 7 samples
    apart produce disjoint runs and localize independently; closer ones merge their
    runs and are in general reported window-level only.  Within three samples of
    either end, where the covering ranges are cut short, a merged run can equal one
    sample's range: faults at 0 and 1 implicate only 1, and faults at n-2 and n-1
    only n-2, so the other fault goes unreported.
    Each flagged window reports the implicated samples it covers.
    """
    return _detect(series, a, tol, None)


def _detect(series: SampleSeries, a: complex, tol: float, scales) -> list[IntegrityFinding]:
    """detect_errors(series, a, tol); its sweep reuses the window scales of an estimate if given."""
    _checked_tol(tol)
    g, m = _checked_values(series, 4, "integrity checking")
    n_windows = len(g) - 3 * m
    residuals = _window_residuals(g, a, m, scales)
    flagged = [i for i, r in enumerate(residuals) if not r <= tol]

    runs = {}  # last window -> first window of each maximal chain of flagged windows m apart
    for i in flagged:
        runs[i] = runs.pop(i - m, i)
    # Sample j is covered by its class's windows max(j % m, j - 3m) .. j, or .. the class's
    # last if last + m >= n_windows; only j in [last, first + 3m] can match a run's range.
    implicated = {j for last, first in runs.items() if not (first < m and last + m >= n_windows)
                  for j in range(last, first + 3 * m + 1, m)
                  if max(j % m, j - 3 * m) == first and (j == last or last + m >= n_windows)}
    return [IntegrityFinding(i, residuals[i],
                             tuple(j for j in range(i, i + 3 * m + 1, m) if j in implicated))
            for i in flagged]


def repair_samples(series: SampleSeries, implicated, a: complex) -> SampleSeries:
    """Recompute each implicated sample from a covering window.

    On a grid of step 1/m, sample j is solved from the four-point identity of
    window max(j mod m, j-3m), with the other three slots taken from the series
    as it stands after the earlier repairs.  A repaired value that is not
    finite, or a j in no window (outside the series, or in a residue class that
    has none, as can happen below 4m samples), raises DomainError naming the
    sample, as does a step that is not 1/m; below 3m + 1 samples, NoValidWindows.
    """
    values, m = _checked_values(series, 4, "repair")
    values = list(values)
    for j in implicated:
        if not (0 <= j and (i := max(j % m, j - 3 * m)) + 3 * m < len(values)):
            raise DomainError(f"sample {j} is in no window of the series of {len(values)} samples")
        slots = [None if i + k * m == j else values[i + k * m] for k in range(4)]
        values[j] = recover_missing(Window(tuple(slots), missing=(j - i) // m), a)
        if not cmath.isfinite(values[j]):
            raise DomainError(f"sample {j}: repaired value is not finite ({values[j]})")
    return SampleSeries(series.t0, values, step=series.step)


# -- text serialization -------------------------------------------------------

_BLOCK = 4096  # samples formatted per '%', and the fewest characters split per block of text


def _line_blocks(text: str):
    """text.splitlines(), one block of at least _BLOCK characters at a time;
    each block but the last ends just after a '\n', so no '\r\n' is cut."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + _BLOCK) + 1 or len(text)
        yield text[start:end].splitlines()
        start = end


def _parse_samples(lines, count: int, what: str) -> list[complex]:
    """The count non-blank lines of a body, one 're,im' sample each, in one
    pass; a wrong line count is reported before a bad literal."""
    body = filter(str.strip, lines)
    values = []
    try:
        for line in body:
            values.append(_parse_complex(line))
    except FormatError:
        if (found := len(values) + 1 + sum(1 for _ in body)) == count:
            raise
    else:
        found = len(values)
    if found != count:
        raise FormatError(f"expected {count} {what} lines, found {found}")
    return values


def _formatted(values, start: int, stop: int, k: int):
    """LF-ended lines of k _fmt_complex fields joined by ';' for values[start:stop],
    one '%' per block of about _BLOCK samples."""
    line = ";".join([f"{_FLOAT_FMT},{_FLOAT_FMT}"] * k) + "\n"
    size = k * max(1, _BLOCK // k)
    for i in range(start, stop, size):
        block = values[i:min(i + size, stop)]
        parts = [0.0] * (2 * len(block))
        parts[0::2] = [v.real for v in block]
        parts[1::2] = [v.imag for v in block]
        yield line * (len(block) // k) % tuple(parts)


def _read_header(text: str, magic: str, expected: tuple[str, ...]
                 ) -> tuple[chain, dict[str, str], float, int, float]:
    """The lines of text after its magic and header lines, as an iterator, the
    key=value fields of its header line and the parsed t0, count and step (1
    unless given).  FormatError unless every expected key, the optional step
    and no other one is there, the numbers parse and count is non-negative."""
    lines = chain.from_iterable(_line_blocks(text))
    if next(lines, None) != magic:
        raise FormatError(f"missing {magic} magic line")
    if (header := next(lines, None)) is None:
        raise FormatError(f"missing {magic} header line")
    fields = {}
    for token in header.split():
        key, sep, value = token.partition("=")
        if not sep or key in fields:
            raise FormatError(f"bad header token {token!r}")
        fields[key] = value
    missing = [k for k in expected if k not in fields]
    extra = [k for k in fields if k not in expected + ("step",)]
    if missing or extra:
        raise FormatError(f"header fields: missing {missing}, unexpected {extra}")
    try:
        t0, count = float(fields["t0"]), int(fields["count"])
        if count < 0:
            raise FormatError("count must be non-negative")
        step = float(fields.get("step", "1"))
    except ValueError as exc:
        raise FormatError(f"bad {magic} header: {header!r}") from exc
    return lines, fields, t0, count, step


def _step_token(step: float) -> str:
    """The optional header token of a grid step: none for step 1."""
    return "" if step == 1.0 else f" step={_fmt_float(step)}"


def _sig1_parts(series: SampleSeries):
    """The SIG1 text of series: its header, then its sample lines block by block."""
    yield f"SIG1\nt0={_fmt_float(series.t0)} kind=f count={len(series)}{_step_token(series.step)}\n"
    yield from _formatted(series.values, 0, len(series), 1)


def dump_sig1(series: SampleSeries) -> str:
    """Serialize a series as SIG1 text (canonical f-values, kind=f)."""
    return "".join(_sig1_parts(series))


def load_sig1(text: str) -> SampleSeries:
    lines, fields, t0, count, step = _read_header(text, "SIG1", ("t0", "kind", "count"))
    kind = fields["kind"]
    if kind not in ("f", "s"):
        raise FormatError(f"kind must be 'f' or 's', got {kind!r}")
    values = _parse_samples(lines, count, "sample")
    if kind == "s":
        return SampleSeries.from_s(t0, values, step=step)
    return SampleSeries(t0, values, step=step)


def _stasc1_parts(enc: EncodedStream):
    """The STASC1 text of enc: its header, block lines, rem= line and remainder lines."""
    m = _steps_per_unit(enc.step)
    end = 3 * m * (enc.count // (4 * m))
    yield (f"STASC1\na={_fmt_complex(enc.a)} t0={_fmt_float(enc.t0)} count={enc.count}"
           f"{_step_token(enc.step)}\n")
    yield from _formatted(enc.stored, 0, end, 3)
    yield f"rem={enc.count % (4 * m)}\n"
    yield from _formatted(enc.stored, end, len(enc.stored), 1)


def dump_stasc1(enc: EncodedStream) -> str:
    return "".join(_stasc1_parts(enc))


def load_stasc1(text: str) -> EncodedStream:
    lines, fields, t0, count, step = _read_header(text, "STASC1", ("a", "t0", "count"))
    a = _parse_complex(fields["a"])
    if not (m := _steps_per_unit(step)):  # before the body, whose layout depends on m
        raise FormatError(f"encoded stream requires a step of 1/m, got {step}")
    n_lines = m * (count // (4 * m))  # the rem= line follows these block lines, m a block
    blocks = list(islice(lines, n_lines))
    if len(blocks) < n_lines:
        raise FormatError("truncated STASC1 block section")
    for line in blocks:
        if line.count(";") != 2:
            raise FormatError(f"block line needs 3 samples, got {line!r}")
    rem = next(lines, "")
    if not rem.startswith("rem="):
        raise FormatError("missing rem= line")
    try:
        k = int(rem[4:])
    except ValueError as exc:
        raise FormatError(f"bad rem= line: {rem!r}") from exc
    if k != count % (4 * m):
        raise FormatError(f"rem={k} inconsistent with count={count}")
    stored = [z for line in blocks for z in map(_parse_complex, line.split(";"))]
    stored += _parse_samples(lines, k, "remainder")
    return EncodedStream(a=a, t0=t0, count=count, stored=tuple(stored), step=step)
