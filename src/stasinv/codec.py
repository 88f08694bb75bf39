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
from itertools import chain, repeat

from .core import (ENCODE_TOL, SampleSeries, _FLOAT_FMT, _Record, _checked_tol, _checked_values,
                   _complexes, _fmt_complex, _fmt_float, _parse_complex, _steps_per_unit)
from .errors import DegenerateParameter, DomainError, FormatError, IdentityViolation, StasError

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


def encode_stream(series: SampleSeries, a) -> EncodedStream:
    """Compress disjoint blocks of 4m samples, on a grid of step 1/m, to their first 3m.

    Every full block is verified against the identity (relative residual
    <= 1e-6, as in detect_errors) before its last m samples are dropped; the
    first failing block raises IdentityViolation rather than encoding lossy
    data silently.  Block b is checked on windows 4mb .. 4mb + m - 1 of the
    sweep detect_errors runs, whose slots 3 are the dropped samples, so a
    non-finite invariant or sample, and a window anywhere in the stream
    whose pair sum or defect overflows, raise DomainError as they do there.
    Samples past the last full block are stored verbatim.
    a is the invariant or an InvariantReport, taken as its a_hat; the report
    estimate_invariant returned for this series skips the sweep where its bound
    on every residual is within 1e-6, as detect_errors does.
    """
    from ._windows import _screened, _window_residuals  # here, not at the top: decode needs none
    a, screened = _screened(series, a, ENCODE_TOL)
    if a == 0:
        raise DegenerateParameter("a = 0 cannot encode (slot 3 would be unrecoverable)")
    g, m = _checked_values(series, 0, "encoding")
    span = len(g) - len(g) % (q := 4 * m)  # the full blocks
    # (block b, residual) of each failing window 4mb .. 4mb + m - 1, in window order
    bad = [] if screened else [(i // q, r) for i, r in enumerate(_window_residuals(g, a, m))
                               if i % q < m and i < span and not r <= ENCODE_TOL]
    if bad:
        raise IdentityViolation(*bad[0])
    stored = [0j] * (span - span // 4)
    for c in range(3 * m):
        stored[c::3 * m] = g[c:span:q]
    return EncodedStream(a, series.t0, len(g), (*stored, *g[span:]), series.step)


def decode_stream(enc: EncodedStream) -> SampleSeries:
    """Reconstruct the full series: g_{i+3m} = (g_i + g_{i+m})/a - g_{i+2m} for each
    window i that starts in a block of 4m samples.

    A rebuilt sample that overflows to nan or inf raises DomainError naming its block.
    The stored samples are taken as they are, complex as encode_stream and
    load_stasc1 give them.
    """
    from .reconstruct import predict_next  # here, not at the top: check and encode need none
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
    return SampleSeries._of(enc.t0, values, step=enc.step)


def detect_errors(series: SampleSeries, a, tol: float) -> list[IntegrityFinding]:
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
    a is the invariant or an InvariantReport, taken as its a_hat.  The report that
    estimate_invariant returned for this very series bounds every window's residual
    at its a_hat; where that bound is within tol, no window can be flagged, and the
    sweep is skipped once the checks above have passed.
    """
    _checked_tol(tol)
    g, m = _checked_values(series, 4, "integrity checking")
    from ._windows import _screened, _window_residuals
    a, screened = _screened(series, a, tol)
    if screened:
        return []
    n_windows = len(g) - 3 * m
    flagged = [(i, r) for i, r in enumerate(_window_residuals(g, a, m)) if not r <= tol]

    runs = {}  # last window -> first window of each maximal chain of flagged windows m apart
    for i, _ in flagged:
        runs[i] = runs.pop(i - m, i)
    # Sample j is covered by its class's windows max(j % m, j - 3m) .. j, or .. the class's
    # last if last + m >= n_windows; only j in [last, first + 3m] can match a run's range.
    implicated = {j for last, first in runs.items() if not (first < m and last + m >= n_windows)
                  for j in range(last, first + 3 * m + 1, m)
                  if max(j % m, j - 3 * m) == first and (j == last or last + m >= n_windows)}
    return [IntegrityFinding(i, r, tuple(j for j in range(i, i + 3 * m + 1, m) if j in implicated))
            for i, r in flagged]


def repair_samples(series: SampleSeries, implicated, a) -> SampleSeries:
    """Recompute each implicated sample from a covering window.

    On a grid of step 1/m, sample j is solved from the four-point identity of
    window max(j mod m, j-3m), with the other three slots taken from the series
    as it stands after the earlier repairs.  A repaired value that is not
    finite, or a j in no window (outside the series, or in a residue class that
    has none, as can happen below 4m samples), raises DomainError naming the
    sample, as does a step that is not 1/m; below 3m + 1 samples, NoValidWindows.
    a is the invariant or an InvariantReport, taken as its a_hat.
    """
    from ._windows import _screened
    from .reconstruct import Window, recover_missing
    a = _screened(series, a, 0.0)[0]
    values, m = _checked_values(series, 4, "repair")
    values = list(values)
    for j in implicated:
        if not (0 <= j and (i := max(j % m, j - 3 * m)) + 3 * m < len(values)):
            raise DomainError(f"sample {j} is in no window of the series of {len(values)} samples")
        values[j] = recover_missing(Window(values[i:i + 3 * m + 1:m], missing=(j - i) // m), a)
        if not cmath.isfinite(values[j]):
            raise DomainError(f"sample {j}: repaired value is not finite ({values[j]})")
    return SampleSeries._of(series.t0, values, step=series.step)


# -- text serialization -------------------------------------------------------

# The bytes, or characters, of each block of whole lines that _load reads and _line_blocks
# cuts, and the rest of its last line: about _SAMPLES samples of the writers' text, 40
# bytes a SIG1 line and 120 a STASC1 block line.  The loaders parse a block at once.
_BLOCK = 40 * 1024
# The samples, in whole lines, of one '%' of _formatted; a '%' of 1024 holds about
# 0.16 MiB of floats and text besides the series.
_SAMPLES = 1024


def _line_blocks(text: str):
    """The text as ASCII bytes, one block of at least _BLOCK characters at a time; each
    block but the last ends just after a '\n', so no '\r\n' is cut.  A non-ASCII
    character is a FormatError naming its offset, raised before any block."""
    if not text.isascii():
        at = next(i for i, c in enumerate(text) if not c.isascii())
        raise FormatError(f"non-ASCII character U+{ord(text[at]):04X} at offset {at}")
    start = 0
    while start < len(text):
        end = text.find("\n", start + _BLOCK) + 1 or len(text)
        yield text[start:end].encode("ascii")
        start = end


def _load(path: str, load):
    """load(blocks) of the file at path, as _ascii_blocks reads it.  A non-ASCII byte is
    a FormatError naming its offset; it wins over any error of load, so on one the rest
    of the file is read too."""
    with open(path, "rb") as fh:
        blocks = _ascii_blocks(fh)
        try:
            return load(blocks)
        except StasError:
            for _ in blocks:
                pass
            raise


def _ascii_blocks(fh):
    """The binary file fh, one block of _BLOCK bytes and the rest of its last line at a
    time: each block but the last ends just after a LF.  A non-ASCII byte is a
    FormatError naming its offset, raised in place of its block."""
    offset = 0
    while data := fh.read(_BLOCK) + fh.readline():
        if not data.isascii():
            at = next(i for i, byte in enumerate(data) if byte > 127)
            raise FormatError(f"non-ASCII byte {data[at]:#04x} at offset {offset + at}")
        offset += len(data)
        yield data


def _take_line(blocks):
    """(the first line of the blocks, non-empty ASCII bytes, as str.splitlines gives it,
    or None if they hold none; an iterator over the non-empty blocks of the rest)."""
    for data in blocks:
        line = data[:data.find(b"\n") + 1 or None].decode("ascii").splitlines(True)[0]
        rest = data[len(line):]
        return line.splitlines()[0], chain((rest,) if rest else (), blocks)
    return None, blocks


def _write(path: str, parts) -> None:
    """Write the strings of parts in turn; callers check all first, so a failure writes no file."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.writelines(parts)


def _parse_samples(blocks, count: int, what: str) -> list[complex]:
    """The count non-blank lines of a body, one 're,im' sample each, from its blocks of
    whole lines: each block parsed at once, or line by line where it is not canonical
    (it holds a blank or bad line, say).  A bad literal is reported where the parse
    reaches it, and a wrong line count once every line has parsed."""
    values = []
    for data in blocks:
        if (parsed := _complexes(data, b",\n")) is None:
            parsed = map(_parse_complex, filter(str.strip, data.decode("ascii").splitlines()))
        values += parsed
    if len(values) != count:
        raise FormatError(f"expected {count} {what} lines, found {len(values)}")
    return values


def _formatted(values, start: int, stop: int, k: int):
    """LF-ended lines of k _fmt_complex fields joined by ';' for values[start:stop],
    one '%' per block of about _SAMPLES samples."""
    line = ";".join([f"{_FLOAT_FMT},{_FLOAT_FMT}"] * k) + "\n"
    size = k * max(1, _SAMPLES // k)
    for i in range(start, stop, size):
        block = values[i:min(i + size, stop)]
        parts = [0.0] * (2 * len(block))
        parts[0::2] = [v.real for v in block]
        parts[1::2] = [v.imag for v in block]
        yield line * (len(block) // k) % tuple(parts)


def _read_header(blocks, magic: str, expected: tuple[str, ...]
                 ) -> tuple[chain, dict[str, str], float, int, float]:
    """An iterator over the blocks of the text after the magic and header lines of the
    blocks (ASCII bytes, as _ascii_blocks yields them from a file, through _load, and
    _line_blocks from a str), the key=value fields of the header line and the parsed t0,
    count and step (1 unless given).  FormatError unless every expected key, the optional
    step and no other one is there, the numbers parse and count is non-negative."""
    line, blocks = _take_line(blocks)
    if line != magic:
        raise FormatError(f"missing {magic} magic line")
    header, blocks = _take_line(blocks)
    if header is None:
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
    return blocks, fields, t0, count, step


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
    return _sig1(_line_blocks(text))


def _sig1(blocks) -> SampleSeries:
    """load_sig1 of the text the blocks of bytes hold, in order."""
    blocks, fields, t0, count, step = _read_header(blocks, "SIG1", ("t0", "kind", "count"))
    kind = fields["kind"]
    if kind not in ("f", "s"):
        raise FormatError(f"kind must be 'f' or 's', got {kind!r}")
    values = _parse_samples(blocks, count, "sample")
    if kind == "s":
        return SampleSeries.from_s(t0, values, step=step)
    return SampleSeries._of(t0, values, step=step)


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
    return _stasc1(_line_blocks(text))


def _stasc1(blocks) -> EncodedStream:
    """load_stasc1 of the text the blocks of bytes hold, in order.  Block lines are
    parsed as they arrive, the section's lines of a block at once, and each malformed
    one (without 3 samples, or with a bad literal) is reported where the parse reaches
    it; a truncated block section once every block line there has parsed."""
    blocks, fields, t0, count, step = _read_header(blocks, "STASC1", ("a", "t0", "count"))
    a = _parse_complex(fields["a"])
    if not (m := _steps_per_unit(step)):  # before the body, whose layout depends on m
        raise FormatError(f"encoded stream requires a step of 1/m, got {step}")
    n_lines = m * (count // (4 * m))  # the rem= line follows these block lines, m a block
    stored = []
    while n_lines and (data := next(blocks, None)) is not None:
        end = len(data)  # where canonical, the section ends just after its n_lines-th LF
        if data.count(b"\n") > n_lines:
            end -= len(data.split(b"\n", n_lines)[-1])
        if (parsed := _complexes(data[:end], b",;,;,\n")) is not None:
            n_lines -= len(parsed) // 3
            stored += parsed
        else:  # line by line: the section's first n_lines lines, as str.splitlines counts them
            text = data.decode("ascii")
            end = sum(map(len, text.splitlines(True)[:n_lines]))
            for line in text[:end].splitlines():
                if line.count(";") != 2:
                    raise FormatError(f"block line needs 3 samples, got {line!r}")
                stored += map(_parse_complex, line.split(";"))
                n_lines -= 1
        if end < len(data):  # the section ended in this block
            blocks = chain((data[end:],), blocks)
    if n_lines:
        raise FormatError("truncated STASC1 block section")
    rem, blocks = _take_line(blocks)
    if not (rem or "").startswith("rem="):
        raise FormatError("missing rem= line")
    try:
        k = int(rem[4:])
    except ValueError as exc:
        raise FormatError(f"bad rem= line: {rem!r}") from exc
    if k != count % (4 * m):
        raise FormatError(f"rem={k} inconsistent with count={count}")
    stored += _parse_samples(blocks, k, "remainder")
    return EncodedStream(a=a, t0=t0, count=count, stored=tuple(stored), step=step)
