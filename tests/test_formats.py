"""SIG1 and STASC1 text serialization."""

import cmath
import re
import struct
import tempfile
from contextlib import contextmanager
from itertools import chain
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stasinv import (
    DomainError,
    SampleSeries,
    StasParams,
    encode_stream,
    sample_series,
)
from stasinv import codec
from stasinv.cli import main
from stasinv.codec import (
    EncodedStream,
    dump_sig1,
    dump_stasc1,
    load_sig1,
    load_stasc1,
)
from stasinv.core import _fmt_float, _parse_complex
from stasinv.errors import FormatError

from _reference import (
    RefFormatError,
    ref_dump_sig1,
    ref_dump_stasc1,
    ref_load_sig1,
    ref_load_stasc1,
    ref_parse_complex,
)


@contextmanager
def _blocks(block: int):
    """Blocks of block characters or bytes and the rest of their last line
    (codec._BLOCK: _line_blocks and the CLI's reads, each block the loaders parse at
    once) and of block samples (codec._SAMPLES: each '%' of the writers), so block
    edges fall everywhere."""
    with mock.patch.object(codec, "_BLOCK", block), mock.patch.object(codec, "_SAMPLES", block):
        yield


GOOD = "1.2345678901234567,-2.3456789012345678"  # 38 characters: about 107 lines a block of 4096
BAD = "1.2345678901234567,-2.345678901234567x"  # as long, so that no block edge moves
BLANK = " " * len(GOOD)
GOOD3, BAD3, BLANK3 = ";".join([GOOD] * 3), ";".join([GOOD, BAD, GOOD]), " " * 116
TWO = ";".join([GOOD] * 2)


def _long_sig1(count, body):
    return f"SIG1\nt0=0 kind=f count={count}\n" + "\n".join(body) + "\n"


def _long_stasc1(body, rem):
    return "STASC1\na=2,0 t0=0 count=401\n" + "\n".join([*body, rem, GOOD]) + "\n"


def _assert_loads(text, parse, tmp_path, message):
    """The text, as a string and as a file the CLI reads, loads as 299 samples of GOOD
    (message None) or raises FormatError(message)."""
    path = tmp_path / "in"
    path.write_text(text)
    for load in (lambda: parse(codec._line_blocks(text)), lambda: codec._load(str(path), parse)):
        if message is None:
            assert load().values == (_parse_complex(GOOD),) * 299
        else:
            with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
                load()


finite_floats = st.floats(allow_nan=False, allow_infinity=False)
finite_complexes = st.builds(complex, finite_floats, finite_floats)

# Texts every loader must refuse with FormatError; test_golden.py also runs
# them through the CLI.
MALFORMED_SIG1 = [
    "",
    "SIGX\nt0=0 kind=f count=0\n",
    "SIG1\n",
    "SIG1\nt0=0 count=0\n",
    "SIG1\nt0=0 kind=f count=2\n1,0\n",
    "SIG1\nt0=0 kind=f count=0 bogus=1\n",
    "SIG1\nt0=0 kind=q count=1\n1,0\n",
    "SIG1\nt0=zz kind=f count=0\n",
    "SIG1\nt0=0 kind=f count=2\n1,2,3\n4\n",
]
MALFORMED_STASC1 = [
    "",
    "STASCX\na=1,0 t0=0 count=0\nrem=0\n",
    "STASC1\na=1,0 t0=0 count=4\nrem=0\n",
    "STASC1\na=1,0 t0=0 count=4\n1,0;2,0\nrem=0\n",
    "STASC1\na=1,0 t0=0 count=1\nrem=0\n",
    "STASC1\na=1,0 t0=0 count=0\n",
    "STASC1\na=1,0 t0=0 count=2\nrem=2\n1,0\n",
    "STASC1\na=0,0 t0=0 count=0\nrem=0\n",
    "STASC1\na=nan,0 t0=0 count=0\nrem=0\n",
    "STASC1\na=1,0 t0=inf count=0\nrem=0\n",
    "STASC1\na=1,0 t0=0 count=4\n1,0;nan,0;3,0\nrem=0\n",
    "STASC1\na=1,0 t0=0 count=5\n1,0;2,0;3,0\nrem=1\n0,-inf\n",
    "STASC1\na=1,0 t0=0 count=4\n1,0;2,0;3,0;\nrem=0\n",
    "STASC1\na=1,0 t0=0 count=8\n1,0;2,0\n3,0;4,0;5,0;6,0\nrem=0\n",
    "STASC1\na=1,0 t0=0 count=4\n\n1,0;2,0;3,0\nrem=0\n",
    "STASC1\na=1,0 t0=0 count=6\n1,0;2,0;3,0\nrem=2\n1,2,3\n4\n",
]
# STASC1 texts with a step that is not 1/m, or a body that does not fit their step
# of 1/m, which holds m block lines for each block of 4m samples
MALFORMED_STASC1_STEP = [
    ("STASC1\na=1,0 t0=0 count=4 step=0.3\n1,0;2,0;3,0\nrem=0\n",
     "encoded stream requires a step of 1/m, got 0.3"),
    ("STASC1\na=1,0 t0=0 count=4 step=0.3\nrem=0\n",  # the step is named before the body
     "encoded stream requires a step of 1/m, got 0.3"),
    ("STASC1\na=1,0 t0=0 count=0 step=zz\nrem=0\n",
     "bad STASC1 header: 'a=1,0 t0=0 count=0 step=zz'"),
    ("STASC1\na=1,0 t0=0 count=0 step=0\nrem=0\n", "encoded stream requires a step of 1/m, got 0.0"),
    ("STASC1\na=1,0 t0=0 count=8 step=0.5\n1,0;2,0;3,0\n", "truncated STASC1 block section"),
    ("STASC1\na=1,0 t0=0 count=9 step=0.5\n1,0;2,0;3,0\nrem=1\n4,0\n",
     "block line needs 3 samples, got 'rem=1'"),
    ("STASC1\na=1,0 t0=0 count=9 step=0.5\n1,0;2,0;3,0\n4,0;5,0;6,0\nrem=5\n",
     "rem=5 inconsistent with count=9"),
]


class TestFloatFormatting:
    @given(finite_floats)
    def test_round_trip_exact(self, x):
        assert float(_fmt_float(x)) == x

    def test_clean_literals(self):
        assert _fmt_float(0.625) == "0.625"
        assert _fmt_float(8.0) == "8"

    def test_parse_complex_rejects_garbage(self):
        for text in ("1", "1,2,3", "a,b", ""):
            with pytest.raises(FormatError):
                _parse_complex(text)

    @pytest.mark.parametrize("text, message", [("1", "expected 're,im'"),
                                               ("1,2,3", "expected 're,im'"),
                                               ("1,x", "bad complex literal")])
    def test_parse_complex_names_the_fault(self, text, message):
        with pytest.raises(FormatError, match=message):
            _parse_complex(text)


class TestSig1:
    def test_exact_text(self):
        series = SampleSeries(1.0, (-0.5, 1.25 + 0.5j, -0.875))
        assert dump_sig1(series) == (
            "SIG1\n"
            "t0=1 kind=f count=3\n"
            "-0.5,0\n"
            "1.25,0.5\n"
            "-0.875,0\n"
        )

    @given(st.floats(-100, 100, allow_nan=False),
           st.lists(finite_complexes, max_size=20))
    def test_round_trip(self, t0, values):
        series = SampleSeries(t0, tuple(values))
        loaded = load_sig1(dump_sig1(series))
        assert loaded.t0 == series.t0
        assert loaded.values == series.values
        assert loaded.step == 1.0

    def test_step_token_round_trip(self):
        series = SampleSeries(0.1, (1 + 1j, 2, 3, 4), step=0.125)
        text = dump_sig1(series)
        assert "step=0.125" in text.splitlines()[1]
        loaded = load_sig1(text)
        assert loaded.step == 0.125

    def test_unit_step_omits_token(self):
        text = dump_sig1(SampleSeries(0.0, (1,)))
        assert "step" not in text

    def test_s_kind_converted_on_load(self):
        text = "SIG1\nt0=1 kind=s count=2\n-0.5,0\n0.625,0\n"
        series = load_sig1(text)
        # g = t * s
        assert series.values == (-0.5, 1.25)

    def test_s_kind_zero_grid_rejected(self):
        text = "SIG1\nt0=0 kind=s count=1\n1,0\n"
        with pytest.raises(DomainError):
            load_sig1(text)

    @pytest.mark.parametrize("text", MALFORMED_SIG1)
    def test_malformed_rejected(self, text):
        with pytest.raises(FormatError):
            load_sig1(text)

    def test_bad_step_token_rejected(self):
        with pytest.raises(FormatError, match="^bad SIG1 header: 't0=0 kind=f count=0 step=zz'$"):
            load_sig1("SIG1\nt0=0 kind=f count=0 step=zz\n")


class TestStasc1:
    def test_exact_text(self):
        enc = EncodedStream(a=4.0, t0=1.0, count=6,
                            stored=(-0.5 + 0j, 1.25 + 0j, -0.875 + 0j, 0.03125 + 0j, 0.984375 + 0j))
        assert dump_stasc1(enc) == (
            "STASC1\n"
            "a=4,0 t0=1 count=6\n"
            "-0.5,0;1.25,0;-0.875,0\n"
            "rem=2\n"
            "0.03125,0\n"
            "0.984375,0\n"
        )

    def test_round_trip_via_encoder(self):
        series = sample_series(StasParams(p=0.5, q2=1.0), 1.0, 14)
        enc = encode_stream(series, 4.0)
        loaded = load_stasc1(dump_stasc1(enc))
        assert loaded == enc

    @pytest.mark.parametrize("text", MALFORMED_STASC1)
    def test_malformed_rejected(self, text):
        with pytest.raises(FormatError):
            load_stasc1(text)

    def test_exact_text_at_step_one_half(self):
        # 11 samples at step 1/2: one block of 8, stored as 6 samples on 2 lines, and a tail of 3
        stored = tuple(complex(k) for k in range(9))
        text = ("STASC1\n"
                "a=4,0 t0=1 count=11 step=0.5\n"
                "0,0;1,0;2,0\n"
                "3,0;4,0;5,0\n"
                "rem=3\n"
                "6,0\n"
                "7,0\n"
                "8,0\n")
        enc = EncodedStream(a=4.0, t0=1.0, count=11, stored=stored, step=0.5)
        assert dump_stasc1(enc) == text and load_stasc1(text) == enc

    @pytest.mark.parametrize("block", [1, 2, 3, 6, codec._SAMPLES, codec._BLOCK])
    @pytest.mark.parametrize("body, message", [
        ("x,0;2,0;3,0\ny,0;2,0;3,0\nrem=0\n", "bad complex literal 'x,0'"),
        ("x,0;2,0;3,0\n", "bad complex literal 'x,0'"),
        ("x,0;2,0;3,0\n1,0;2,0\nrem=0\n", "bad complex literal 'x,0'"),
        ("1,0;2,0\nx,0;2,0;3,0\nrem=1\n", "block line needs 3 samples, got '1,0;2,0'"),
        ("x,0;2,0;3,0\n1,0;2,0;3,0\nrem=x\n", "bad complex literal 'x,0'"),
        ("x,0;2,0;3,0\n1,0;2,0;3,0\nrem=1\n", "bad complex literal 'x,0'"),
    ])
    def test_the_first_malformed_block_line_is_reported(self, body, message, block):
        # block lines are parsed as they arrive, a block at a time, and the first
        # malformed one, without 3 samples or with a bad literal, is reported before
        # a truncated section or a bad rem= line after it; below 6 samples a block,
        # each block holds one of the two block lines
        with _blocks(block):
            with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
                load_stasc1("STASC1\na=2,0 t0=1 count=8\n" + body)

    @pytest.mark.parametrize("text, message", MALFORMED_STASC1_STEP)
    def test_malformed_step_rejected(self, text, message, tmp_path, capsys):
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            load_stasc1(text)
        src, out = tmp_path / "bad.stasc1", tmp_path / "out.sig1"
        src.write_text(text)
        assert main(["decode", "--input", str(src), "--output", str(out)]) == 2
        assert capsys.readouterr() == ("", f"FormatError: {message}\n")
        assert not out.exists()


@pytest.mark.parametrize("load, magic", [(load_sig1, "SIG1"), (load_stasc1, "STASC1")])
@pytest.mark.parametrize("text, message", [
    ("", "missing {} magic line"),
    ("{}X\ncount=0\n", "missing {} magic line"),
    ("{}\n", "missing {} header line"),
    ("{}\nt0=0 t0=1\n", "bad header token 't0=1'"),
    ("{}\nt0=0 count\n", "bad header token 'count'"),
    ("{}\ncount=0 bogus=1\n", "header fields: missing \\[.*\\], unexpected \\['bogus'\\]"),
])
def test_header_errors_are_named(load, magic, text, message):
    with pytest.raises(FormatError, match=f"^{message.format(magic)}$"):
        load(text.format(magic))


@pytest.mark.parametrize("load, text, message", [
    (load_sig1, "SIG1\nt0=0 kind=f count=1\n\u0661,0\n", "U+0661 at offset 25"),  # body
    (load_sig1, "SIG1\nt0=\u0661 kind=f count=0\n", "U+0661 at offset 8"),  # header value
    (load_stasc1, "STASC1\na=\u0662,0 t0=0 count=0\nrem=0\n", "U+0662 at offset 9"),
    (load_sig1, "SIG2\nt0=0 kind=f count=1\n" + "1,0\n" * 2000 + "1,0\xa0\n",  # past a block
     "U+00A0 at offset 8028"),
])
def test_non_ascii_text_is_refused_before_any_other_error(load, text, message):
    # float() takes non-ASCII digits and spaces; the files, and so the loaders, are ASCII
    with pytest.raises(FormatError, match=f"^non-ASCII character {re.escape(message)}$"):
        load(text)


class TestBodyGrammar:
    def test_whitespace_around_fields_and_blank_lines(self):
        series = load_sig1("SIG1\nt0=0 kind=f count=2\n\n 1 ,\t-2 \n  \n3,4\n")
        assert series.values == (1 - 2j, 3 + 4j)
        enc = load_stasc1("STASC1\na=2,0 t0=0 count=5\n 1,0 ; 2,0;3 , 0\nrem=1\n\n 5,0 \n")
        assert enc.stored == (1, 2, 3, 5)

    def test_unit_separator_is_not_whitespace(self):
        # str.strip removes U+001F but float() does not; fields are trimmed by float()
        with pytest.raises(FormatError):
            load_sig1("SIG1\nt0=0 kind=f count=1\n1,0\x1f\n")


# -- block-wise text: blocks patched small put block edges everywhere ----------

SEPARATORS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"]


CORRUPTIONS = ["literal", "samples", "delete", "add"]
BAD_TOKENS = ["x,0", "1.5.2,0", ",", "1,2,3", "4"]  # each a FormatError of _parse_complex


def _corrupt(body, kind, at, field, token):
    """Corrupt the body lines in place at line at, taken mod one more than their number:
    one field made the bad token, a field dropped or a good one added, the line deleted,
    or a good sample or block line added before it (or after the last)."""
    at %= len(body) + 1
    if kind == "add":
        body.insert(at, "1,0" if field % 2 else "1,0;2,0;3,0")
    elif at < len(body):
        fields = body[at].split(";")
        if kind == "literal":
            fields[field % len(fields)] = token
        elif kind == "samples":
            fields = fields[:-1] if field % 2 and len(fields) > 1 else [*fields, "1,0"]
        body[at:at + 1] = [] if kind == "delete" else [";".join(fields)]


def _error_of(load):
    """The message of the FormatError load() raises, or None."""
    try:
        load()
    except FormatError as exc:
        return str(exc)
    return None


def _first_literal_error(tokens):
    """The message of the first bad literal of the tokens, or None."""
    return next(filter(None, (_error_of(lambda: _parse_complex(t)) for t in tokens)), None)


def _first_error_sig1(body, count, what="sample"):
    """The first error a SIG1 body of whole lines holds in text order: a bad literal, else
    a wrong line count (None if neither)."""
    lines = [line for line in body if line.strip()]
    return _first_literal_error(lines) or (
        None if len(lines) == count else f"expected {count} {what} lines, found {len(lines)}")


def _first_error_stasc1(body, count, step):
    """As _first_error_sig1 for a STASC1 body: its m * (count // 4m) block lines one at a
    time, the section's truncation, the rem= line, then the remainder as a SIG1 body."""
    m = round(1 / step)
    n_lines, k = m * (count // (4 * m)), count % (4 * m)
    for line in body[:n_lines]:
        if line.count(";") != 2:
            return f"block line needs 3 samples, got {line!r}"
        if error := _first_literal_error(line.split(";")):
            return error
    if len(body) < n_lines:
        return "truncated STASC1 block section"
    if not body[n_lines:] or not body[n_lines].startswith("rem="):
        return "missing rem= line"
    if body[n_lines] != f"rem={k}":  # the corruptions leave no other rem= line but 'rem=k;1,0'
        return f"bad rem= line: {body[n_lines]!r}"
    return _first_error_sig1(body[n_lines + 1:], k, "remainder")


class TestBlocks:
    @given(st.lists(st.tuples(st.sampled_from(["", " ", " \t", "1,0", "-2.5,3e-5", "SIG1"]),
                              st.sampled_from(SEPARATORS)), max_size=12),
           st.sampled_from(["", " ", "7,8"]), st.integers(1, 8))
    @example([("a", "\r\n"), ("", "\r\n")], "", 1)
    @example([("a", "\r\n"), ("b", "\r\n")], "c", 2)
    def test_line_blocks_split_like_splitlines(self, lines, tail, block):
        # the blocks' lines are the text's lines, and _take_line takes them one at a time;
        # an empty tail leaves the text's last separator final
        text = "".join(line + sep for line, sep in lines) + tail
        with mock.patch.object(codec, "_BLOCK", block):
            blocks = list(codec._line_blocks(text))
        assert b"".join(blocks) == text.encode()
        assert list(chain.from_iterable(b.decode().splitlines() for b in blocks)) == text.splitlines()
        taken = []
        line, rest = codec._take_line(iter(blocks))
        while line is not None:
            taken.append(line)
            line, rest = codec._take_line(rest)
        assert taken == text.splitlines()

    @pytest.mark.parametrize("block", [1, 4, codec._SAMPLES, codec._BLOCK])
    @pytest.mark.parametrize("text, message", [
        ("SIG1\nt0=0 kind=f count=3\n1,0\nx,0\n3,0\n4,0\n", "bad complex literal 'x,0'"),
        ("SIG1\r\nt0=0 kind=f count=3\r\nx,0\r\n\r\n2,0\r\n", "bad complex literal 'x,0'"),
        ("SIG1\nt0=0 kind=f count=2\n1,0\n2,x\n", "bad complex literal '2,x'"),
        ("STASC1\na=2,0 t0=0 count=5\n1,0;2,0;3,0\nrem=1\n,\n4,0\n",
         "bad complex literal ','"),
    ])
    def test_a_bad_literal_is_reported_before_the_line_count(self, block, text, message):
        load = load_sig1 if text.startswith("SIG1") else load_stasc1
        with _blocks(block):
            with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
                load(text)

    @pytest.mark.parametrize("edits, count, message", [
        ({"first": BAD}, 300, f"bad complex literal {BAD!r}"),
        ({"last": BAD}, 300, f"bad complex literal {BAD!r}"),
        ({"middle": BAD}, 301, f"bad complex literal {BAD!r}"),
        ({"last": BAD}, 299, f"bad complex literal {BAD!r}"),  # before the count
        ({"first": BLANK}, 299, None),
        ({"first": BLANK}, 300, "expected 300 sample lines, found 299"),
        ({"last": BLANK, "third": BAD}, 299, f"bad complex literal {BAD!r}"),
        ({"last": BLANK, "third": BAD}, 300, f"bad complex literal {BAD!r}"),
        ({"middle": BAD, "third": BAD.replace("x", "y")}, 300, f"bad complex literal {BAD!r}"),
    ])
    def test_sig1_errors_in_later_parse_blocks(self, edits, count, message, tmp_path):
        # 300 lines of 38 characters, three blocks of 4096 characters or bytes and the
        # rest of their last line as the text and the file are read and parsed: an edit at
        # the last line of the first block, the first or a middle line of the second, or
        # the first of the third; each is as long as the line it replaces.  Parsed in those
        # blocks, and in one block of codec._BLOCK
        lines = [GOOD] * 300
        with mock.patch.object(codec, "_BLOCK", 4096):
            first, second, _ = (b.count(b"\n") for b in codec._line_blocks(_long_sig1(300, lines)))
        at = {"last": first - 3, "first": first - 2, "middle": first + 48,
              "third": first + second - 2}
        for where, line in edits.items():
            lines[at[where]] = line
        for block in (4096, codec._BLOCK):
            with mock.patch.object(codec, "_BLOCK", block):
                _assert_loads(_long_sig1(count, lines), codec._sig1, tmp_path, message)

    @pytest.mark.parametrize("edits, rem, message", [
        ({"first": BAD3}, "rem=1", f"bad complex literal {BAD!r}"),
        ({"last": BAD3}, "rem=1", f"bad complex literal {BAD!r}"),
        ({"first": BAD3, "third": TWO}, "rem=1", f"bad complex literal {BAD!r}"),
        ({"first": BLANK3}, "rem=1", f"block line needs 3 samples, got {BLANK3!r}"),
        ({"middle": BAD3}, "rem=x", f"bad complex literal {BAD!r}"),
        ({"third": BAD3}, "rem=2", f"bad complex literal {BAD!r}"),
        ({"last": BAD3, "third": BAD3.replace("x", "y")}, "rem=1", f"bad complex literal {BAD!r}"),
    ])
    def test_stasc1_errors_in_later_parse_blocks(self, edits, rem, message, tmp_path):
        # 100 block lines of 116 characters, in three blocks and in one as for SIG1 above
        lines = [GOOD3] * 100
        with mock.patch.object(codec, "_BLOCK", 4096):
            first, second, _ = (b.count(b"\n") for b in codec._line_blocks(_long_stasc1(lines, rem)))
        at = {"last": first - 3, "first": first - 2, "middle": first + 15,
              "third": first + second - 2}
        for where, line in edits.items():
            lines[at[where]] = line
        for block in (4096, codec._BLOCK):
            with mock.patch.object(codec, "_BLOCK", block):
                _assert_loads(_long_stasc1(lines, rem), codec._stasc1, tmp_path, message)

    @settings(max_examples=200)
    @given(st.booleans(), st.integers(0, 30), st.sampled_from([1.0, 0.5]),
           st.lists(st.tuples(st.sampled_from(CORRUPTIONS), st.integers(0, 40), st.integers(0, 3),
                              st.sampled_from(BAD_TOKENS)), min_size=1, max_size=2))
    @example(True, 8, 1.0, [("literal", 1, 2, "x,0"), ("delete", 0, 0, "")])
    @example(True, 8, 1.0, [("delete", 0, 0, ""), ("literal", 2, 0, "x,0")])
    @example(True, 4, 1.0, [("delete", 1, 0, ""), ("delete", 0, 0, "")])  # truncated
    @example(True, 9, 1.0, [("literal", 3, 0, "x,0"), ("samples", 1, 0, "")])
    @example(True, 9, 0.5, [("add", 0, 0, ""), ("literal", 0, 0, "x,0")])
    @example(False, 5, 1.0, [("literal", 4, 0, "x,0"), ("add", 0, 0, "")])
    @example(False, 5, 1.0, [("delete", 0, 0, ""), ("add", 2, 0, "")])  # the count holds
    def test_the_first_malformed_line_is_reported(self, stasc1, n, step, corruptions):
        # the writers' text with one or two lines corrupted loads, from a string and from
        # a file, in every block size, with the first malformed line's error in text
        # order, else the count or truncation error, as a parse of whole lines finds it
        values = [complex(j, -0.25 * j) for j in range(n)]
        if stasc1:
            m = round(1 / step)
            enc = EncodedStream(2.0, 0.5, n, tuple(values[:n - m * (n // (4 * m))]), step)
            lines, parse, load = dump_stasc1(enc).splitlines(), codec._stasc1, load_stasc1
        else:
            lines, parse, load = dump_sig1(SampleSeries(0.5, values)).splitlines(), codec._sig1, load_sig1
        body = lines[2:]
        for kind, at, field, token in corruptions:
            _corrupt(body, kind, at, field, token)
        text = "\n".join([*lines[:2], *body]) + "\n"
        want = (_first_error_stasc1(body, n, step) if stasc1 else
                _first_error_sig1(body, n))
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/in"
            with open(path, "w") as fh:
                fh.write(text)
            for block in (1, 7, 4096, codec._BLOCK):
                with mock.patch.object(codec, "_BLOCK", block):
                    assert _error_of(lambda: load(text)) == want
                    assert _error_of(lambda: codec._load(path, parse)) == want

    def test_truncated_block_section_is_named(self):
        # count=8 needs 2 block lines and 1 is there: 1 < 8 // 4, but not below 8 // 5
        with pytest.raises(FormatError, match="^truncated STASC1 block section$"):
            load_stasc1("STASC1\na=2,0 t0=0 count=8\n1,0;2,0;3,0\n")

    def test_loaders_parse_in_chunks_of_the_writers_blocks(self, monkeypatch, tmp_path):
        # results do not depend on where blocks end, so only this pins their size: text
        # and file alike are parsed in blocks of 40960 bytes and the rest of their last
        # line, about the writers' 1024 samples: the 1050 SIG1 lines after the header,
        # 1051, then the rest; 350 STASC1 block lines, 351, the 299 left in the section,
        # cut off before the rem= line, then the remainder lines
        lines = []
        complexes = codec._complexes
        monkeypatch.setattr(codec, "_complexes", lambda data, line: (
            lines.append(data.count(b"\n")) or complexes(data, line)))
        sig1 = _long_sig1(2500, [GOOD] * 2500)
        stasc1 = ("STASC1\na=2,0 t0=0 count=4003\n"
                  + "\n".join([GOOD3] * 1000 + ["rem=3"] + [GOOD] * 3) + "\n")
        path = tmp_path / "in"
        for text, parse, want in ((sig1, codec._sig1, [1050, 1051, 399]),
                                  (stasc1, codec._stasc1, [350, 351, 299, 3])):
            path.write_text(text)
            for load in (lambda: parse(codec._line_blocks(text)), lambda: codec._load(path, parse)):
                lines.clear()
                load()
                assert lines == want

    @pytest.mark.parametrize("block", [1, 2, 3, 4, 6, 7])
    def test_parts_join_to_the_dumped_text(self, block):
        values = sample_series(StasParams(p=0.9 + 0.2j, q1=0.5, r1=3), 1.0, 4 * block + 8).values
        # block - 1 .. block + 1 samples, and 4*block .. 4*block + 7: STASC1 block edges too
        for n in sorted({0, 1, 3, 4, block - 1, block, block + 1,
                         *range(4 * block, 4 * block + 8)}):
            series = SampleSeries(0.5, values[:n])
            enc = EncodedStream(a=4.0, t0=0.5, count=n, stored=values[:n - n // 4])
            want = dump_sig1(series), dump_stasc1(enc)
            with mock.patch.object(codec, "_SAMPLES", block):  # the writers' sample block
                parts = list(codec._sig1_parts(series)), list(codec._stasc1_parts(enc))
            assert tuple(map("".join, parts)) == want == (ref_dump_sig1(series),
                                                          ref_dump_stasc1(enc))
            # one part per block after the header: at most block samples, 3 per STASC1 line
            assert all(p.count(",") <= block for p in parts[0][1:])
            assert all(p.count(",") <= max(block, 3) for p in parts[1][1:])


# -- differential tests against the line-by-line reference --------------------

GOOD_FIELDS = ["0", "-0", "1", "2.5", "-3e-5", "1e-310", "1.7976931348623157e308",
               "1_0", " 2 ", "\t-4"]
BAD_FIELDS = ["1e400", "nan", "inf", "-inf", "x", "", "1.5.2", "0x10", "1__0"]
good_fields = st.sampled_from(GOOD_FIELDS)
fields = st.sampled_from(GOOD_FIELDS + BAD_FIELDS)
good_tokens = st.builds("{},{}".format, good_fields, good_fields)
complex_tokens = st.one_of(good_tokens, good_tokens, st.builds("{},{}".format, fields, fields),
                           st.sampled_from(["1,2,3", "4", "1,", ",1", " 1,0 ", "1;0"]))
sample_lines = st.one_of(good_tokens, good_tokens, good_tokens, complex_tokens,
                         st.sampled_from(["", "  ", "\t", ";", "1,0;"]))
good_blocks = st.lists(good_tokens, min_size=3, max_size=3).map(";".join)
block_lines = st.one_of(good_blocks, good_blocks,
                        st.lists(complex_tokens, min_size=3, max_size=3).map(";".join),
                        st.lists(complex_tokens, min_size=1, max_size=4).map(";".join),
                        st.lists(good_tokens, min_size=2, max_size=4).map(";".join),
                        st.sampled_from(["", ";;", "1,0;2,0;3,0;", "rem=0"]))
deltas = st.sampled_from([0, 0, 0, -1, 1])
blocks = st.sampled_from([codec._BLOCK, codec._SAMPLES, 1, 2, 3, 5, 8])  # for _blocks
newlines = st.sampled_from(["\n", "\r\n"])


def _bits(*values):
    return b"".join(struct.pack("<dd", complex(v).real, complex(v).imag) for v in values)


def _outcome(load, text):
    """Equal-comparable result of load(text): the bits of what it returns, or the error class."""
    try:
        obj = load(text)
    except (FormatError, RefFormatError):
        return "FormatError"
    except DomainError:
        return "DomainError"
    if isinstance(obj, complex):
        return _bits(obj)
    if isinstance(obj, SampleSeries):
        return _bits(obj.t0, obj.step, *obj.values)
    return _bits(obj.a, obj.t0, *obj.stored), obj.count


def _ref_sig1(text):
    t0, kind, step, values = ref_load_sig1(text)
    build = SampleSeries.from_s if kind == "s" else SampleSeries
    return build(t0, values, step=step)


def _ref_stasc1(text):
    return EncodedStream(*ref_load_stasc1(text))


@st.composite
def sig1_texts(draw):
    body = draw(st.lists(sample_lines, max_size=8))
    count = sum(1 for line in body if line.strip()) + draw(deltas)
    kind = draw(st.sampled_from(["f", "f", "s"]))
    t0 = draw(st.sampled_from(["0", "1", "-2.5"]))
    lines = [draw(st.sampled_from(["SIG1"] * 5 + ["SIG2"])),
             f"t0={t0} kind={kind} count={count}", *body]
    return draw(newlines).join(lines) + draw(st.sampled_from(["\n", ""]))


@st.composite
def stasc1_texts(draw):
    blocks = draw(st.lists(block_lines, max_size=4))
    tail = draw(st.lists(sample_lines, max_size=4))
    k = min(3, sum(1 for line in tail if line.strip()))
    rem = draw(st.sampled_from([f"rem={k}"] * 4 + [f"rem={k + 1}", "rem=x", "rem", None]))
    count = 4 * len(blocks) + k + draw(deltas)
    a = draw(st.sampled_from(["2,0", "2,0", "0.5,-1", "0.5,-1", "1e-310,0", "0,0", "1"]))
    lines = ["STASC1", f"a={a} t0=1 count={count}", *blocks,
             *([rem] if rem is not None else []), *tail]
    return draw(newlines).join(lines) + "\n"


special_floats = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                                  1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1.0])
random_floats = st.integers(0, 2 ** 64 - 1).map(
    lambda n: struct.unpack("<d", n.to_bytes(8, "little"))[0])
any_floats = st.one_of(special_floats, random_floats)
any_complexes = st.builds(complex, any_floats, any_floats)
finite_any_complexes = any_complexes.filter(cmath.isfinite)


# Lines at a block's edge: CRLF, which the block parse takes once it is made LF, and
# lines it leaves to the line-by-line parse: a blank line, spaces, an underscore, a
# vertical tab and a lone CR (line ends to str.splitlines, not to the block's LF count)
# and an empty field; in STASC1 also the rem= line, past the block section's end
ODD_SIG1_LINES = ["3,0\r\n", "\n", " 2 ,0\n", "1_0,0\n", "1,\x0b2\n", "1,\r2\n", ",5\n"]
ODD_STASC1_LINES = ["7,0;8,0;9,0\r\n", "\n", "7,0;8,\r0;9,0\n"]


def _at_block_edges(head, odd, tail):
    """(text, block) of head + odd + tail where, in blocks of block characters or bytes and
    the rest of their last line, the line odd is the first of a block, and then the last."""
    return [(head + odd + tail, len(head) - 1), (head + odd + tail, len(head))]


def _sig1_at_block_edges(odd, tail="4,0\n"):
    count = sum(1 for line in (odd + tail).splitlines() if line.strip()) + 1
    return _at_block_edges(f"SIG1\nt0=0 kind=f count={count}\n1,0\n", odd, tail)


SIG1_EDGES = [case for odd in ODD_SIG1_LINES for case in _sig1_at_block_edges(odd)]
STASC1_EDGES = [
    *(case for odd in ODD_STASC1_LINES for case in _at_block_edges(
        "STASC1\na=2,0 t0=1 count=9\n1,0;2,0;3,0\n", odd, "rem=1\n4,0\n")),
    *_at_block_edges("STASC1\na=2,0 t0=1 count=9\n1,0;2,0;3,0\n7,0;8,0;9,0\n", "rem=1\n", "4,0\n")]


def _with_examples(cases):
    """The test with an @example of each case."""
    def add(test):
        for case in cases:
            test = example(*case)(test)
        return test
    return add


class TestAgainstLineByLineReference:
    @given(complex_tokens)
    def test_parse_complex(self, text):
        assert _outcome(_parse_complex, text) == _outcome(ref_parse_complex, text)

    @settings(max_examples=300)
    @given(sig1_texts(), blocks)
    @example("SIG1\nt0=0 kind=f count=2\n1,2,3\n4\n", codec._BLOCK)
    @example("SIG1\nt0=0 kind=f count=0\n4", codec._BLOCK)  # a last line without a LF
    @_with_examples(SIG1_EDGES)
    def test_load_sig1(self, text, block):
        with _blocks(block):
            assert _outcome(load_sig1, text) == _outcome(_ref_sig1, text)

    @settings(max_examples=300)
    @given(stasc1_texts(), blocks)
    @example("STASC1\na=2,0 t0=1 count=8\n1,0;2,0\n3,0;4,0;5,0;6,0\nrem=0\n", codec._BLOCK)
    @_with_examples(STASC1_EDGES)
    def test_load_stasc1(self, text, block):
        with _blocks(block):
            assert _outcome(load_stasc1, text) == _outcome(_ref_stasc1, text)

    @given(st.floats(-1e6, 1e6, allow_nan=False), st.sampled_from([1.0, 0.125, -3.0]),
           st.lists(any_complexes, max_size=12))
    def test_dump_sig1_bytes(self, t0, step, values):
        series = SampleSeries(t0, tuple(values), step=step)
        assert dump_sig1(series) == ref_dump_sig1(series)

    @given(finite_any_complexes.filter(lambda z: z != 0), finite_floats,
           st.lists(st.tuples(finite_any_complexes, finite_any_complexes, finite_any_complexes),
                    max_size=5),
           st.lists(finite_any_complexes, max_size=3))
    def test_dump_stasc1_bytes(self, a, t0, blocks, remainder):
        enc = EncodedStream(a=a, t0=t0, count=4 * len(blocks) + len(remainder),
                            stored=(*chain.from_iterable(blocks), *remainder))
        assert dump_stasc1(enc) == ref_dump_stasc1(enc)


# -- the CLI's parse from the file, against the text it used to read whole ----------

def _text_of(path):
    """The file decoded at once with universal newlines, a non-ASCII byte refused with
    its offset: the text the CLI parsed before it parsed from the file."""
    try:
        with open(path, encoding="ascii") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"non-ASCII byte {exc.object[exc.start]:#04x} "
                          f"at offset {exc.start}") from None


def _message_or_bits(read):
    """The bits of what read() returns, or its error's class and message."""
    try:
        obj = read()
    except (FormatError, DomainError) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(obj, SampleSeries):
        return _bits(obj.t0, obj.step, *obj.values)
    return _bits(obj.a, obj.t0, obj.step, *obj.stored), obj.count


@st.composite
def text_files(draw):
    """The bytes of a SIG1 or STASC1 text with each line ended by LF, CRLF or a lone CR,
    maybe no end on the last, and maybe one non-ASCII byte anywhere."""
    lines = draw(st.one_of(sig1_texts(), stasc1_texts())).splitlines()
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines),
                         max_size=len(lines)))
    if lines and draw(st.booleans()):
        ends[-1] = ""
    data = "".join(map(str.__add__, lines, ends)).encode("ascii")
    if draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\x80", b"\xe9", b"\xff"])) + data[at:]
    return data


class TestParseFromTheFile:
    """codec._load of a file gives what load_sig1 / load_stasc1 give on its text: the same
    series or stream, bit for bit, or the same error and message.  A non-ASCII byte
    wins over any format error, wherever it is; else the first malformed line is
    reported, in text order, and a wrong count or a truncated block section only
    once every line there has parsed."""

    @settings(max_examples=300)
    @given(text_files(), st.sampled_from([1, 7, 64]))
    @example(b"SIG1\r\nt0=0 kind=f count=2\r\n1,0\r\n2,0\r\n", 1)  # CRLF at every block edge
    @example(b"SIG1\r\nt0=0 kind=f count=2\r\n1,0\r\n2,0\r\n", 7)
    @example(b"SIG1\rt0=0 kind=f count=2\r1,0\r2,0", 7)  # lone CRs, no line end at the end
    @example(b"SIG1\nt0=0 kind=f count=2\n\n1,0\n\n\n2,0", 64)  # blank lines
    @example(b"SIG1\nt0=0 kind=f count=1\n5,6\n7", 64)  # a last line without a LF
    @example(b"SIG1\nt0=0 kind=f count=2\n1,\xe90\nx,0\n", 7)  # non-ASCII before a bad line
    @example(b"SIG1\nt0=0 kind=f count=1\n1,\x7f0\xe9\n", 64)  # DEL is ASCII: 0xe9 is named
    @example(b"SIG1\nt0=0 kind=f count=2\nx,0\n2,0\n" + b"3,0\n" * 40 + b"\xff\n", 7)  # after
    @example(b"SIG2\nt0=0 kind=f count=1\n" + b"1,0\n" * 40 + b"\x80", 1)  # after a bad magic
    @example(b"STASC1\na=2,0 t0=1 count=8\nx,0;2,0;3,0\n", 7)  # the literal, not truncated
    @example(b"STASC1\na=2,0 t0=1 count=4\n1,0;x,0;3,0\nrem=x\n", 1)  # the literal, not rem=
    @example(b"STASC1\na=2,0 t0=1 count=8\nx,0;2,0;3,0\n1,0;2,0\nrem=0\n", 1)  # nor 2 fields
    @example(b"STASC1\na=2,0 t0=1 count=5\n1,0;2,0;3,0\nrem=1\n4,\x800\n", 64)
    @example(b"STASC1\na=2,0 t0=1 count=8\nx,0;2,0;3,0\ny,0;2,0;3,0\nrem=0\n", 1)  # the first wins
    # each odd line first and last in a block, and a non-ASCII byte in a block after a bad one
    @_with_examples((text.encode("latin-1"), block) for text, block in [
        *SIG1_EDGES, *STASC1_EDGES, *_sig1_at_block_edges("x,0\n", "3,0\n" * 20 + "\xe9\n")])
    def test_same_result_or_error_as_the_whole_text(self, data, block):
        load, parse = ((load_sig1, codec._sig1) if data.startswith(b"SIG") else
                       (load_stasc1, codec._stasc1))
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/in"
            with open(path, "wb") as fh:
                fh.write(data)
            with _blocks(block):
                want = _message_or_bits(lambda: load(_text_of(path)))
                assert _message_or_bits(lambda: codec._load(path, parse)) == want
