"""SIG1 and STASC1 text serialization."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from stasinv import (
    DomainError,
    SampleSeries,
    StasParams,
    encode_stream,
    sample_series,
)
from stasinv.codec import (
    EncodedStream,
    dump_sig1,
    dump_stasc1,
    fmt_float,
    load_sig1,
    load_stasc1,
    parse_complex,
)
from stasinv.errors import FormatError

finite_floats = st.floats(allow_nan=False, allow_infinity=False)
finite_complexes = st.builds(complex, finite_floats, finite_floats)


class TestFloatFormatting:
    @given(finite_floats)
    def test_round_trip_exact(self, x):
        assert float(fmt_float(x)) == x

    def test_clean_literals(self):
        assert fmt_float(0.625) == "0.625"
        assert fmt_float(8.0) == "8"

    def test_parse_complex_rejects_garbage(self):
        for text in ("1", "1,2,3", "a,b", ""):
            with pytest.raises(FormatError):
                parse_complex(text)


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

    @pytest.mark.parametrize("text", [
        "",
        "SIGX\nt0=0 kind=f count=0\n",
        "SIG1\n",
        "SIG1\nt0=0 count=0\n",
        "SIG1\nt0=0 kind=f count=2\n1,0\n",
        "SIG1\nt0=0 kind=f count=0 bogus=1\n",
        "SIG1\nt0=0 kind=q count=1\n1,0\n",
        "SIG1\nt0=zz kind=f count=0\n",
    ])
    def test_malformed_rejected(self, text):
        with pytest.raises(FormatError):
            load_sig1(text)


class TestStasc1:
    def test_exact_text(self):
        enc = EncodedStream(a=4.0, t0=1.0, count=6,
                            blocks=((-0.5 + 0j, 1.25 + 0j, -0.875 + 0j),),
                            remainder=(0.03125 + 0j, 0.984375 + 0j))
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

    @pytest.mark.parametrize("text", [
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
    ])
    def test_malformed_rejected(self, text):
        with pytest.raises(FormatError):
            load_stasc1(text)
