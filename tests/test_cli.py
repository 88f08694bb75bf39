"""Command-line interface: outputs, exit codes, file round trips, determinism."""

import contextlib
import io
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stasinv import (DomainError, SampleSeries, StasParams, closed_form_invariant, core,
                     encode_stream, load_sig1, sample_series)
from stasinv.cli import main
from stasinv.codec import dump_sig1, dump_stasc1
from stasinv.rng import verify_trials

from conftest import params_st

BASE = StasParams(p=0.5, q2=1.0)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_s_evaluation(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--p", "0.5,0", "--q2", "1,0",
                               "--r2", "1", "--t", "2", "--kind", "s")
        assert code == 0
        assert out == "0.625\n"

    def test_f_pure_power(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--p", "2,0", "--t", "3", "--kind", "f")
        assert code == 0
        assert out == "8\n"

    def test_zero_t_for_s_fails(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--p", "0.5,0", "--t", "0", "--kind", "s")
        assert code == 2
        assert "DomainError" in err

    def test_complex_output_has_both_parts(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--p", "0.6,0.8", "--t", "0.5")
        assert code == 0
        assert "," in out

    def test_missing_p_fails(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--t", "1")
        assert code == 2
        assert "DomainError" in err

    def test_malformed_complex_flag(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            run_cli(capsys, "eval", "--p", "nope", "--t", "1")
        assert exc_info.value.code == 2


class TestInvariant:
    def test_closed_form(self, capsys):
        code, out, _ = run_cli(capsys, "invariant", "--p", "0.5,0")
        assert code == 0
        assert out == "4\n"

    def test_ratio_at_t(self, capsys):
        code, out, _ = run_cli(capsys, "invariant", "--p", "0.5,0",
                               "--q2", "1,0", "--t", "1")
        assert code == 0
        assert out == "4\n"

    def test_huge_amplitudes_do_not_reach_the_ratio(self, capsys):
        # q1*sin + q2*cos overflows, but the oscillatory terms cancel exactly
        code, out, err = run_cli(capsys, "invariant", "--p", "0.5,0", "--q1", "1.7e308,0",
                                 "--q2", "1.7e308,0", "--t", "0.25")
        assert code == 0 and err == ""
        assert abs(float(out) - 4.0) < 1e-15 * 4.0

    def test_rejects_p_minus_one(self, capsys):
        # values with a leading minus need the --flag=value form
        code, _, err = run_cli(capsys, "invariant", "--p=-1,0")
        assert code == 2
        assert "DomainError" in err


class TestTable:
    def test_first_rows_match_exact_fractions(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--n-max", "6")
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "4\t3/4\t3/16\t4"
        assert lines[2] == "5\t3/8\t3/32\t4"
        assert lines[3] == "6\t3/16\t3/64\t4"

    def test_ratio_column_always_four(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--n-max", "64")
        assert code == 0
        rows = out.splitlines()[1:]
        assert len(rows) == 61
        assert all(row.split("\t")[3] == "4" for row in rows)

    def test_rows_match_four_term_residual(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--n-max", "40")
        assert code == 0
        for row in out.splitlines()[1:]:
            n, num, den, _ = row.split("\t")
            assert 4 * Fraction(den) - Fraction(num) == core.four_term_residual(int(n))

    def test_rejects_small_n_max(self, capsys):
        code, _, err = run_cli(capsys, "table", "--n-max", "3")
        assert code == 2
        assert "DomainError" in err

    def test_smallest_and_default_n_max(self, capsys):
        assert run_cli(capsys, "table", "--n-max", "4") == \
            (0, "n\tnumerator\tdenominator\tratio\n4\t3/4\t3/16\t4\n", "")
        code, out, _ = run_cli(capsys, "table")
        assert code == 0
        assert [row.split("\t")[0] for row in out.splitlines()[1:]] == \
            [str(n) for n in range(4, 13)]


class TestVerify:
    def test_small_run_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--trials", "20", "--seed", "7")
        assert code == 0
        assert out.endswith("PASS\n")
        assert "resampled=" in out

    def test_deterministic_output(self, capsys):
        _, out1, _ = run_cli(capsys, "verify", "--trials", "25", "--seed", "3")
        _, out2, _ = run_cli(capsys, "verify", "--trials", "25", "--seed", "3")
        assert out1 == out2

    def test_different_seeds_differ(self, capsys):
        _, out1, _ = run_cli(capsys, "verify", "--trials", "25", "--seed", "3")
        _, out2, _ = run_cli(capsys, "verify", "--trials", "25", "--seed", "4")
        assert out1 != out2

    def test_excluded_t_min_is_redrawn(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--trials", "3", "--t-min=-3",
                               "--t-max=-2.9999999999999996")
        assert code == 0
        assert out.endswith("PASS\n")

    def test_zero_trials_rejected(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--trials", "0")
        assert code == 2
        assert "DomainError" in err
        # the t draws per trial, fixed at 5 here, are an option of scripts/invariant_sweep.py
        with pytest.raises(DomainError, match="^--points must be >= 1, got 0$"):
            next(verify_trials(0, 1, -10.0, 10.0, 0))

    def test_impossible_tolerance_fails(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--trials", "5", "--tol", "1e-30")
        assert code == 1
        assert out.endswith("FAIL\n")

    def test_deviation_equal_to_tol_fails(self, capsys):
        # PASS needs max_rel_dev strictly below --tol
        *_, worst = list(verify_trials(3, 5, -20.0, -10.0))[-1]
        code, out, _ = run_cli(capsys, "verify", "--trials", "5", "--seed", "3",
                               f"--tol={worst!r}")
        assert (code, out.splitlines()[-1]) == (1, "FAIL")


class TestEntryPoint:
    def test_module_run_prints_and_exits_with_the_command_code(self):
        # `python -m stasinv` and the `stasinv` script run cli.run
        env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src"))
        refused = "DomainError: --n-max must be >= 4, got 3\n"
        for argv, want in ((["table", "--n-max", "4"], (0, "4\t3/4\t3/16\t4\n", "")),
                           (["table", "--n-max", "3"], (2, "", refused))):
            done = subprocess.run([sys.executable, "-m", "stasinv", *argv], capture_output=True,
                                  text=True, env=env)
            assert (done.returncode, done.stdout.partition("\n")[2], done.stderr) == want


class TestCodecCommands:
    def test_encode_decode_round_trip_bytes(self, capsys, tmp_path):
        # dyadic base sequence: reconstruction is bit-exact, so the decoded
        # file reproduces the original sample lines byte for byte
        series = sample_series(BASE, 1.0, 11)
        src = tmp_path / "in.sig1"
        enc = tmp_path / "out.stasc1"
        dec = tmp_path / "back.sig1"
        src.write_text(dump_sig1(series))
        code, _, _ = run_cli(capsys, "encode", "--p", "0.5,0",
                             "--input", str(src), "--output", str(enc))
        assert code == 0
        assert enc.read_text().startswith("STASC1\n")
        code, _, _ = run_cli(capsys, "decode", "--input", str(enc), "--output", str(dec))
        assert code == 0
        assert dec.read_text() == src.read_text()

    def test_encode_with_estimate(self, capsys, tmp_path):
        series = sample_series(BASE, 1.0, 8)
        src = tmp_path / "in.sig1"
        out = tmp_path / "out.stasc1"
        src.write_text(dump_sig1(series))
        code, _, _ = run_cli(capsys, "encode", "--estimate",
                             "--input", str(src), "--output", str(out))
        assert code == 0

    def test_encode_needs_invariant_source(self, capsys, tmp_path):
        src = tmp_path / "in.sig1"
        src.write_text(dump_sig1(sample_series(BASE, 1.0, 8)))
        code, _, err = run_cli(capsys, "encode", "--input", str(src),
                               "--output", str(tmp_path / "o"))
        assert code == 2
        assert "DomainError" in err

    def test_overflowing_window_between_blocks_refused_by_encode_and_check(self, capsys,
                                                                            tmp_path):
        src = tmp_path / "in.sig1"
        src.write_text("SIG1\nt0=1 kind=f count=8\n0,0\n8e307,8e307\n8e307,8e307\n"
                       "0,0\n0,0\n0,0\n0,0\n0,0\n")
        enc = tmp_path / "out.stasc1"
        for argv in (("encode", "--output", str(enc)), ("check",)):
            assert run_cli(capsys, *argv, "--p", "1,0", "--input", str(src)) == (
                2, "", "DomainError: a window's pair sum or defect exceeds the float range "
                       "in magnitude\n")
        assert not enc.exists()

    @pytest.mark.parametrize("argv", [("encode", "--q1", "1,0", "--output", "o"),
                                      ("encode", "--r2", "3", "--output", "o"),
                                      ("check", "--r1", "3"), ("check", "--q2", "0,1")])
    def test_codec_commands_take_only_p(self, capsys, tmp_path, argv):
        # their invariant 1/p^2 reads only --p, so the amplitude and frequency flags are gone
        src = tmp_path / "in.sig1"
        src.write_text(dump_sig1(sample_series(BASE, 1.0, 8)))
        with pytest.raises(SystemExit) as exc_info:
            main([argv[0], "--p", "0.5,0", "--input", str(src), *argv[1:]])
        assert exc_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_encode_corrupt_input_fails(self, capsys, tmp_path):
        values = list(sample_series(BASE, 1.0, 8).values)
        values[2] += 0.5
        from stasinv import SampleSeries
        src = tmp_path / "in.sig1"
        src.write_text(dump_sig1(SampleSeries(1.0, tuple(values))))
        code, _, err = run_cli(capsys, "encode", "--p", "0.5,0",
                               "--input", str(src), "--output", str(tmp_path / "o"))
        assert code == 2
        assert "IdentityViolation" in err

    def test_decode_malformed_fails(self, capsys, tmp_path):
        bad = tmp_path / "bad.stasc1"
        bad.write_text("STASC1\na=1,0 t0=0 count=9\nrem=0\n")
        code, _, err = run_cli(capsys, "decode", "--input", str(bad),
                               "--output", str(tmp_path / "o"))
        assert code == 2
        assert "FormatError" in err

    @pytest.mark.parametrize("argv, data", [
        (("check", "--p", "0.5,0"), b"SIG1\nt0=1 kind=f count=1\n1,0\xc3\xa9\n"),
        (("check", "--estimate", "--repair"), b"SIG1\nt0=1 kind=f count=1\n1,0\xc3\xa9\n"),
        (("encode", "--p", "0.5,0"), b"SIG1\nt0=1 kind=f count=1\n1,0\xc3\xa9\n"),
        (("fit",), b"SIG1\nt0=1 kind=f count=1\n1,0\xc3\xa9\n"),
        (("decode",), b"STASC1\na=4,0 t0=1 count=1\nrem=1\n\xff1,0\n"),
    ], ids=["check", "check-repair", "encode", "fit", "decode"])
    def test_non_ascii_byte_is_format_error(self, capsys, tmp_path, argv, data):
        src = tmp_path / "in"
        dst = tmp_path / "out"
        src.write_bytes(data)
        offset = min(i for i, byte in enumerate(data) if byte > 0x7f)
        writes = argv[0] in ("encode", "decode") or "--repair" in argv
        extra = ("--output", str(dst)) if writes else ()
        code, out, err = run_cli(capsys, *argv, "--input", str(src), *extra)
        assert code == 2
        assert out == ""
        assert err == f"FormatError: non-ASCII byte 0x{data[offset]:02x} at offset {offset}\n"
        assert not dst.exists()

    def test_missing_input_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "decode", "--input", str(tmp_path / "nope"),
                               "--output", str(tmp_path / "o"))
        assert code == 2
        assert "IOError" in err

    @pytest.mark.parametrize("command", ["check", "encode"])
    @pytest.mark.parametrize("flags", [("--p", "0.5,0", "--estimate"), ()])
    def test_invariant_flags_checked_before_reading(self, capsys, tmp_path, command, flags):
        # a missing input would be an IOError: the flags are refused before it is opened
        dst = tmp_path / "out"
        argv = [command, *flags, "--input", str(tmp_path / "missing")]
        if command == "encode":
            argv += ["--output", str(dst)]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == ("DomainError: need exactly one of --p and --estimate "
                       "to determine the invariant\n")
        assert not dst.exists()


class TestCheck:
    def test_clean_file(self, capsys, tmp_path):
        src = tmp_path / "in.sig1"
        src.write_text(dump_sig1(sample_series(BASE, 1.0, 16)))
        code, out, _ = run_cli(capsys, "check", "--p", "0.5,0", "--input", str(src))
        assert code == 0
        assert out == ""

    def test_corrupted_file_names_sample(self, capsys, tmp_path):
        series = sample_series(BASE, 1.0, 16)
        values = list(series.values)
        values[5] += 1e-2 * max(abs(v) for v in values)
        from stasinv import SampleSeries
        src = tmp_path / "in.sig1"
        src.write_text(dump_sig1(SampleSeries(1.0, tuple(values))))
        code, out, _ = run_cli(capsys, "check", "--p", "0.5,0", "--input", str(src))
        assert code == 1
        lines = out.splitlines()
        assert len(lines) == 4
        assert all("samples=[5]" in line for line in lines)
        assert lines[0].startswith("window=2 residual=")

    def test_repair_rewrites_sample(self, capsys, tmp_path):
        series = sample_series(BASE, 1.0, 16)
        values = list(series.values)
        values[5] += 1e-2 * max(abs(v) for v in values)
        from stasinv import SampleSeries
        src = tmp_path / "in.sig1"
        fixed = tmp_path / "fixed.sig1"
        src.write_text(dump_sig1(SampleSeries(1.0, tuple(values))))
        code, out, _ = run_cli(capsys, "check", "--p", "0.5,0", "--repair",
                               "--input", str(src), "--output", str(fixed))
        assert code == 1
        assert "repaired=[5]" in out
        repaired = load_sig1(fixed.read_text())
        assert abs(repaired.values[5] - series.values[5]) < 1e-12
        code, out, _ = run_cli(capsys, "check", "--p", "0.5,0", "--input", str(fixed))
        assert code == 0

    def test_repair_with_nothing_implicated_writes_no_file(self, capsys, tmp_path):
        # a close pair at 6 and 7 merges its runs into windows 3-7, which no one
        # sample's windows equal: nothing is implicated, so nothing is repaired
        values = list(sample_series(BASE, 1.0, 16).values)
        values[6] += 1e-2
        values[7] -= 2e-2
        from stasinv import SampleSeries
        src, dst = tmp_path / "in.sig1", tmp_path / "out.sig1"
        src.write_text(dump_sig1(SampleSeries(1.0, tuple(values))))
        code, out, _ = run_cli(capsys, "check", "--p", "0.5,0", "--repair",
                               "--input", str(src), "--output", str(dst))
        assert code == 1
        *windows, last = out.splitlines()
        assert [line.split()[0] for line in windows] == [f"window={i}" for i in range(3, 8)]
        assert all(line.endswith(" samples=[]") for line in windows)
        assert last == "repaired=[]"
        assert not dst.exists()

    def test_bad_step_token_is_format_error(self, capsys, tmp_path):
        src = tmp_path / "in.sig1"
        src.write_text("SIG1\nt0=0 kind=f count=0 step=zz\n")
        code, out, err = run_cli(capsys, "check", "--p", "0.5,0", "--input", str(src))
        assert code == 2
        assert out == ""
        assert err == "FormatError: bad SIG1 header: 't0=0 kind=f count=0 step=zz'\n"

    def test_repair_needs_output(self, capsys, tmp_path):
        # refused before the input is read: no window line, and a clean stream too
        series = sample_series(BASE, 1.0, 16)
        values = list(series.values)
        values[5] += 1e-2
        from stasinv import SampleSeries
        src = tmp_path / "in.sig1"
        for stream in (SampleSeries(1.0, tuple(values)), series):
            src.write_text(dump_sig1(stream))
            code, out, err = run_cli(capsys, "check", "--p", "0.5,0", "--repair",
                                     "--input", str(src))
            assert code == 2
            assert out == ""
            assert err == "DomainError: --repair needs --output for the repaired series\n"

    def test_output_needs_repair(self, capsys, tmp_path):
        # refused before the input is read, instead of writing no file
        series = sample_series(BASE, 1.0, 16)
        values = list(series.values)
        values[5] += 1e-2
        from stasinv import SampleSeries
        src = tmp_path / "in.sig1"
        dst = tmp_path / "out.sig1"
        for stream in (SampleSeries(1.0, tuple(values)), series):
            src.write_text(dump_sig1(stream))
            code, out, err = run_cli(capsys, "check", "--p", "0.5,0",
                                     "--input", str(src), "--output", str(dst))
            assert code == 2
            assert out == ""
            assert err == "DomainError: --output needs --repair\n"
            assert not dst.exists()


class TestFit:
    def test_recovers_parameters(self, capsys, tmp_path):
        params = StasParams(p=0.5, q1=1.5, q2=0.5, r1=5, r2=7)
        series = sample_series(params, 0.1, 64, step=0.125)
        src = tmp_path / "in.sig1"
        src.write_text(dump_sig1(series))
        code, out, _ = run_cli(capsys, "fit", "--input", str(src), "--r-max", "9")
        assert code == 0
        fields = dict(line.split("=", 1) for line in out.splitlines())
        assert list(fields) == ["a_hat", "p", "q1", "q2", "r1", "r2", "residual_rms", "ties"]
        assert fields["r1"] == "5" and fields["r2"] == "7"
        assert abs(complex(*map(float, fields["p"].split(","))) - 0.5) < 1e-12
        assert abs(float(fields["q1"].split(",")[0]) - 1.5) < 1e-8
        assert abs(float(fields["a_hat"].split(",")[0]) - 4.0) < 1e-9

    def test_unit_grid_reports_ill_conditioned(self, capsys, tmp_path):
        params = StasParams(p=0.5, q1=1.0, q2=1.0, r1=3, r2=5)
        src = tmp_path / "in.sig1"
        src.write_text(dump_sig1(sample_series(params, 0.25, 24)))
        code, _, err = run_cli(capsys, "fit", "--input", str(src), "--r-max", "9")
        assert code == 2
        assert "IllConditioned" in err


class TestNonFiniteInput:
    @pytest.mark.parametrize("header", ["t0=0.1 kind=f count=8 step=nan",
                                        "t0=nan kind=f count=8 step=0.125"])
    def test_fit_rejects_non_finite_grid(self, capsys, tmp_path, header):
        src = tmp_path / "in.sig1"
        src.write_text("SIG1\n" + header + "\n" + "1,0\n" * 8)
        code, out, err = run_cli(capsys, "fit", "--input", str(src))
        assert code == 2
        assert out == ""
        assert "DomainError" in err and "Traceback" not in err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1e-6"])
    def test_check_rejects_bad_tol(self, capsys, tmp_path, tol):
        src = tmp_path / "in.sig1"
        src.write_text(dump_sig1(sample_series(BASE, 1.0, 16)))
        code, out, err = run_cli(capsys, "check", "--p", "0.5,0", "--input", str(src),
                                 f"--tol={tol}")
        assert code == 2
        assert out == ""
        assert "DomainError" in err and "Traceback" not in err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_verify_rejects_bad_tol(self, capsys, tol):
        # the rule of check --tol, with its message
        code, out, err = run_cli(capsys, "verify", "--trials", "3", f"--tol={tol}")
        assert code == 2
        assert out == ""
        assert err == f"DomainError: --tol must be finite and non-negative, got {float(tol)}\n"

    @pytest.mark.parametrize("sample", ["nan,0", "0,inf", "1.5e308,1.5e308"])
    @pytest.mark.parametrize("argv", [("check", "--p", "2,0"), ("check", "--estimate"),
                                      ("encode", "--p", "2,0"), ("encode", "--estimate")])
    def test_codec_commands_reject_non_finite_sample(self, capsys, tmp_path, sample, argv):
        src = tmp_path / "in.sig1"
        dst = tmp_path / "out.stasc1"
        lines = dump_sig1(sample_series(BASE, 1.0, 8)).splitlines()
        lines[2 + 5] = sample
        src.write_text("\n".join(lines) + "\n")
        extra = ("--output", str(dst)) if argv[0] == "encode" else ()
        code, out, err = run_cli(capsys, *argv, "--input", str(src), *extra)
        assert code == 2
        assert out == ""
        assert "DomainError" in err and "Traceback" not in err
        assert not dst.exists()

    def test_repair_refuses_non_finite_value(self, capsys, tmp_path):
        # a = 1e20: only window 0 is flagged, it implicates sample 0, and
        # 1e20 * (1e290 + 1e270) - 1e290 overflows
        src = tmp_path / "in.sig1"
        dst = tmp_path / "fixed.sig1"
        src.write_text("SIG1\nt0=1 kind=f count=5\n0,0\n" + "1e290,0\n" * 2 + "1e270,0\n" * 2)
        code, out, err = run_cli(capsys, "check", "--p", "1e-10,0", "--repair",
                                 "--input", str(src), "--output", str(dst))
        assert code == 2
        assert out == "window=0 residual=inf samples=[0]\n"
        assert err == "DomainError: sample 0: repaired value is not finite ((inf+0j))\n"
        assert not dst.exists()

    @pytest.mark.parametrize("header", ["a=nan,0 t0=1 count=4", "a=0,inf t0=1 count=4",
                                        "a=4,0 t0=nan count=4"])
    def test_decode_rejects_non_finite_header(self, capsys, tmp_path, header):
        src = tmp_path / "in.stasc1"
        dst = tmp_path / "out.sig1"
        src.write_text(f"STASC1\n{header}\n1,0;2,0;3,0\nrem=0\n")
        code, out, err = run_cli(capsys, "decode", "--input", str(src), "--output", str(dst))
        assert code == 2
        assert out == ""
        assert "FormatError" in err and "Traceback" not in err
        assert not dst.exists()

    @pytest.mark.parametrize("body", ["1,0;nan,0;3,0\nrem=0\n", "1,0;2,0;3,0\nrem=1\ninf,0\n"])
    def test_decode_rejects_non_finite_sample(self, capsys, tmp_path, body):
        src = tmp_path / "in.stasc1"
        dst = tmp_path / "out.sig1"
        count = 4 + body.count("rem=1")
        src.write_text(f"STASC1\na=1,0 t0=1 count={count}\n{body}")
        code, out, err = run_cli(capsys, "decode", "--input", str(src), "--output", str(dst))
        assert code == 2
        assert out == ""
        assert "FormatError" in err and "Traceback" not in err
        assert not dst.exists()

    def test_decode_rejects_overflowing_slot_3(self, capsys, tmp_path):
        src = tmp_path / "in.stasc1"
        dst = tmp_path / "out.sig1"
        src.write_text("STASC1\na=1e-310,0 t0=0 count=4\n1,0;1,0;1,0\nrem=0\n")
        code, out, err = run_cli(capsys, "decode", "--input", str(src), "--output", str(dst))
        assert code == 2
        assert out == ""
        assert "DomainError" in err and "Traceback" not in err
        assert not dst.exists()

    def test_overflowing_pair_sum_is_never_clean(self, capsys, tmp_path):
        # finite samples whose pair sums overflow: window 0's residual is nan
        src = tmp_path / "in.sig1"
        dst = tmp_path / "out.stasc1"
        src.write_text("SIG1\nt0=1 kind=f count=8\n" + "1e308,0\n" * 4 + "1,0\n" * 4)
        code, out, _ = run_cli(capsys, "check", "--p", "1,0", "--input", str(src))
        assert code == 1
        assert out.startswith("window=0 residual=nan ")
        code, out, err = run_cli(capsys, "encode", "--p", "1,0",
                                 "--input", str(src), "--output", str(dst))
        assert code == 2
        assert out == ""
        assert "IdentityViolation" in err and "Traceback" not in err
        assert not dst.exists()

    @pytest.mark.parametrize("argv", [("check", "--p", "1,0"), ("check", "--estimate"),
                                      ("encode", "--p", "1,0"), ("encode", "--estimate")])
    def test_pair_sum_magnitude_overflow_is_domain_error(self, capsys, tmp_path, argv):
        # finite parts, but |g2 + g3| = |(1.3e308, 1.3e308)| exceeds the float range
        src = tmp_path / "in.sig1"
        dst = tmp_path / "out.stasc1"
        src.write_text("SIG1\nt0=1 kind=f count=4\n1,0\n1,0\n1e308,1e308\n3e307,3e307\n")
        extra = ("--output", str(dst)) if argv[0] == "encode" else ()
        code, out, err = run_cli(capsys, *argv, "--input", str(src), *extra)
        assert code == 2
        assert out == ""
        assert err.startswith("DomainError: ") and "Traceback" not in err
        assert not dst.exists()

    def test_fit_rejects_non_finite_sample_off_unit_subgrid(self, capsys, tmp_path):
        lines = dump_sig1(sample_series(StasParams(p=0.5, q1=1.5, q2=0.5, r1=5, r2=7),
                                        0.1, 64, step=0.125)).splitlines()
        lines[2 + 3] = "nan,0"  # sample 3 is not on the every-8th unit subgrid
        src = tmp_path / "in.sig1"
        src.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(capsys, "fit", "--input", str(src), "--r-max", "9")
        assert code == 2
        assert out == ""
        assert "DomainError" in err and "Traceback" not in err

    def test_fit_reports_a_magnitude_past_the_float_range_before_a_nan(self, capsys, tmp_path):
        # the nan is at sample 2, on the unit subgrid the fit's first stages read; the
        # magnitude past the float range at sample 9001 is not, and wins as in check
        values = list(sample_series(BASE, 0.1, 9010, step=0.5).values)
        values[2], values[9001] = complex("nan"), complex(1.5e308, 1.5e308)
        src = tmp_path / "in.sig1"
        src.write_text(dump_sig1(SampleSeries(0.1, values, step=0.5)))
        for argv in (("fit",), ("check", "--estimate")):
            code, out, err = run_cli(capsys, *argv, "--input", str(src))
            assert code == 2
            assert out == ""
            assert err == "DomainError: a sample's magnitude exceeds the float range\n"

    @pytest.mark.parametrize("argv", [("eval", "--p", "nan,0", "--t", "1"),
                                      ("eval", "--p", "1,0", "--q1", "0,inf", "--t", "1"),
                                      ("eval", "--p", "1,0", "--q2=-inf,0", "--t", "1"),
                                      ("eval", "--p", "0.5,0", "--t", "inf"),
                                      ("invariant", "--p", "0.5,0", "--t", "nan")])
    def test_flags_reject_non_finite_values(self, capsys, argv):
        with pytest.raises(SystemExit) as exc_info:
            main(list(argv))
        captured = capsys.readouterr()
        assert exc_info.value.code == 2
        assert captured.out == ""
        assert "must be finite" in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize("bounds", [("--t-min=-inf",), ("--t-max=inf",), ("--t-min=nan",),
                                        ("--t-min=-1e308", "--t-max=1e308")])
    def test_verify_rejects_non_finite_bounds(self, capsys, bounds):
        code, out, err = run_cli(capsys, "verify", "--trials", "3", *bounds)
        assert code == 2
        assert out == ""
        assert "DomainError" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("verify", "--trials", "3", "--t-min=-1e6", "--t-max=-1e5"),  # p^t overflows
        ("eval", "--p", "2,0", "--t", "1500.5"),
        ("invariant", "--p", "2,0", "--t", "2000"),                   # integer power overflows
        ("invariant", "--p", "0.5,0", "--t=-1023.5"),                 # pair sum overflows
        ("eval", "--p", "1,0", "--r1", "15", "--t", "1e308"),         # r*t is infinite
        ("invariant", "--p", "1e-320,0"),                             # p^2 underflows to 0
        ("eval", "--p", "1e200,1e200", "--t", "2"),   # integer power overflows inside, as nan
    ])
    def test_out_of_range_evaluation_is_domain_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("DomainError: ") and "Traceback" not in err

    def test_fit_sum_overflow_is_domain_error(self, capsys, tmp_path):
        # finite samples whose squares overflow the least-squares sums
        lines = dump_sig1(sample_series(StasParams(p=0.5, q1=1.5, q2=0.5, r1=5, r2=7),
                                        0.1, 40, step=0.125)).splitlines()
        lines[2 + 31] = "2000,1e308"
        src = tmp_path / "in.sig1"
        src.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(capsys, "fit", "--input", str(src))
        assert code == 2
        assert out == ""
        assert err.startswith("DomainError: ") and "Traceback" not in err

    def test_verify_nan_deviation_fails(self, capsys, monkeypatch):
        ratio = core.invariant_ratio
        calls = []

        def nan_first(params, t):
            calls.append(t)
            return complex("nan") if len(calls) == 1 else ratio(params, t)

        monkeypatch.setattr(core, "invariant_ratio", nan_first)
        code, out, _ = run_cli(capsys, "verify", "--trials", "3")
        assert code == 1
        assert out.splitlines()[1:] == ["max_rel_dev=nan", "FAIL"]


# -- fuzzing the command-line boundary ------------------------------------------

# Finite extremes, drawn four times as often as the malformed or non-finite values.
FUZZ_FINITE = ["0", "-1", "1", "0.5", "2", "-20", "2000", "1500.5", "-1023.5",
               "1e308", "-1e308", "1.7e308", "1e-320"]
FUZZ_BAD = ["nan", "inf", "-inf", "1..2", "", "x"]
fuzz_float = st.sampled_from(FUZZ_FINITE * 4 + FUZZ_BAD)
fuzz_int = st.sampled_from(["0", "-1", "1", "2", "3", "15", "1" + "0" * 400 + "1"] * 4
                           + ["1e308", "x"])
# 1e308,1e308 next to 3e307,3e307 makes a pair sum with finite parts whose
# magnitude exceeds the float range.
fuzz_complex = st.one_of(st.builds("{},0".format, st.sampled_from(FUZZ_FINITE)),
                         st.builds("{},{}".format, fuzz_float, fuzz_float),
                         st.sampled_from(["1", "1,2,3", ",", "nan",
                                          "1e308,1e308", "3e307,3e307"]))


@st.composite
def fuzz_sig1(draw):
    """SIG1 text: family data, possibly with one line replaced, or loose tokens."""
    if draw(st.booleans()):
        step = draw(st.sampled_from([1.0, 0.125]))
        series = sample_series(draw(params_st), draw(st.sampled_from([-3.5, 0.1, 1.0, 40.0])),
                               draw(st.integers(0, 40)), step=step)
        lines = dump_sig1(series).splitlines()
        if len(lines) > 2 and draw(st.booleans()):
            lines[draw(st.integers(2, len(lines) - 1))] = draw(fuzz_complex)
        return "\n".join(lines) + "\n"
    samples = draw(st.lists(fuzz_complex, max_size=10))
    header = [f"t0={draw(fuzz_float)}", f"kind={draw(st.sampled_from('fsq'))}",
              f"count={draw(st.sampled_from([len(samples), len(samples) + 1, -1]))}"]
    if draw(st.booleans()):
        header.append(f"step={draw(fuzz_float)}")
    return "\n".join(["SIG1", " ".join(header), *samples]) + "\n"


@st.composite
def fuzz_stasc1(draw):
    """STASC1 text: an encoding of family data, possibly with one line replaced, or loose tokens."""
    if draw(st.booleans()):
        params = draw(params_st)
        series = sample_series(params, 1.0, draw(st.integers(0, 16)))
        lines = dump_stasc1(encode_stream(series, closed_form_invariant(params))).splitlines()
        if draw(st.booleans()):
            lines[draw(st.integers(1, len(lines) - 1))] = draw(fuzz_complex)
        return "\n".join(lines) + "\n"
    count = draw(st.integers(-1, 9))
    blocks = [";".join(draw(st.lists(fuzz_complex, min_size=2, max_size=4)))
              for _ in range(max(count, 0) // 4)]
    rem = draw(st.lists(fuzz_complex, max_size=4))
    return "\n".join(["STASC1", f"a={draw(fuzz_complex)} t0={draw(fuzz_float)} count={count}",
                      *blocks, f"rem={len(rem)}", *rem]) + "\n"


AMPLITUDE_FLAGS = {"--q1": fuzz_complex, "--q2": fuzz_complex,
                   "--r1": fuzz_int, "--r2": fuzz_int}
# Per subcommand, the flags always given and those drawn; a None strategy is a
# switch.  Small --trials, --n-max and files keep every example cheap.
FUZZ_COMMANDS = {
    "eval": ({"--p": fuzz_complex, "--t": fuzz_float},
             {**AMPLITUDE_FLAGS, "--kind": st.sampled_from("fs")}),
    "invariant": ({"--p": fuzz_complex}, {**AMPLITUDE_FLAGS, "--t": fuzz_float}),
    "table": ({}, {"--n-max": st.sampled_from(["-1", "0", "4", "12", "40", "x"])}),
    "verify": ({"--trials": st.sampled_from(["-1", "0", "1", "3", "x"])},
               {"--seed": fuzz_int, "--t-min": fuzz_float, "--t-max": fuzz_float,
                "--tol": fuzz_float}),
    "encode": ({"--input": fuzz_sig1(), "--output": st.just("OUT")},
               {"--p": fuzz_complex, "--estimate": None}),
    "decode": ({"--input": fuzz_stasc1(), "--output": st.just("OUT")}, {}),
    "check": ({"--input": fuzz_sig1()},
              {"--p": fuzz_complex, "--estimate": None, "--repair": None, "--tol": fuzz_float,
               "--output": st.just("OUT")}),
    "fit": ({"--input": fuzz_sig1()}, {"--r-max": st.sampled_from(["-1", "1", "2", "9", "x"])}),
}


@st.composite
def fuzz_argv(draw):
    """(argv, input text): a subcommand with its required flags and a random subset
    of the others; encode and check now and then get a flag they no longer take."""
    command = draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
    required, optional = FUZZ_COMMANDS[command]
    flags = {**required, **optional}
    chosen = [*required, *(flag for flag in optional if draw(st.booleans()))]
    if command in ("encode", "check") and draw(st.integers(0, 9)) == 0:
        removed = draw(st.sampled_from(sorted(AMPLITUDE_FLAGS)))
        flags[removed] = AMPLITUDE_FLAGS[removed]
        chosen.append(removed)
    argv = [command]
    text = None
    for flag in chosen:
        strategy = flags[flag]
        if strategy is None:
            argv.append(flag)
        elif flag == "--input":
            text = draw(strategy)
            argv.append(f"{flag}={draw(st.sampled_from(['IN'] * 9 + ['MISSING']))}")
        else:
            argv.append(f"{flag}={draw(strategy)}")
    return argv, text


class TestFuzz:
    @settings(max_examples=500, deadline=None)
    @given(fuzz_argv())
    @example((["check", "--p=1,0", "--input=IN"],
              "SIG1\nt0=1 kind=f count=4\n1,0\n1,0\n1e308,1e308\n3e307,3e307\n"))
    @example((["fit", "--input=IN"], "SIG1\nt0=1 kind=f count=0 step=1e-320\n"))
    @example((["decode", "--input=IN", "--output=OUT"],
              "STASC1\na=4,0 t0=1 count=1\nrem=1\n\u00e91,0\n"))
    def test_every_argv_exits_cleanly(self, tmp_path_factory, case):
        # exit 0, 1 or 2, or argparse's SystemExit(2); no other exception escapes
        argv, text = case
        workdir = tmp_path_factory.mktemp("fuzz")
        if text is not None:
            (workdir / "in").write_text(text)
        paths = {"IN": workdir / "in", "MISSING": workdir / "missing", "OUT": workdir / "out"}
        for i, arg in enumerate(argv):
            flag, _, value = arg.partition("=")
            if value in paths:
                argv[i] = f"{flag}={paths[value]}"
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
                assert code == 2, argv
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err.getvalue()
