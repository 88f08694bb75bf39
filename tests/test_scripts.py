"""The helper scripts under scripts/, run as subprocesses with small fixed arguments."""

import subprocess
import sys
from pathlib import Path

import pytest

from stasinv import load_sig1

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *argv, cwd=None):
    return subprocess.run([sys.executable, str(SCRIPTS / name), *argv],
                          capture_output=True, text=True, cwd=cwd, timeout=120)


@pytest.mark.parametrize("name, argv", [("invariant_sweep.py", ("--trials", "3", "--seed", "2")),
                                        ("codec_demo.py", ())])
def test_script_runs(name, argv):
    proc = run_script(name, *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout and proc.stderr == ""
    if name == "codec_demo.py":
        lines = proc.stdout.splitlines()
        assert "encoded: 18 stored values for 24 originals (25% smaller)" in lines
        assert "  encoded: 48 stored values for 64 originals (25% smaller)" in lines


@pytest.mark.parametrize("bounds", [("--t-min", "nan", "--t-max", "nan"),  # nan span
                                    ("--t-min=-1e6", "--t-max=-1e5"),     # p^t overflows
                                    ("--t-min", "5", "--t-max", "1"),     # inverted
                                    ("--points", "0")])                   # no t per trial
def test_invariant_sweep_bad_bounds_are_domain_errors(bounds):
    proc = run_script("invariant_sweep.py", "--trials", "3", *bounds)
    assert proc.returncode == 2
    assert proc.stderr.startswith("DomainError: ") and "Traceback" not in proc.stderr


def test_every_script_is_run():
    # each script must appear, quoted, as the name passed to run_script above
    source = Path(__file__).read_text()
    untested = [path.name for path in sorted(SCRIPTS.glob("*.py"))
                if f'"{path.name}"' not in source]
    assert not untested


def test_make_series_output_loads(tmp_path):
    out = tmp_path / "fit_me.sig1"
    proc = run_script("make_series.py", "--p", "0.7,0.4", "--q1", "1.5,0", "--r1", "5",
                      "--t0", "0.1", "--count", "64", "--step", "0.125", "--output", str(out))
    assert proc.returncode == 0, proc.stderr
    series = load_sig1(out.read_text())
    assert len(series) == 64
    assert series.t0 == 0.1 and series.step == 0.125


@pytest.mark.parametrize("p", ["x", "nan,0"])
def test_make_series_bad_p_is_usage_error(tmp_path, p):
    out = tmp_path / "o.sig1"
    proc = run_script("make_series.py", "--p", p, "--output", str(out))
    assert proc.returncode == 2
    assert "usage:" in proc.stderr and "Traceback" not in proc.stderr
    assert not out.exists()


def test_make_series_missing_p_is_domain_error(tmp_path):
    out = tmp_path / "o.sig1"
    proc = run_script("make_series.py", "--output", str(out))
    assert proc.returncode == 2
    assert proc.stderr == "DomainError: --p is required for this command\n"
    assert proc.stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("argv", [("--count", "-1"), ("--p", "0,0"), ("--r1", "2"),
                                  ("--step", "0"), ("--t0", "nan")])
def test_make_series_bad_values_are_domain_errors(tmp_path, argv):
    out = tmp_path / "o.sig1"
    proc = run_script("make_series.py", "--p", "0.5,0", *argv, "--output", str(out))
    assert proc.returncode == 2
    assert proc.stderr.startswith("DomainError: ") and "Traceback" not in proc.stderr
    assert proc.stdout == ""
    assert not out.exists()


def test_make_series_unwritable_output_is_io_error(tmp_path):
    out = tmp_path / "missing" / "o.sig1"
    proc = run_script("make_series.py", "--p", "0.5,0", "--output", str(out))
    assert proc.returncode == 2
    assert proc.stderr.startswith("IOError: ") and "Traceback" not in proc.stderr
    assert proc.stdout == ""
