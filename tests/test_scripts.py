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
