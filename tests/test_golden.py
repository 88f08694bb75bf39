"""Golden outputs: the sha256 of everything each CLI case produces.

Each case writes its input files, runs its commands in-process through
`cli.main` in an empty working directory, and hashes, in order, every
command's argv, exit code, stdout and stderr, then the name and bytes of
every file left in the directory (inputs and written outputs).  File names
are relative, so no hashed text holds the directory.

A change that alters CLI output on purpose updates the affected hashes and
says which in CHANGES.md; to print the current hashes, run this file as a
script from the repository root:

    PYTHONPATH=src python tests/test_golden.py

The codec inputs are built by exact float recurrences from dyadic
parameters, so what the library prints for them comes from IEEE arithmetic
alone.  The LIBM cases print digits that pass through sin, cos, exp or
log, which may differ in the last place on another platform's libm.
"""

import contextlib
import hashlib
import io
import math
import os
import tempfile
from pathlib import Path

import pytest

from stasinv.cli import main

from test_formats import MALFORMED_SIG1, MALFORMED_STASC1


def _sig1(t0, values, step=1.0):
    header = f"t0={t0:.17g} kind=f count={len(values)}"
    if step != 1.0:
        header += f" step={step:.17g}"
    body = "".join(f"{v.real:.17g},{v.imag:.17g}\n" for v in values)
    return f"SIG1\n{header}\n{body}"


def _geometric(n, w0, p, c):
    """g_i = w0 * p^i + (-1)^i * c for real p, with p^i as a running product,
    so every sample is plain IEEE arithmetic; the invariant is 1/p^2."""
    values, w_re, w_im = [], w0.real, w0.imag
    for i in range(n):
        values.append(complex(w_re, w_im) + (c if i % 2 == 0 else -c))
        w_re, w_im = w_re * p, w_im * p
    return values


def _stream():
    """stream-roundtrip at 4003 samples: a clean complex stream through
    check, encode and decode, with --estimate."""
    values = _geometric(4003, 1.5 - 0.25j, 1 - 2**-10, 0.75 - 0.5j)
    return {"stream.sig1": _sig1(3.0, values)}, [
        ["check", "--estimate", "--input", "stream.sig1"],
        ["encode", "--estimate", "--input", "stream.sig1", "--output", "stream.stasc1"],
        ["decode", "--input", "stream.stasc1", "--output", "decoded.sig1"],
    ]


def _crlf():
    """A 5001-sample clean stream with CRLF line ends, and blank, whitespace-only
    and form-feed lines among the samples, through check, encode and decode: its
    text spans many of the blocks the codec reads at a time."""
    lines = _sig1(2.0, _geometric(5001, 0.5 + 1.25j, 1 - 2**-11, -0.5 + 0.25j)).splitlines()
    extra = {0: "\r\n", 5: " \t\r\n", 9: "\x0c"}  # none between the magic and header lines
    text = "".join(line + "\r\n" + (extra.get(i % 13, "") if i > 1 else "")
                   for i, line in enumerate(lines))
    return {"crlf.sig1": text}, [
        ["check", "--estimate", "--input", "crlf.sig1"],
        ["encode", "--estimate", "--input", "crlf.sig1", "--output", "crlf.stasc1"],
        ["decode", "--input", "crlf.stasc1", "--output", "decoded.sig1"],
    ]


def _stream8():
    """A clean 1021-sample stream at step 1/8 through check, encode and decode, with
    --estimate: 31 blocks of 32 samples and a 29-sample tail, in which 5 windows start.
    g_i = w0 * p^i + c_(i mod 8) * (-1)^(i // 8), so samples 8 apart hold opposite
    oscillations and the invariant is 1/p^16."""
    c = [0.75 - 0.5j, -0.25 + 1j, 0.5, -1.5j, 1.25 + 0.25j, -0.5 - 0.75j, 1 + 0j, 0.125j]
    values = [v + (-c[i % 8] if i // 8 % 2 else c[i % 8])
              for i, v in enumerate(_geometric(1021, 1.5 - 0.25j, 1 - 2**-10, 0.0))]
    return {"stream8.sig1": _sig1(3.0, values, 0.125)}, [
        ["check", "--estimate", "--input", "stream8.sig1"],
        ["encode", "--estimate", "--input", "stream8.sig1", "--output", "stream8.stasc1"],
        ["decode", "--input", "stream8.stasc1", "--output", "decoded.sig1"],
    ]


def _faulted():
    """check-faulted at 1024 samples: isolated faults, the two end samples
    among them, and close pairs 1..4 apart, through check --repair.  Real
    samples keep every magnitude exact."""
    values = _geometric(1024, 2.0, 1 - 2**-9, -1.25)
    faults = [0, 23, 61, 130, 170, 260, 301, 302, 420, 500, 502, 611, 700, 703,
              812, 900, 904, 960, 1023]
    for j in faults:
        values[j] += abs(values[j]) + 1.0
    return {"faulted.sig1": _sig1(1.0, values)}, [
        ["check", "--estimate", "--repair", "--input", "faulted.sig1",
         "--output", "repaired.sig1"],
    ]


def _dense():
    """fit-dense at 512 samples of step 1/8."""
    p, q1, q2, r1, r2, t0 = 0.96875 + 0.125j, 1.25 - 0.5j, -0.75 + 0.5j, 5, 3, 0.25
    ts = [t0 + i * 0.125 for i in range(512)]
    values = [p ** t + q1 * math.sin(r1 * math.pi * t) + q2 * math.cos(r2 * math.pi * t)
              for t in ts]
    return {"dense.sig1": _sig1(t0, values, 0.125)}, [["fit", "--input", "dense.sig1"]]


def _malformed(texts, suffix, *commands):
    """Every malformed text of tests/test_formats.py through each command."""
    files = {f"bad{k}.{suffix}": text for k, text in enumerate(texts)}
    return files, [[*argv, "--input", name] for name in files for argv in commands]


def _refusals():
    """Inputs with one fault each, through the commands that refuse them: a
    step that is not 1/m, too few samples at steps 1 and 1/8, a negative
    count and a bad t0."""
    return {"short.sig1": _sig1(1.0, _geometric(3, 1.0, 0.5, 0.25)),
            "short8.sig1": _sig1(1.0, _geometric(24, 1.0, 0.5, 0.25), 0.125),
            "six.sig1": _sig1(1.0, _geometric(6, 1.0, 0.5, 0.25)),
            "step03.sig1": _sig1(0.25, _geometric(16, 1.0, 0.5, 0.25), 0.3),
            "step03.stasc1": "STASC1\na=4,0 t0=0 count=1 step=0.3\nrem=1\n1,0\n",
            "negcount.sig1": "SIG1\nt0=0 kind=f count=-1\n",
            "badt0.stasc1": "STASC1\na=4,0 t0=qq count=0\nrem=0\n"}, [
        ["check", "--p", "0.5,0", "--input", "step03.sig1"],
        ["check", "--estimate", "--input", "step03.sig1"],
        ["encode", "--p", "0.5,0", "--input", "step03.sig1", "--output", "step03.out"],
        ["decode", "--input", "step03.stasc1", "--output", "out.sig1"],
        ["check", "--p", "0.5,0", "--input", "short.sig1"],
        ["check", "--estimate", "--input", "short.sig1"],
        ["check", "--p", "0.5,0", "--input", "short8.sig1"],
        ["check", "--estimate", "--input", "short8.sig1"],
        ["fit", "--input", "short.sig1"],
        ["fit", "--input", "six.sig1"],
        ["fit", "--input", "step03.sig1"],
        ["check", "--p", "0.5,0", "--input", "negcount.sig1"],
        ["decode", "--input", "badt0.stasc1", "--output", "out.sig1"],
    ]


def _eval_invariant():
    """eval and invariant on a few values, then the range errors of the README."""
    return {}, [
        ["eval", "--p", "0.5,0", "--q2", "1,0", "--r2", "1", "--t", "2", "--kind", "s"],
        ["eval", "--p", "0.7,0.3", "--q1", "1.2,-0.4", "--q2=-0.8,0.6", "--r1", "5", "--r2", "3",
         "--t", "0.3"],
        ["invariant", "--p", "0.5,0"],
        ["invariant", "--p", "0.7,0.3", "--q1", "1.2,-0.4", "--r1", "5", "--t", "1.25"],
        ["eval", "--p", "0.5,0", "--t", "0", "--kind", "s"],
        ["eval", "--p", "2,0", "--t", "1500.5"],
        ["eval", "--p", "1e200,1e200", "--t", "2"],
        ["invariant", "--p", "0.5,0", "--t=-1023.5"],
        ["eval", "--p", "1,0", "--r1", "15", "--t", "1e308"],
        ["invariant", "--p", "1e-320,0"],
        ["invariant", "--p", "0.5,0", "--q1", "1.7e308,0", "--q2", "1.7e308,0", "--t", "0.25"],
    ]


CASES = {
    "stream-roundtrip": _stream,
    "stream-crlf": _crlf,
    "stream-step8": _stream8,
    "check-faulted": _faulted,
    "fit-dense": _dense,
    "table": lambda: ({}, [["table", "--n-max", "40"]]),
    **{f"verify-seed{seed}": lambda seed=seed: (
        {}, [["verify", "--trials", "200", "--seed", str(seed)]]) for seed in (1, 2, 3)},
    "malformed-sig1": lambda: _malformed(MALFORMED_SIG1, "sig1", ["check", "--p", "0.5,0"],
                                         ["check", "--estimate"]),
    "malformed-stasc1": lambda: _malformed(MALFORMED_STASC1, "stasc1",
                                           ["decode", "--output", "out.sig1"]),
    "refusals": _refusals,
    "eval-invariant": _eval_invariant,
}

LIBM = {"fit-dense", "verify-seed1", "verify-seed2", "verify-seed3", "eval-invariant"}

GOLDEN = {
    "stream-roundtrip": "fccbc26a067674ffe80a1c67f19d9ccac897a78ea368bfaca9052c07bec49d88",
    "stream-crlf": "bd2a42f11807ec46a31fbb55b2124703febff7649052159212f20ae693ba7893",
    "stream-step8": "65b387ab3b79e25bb17a58353149daee46c070404cd226ddb31cf2711920fe69",
    "check-faulted": "bbc35772d9254a40011eaa87d64fe70e960caec6985819c19d2d29d41838c0d6",
    "fit-dense": "010874cb3fc743d8f388a4a9a3d9bcee51248fd0453693f7a5e0a0e15a0de219",
    "table": "344484ed3c5e19acc14f71ca8b9155f569f0426a22ec98861b880908a43e861f",
    "verify-seed1": "dbf4cba8c49b4bf7329c5a7dbe7b0d122f2ef69e45bd000795650a89ce35c923",
    "verify-seed2": "9a9345e67936a1ffd8c14d244c7256da12e15b6b753c4dfd7d710c6bae44c07c",
    "verify-seed3": "1061f16f43fad5ca894ebfa42cb0420b1c8448d2173d91942582ba86f6794c12",
    "malformed-sig1": "aade61a04deda48bbef9924702273866df29e6f884724bbe49f75e7753508642",
    "malformed-stasc1": "4792542ad3bfe60c3575fb51fcf1bd375bb33cda7f97aa28501ecda67bca33e5",
    "refusals": "9a873da86350cef117e295b8161c371d6248099cae866ecf06803a60fce1a742",
    "eval-invariant": "7b2a96290eb24a1532b9b30d16b17824ddf4f14a312bc8d014b134419ffe684c",
}


def digest(build, workdir: Path) -> str:
    """Run one case in workdir, which must be empty and the working directory."""
    files, commands = build()
    for name, text in files.items():
        (workdir / name).write_text(text, encoding="ascii", newline="\n")
    h = hashlib.sha256()

    def add(data):
        data = data if isinstance(data, bytes) else str(data).encode()
        assert str(workdir).encode() not in data
        h.update(b"%d:" % len(data) + data)

    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        for part in (" ".join(argv), code, out.getvalue(), err.getvalue()):
            add(part)
    for path in sorted(workdir.iterdir()):
        add(path.name)
        add(path.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", CASES)
def test_golden(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    note = " (a LIBM case: the last digits may differ on another libm)" if name in LIBM else ""
    assert digest(CASES[name], tmp_path) == GOLDEN[name], f"{name}: output changed{note}"


if __name__ == "__main__":
    home = os.getcwd()
    for name, build in CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                print(f"{name}: {digest(build, Path(tmp))}")
            finally:
                os.chdir(home)
