"""The four benchmark workloads: seeded inputs, command sequences, output oracles.

Every input is generated here from the workload seed with a straight-line
evaluator of f and a SIG1 writer of this file's own, never with the library's
`sample_series` or `dump_sig1`, so a change to the library cannot change what
it is measured on.  The oracles read the CLI's stdout and output files with an
independent parser as well.

Why these four:
  stream-roundtrip  large clean stream through check, encode and decode: text
                    I/O, the codec and the clean residual sweep; localization
                    finds no runs and the estimator never runs.
  check-faulted     smaller stream with many isolated faults and a few close
                    pairs through `check --repair`: localization dominates.
                    With stream-roundtrip it is the exercise/bypass pair for
                    the localization code.
  fit-dense         1/8-step stream through `fit`: the 64-pair frequency
                    search dominates.
  verify-sweep      `verify`: no file I/O, so start-up and per-trial cost
                    dominate; the only workload that runs `rng` and
                    `core.invariant_ratio`.
"""

from __future__ import annotations

import cmath
import math
import os
import random

# Input sizes.  STREAM_N is not a multiple of 4, so the codec's verbatim
# remainder is exercised too.
STREAM_N = 40003
FAULT_N = 8192
FAULT_ISOLATED = 60      # interior isolated faults, plus one at each edge
FAULT_CLOSE_PAIRS = 4    # interior pairs 1..4 samples apart: flagged, never localized
FIT_N = 4096
FIT_STEP = 0.125
FIT_R_MAX = 15
VERIFY_TRIALS = 1000

CODEC_TOL = 1e-6         # the codec's window-relative acceptance tolerance
FIT_TOL = 1e-6
ISOLATION = 7            # faults this far apart produce disjoint flag runs


def ref_f(p, q1, q2, r1, r2, t):
    """f(t) = p^t + q1 sin(r1 pi t) + q2 cos(r2 pi t), evaluated pointwise."""
    return (cmath.exp(t * cmath.log(p)) + q1 * math.sin(r1 * math.pi * t)
            + q2 * math.cos(r2 * math.pi * t))


def draw_params(rng: random.Random, span: float) -> dict:
    """Random member of the family whose |p^t| stays within [1/e, e] over `span`.

    |p| near 1 keeps p^t from underflowing or swamping the oscillation; the
    phase of p stays away from pi so that 1 + p, the pair-sum factor, is not
    small.
    """
    p = math.exp(rng.uniform(-1.0, 1.0) / span) * cmath.exp(1j * rng.uniform(-2.0, 2.0))
    return {
        "p": p,
        "q1": complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)),
        "q2": complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)),
        "r1": rng.choice(range(1, 16, 2)),
        "r2": rng.choice(range(1, 16, 2)),
        "t0": 1.0 + rng.random(),
    }


def make_values(params: dict, count: int, step: float = 1.0) -> list[complex]:
    t0 = params["t0"]
    args = (params["p"], params["q1"], params["q2"], params["r1"], params["r2"])
    return [ref_f(*args, t0 + i * step) for i in range(count)]


def sig1_text(t0: float, values, step: float = 1.0) -> str:
    header = f"t0={t0:.17g} kind=f count={len(values)}"
    if step != 1.0:
        header += f" step={step:.17g}"
    body = "".join(f"{v.real:.17g},{v.imag:.17g}\n" for v in values)
    return f"SIG1\n{header}\n{body}"


def parse_sig1(text: str) -> tuple[float, list[complex]]:
    """(t0, values) of a SIG1 text; raises ValueError on anything malformed."""
    lines = text.splitlines()
    if len(lines) < 2 or lines[0] != "SIG1":
        raise ValueError("not a SIG1 file")
    header = dict(token.split("=", 1) for token in lines[1].split())
    values = []
    for line in lines[2:]:
        re_text, im_text = line.split(",")
        values.append(complex(float(re_text), float(im_text)))
    if len(values) != int(header["count"]):
        raise ValueError("SIG1 count does not match its body")
    return float(header["t0"]), values


def parse_index_list(text: str) -> list[int]:
    """`[1,2,3]` -> [1, 2, 3]."""
    inner = text.strip()[1:-1]
    return [int(x) for x in inner.split(",")] if inner else []


def _write(path: str, text: str) -> int:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(text)
    return len(text)


def _read(path: str) -> str:
    with open(path, encoding="ascii") as fh:
        return fh.read()


def _window_scale(values, i: int) -> float:
    return max(abs(v) for v in values[max(0, i):i + 4])


class Workload:
    """A seeded input set, the stasinv command sequence run on it, and its oracle.

    `commands` lists (argv after `python -m stasinv`, expected exit code).
    `check(outputs)` takes each command's (exit code, stdout, stderr) and
    returns the list of failed checks, empty when every output is correct.
    """

    name = ""
    samples = 0
    # Nominal seconds of one measured iteration with its set-up sample, its
    # two calibration spawns and its output check.  It fixes a run's
    # iteration count (run.iterations), so it is a constant and not measured.
    iteration_s = 1.0

    def __init__(self, workdir: str, seed: int):
        self.workdir = workdir
        self.seed = seed
        self.rng = random.Random(f"perfbench:{self.name}:{seed}")
        self.params: dict = {}
        self.quality: dict = {}  # name -> (value, unit) of output properties, from check()
        self.commands: list[tuple[list[str], int]] = []

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def check(self, outputs) -> list[str]:
        failures = []
        for (argv, want_rc), (rc, _, stderr) in zip(self.commands, outputs):
            if rc != want_rc:
                failures.append(f"{argv[0]}: exit {rc}, expected {want_rc}")
            if "Traceback" in stderr:
                failures.append(f"{argv[0]}: traceback on stderr")
        if not failures:
            try:
                failures.extend(self.check_outputs(outputs))
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                failures.append(f"unreadable output: {exc!r}")
        return failures

    def check_outputs(self, outputs) -> list[str]:
        raise NotImplementedError


class StreamRoundtrip(Workload):
    name = "stream-roundtrip"
    samples = STREAM_N
    iteration_s = 1.8

    def __init__(self, workdir: str, seed: int):
        super().__init__(workdir, seed)
        self.params = draw_params(self.rng, STREAM_N)
        self.values = make_values(self.params, STREAM_N)
        self.input_bytes = _write(self.path("stream.sig1"),
                                  sig1_text(self.params["t0"], self.values))
        src, enc, dec = self.path("stream.sig1"), self.path("stream.stasc1"), self.path("decoded.sig1")
        self.commands = [
            (["check", "--estimate", "--input", src], 0),
            (["encode", "--estimate", "--input", src, "--output", enc], 0),
            (["decode", "--input", enc, "--output", dec], 0),
        ]

    def check_outputs(self, outputs) -> list[str]:
        failures = []
        if outputs[0][1]:
            failures.append("check flagged windows on a clean stream")
        stored = os.path.getsize(self.path("stream.stasc1"))
        t0, decoded = parse_sig1(_read(self.path("decoded.sig1")))
        if t0 != self.params["t0"] or len(decoded) != STREAM_N:
            return failures + ["decoded header differs from the input"]
        exact = 0
        worst = 0.0
        for j, (got, want) in enumerate(zip(decoded, self.values)):
            if got == want:
                exact += 1
                continue
            if j % 4 != 3 or j >= STREAM_N - STREAM_N % 4:
                failures.append(f"sample {j} is not bit-identical after the round trip")
                break
            err = abs(got - want) / _window_scale(self.values, j - 3)
            worst = max(worst, err)
        if worst > CODEC_TOL:
            failures.append(f"slot-3 relative error {worst:.3e} exceeds {CODEC_TOL}")
        self.quality = {
            "stored_bytes_ratio": (stored / self.input_bytes, "ratio"),
            "roundtrip_exact_fraction": (exact / STREAM_N, "ratio"),
            "roundtrip_max_rel_err": (worst, "ratio"),
        }
        return failures


def place_faults(rng: random.Random, n: int, isolated: int, close_pairs: int):
    """Fault positions: (isolated, pairs), every group ISOLATION or more from the next.

    Singles sit at 0 and n-1 and in `isolated` interior slots; each close pair
    (j, j+d), d in 1..4, sits in its own interior slot, so its flag runs merge
    into one run that no single sample's covering set matches.
    """
    groups = isolated + close_pairs
    slot = (n - 2 * ISOLATION) // groups
    if slot < 2 * ISOLATION:
        raise ValueError("too many faults for the stream length")
    kinds = [0] * isolated + [1] * close_pairs
    rng.shuffle(kinds)
    singles, pairs = [0, n - 1], []
    for k, is_pair in enumerate(kinds):
        j = ISOLATION + k * slot + rng.randrange(slot - ISOLATION - 4)
        if is_pair:
            pairs.append((j, j + rng.randint(1, 4)))
        else:
            singles.append(j)
    return sorted(singles), pairs


class CheckFaulted(Workload):
    name = "check-faulted"
    samples = FAULT_N
    iteration_s = 1.35

    def __init__(self, workdir: str, seed: int, n: int = FAULT_N,
                 isolated: int = FAULT_ISOLATED, close_pairs: int = FAULT_CLOSE_PAIRS):
        super().__init__(workdir, seed)
        self.samples = n
        self.params = draw_params(self.rng, n)
        self.clean = make_values(self.params, n)
        self.isolated, self.pairs = place_faults(self.rng, n, isolated, close_pairs)
        self.values = list(self.clean)
        for j in self.isolated + [j for pair in self.pairs for j in pair]:
            # A large complex offset: every window covering j moves far past
            # the check's 1e-6 tolerance, and two faults of a pair never cancel.
            size = abs(self.clean[j]) + 1.0
            self.values[j] += size * complex(self.rng.uniform(0.3, 1.0), self.rng.uniform(0.3, 1.0))
        src, out = self.path("faulted.sig1"), self.path("repaired.sig1")
        _write(src, sig1_text(self.params["t0"], self.values))
        self.commands = [(["check", "--estimate", "--repair", "--input", src, "--output", out], 1)]

    def expected_flags(self) -> set[int]:
        last_window = self.samples - 4
        faults = self.isolated + [j for pair in self.pairs for j in pair]
        return {i for j in faults for i in range(max(0, j - 3), min(j, last_window) + 1)}

    def check_outputs(self, outputs) -> list[str]:
        failures = []
        lines = outputs[0][1].splitlines()
        if not lines or not lines[-1].startswith("repaired="):
            return ["no repaired= line"]
        flagged, listed = set(), set()
        for line in lines[:-1]:
            fields = dict(token.split("=", 1) for token in line.split())
            flagged.add(int(fields["window"]))
            listed.update(parse_index_list(fields["samples"]))
        repaired = parse_index_list(lines[-1].split("=", 1)[1])
        if flagged != self.expected_flags():
            failures.append("flagged windows differ from the windows covering a fault")
        if set(repaired) != set(self.isolated) or listed != set(repaired):
            failures.append("implicated samples differ from the isolated faults")
        _, fixed = parse_sig1(_read(self.path("repaired.sig1")))
        implicated = set(repaired)
        for j, (got, clean, given) in enumerate(zip(fixed, self.clean, self.values)):
            if j in implicated:
                ok = abs(got - clean) <= CODEC_TOL * _window_scale(self.clean, j - 3)
            else:
                ok = got == given
            if not ok:
                failures.append(f"repaired sample {j} is wrong")
                break
        self.quality = {
            "flagged": (len(flagged), "count"), "implicated": (len(implicated), "count"),
            "localized_frac": (len(implicated & set(self.isolated)) / len(self.isolated), "ratio"),
        }
        return failures


def parse_fit(stdout: str) -> dict:
    fields = dict(line.split("=", 1) for line in stdout.splitlines())
    out = {name: complex(*map(float, fields[name].split(","))) for name in ("p", "q1", "q2")}
    out["ties"] = [tuple(map(int, t.split(","))) for t in fields["ties"].split(";") if t]
    return out


class FitDense(Workload):
    name = "fit-dense"
    samples = FIT_N
    iteration_s = 1.7

    def __init__(self, workdir: str, seed: int, n: int = FIT_N):
        super().__init__(workdir, seed)
        self.samples = n
        self.params = draw_params(self.rng, n * FIT_STEP)
        # At step 1/8, r and 16 - r alias: a pair drawn from one alias class
        # ties four ways and leaves (q1, q2) unidentifiable, so r2 comes from
        # another class and the oracle can demand the exact amplitudes.
        while self.params["r2"] in (self.params["r1"], 16 - self.params["r1"]):
            self.params["r2"] = self.rng.choice(range(1, 16, 2))
        self.values = make_values(self.params, n, FIT_STEP)
        src = self.path("dense.sig1")
        _write(src, sig1_text(self.params["t0"], self.values, FIT_STEP))
        self.commands = [(["fit", "--input", src, "--r-max", str(FIT_R_MAX)], 0)]

    def check_outputs(self, outputs) -> list[str]:
        fit = parse_fit(outputs[0][1])
        truth = self.params
        failures = []
        if (truth["r1"], truth["r2"]) not in fit["ties"]:
            failures.append("true (r1, r2) not among the tied frequencies")
        for name in ("p", "q1", "q2"):
            if not abs(fit[name] - truth[name]) <= FIT_TOL:
                failures.append(f"{name} off by {abs(fit[name] - truth[name]):.3e}")
        return failures


class VerifySweep(Workload):
    name = "verify-sweep"
    samples = VERIFY_TRIALS
    iteration_s = 0.6

    def __init__(self, workdir: str, seed: int):
        super().__init__(workdir, seed)
        self.commands = [(["verify", "--trials", str(VERIFY_TRIALS), "--seed", str(seed)], 0)]

    def check_outputs(self, outputs) -> list[str]:
        lines = outputs[0][1].splitlines()
        if len(lines) != 3 or lines[-1] != "PASS":
            return ["verify did not print PASS"]
        if not lines[0].startswith(f"trials={VERIFY_TRIALS} seed={self.seed} "):
            return ["verify echoed other flags than it was given"]
        return []


WORKLOADS = {w.name: w for w in (StreamRoundtrip, CheckFaulted, FitDense, VerifySweep)}
