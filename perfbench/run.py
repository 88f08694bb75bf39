"""Benchmark of the stasinv command-line tool, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout; it tests the checkout's `src/`.

--trace 0 runs the workload's stasinv commands as a closed loop with one
client: each command is spawned, through perfbench/launcher.py, only after the
previous one exited, and every iteration's outputs are checked.  It reports
the end-to-end metrics.

The times of --trace 0 are reported at a reference machine speed.  A small
machine shared with others runs the same code up to 1.7x slower for seconds
at a time, so a raw wall time says more about the neighbours than about the
program.  Every timed spawn (an iteration, a set-up sample) is therefore
bracketed by spawns of CALIBRATION, a fixed piece of pure-Python work that
does not touch stasinv, and its time is divided by the mean of the two
calibration times next to it and multiplied by CALIBRATION_REF_S.  A change
to stasinv moves the numerator only.  The raw medians are printed and
written to the results file next to the reported ones.

--trace 1 replays the same commands in-process through `stasinv.cli.main`,
with spans around each library call (perfbench/traced.py), alongside spawned
and untraced runs of them, then probes every layer at stated sizes.  It
reports the per-layer metrics and the tracing overhead.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The lines before it are a readable table with the run's metadata.
The full results, and for --trace 1 the spans, are written to .perfbench/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

sys.dont_write_bytecode = True  # keep the benchmark's own directory free of caches

import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

MIN_ITERATIONS = 11        # so that one sample lies at least 10 below the tail
CAP_FACTOR = 1.25          # a run stops at CAP_FACTOR * --seconds even if iterations remain
MIN_REPLAYS = 3
MIN_PROBE_PASSES = 3
SELF_CHECK_MB = 48
SELF_CHECK_SLACK_MB = 4
TAIL_BEYOND = 10

# The calibration: interpreter start plus integer, complex and float-text work,
# about 0.12 s on a 2-core x86-64 VM.  Its code never changes, so its time
# measures the machine's speed at that moment.
CALIBRATION = """\
s, z, d = 0, 1 + 1j, {}
for i in range(60000):
    s += i * i % 7
    z = z * (0.9999 + 0.0001j) + 1e-3
    if i % 8 == 0:
        d[i & 1023] = float("%.17g" % z.real)
"""
CALIBRATION_REF_S = 0.1    # a normalised time is (raw / calibration) * this


def stasinv(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "stasinv", *argv]


class Launcher:
    """The lean spawning process of launcher.py, driven one request at a time."""

    def __init__(self, workdir: str):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        self.workdir = workdir
        self.proc = subprocess.Popen(
            [sys.executable, "-I", "-S", os.path.join(HERE, "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)

    def spawn(self, argvs: list[list[str]]) -> tuple[dict, list[tuple[int, str, str]]]:
        """Run argvs in order; returns the launcher's reply and each (exit code, stdout, stderr)."""
        cmds = [{"argv": argv, "stdout": os.path.join(self.workdir, f"cmd{i}.out"),
                 "stderr": os.path.join(self.workdir, f"cmd{i}.err")}
                for i, argv in enumerate(argvs)]
        self.proc.stdin.write(json.dumps({"cmds": cmds}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the launcher exited")
        reply = json.loads(line)
        outputs = []
        for cmd, result in zip(cmds, reply["cmds"]):
            with open(cmd["stdout"], encoding="utf-8", errors="replace") as out, \
                    open(cmd["stderr"], encoding="utf-8", errors="replace") as err:
                outputs.append((result["rc"], out.read(), err.read()))
        return reply, outputs

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def rss_self_check(launcher: Launcher) -> dict:
    """A bare child and one that touches SELF_CHECK_MB more must read their own peak RSS.

    If the launcher's high-water mark leaked into the readings, the bare child
    would read the launcher's size and the difference would shrink.
    """
    bare, _ = launcher.spawn([[sys.executable, "-c", "pass"]])
    big, _ = launcher.spawn([[sys.executable, "-c", f"b = b'x' * ({SELF_CHECK_MB} << 20)"]])
    bare_mb = bare["cmds"][0]["maxrss_kb"] / 1024
    grew_mb = big["cmds"][0]["maxrss_kb"] / 1024 - bare_mb
    return {"bare_child_mb": bare_mb, "grew_mb": grew_mb, "launcher_mb": big["maxrss_kb"] / 1024,
            "ok": abs(grew_mb - SELF_CHECK_MB) <= SELF_CHECK_SLACK_MB and bare_mb < SELF_CHECK_MB}


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(samples)
    k = len(ordered) - TAIL_BEYOND - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def help_ok(rc: int, stdout: str, stderr: str) -> bool:
    return rc == 0 and stdout.startswith("usage:") and "Traceback" not in stderr


class Tally:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, failures: list[str]) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            if len(self.messages) < 10:
                self.messages.extend(failures[:3])


def iterations(workload, seconds: float) -> int:
    """The fixed iteration count of a run: --seconds over the workload's nominal iteration time.

    It depends on --seconds alone, never on the speed of the code measured, so
    that wall_s_tail is the same order statistic on both sides of a comparison.
    """
    return max(MIN_ITERATIONS, round(seconds / workload.iteration_s))


def normalised(raw: list[float], cals: list[float]) -> list[float]:
    """Each raw[i], timed between cals[i] and cals[i + 1], at the reference speed."""
    return [x * 2 * CALIBRATION_REF_S / (before + after)
            for x, before, after in zip(raw, cals, cals[1:])]


def measure(launcher: Launcher, workload, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """The closed loop of --trace 0; returns (end-to-end metrics, details)."""
    argvs = [stasinv(argv) for argv, _ in workload.commands]
    helps = [stasinv([argv[0], "--help"]) for argv, _ in workload.commands]
    calibration = [sys.executable, "-I", "-c", CALIBRATION]

    def calibrate() -> float:
        reply, outputs = launcher.spawn([calibration])
        if outputs[0][0] != 0:
            raise RuntimeError(f"the calibration failed: {outputs[0][2]}")
        return reply["cmds"][0]["wall_s"]

    # Warm-up, checked but untimed: compiles __pycache__ and fills the file cache.
    tally.add(workload.check(launcher.spawn(argvs)[1]))
    launcher.spawn([helps[0]])
    calibrate()
    walls, rss, setup, per_cmd = [], [], [], []
    # Spawned in the order cals[0], walls[0], cals[1], setup[0], cals[2], walls[1], ...
    cals = [calibrate()]
    count = iterations(workload, seconds)
    start = time.perf_counter()
    cap = start + CAP_FACTOR * seconds
    while len(walls) < count and (len(walls) < MIN_ITERATIONS or time.perf_counter() < cap):
        reply, outputs = launcher.spawn(argvs)
        tally.add(workload.check(outputs))
        walls.append(reply["wall_s"])
        rss.append(max(c["maxrss_kb"] for c in reply["cmds"]) / 1024)
        per_cmd.append([c["wall_s"] for c in reply["cmds"]])
        cals.append(calibrate())
        # One set-up sample per iteration, so set-up and iterations see the same load.
        reply, outputs = launcher.spawn([helps[len(walls) % len(helps)]])
        tally.add([] if help_ok(*outputs[0]) else ["--help failed"])
        setup.append(reply["cmds"][0]["wall_s"])
        cals.append(calibrate())
    norm_walls = normalised(walls, cals[0::2])
    norm_setup = normalised(setup, cals[1::2])
    wall = statistics.median(norm_walls)
    tail_value, tail_pct = tail(norm_walls)
    metrics = {
        "setup_s": (statistics.median(norm_setup), "s"),
        "wall_s": (wall, "s"),
        "wall_s_tail": (tail_value, "s"),
        "samples_per_s": (workload.samples / wall, "1/s"),
        "peak_rss_mb": (statistics.median(rss), "MiB"),
    }
    details = {
        "iterations": len(walls), "iterations_planned": count,
        "measured_s": time.perf_counter() - start,
        "setup_samples": len(setup), "tail_percentile": tail_pct,
        "input_samples": workload.samples,
        "raw_wall_s": statistics.median(walls), "raw_wall_s_tail": tail(walls)[0],
        "raw_setup_s": statistics.median(setup),
        "calibration_s": statistics.median(cals), "calibration_ref_s": CALIBRATION_REF_S,
        "wall_s_samples": norm_walls, "setup_s_samples": norm_setup,
        "raw_wall_s_samples": walls, "raw_setup_s_samples": setup, "calibration_s_samples": cals,
        "raw_command_wall_s": {argv[0]: statistics.median(c[i] for c in per_cmd)
                               for i, (argv, _) in enumerate(workload.commands)},
        "quality": workload.quality,
    }
    return metrics, details


def _output_path(argv: list[str]) -> str | None:
    return argv[argv.index("--output") + 1] if "--output" in argv else None


def _same_file(a: str, b: str) -> bool:
    with open(a, "rb") as fa, open(b, "rb") as fb:
        return fa.read() == fb.read()


def measure_traced(launcher: Launcher, workload, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """--trace 1: spawned, traced and untraced replays of the workload, then layer probes."""
    sys.path.insert(0, SRC)
    import traced

    tracer, plain = traced.Tracer(), traced.Tracer(enabled=False)
    argvs = [argv for argv, _ in workload.commands]
    overhead, cpu, bare, imported = [], [], [], []
    totals = {True: [], False: []}
    start = time.perf_counter()
    deadline = start + seconds / 2
    k = 0
    # Start another round only while it is expected to end before the deadline.
    while k < MIN_REPLAYS or time.perf_counter() + (time.perf_counter() - start) / k < deadline:
        reply, outputs = launcher.spawn([stasinv(argv) for argv in argvs])
        failures = workload.check(outputs)
        cpu.append(sum(c["cpu_s"] for c in reply["cmds"]))
        bare.append(launcher.spawn([[sys.executable, "-c", "pass"]])[0]["cmds"][0]["wall_s"])
        imported.append(launcher.spawn([[sys.executable, "-c", "import stasinv"]])[0]
                        ["cmds"][0]["wall_s"])
        tracer.iteration = f"replay.{k}"
        for t in ((tracer, plain) if k % 2 == 0 else (plain, tracer)):
            with traced.instrumented(t):
                began = time.perf_counter()
                try:
                    results = [traced.replay(t, argv, ".replay") for argv in argvs]
                except Exception as exc:  # counted as a failure, like a CLI traceback
                    results = []
                    failures.append(f"replay raised {exc!r}")
                totals[t.enabled].append(time.perf_counter() - began)
            for argv, result, (rc, stdout, _) in zip(argvs, results, outputs):
                out = _output_path(argv)
                if result != (rc, stdout) or (out and not _same_file(out, out + ".replay")):
                    failures.append(f"replay of {argv[0]} differs from the CLI")
        roots = sum(s[2] - s[1] for s in tracer.spans if s[3] < 0 and s[4] == tracer.iteration)
        overhead.append(reply["wall_s"] - roots)
        tally.add(failures)
        k += 1
    replay_self = {}
    for (name, *_), own in zip(tracer.spans, tracer.self_times()):
        layer = name.split(".")[0]
        replay_self[layer] = replay_self.get(layer, 0.0) + own / k

    probe_dir = os.path.join(launcher.workdir, "probe")
    os.mkdir(probe_dir)
    probes = traced.Probes(probe_dir, workload.seed)
    start, deadline = time.perf_counter(), deadline + seconds / 2
    while (probes.passes < MIN_PROBE_PASSES
           or time.perf_counter() + (time.perf_counter() - start) / probes.passes < deadline):
        probes.run_pass(tracer)
    counts = probes.counts
    metrics = traced.layer_metrics(tracer, counts)
    interpreter = statistics.median(bare)
    traced_s, plain_s = statistics.median(totals[True]), statistics.median(totals[False])
    metrics.update({
        "cli.interpreter_s": (interpreter, "s"),
        "cli.import_s": (statistics.median(imported) - interpreter, "s"),
        "cli.overhead_s": (statistics.median(overhead), "s"),
        "cli.cpu_s": (statistics.median(cpu), "s"),
        "trace.overhead_s": (traced_s - plain_s, "s"),
        "trace.overhead_frac": ((traced_s - plain_s) / plain_s, "ratio"),
    })
    details = {"replays": k, "probe_passes": probes.passes, "replay_traced_s": traced_s,
               "replay_untraced_s": plain_s, "replay_self_s_by_layer": replay_self,
               "probe_sizes": {"stream": traced.STREAM_SIZES, "faulted": traced.FAULT_SIZES,
                               "fit": traced.FIT_SIZES,
                               "per_call_batch": traced.PER_CALL_BATCH,
                               "rng_draws": traced.RNG_DRAWS},
               "probe_counts": counts}
    return metrics, {**details, "spans": tracer.table()}


def metadata(seed: int) -> dict:
    src_lines = 0
    for dirpath, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), encoding="utf-8") as fh:
                    src_lines += sum(1 for _ in fh)
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": _commit(), "seed": seed, "src_lines": src_lines}


def _commit() -> str:
    """HEAD's commit id when the checkout is a git work tree, else "unknown"."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"   # git would search the directories above the checkout
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        head = ""
    return head or "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "stasinv", "__init__.py")):
        print(f"no stasinv sources under {SRC}", file=sys.stderr)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    launcher = None
    try:
        launcher = Launcher(workdir)
        tally = Tally()
        self_check = rss_self_check(launcher)
        tally.add([] if self_check["ok"] else ["peak-RSS self-check failed"])
        workload = workloads.WORKLOADS[args.workload](workdir, args.seed)
        run = measure_traced if args.trace else measure
        metrics, details = run(launcher, workload, args.seconds, tally)
    finally:
        if launcher is not None:
            launcher.close()
        shutil.rmtree(workdir, ignore_errors=True)

    meta = metadata(args.seed)
    error_rate = tally.failed / tally.attempted
    spans = details.pop("spans", None)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "workload": args.workload, "params": {
            k: str(v) for k, v in workload.params.items()}, "rss_self_check": self_check,
            "error_rate": error_rate, "failures": tally.messages, "details": details,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}},
            fh, indent=1)
    if spans is not None:
        with open(stem + ".spans.json", "w", encoding="utf-8") as fh:
            json.dump(spans, fh)

    print("# " + " ".join(f"{k}={v}" for k, v in meta.items()))
    print(f"# workload={args.workload} attempted={tally.attempted} failed={tally.failed} "
          f"error_rate={error_rate:.4g} rss_self_check={'ok' if self_check['ok'] else 'FAILED'}")
    for key, value in details.items():
        if not isinstance(value, (dict, list, tuple)):
            print(f"# {key}={value:.6g}" if isinstance(value, float) else f"# {key}={value}")
    # Printed but kept out of the JSON: error_rate is 0 when all is well, and
    # the output properties exist only on some workloads.
    table = {**metrics, "error_rate": (error_rate, "ratio"), **details.get("quality", {})}
    for name, (value, unit) in table.items():
        print(f"{name:<44} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
