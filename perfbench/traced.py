"""In-process tracing: spans around the library's calls, a replay of each CLI command, probes.

`instrumented(tracer)` replaces the library's functions, wherever the
package's modules bind them, with wrappers that record one span per call, and
puts the originals back on exit.  `replay` runs one real subcommand
in-process through `cli.main`, so its spans always follow what the command
calls.  The probes time each layer on its own at stated sizes through the
same wrappers.

Spans stay in memory as [name, start, end, parent index, iteration id,
exception name or None] and are written out when the run ends.  A span's self
time is its duration minus the durations of its direct children; everything
is single-threaded, so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import io
import math
import random
import statistics
import time
import tracemalloc

from stasinv import cli, codec, core, estimator, reconstruct
from stasinv.reconstruct import Window, predict_next, recover_missing
from stasinv.rng import SplitMix64

import workloads

MODULES = (cli, codec, core, estimator, reconstruct)
# Functions called once per sample, whose spans would cost more than the
# calls, and cli's entry points, which `replay` wraps itself.
UNTRACED = {"cli.main", "cli.run", "codec.fmt_float", "codec.fmt_complex",
            "codec.parse_complex", "reconstruct.predict_next"}

# Probe sizes.  `.slope` is log(t(4N)/t(N))/log 4 between the last two sizes.
STREAM_SIZES = (1000, 10000, 25000, 100000)
FAULT_SIZES = (2048, 8192)          # fault density as in check-faulted
FIT_SIZES = (1024, 4096)
PER_CALL_BATCH = 5000
RNG_DRAWS = 50000


class Tracer:
    """Span recorder; a disabled tracer records nothing and instruments nothing."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.iteration = None

    def span(self, name: str):
        return self._record(name) if self.enabled else contextlib.nullcontext()

    @contextlib.contextmanager
    def _record(self, name: str):
        record = self._open(name)
        try:
            yield
        except BaseException as exc:
            record[5] = type(exc).__name__
            raise
        finally:
            self._close(record)

    def wrap(self, name: str, fn):
        """`fn` recording a span per call; written out, as a span costs most on small calls."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = self._open(name)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                record[5] = type(exc).__name__
                raise
            finally:
                self._close(record)
        return traced

    def _open(self, name: str) -> list:
        record = [name, time.perf_counter(), None,
                  self._stack[-1] if self._stack else -1, self.iteration, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record: list) -> None:
        record[2] = time.perf_counter()
        self._stack.pop()

    def self_times(self) -> list[float]:
        own = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def table(self) -> dict:
        """The spans as compact rows: name and iteration as indexes, times in microseconds."""
        names = sorted({s[0] for s in self.spans})
        iterations = sorted({s[4] for s in self.spans}, key=str)
        name_ix = {n: i for i, n in enumerate(names)}
        iter_ix = {it: i for i, it in enumerate(iterations)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[name_ix[n], round((start - t0) * 1e6, 1), round((end - t0) * 1e6, 1),
                 parent, iter_ix[it], error] for n, start, end, parent, it, error in self.spans]
        return {"columns": ["name", "start_us", "end_us", "parent", "iteration", "raised"],
                "names": names, "iterations": iterations, "rows": rows}

    def durations(self, name: str, iteration=None) -> list[float]:
        return [end - start for n, start, end, _, it, _ in self.spans
                if n == name and (iteration is None or it == iteration)]


@contextlib.contextmanager
def instrumented(t: Tracer):
    """Within the block, every traced library function records a span in `t`.

    The traced functions are those defined in MODULES (cli's private helpers
    included, other modules' only public ones) less UNTRACED.  Each module's
    binding of one is replaced, so calls between modules are traced too.
    """
    if not t.enabled:
        yield
        return
    wrappers = {}
    for module in MODULES:
        layer = module.__name__.rpartition(".")[2]
        for attr, fn in vars(module).items():
            name = f"{layer}.{attr}"
            if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                    and name not in UNTRACED and (layer == "cli" or not attr.startswith("_"))):
                wrappers[id(fn)] = (fn, t.wrap(name, fn))
    saved = []
    for module in MODULES:
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                saved.append((module, attr, value))
                setattr(module, attr, hit[1])
    try:
        yield
    finally:
        for module, attr, value in saved:
            setattr(module, attr, value)


def replay(t: Tracer, argv: list[str], suffix: str) -> tuple[int, str]:
    """Run one subcommand through `cli.main` under a root span `cli.<name>`.

    Returns its exit code and stdout.  The --output path gets `suffix`, so the
    CLI's own files stay untouched for comparison.
    """
    argv = [a + suffix if i and argv[i - 1] == "--output" else a for i, a in enumerate(argv)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        with t.span(f"cli.{argv[0]}"):
            rc = cli.main(argv)
    return rc, out.getvalue()


# -- per-layer probes ---------------------------------------------------------

class Probes:
    """Every layer timed on its own at stated sizes; the inputs are made once."""

    def __init__(self, workdir: str, seed: int):
        self.seed = seed
        params = workloads.draw_params(random.Random(f"perfbench:probe-stream:{seed}"),
                                       STREAM_SIZES[-1])
        self.stream = {}
        for n in STREAM_SIZES:
            values = workloads.make_values(params, n)
            self.stream[n] = (values, workloads.sig1_text(params["t0"], values))
        self.faulted = {}
        for n in FAULT_SIZES:
            scale = n / workloads.FAULT_N
            w = workloads.CheckFaulted(workdir, seed, n, round(workloads.FAULT_ISOLATED * scale),
                                       max(1, round(workloads.FAULT_CLOSE_PAIRS * scale)))
            series = core.SampleSeries(w.params["t0"], tuple(w.values))
            self.faulted[n] = (w.isolated, series, core.estimate_invariant(series).a_hat)
        self.fit = {}
        for n in FIT_SIZES:
            w = workloads.FitDense(workdir, seed, n)
            self.fit[n] = core.SampleSeries(w.params["t0"], tuple(w.values),
                                            step=workloads.FIT_STEP)
        self.passes = 0
        self.counts: dict = {}

    def run_pass(self, t: Tracer) -> None:
        """Every probe once, each size after the other; the first pass also records counts."""
        first = self.passes == 0
        with instrumented(t):
            stream = self._stream(t)
            faulted = self._faulted(t)
            fit = self._fit(t)
        self._per_call(t)
        if first:
            text = self.stream[STREAM_SIZES[-1]][1]
            tracemalloc.start()   # untimed: tracemalloc slows the call
            try:
                codec.load_sig1(text)
                stream["load_sig1_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                tracemalloc.stop()
            self.counts = {"stream": stream, "faulted": faulted, "fit": fit}
        self.passes += 1

    def _stream(self, t: Tracer) -> dict:
        """The stream layers at each of STREAM_SIZES; returns the codec counts at the largest."""
        for n in STREAM_SIZES:
            t.iteration = f"stream.n{n}"
            values, text = self.stream[n]
            series = codec.load_sig1(text)
            report = core.estimate_invariant(series)
            codec.detect_errors(series, report.a_hat, 1e-6)
            stasc1 = codec.dump_stasc1(codec.encode_stream(series, report.a_hat))
            decoded = codec.decode_stream(codec.load_stasc1(stasc1))
            codec.dump_sig1(decoded)
        exact = sum(got == want for got, want in zip(decoded.values, values))
        worst = max(abs(decoded.values[j] - values[j]) / max(abs(v) for v in values[j - 3:j + 1])
                    for j in range(3, n - n % 4, 4))
        return {"n": n, "sig1_mb": len(text) / 1e6, "stasc1_mb": len(stasc1) / 1e6,
                "windows_skipped": report.windows_skipped,
                "stored_bytes_ratio": len(stasc1) / len(text),
                "roundtrip_exact_fraction": exact / n, "roundtrip_max_rel_err": worst}

    def _faulted(self, t: Tracer) -> dict:
        for n in FAULT_SIZES:
            t.iteration = f"faulted.n{n}"
            isolated, series, a = self.faulted[n]
            findings = codec.detect_errors(series, a, 1e-6)
        flagged = [f for f in findings if f.verdict == "flagged"]
        implicated = {j for f in flagged for j in f.implicated_samples}
        return {"n": n, "flagged": len(flagged), "implicated": len(implicated),
                "localized_frac": len(implicated & set(isolated)) / len(isolated)}

    def _fit(self, t: Tracer) -> dict:
        for n in FIT_SIZES:
            t.iteration = f"fit.n{n}"
            start = len(t.spans)
            result = estimator.fit_series(self.fit[n], workloads.FIT_R_MAX)
        trig = [s for s in t.spans[start:] if s[0] == "estimator.fit_trig"]
        return {"n": n, "pairs_tried": len(trig),
                "pairs_ill_conditioned": sum(s[5] == "IllConditioned" for s in trig),
                "tied_pairs": len(result.tied_frequencies)}

    def _per_call(self, t: Tracer) -> None:
        """Per-call costs, as batches: reconstruct, core.invariant_ratio, the rng's u64 rate."""
        t.iteration = "per_call"
        rng = random.Random(f"perfbench:probe-per-call:{self.seed}")
        params = core.StasParams(p=complex(rng.uniform(0.3, 1.0), rng.uniform(-1.5, 1.5)),
                                 q1=1 - 0.5j, q2=0.25 + 1j, r1=3, r2=5)
        a = core.closed_form_invariant(params)
        g = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(PER_CALL_BATCH + 3)]
        windows = [Window((g[i], g[i + 1], g[i + 2], None), missing=3)
                   for i in range(PER_CALL_BATCH)]
        with t.span("reconstruct.recover_missing"):
            for window in windows:
                recover_missing(window, a)
        with t.span("reconstruct.predict_next"):
            for i in range(PER_CALL_BATCH):
                predict_next(g[i], g[i + 1], g[i + 2], a)
        ts = [rng.uniform(-20.0, -10.0) for _ in range(PER_CALL_BATCH)]
        with t.span("core.invariant_ratio"):
            for x in ts:
                core.invariant_ratio(params, x)
        splitmix = SplitMix64(self.seed)
        with t.span("rng.next_u64"):
            for _ in range(RNG_DRAWS):
                splitmix.next_u64()


def _median(t: Tracer, name: str, iteration) -> float:
    return statistics.median(t.durations(name, iteration))


def _slope(t: Tracer, name: str, prefix: str, sizes) -> float:
    small, large = sizes[-2], sizes[-1]
    ratio = _median(t, name, f"{prefix}.n{large}") / _median(t, name, f"{prefix}.n{small}")
    return math.log(ratio) / math.log(large / small)


def _sized(t: Tracer, m: dict, metric: str, name: str, prefix: str, sizes, every: bool) -> None:
    """`metric.s` at the largest size, `.s.n<N>` at the others (or the one before), `.slope`."""
    m[f"{metric}.s"] = (_median(t, name, f"{prefix}.n{sizes[-1]}"), "s")
    for n in sizes[:-1] if every else sizes[-2:-1]:
        m[f"{metric}.s.n{n}"] = (_median(t, name, f"{prefix}.n{n}"), "s")
    m[f"{metric}.slope"] = (_slope(t, name, prefix, sizes), "exponent")


def layer_metrics(t: Tracer, counts: dict) -> dict:
    """The per-layer metrics of the probes, as {name: (value, unit)}."""
    m = {}
    stream, faulted, fit = counts["stream"], counts["faulted"], counts["fit"]
    for name in ("codec.load_sig1", "codec.dump_sig1", "codec.load_stasc1", "codec.dump_stasc1",
                 "codec.encode_stream", "codec.decode_stream", "core.estimate_invariant"):
        _sized(t, m, name, name, "stream", STREAM_SIZES, every=True)
    _sized(t, m, "codec.detect_errors.clean", "codec.detect_errors", "stream", STREAM_SIZES,
           every=True)
    for name, size in (("codec.load_sig1", "sig1_mb"), ("codec.dump_sig1", "sig1_mb"),
                       ("codec.load_stasc1", "stasc1_mb"), ("codec.dump_stasc1", "stasc1_mb")):
        m[f"{name}.mb_per_s"] = (stream[size] / m[f"{name}.s"][0], "MB/s")
    m["codec.load_sig1.peak_mb"] = (stream["load_sig1_peak_mb"], "MiB")
    for key in ("stored_bytes_ratio", "roundtrip_exact_fraction", "roundtrip_max_rel_err"):
        m[f"codec.{key}"] = (stream[key], "ratio")
    m["core.estimate_invariant.windows_skipped"] = (stream["windows_skipped"], "count")

    _sized(t, m, "codec.detect_errors.faulted", "codec.detect_errors", "faulted", FAULT_SIZES,
           every=False)
    m["codec.detect_errors.flagged"] = (faulted["flagged"], "count")
    m["codec.detect_errors.implicated"] = (faulted["implicated"], "count")
    m["codec.detect_errors.localized_frac"] = (faulted["localized_frac"], "ratio")

    _sized(t, m, "estimator.fit_series", "estimator.fit_series", "fit", FIT_SIZES, every=False)
    big = f"fit.n{FIT_SIZES[-1]}"
    for name in ("estimator.search_frequencies", "estimator.fit_trig", "estimator.disambiguate_p"):
        m[f"{name}.s"] = (_median(t, name, big), "s")
    for key in ("pairs_tried", "pairs_ill_conditioned", "tied_pairs"):
        m[f"estimator.{key}"] = (fit[key], "count")

    for name in ("reconstruct.recover_missing", "reconstruct.predict_next", "core.invariant_ratio"):
        m[f"{name}.s"] = (_median(t, name, "per_call") / PER_CALL_BATCH, "s")
    m["rng.u64_per_s"] = (RNG_DRAWS / _median(t, "rng.next_u64", "per_call"), "1/s")
    return m
