"""Acceptance suite: end-to-end checks at pinned tolerances.

Each test prints one `ACCEPTANCE <name>: PASS|FAIL` line (run with -s to see
them).  Every expected value is either exact rational arithmetic, a hand-
checked constant, or computed by an independent oracle; random draws use
fixed seeds through the package's own SplitMix64, so every run is identical.
"""

import cmath
import math
import time
from fractions import Fraction

from stasinv import (
    IllConditioned,
    SampleSeries,
    StasParams,
    Window,
    closed_form_invariant,
    decode_stream,
    detect_errors,
    disambiguate_p,
    encode_stream,
    estimate_invariant,
    eval_f,
    fit_series,
    four_term_residual,
    invariant_ratio,
    recover_missing,
    recurrence_next,
    sample_series,
    search_frequencies,
    seq_a,
)
from stasinv.cli import main
from stasinv.rng import SplitMix64

from conftest import draw_params

BASE = StasParams(p=0.5, q2=1.0)


def _report(name: str, ok: bool, detail: str = "") -> None:
    state = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: {state}{suffix}")
    assert ok, f"{name}: {detail}"


def test_table_reproduction_exact(capsys):
    """Exact rational table rows, including the three documented small rows."""
    start = time.perf_counter()
    assert main(["table", "--n-max", "64"]) == 0
    elapsed = time.perf_counter() - start
    rows = capsys.readouterr().out.splitlines()[1:]
    with capsys.disabled():
        expected_head = [
            "4\t3/4\t3/16\t4",
            "5\t3/8\t3/32\t4",
            "6\t3/16\t3/64\t4",
        ]
        head_ok = rows[:3] == expected_head
        all_four = all(row.split("\t")[3] == "4" for row in rows)
        _report("table-exact-rationals",
                head_ok and all_four and len(rows) == 61 and elapsed < 1.0,
                f"61 rows, ratio column all '4', {elapsed:.3f}s")


def test_discrete_identities_exact():
    """Four-term residual exactly 0/1 and two-step recurrence exact to n=256."""
    start = time.perf_counter()
    residuals_ok = all(four_term_residual(n) == Fraction(0) for n in range(4, 257))
    recurrence_ok = all(recurrence_next(n, seq_a(n - 2)) == seq_a(n)
                        for n in range(3, 257))
    elapsed = time.perf_counter() - start
    _report("discrete-identities-exact",
            residuals_ok and recurrence_ok and elapsed < 1.0,
            f"n up to 256, zero tolerance, {elapsed:.3f}s")


def test_real_extension_constancy():
    """Base family ratio equals 4 within 1e-12 at 100 seeded real t in (3, 50]."""
    start = time.perf_counter()
    rng = SplitMix64(12)
    worst = 0.0
    for _ in range(100):
        t = 50.0 - rng.uniform(0.0, 47.0)  # (3, 50]
        worst = max(worst, abs(invariant_ratio(BASE, t) - 4.0) / 4.0)
    elapsed = time.perf_counter() - start
    _report("real-extension-constancy",
            worst < 1e-12 and elapsed < 1.0,
            f"max rel dev {worst:.2e} over 100 draws, {elapsed:.3f}s")


def test_randomized_complex_sweep(capsys):
    """1000-trial seeded sweep: every ratio within 1e-9 of 1/p^2."""
    start = time.perf_counter()
    code = main(["verify", "--trials", "1000", "--seed", "0"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    with capsys.disabled():
        _report("randomized-complex-sweep",
                code == 0 and out.endswith("PASS\n") and elapsed < 2.0,
                f"{out.splitlines()[1]}, {elapsed:.3f}s")


def test_pair_sum_cancellation():
    """f(t) + f(t+1) equals p^t (1+p) within the oscillation-scaled budget."""
    worst = 0.0
    for trial in range(500):
        rng = SplitMix64.for_trial(606, trial)
        params = draw_params(rng)
        t = rng.uniform(-20.0, 20.0)
        lhs = eval_f(params, t) + eval_f(params, t + 1)
        p_t = params.p ** int(t) if t.is_integer() else cmath.exp(t * cmath.log(params.p))
        rhs = p_t * (1 + params.p)
        budget = 1e-10 * (abs(p_t) + abs(p_t * params.p)
                          + abs(params.q1) + abs(params.q2))
        worst = max(worst, abs(lhs - rhs) / budget)
    _report("pair-sum-cancellation", worst <= 1.0,
            f"500 seeded draws, worst error at {worst:.2e} of budget")


def test_reconstruction_round_trip():
    """Deleting any slot of a valid window and recovering reproduces it."""
    worst = 0.0
    for trial in range(500):
        rng = SplitMix64.for_trial(101, trial)
        params = draw_params(rng)
        t = rng.uniform(-10.0, 10.0)
        g = sample_series(params, t, 4).values
        a = closed_form_invariant(params)
        for m in range(4):
            slots = tuple(None if i == m else g[i] for i in range(4))
            rec = recover_missing(Window(slots, missing=m), a)
            err = abs(rec - g[m]) / abs(g[m]) if g[m] != 0 else abs(rec)
            worst = max(worst, err)
    float_ok = worst < 1e-9

    exact_ok = True
    a = Fraction(4)
    for n in range(1, 26):
        g = tuple(k * seq_a(k) for k in range(n, n + 4))
        for m in range(4):
            slots = tuple(None if i == m else g[i] for i in range(4))
            if recover_missing(Window(slots, missing=m), a) != g[m]:
                exact_ok = False
    _report("reconstruction-round-trip", float_ok and exact_ok,
            f"500 seeded windows, worst rel err {worst:.2e}; rational windows exact")


def test_codec_round_trip_and_storage():
    """decode(encode(x, 1/p^2)) returns x; stored count is count - count//4."""
    worst = 0.0
    storage_ok = True
    for trial in range(100):
        rng = SplitMix64.for_trial(202, trial)
        params = draw_params(rng)
        count = 4 + rng.next_u64() % 61  # lengths 4..64, all residues mod 4
        t0 = rng.uniform(-20.0, 20.0)
        series = sample_series(params, t0, count)
        a = closed_form_invariant(params)
        enc = encode_stream(series, a)
        if len(enc.stored) != count - count // 4:
            storage_ok = False
        dec = decode_stream(enc)
        for x, y in zip(series.values, dec.values):
            err = abs(x - y) / abs(x) if x != 0 else abs(y)
            worst = max(worst, err)
    _report("codec-round-trip", worst < 1e-9 and storage_ok,
            f"100 seeded series, worst per-sample rel err {worst:.2e}")


def test_fault_injection_detection_and_localization():
    """Single 1e-3-relative corruptions: always detected, exactly localized."""
    detected = localized = clean_ok = 0
    n_trials = 1000
    for trial in range(n_trials):
        rng = SplitMix64.for_trial(303, trial)
        params = draw_params(rng)
        count = 16 + rng.next_u64() % 49  # lengths 16..64
        t0 = rng.uniform(-20.0, 20.0 - count)
        series = sample_series(params, t0, count)
        a = closed_form_invariant(params)
        if not detect_errors(series, a, 1e-6):
            clean_ok += 1
        j = rng.next_u64() % count
        theta = rng.uniform(0.0, 2 * cmath.pi)
        scale = max(abs(v) for v in series.values)
        values = list(series.values)
        values[j] += 1e-3 * scale * cmath.exp(1j * theta)
        flagged = detect_errors(SampleSeries(t0, tuple(values)), a, 1e-6)
        if flagged:
            detected += 1
        implicated = sorted({s for f in flagged for s in f.implicated_samples})
        if implicated == [j]:
            localized += 1
    _report("fault-injection-detection",
            detected == n_trials and localized == n_trials and clean_ok == n_trials,
            f"{detected}/{n_trials} detected, {localized}/{n_trials} localized, "
            f"{clean_ok}/{n_trials} clean runs flag-free")


def _pipeline_cases(n: int = 100):
    """Seeded parameter sets and their unit-grid series at t = 0.25 + k."""
    cases = []
    for trial in range(n):
        rng = SplitMix64.for_trial(404, trial)
        params = draw_params(rng, r_hi=9, q_min=0.1)
        cases.append((params, sample_series(params, 0.25, 24)))
    return cases


def test_inverse_pipeline_invariant_and_base():
    """Unit-grid pipeline recovers the invariant to 1e-9 and p (signed) to 1e-8."""
    start = time.perf_counter()
    worst_a = worst_p = 0.0
    for params, series in _pipeline_cases():
        a_true = closed_form_invariant(params)
        report = estimate_invariant(series)
        worst_a = max(worst_a, abs(report.a_hat - a_true) / abs(a_true))
        p_hat = disambiguate_p(series)
        worst_p = max(worst_p, abs(p_hat - params.p) / abs(params.p))
    elapsed = time.perf_counter() - start
    _report("inverse-pipeline-invariant-and-base",
            worst_a < 1e-9 and worst_p < 1e-8 and elapsed < 5.0,
            f"100 seeded sets, a_hat dev {worst_a:.2e}, p dev {worst_p:.2e}, "
            f"{elapsed:.3f}s")


def test_inverse_pipeline_frequency_amplitude_recovery():
    """Frequency/amplitude recovery: refused on the unit grid, exact below it.

    On the unit grid t = 0.25 + k, odd r gives sin(r*pi*(t0+k)) =
    sin(r*pi*t0) * (-1)^k and cos(r*pi*(t0+k)) = cos(r*pi*t0) * (-1)^k, so
    both regression columns are multiples of the single vector (-1)^k and
    only c = q1*sin(r1*pi*t0) + q2*cos(r2*pi*t0) is observable.  The
    frequency search must refuse every one of the 100 seeded cases with
    IllConditioned, and the refusal is checked to be the right one: the
    least-squares coefficient of the (-1)^k column, the mean of
    (-1)^k * (g_k - p_hat^{t_k}), must equal c to 1e-9 relative.

    The same 100 parameter sets sampled at step 1/16 (128 samples from
    t0 = 0.25) separate every odd frequency below 16, and fit_series must
    return the true pair as its only tie, p to 1e-8 relative and q1 and q2
    to 1e-8.  Step 1/8 would not do: it aliases r with
    16 - r, and at t0 = 0.25 sin(9*pi*t) = -sin(7*pi*t) exactly on that
    grid, so every pair in {7, 9}^2 ties.  See "Identifiability" in the
    README.
    """
    t0 = 0.25
    refused = recovered = 0
    worst_c = worst_p = worst_q = 0.0
    cases = _pipeline_cases()
    for params, series in cases:
        p_hat = disambiguate_p(series)
        try:
            search_frequencies(series, p_hat, r_max=9)
        except IllConditioned:
            refused += 1
        c = (params.q1 * math.sin(params.r1 * math.pi * t0)
             + params.q2 * math.cos(params.r2 * math.pi * t0))
        alternating = [(-1) ** k * (g - cmath.exp(t * cmath.log(p_hat)))
                       for k, (t, g) in enumerate(zip(series.grid(), series.values))]
        c_hat = complex(math.fsum(z.real for z in alternating),
                        math.fsum(z.imag for z in alternating)) / len(alternating)
        worst_c = max(worst_c, abs(c_hat - c) / abs(c))

        result = fit_series(sample_series(params, t0, 128, step=1 / 16), r_max=9)
        worst_p = max(worst_p, abs(result.params.p - params.p) / abs(params.p))
        worst_q = max(worst_q, abs(result.params.q1 - params.q1),
                      abs(result.params.q2 - params.q2))
        if result.tied_frequencies == ((params.r1, params.r2),):
            recovered += 1
    _report("inverse-pipeline-frequency-amplitude",
            refused == len(cases) and worst_c < 1e-9
            and recovered == len(cases) and worst_p < 1e-8 and worst_q < 1e-8,
            f"unit grid: {refused}/{len(cases)} refused, observable scalar "
            f"dev {worst_c:.2e}; step 1/16: {recovered}/{len(cases)} unique "
            f"true pairs, p dev {worst_p:.2e}, q dev {worst_q:.2e}")
