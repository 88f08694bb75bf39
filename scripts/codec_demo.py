#!/usr/bin/env python3
"""End-to-end walkthrough: generate, compress, corrupt, detect, repair, fit.

Runs the whole toolchain in memory and narrates each stage.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from stasinv import (
    SampleSeries,
    StasParams,
    closed_form_invariant,
    decode_stream,
    detect_errors,
    encode_stream,
    estimate_invariant,
    fit_series,
    repair_samples,
    sample_series,
)


def main() -> int:
    params = StasParams(p=0.7 + 0.3j, q1=1.2 - 0.4j, q2=-0.8 + 0.6j, r1=5, r2=3)
    a = closed_form_invariant(params)
    print(f"family member: p={params.p} q1={params.q1} q2={params.q2} "
          f"r1={params.r1} r2={params.r2}")
    print(f"closed-form invariant 1/p^2 = {a:.6f}\n")

    series = sample_series(params, 0.25, 24)
    report = estimate_invariant(series)
    print(f"generated {len(series)} unit-spaced samples from t0={series.t0}")
    print(f"estimated invariant {report.a_hat:.6f} "
          f"(max window deviation {report.max_rel_dev:.2e})\n")

    enc = encode_stream(series, a)
    stored = len(enc.stored)
    print(f"encoded: {stored} stored values for {enc.count} originals "
          f"({100 * (1 - stored / enc.count):.0f}% smaller)")
    decoded = decode_stream(enc)
    worst = max(abs(x - y) for x, y in zip(series.values, decoded.values))
    print(f"decoded: worst absolute reconstruction error {worst:.2e}\n")

    corrupted = list(series.values)
    scale = max(abs(v) for v in corrupted)
    corrupted[9] += 1e-3 * scale * 1j
    bad = SampleSeries(series.t0, tuple(corrupted))
    flagged = detect_errors(bad, a, tol=1e-6)
    implicated = sorted({j for f in flagged for j in f.implicated_samples})
    print(f"injected corruption at sample 9; detector flagged windows "
          f"{[f.window_index for f in flagged]} and implicated samples {implicated}")

    j = implicated[0]
    repaired = repair_samples(bad, [j], a).values[j]
    print(f"repaired sample {j}: error after repair "
          f"{abs(repaired - series.values[j]):.2e}\n")

    dense = sample_series(params, 0.1, 64, step=0.125)
    dense_a = estimate_invariant(dense).a_hat
    flagged = detect_errors(dense, dense_a, tol=1e-6)
    enc = encode_stream(dense, dense_a)
    print("a 1/8-step series: windows are samples i, i+8, i+16, i+24")
    print(f"  check: {len(flagged)} of {len(dense) - 24} windows flagged")
    print(f"  encoded: {len(enc.stored)} stored values for {enc.count} originals "
          f"({100 * (1 - len(enc.stored) / enc.count):.0f}% smaller)\n")
    fit = fit_series(dense, r_max=9)
    print("parameter recovery from a 1/8-step series:")
    print(f"  p  = {fit.params.p:.12f}   (true {params.p})")
    print(f"  q1 = {fit.params.q1:.12f}   (true {params.q1})")
    print(f"  q2 = {fit.params.q2:.12f}   (true {params.q2})")
    print(f"  r1, r2 = {fit.params.r1}, {fit.params.r2}   "
          f"(true {params.r1}, {params.r2})")
    print(f"  residual rms {fit.residual_rms:.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
