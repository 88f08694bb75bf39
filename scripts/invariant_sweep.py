#!/usr/bin/env python3
"""Randomized invariant experiment with per-trial detail.

Draws random family members as `stasinv verify` does (complex base with Re
in [0.3, 1], Im in [-1.5, 1.5], amplitudes in [-2, 2]^2, odd frequencies up
to 15), evaluates the four-point ratio at several random t, and reports each
trial's spread around the closed form 1/p^2.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from stasinv import closed_form_invariant, invariant_ratio
from stasinv.core import EXCLUDED_T, draw_trial_params
from stasinv.rng import SplitMix64


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--points", type=int, default=5, help="t draws per trial")
    ap.add_argument("--t-min", type=float, default=-20.0)
    ap.add_argument("--t-max", type=float, default=-10.0)
    args = ap.parse_args()

    overall = 0.0
    for trial in range(args.trials):
        rng = SplitMix64.for_trial(args.seed, trial)
        params, _ = draw_trial_params(rng)
        a = closed_form_invariant(params)
        print(f"trial {trial}: p={params.p:.4f} q1={params.q1:.4f} "
              f"q2={params.q2:.4f} r1={params.r1} r2={params.r2}")
        print(f"  closed form 1/p^2 = {a:.6f}")
        worst = 0.0
        for _ in range(args.points):
            t = rng.uniform(args.t_min, args.t_max)
            while t in EXCLUDED_T:
                t = rng.uniform(args.t_min, args.t_max)
            ratio = invariant_ratio(params, t)
            dev = abs(ratio - a) / abs(a)
            worst = max(worst, dev)
            print(f"  ratio at t = {t:9.4f}: {ratio:.6f}   rel dev {dev:.2e}")
        overall = max(overall, worst)
    print(f"max relative deviation over {args.trials} trials: {overall:.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
