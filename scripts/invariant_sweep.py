#!/usr/bin/env python3
"""Randomized invariant experiment with per-trial detail.

Prints each trial of `stasinv verify` (stasinv.rng.verify_trials): the random
family member (complex base with Re in [0.3, 1], Im in [-1.5, 1.5], amplitudes
in [-2, 2]^2, odd frequencies up to 15), its closed form 1/p^2, and the ratio
and its spread at several random t.  Errors exit 2, as in the CLI.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from stasinv.cli import _guarded
from stasinv.rng import verify_trials


def sweep(args) -> int:
    for trial, (params, a, rows, overall) in enumerate(
            verify_trials(args.seed, args.trials, args.t_min, args.t_max, args.points)):
        print(f"trial {trial}: p={params.p:.4f} q1={params.q1:.4f} "
              f"q2={params.q2:.4f} r1={params.r1} r2={params.r2}")
        print(f"  closed form 1/p^2 = {a:.6f}")
        for t, ratio, dev in rows:
            print(f"  ratio at t = {t:9.4f}: {ratio:.6f}   rel dev {dev:.2e}")
    print(f"max relative deviation over {args.trials} trials: {overall:.2e}")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--points", type=int, default=5, help="t draws per trial")
    ap.add_argument("--t-min", type=float, default=-20.0)
    ap.add_argument("--t-max", type=float, default=-10.0)
    return _guarded(sweep, ap.parse_args())


if __name__ == "__main__":
    sys.exit(main())
