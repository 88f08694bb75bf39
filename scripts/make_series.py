#!/usr/bin/env python3
"""Generate a SIG1 sample file from family parameters.

Examples:
    python scripts/make_series.py --p 0.5,0 --q2 1,0 --t0 1 --count 16 --output base.sig1
    python scripts/make_series.py --p 0.7,0.4 --q1 1.5,0 --r1 5 --t0 0.1 \
        --count 64 --step 0.125 --output fit_me.sig1
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from stasinv import StasParams, sample_series
from stasinv.cli import _complex_flag, _guarded, _write
from stasinv.codec import dump_sig1


def write_series(args) -> int:
    params = StasParams(p=args.p, q1=args.q1, q2=args.q2, r1=args.r1, r2=args.r2)
    _write(args.output, dump_sig1(sample_series(params, args.t0, args.count, step=args.step)))
    print(f"wrote {args.count} samples to {args.output}")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p", type=_complex_flag, required=True)
    ap.add_argument("--q1", type=_complex_flag, default=0j)
    ap.add_argument("--q2", type=_complex_flag, default=0j)
    ap.add_argument("--r1", type=int, default=1)
    ap.add_argument("--r2", type=int, default=1)
    ap.add_argument("--t0", type=float, default=0.25)
    ap.add_argument("--count", type=int, default=16)
    ap.add_argument("--step", type=float, default=1.0)
    ap.add_argument("--output", required=True)
    return _guarded(write_series, ap.parse_args())


if __name__ == "__main__":
    sys.exit(main())
