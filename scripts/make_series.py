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

from stasinv import sample_series
from stasinv.cli import _add_param_flags, _guarded, _params_from
from stasinv.codec import _sig1_parts, _write


def write_series(args) -> int:
    series = sample_series(_params_from(args), args.t0, args.count, step=args.step)
    _write(args.output, _sig1_parts(series))
    print(f"wrote {args.count} samples to {args.output}")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    _add_param_flags(ap)
    ap.add_argument("--t0", type=float, default=0.25)
    ap.add_argument("--count", type=int, default=16)
    ap.add_argument("--step", type=float, default=1.0)
    ap.add_argument("--output", required=True)
    return _guarded(write_series, ap.parse_args())


if __name__ == "__main__":
    sys.exit(main())
