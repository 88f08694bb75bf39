"""Command-line interface.

Subcommands: eval, invariant, table, verify, encode, decode, check, fit.
Complex flags take a single `re,im` argument; parameter flags and `--t` must
be finite.  All randomness flows through
the seeded SplitMix64 generator (see rng.py), so identical flags and seed
reproduce identical output.  Exit codes: 0 success, 1 verification or
integrity failure, 2 usage/domain/format errors (error name on stderr).
"""

from __future__ import annotations

import argparse
import cmath
import sys

from . import core
from .errors import DomainError, FormatError, StasError


def _finite_flag(parse):
    """An argparse type: parse(text), refusing a malformed or non-finite value."""
    def flag(text: str):
        try:
            value = parse(text)
        except (ValueError, FormatError) as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        if not cmath.isfinite(value):
            raise argparse.ArgumentTypeError(f"value must be finite, got {text!r}")
        return value
    return flag


_complex_flag = _finite_flag(core._parse_complex)
_float_flag = _finite_flag(float)


def _fmt_value(z: complex) -> str:
    """`re,im`, or bare `re` when the imaginary part is exactly zero."""
    if z.imag == 0.0:
        return core._fmt_float(z.real)
    return core._fmt_complex(z)


def _params_from(args) -> core.StasParams:
    if args.p is None:
        raise DomainError("--p is required for this command")
    return core.StasParams(p=args.p, q1=args.q1, q2=args.q2, r1=args.r1, r2=args.r2)


def _read_with_invariant(args):
    """(series, a) for encode and check: the --input series and a = 1/p^2 from --p, or
    the series' InvariantReport, which encode_stream and detect_errors take as its a_hat
    and whose bound on every residual can spare them their sweep.  The flags are checked
    before the input is read."""
    if args.estimate == (args.p is not None):
        raise DomainError("need exactly one of --p and --estimate to determine the invariant")
    from . import codec  # here, not at the top: only the file commands load the codec
    series = _load(args.input, codec._sig1)
    if args.estimate:
        return series, core.estimate_invariant(series)
    return series, core.closed_form_invariant(core.StasParams(p=args.p))


def _load(path: str, load):
    """load(blocks of lines) of the file at path, read and decoded as ASCII one block at
    a time: codec._BLOCK bytes and the rest of the last line, so no CRLF is cut.  A
    non-ASCII byte is a FormatError naming its offset; it wins over any error of load,
    so on one the rest of the file is decoded too."""
    from . import codec
    with open(path, "rb") as fh:
        blocks = _ascii_lines(fh, codec._BLOCK)
        try:
            return load(blocks)
        except StasError:
            for _ in blocks:
                pass
            raise


def _ascii_lines(fh, size: int):
    """The lines of the binary file fh, as str.splitlines gives them, one list per block
    of size bytes and the rest of its last line: each block but the last ends just
    after a LF."""
    offset = 0
    while data := fh.read(size) + fh.readline():
        try:
            text = data.decode("ascii")
        except UnicodeDecodeError as exc:
            raise FormatError(f"non-ASCII byte {data[exc.start]:#04x} "
                              f"at offset {offset + exc.start}") from None
        offset += len(data)
        yield text.splitlines()


def _write(path: str, parts) -> None:
    """Write the strings of parts in turn; callers check all first, so a failure writes no file."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.writelines(parts)


def cmd_eval(args) -> int:
    params = _params_from(args)
    if args.kind == "s":
        value = core.eval_s(params, args.t)
    else:
        value = core.eval_f(params, args.t)
    print(_fmt_value(value))
    return 0


def cmd_invariant(args) -> int:
    params = _params_from(args)
    if args.t is not None:
        print(_fmt_value(core.invariant_ratio(params, args.t)))
    else:
        print(_fmt_value(core.closed_form_invariant(params)))
    return 0


def cmd_table(args) -> int:
    if args.n_max < 4:
        raise DomainError(f"--n-max must be >= 4, got {args.n_max}")
    print("n\tnumerator\tdenominator\tratio")
    for n in range(4, args.n_max + 1):
        num, den = core.four_point_sums(n)
        print(f"{n}\t{num}\t{den}\t{num / den}")
    return 0


def cmd_verify(args) -> int:
    core._checked_tol(args.tol)
    for *_, max_dev in core.verify_trials(args.seed, args.trials, args.t_min, args.t_max):
        pass
    # resampled= is always 0: no trial's p needs a redraw (see core.draw_trial_params)
    print(f"trials={args.trials} seed={args.seed} "
          f"t_min={core._fmt_float(args.t_min)} t_max={core._fmt_float(args.t_max)} "
          f"resampled=0")
    print(f"max_rel_dev={max_dev:.3e}")
    if max_dev < args.tol:
        print("PASS")
        return 0
    print("FAIL")
    return 1


def cmd_encode(args) -> int:
    from . import codec
    enc = codec.encode_stream(*_read_with_invariant(args))
    _write(args.output, codec._stasc1_parts(enc))
    return 0


def cmd_decode(args) -> int:
    from . import codec
    series = codec.decode_stream(_load(args.input, codec._stasc1))
    _write(args.output, codec._sig1_parts(series))
    return 0


def cmd_check(args) -> int:
    if args.repair and not args.output:
        raise DomainError("--repair needs --output for the repaired series")
    if args.output and not args.repair:
        raise DomainError("--output needs --repair")
    series, invariant = _read_with_invariant(args)
    from . import codec
    flagged = codec.detect_errors(series, invariant, args.tol)
    for f in flagged:
        samples = ",".join(str(j) for j in f.implicated_samples)
        print(f"window={f.window_index} residual={f.residual:.6e} samples=[{samples}]")
    if args.repair and flagged:
        implicated = sorted({j for f in flagged for j in f.implicated_samples})
        a = invariant.a_hat if args.estimate else invariant
        if implicated:  # with nothing implicated there is nothing to write
            _write(args.output, codec._sig1_parts(codec.repair_samples(series, implicated, a)))
        print(f"repaired=[{','.join(str(j) for j in implicated)}]")
    return 1 if flagged else 0


def cmd_fit(args) -> int:
    from . import codec, estimator  # here, not at the top: only fit loads the estimator
    series = _load(args.input, codec._sig1)
    result = estimator.fit_series(series, r_max=args.r_max)
    p = result.params
    print(f"a_hat={core._fmt_complex(result.invariant.a_hat)}")
    print(f"p={core._fmt_complex(p.p)}")
    print(f"q1={core._fmt_complex(p.q1)}")
    print(f"q2={core._fmt_complex(p.q2)}")
    print(f"r1={p.r1}")
    print(f"r2={p.r2}")
    print(f"residual_rms={result.residual_rms:.6e}")
    ties = ";".join(f"{r1},{r2}" for r1, r2 in result.tied_frequencies)
    print(f"ties={ties}")
    return 0


def _add_param_flags(sub, *, p_only: bool = False) -> None:
    sub.add_argument("--p", type=_complex_flag, default=None, help="base, as re,im")
    if p_only:
        return
    sub.add_argument("--q1", type=_complex_flag, default=0j, help="sine amplitude, re,im")
    sub.add_argument("--q2", type=_complex_flag, default=0j, help="cosine amplitude, re,im")
    sub.add_argument("--r1", type=int, default=1, help="odd sine frequency multiplier")
    sub.add_argument("--r2", type=int, default=1, help="odd cosine frequency multiplier")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stasinv",
        description="Four-point invariant toolkit: evaluation, exact table, "
                    "randomized verification, 4-to-3 codec, integrity checks, fitting.")
    subs = parser.add_subparsers(dest="command", required=True)

    p_eval = subs.add_parser("eval", help="evaluate f(t) or s(t)")
    _add_param_flags(p_eval)
    p_eval.add_argument("--t", type=_float_flag, required=True)
    p_eval.add_argument("--kind", choices=("f", "s"), default="f")
    p_eval.set_defaults(func=cmd_eval)

    p_inv = subs.add_parser("invariant",
                            help="closed-form invariant 1/p^2, or the ratio at --t")
    _add_param_flags(p_inv)
    p_inv.add_argument("--t", type=_float_flag, default=None)
    p_inv.set_defaults(func=cmd_invariant)

    p_table = subs.add_parser("table", help="exact rational four-point table")
    p_table.add_argument("--n-max", type=int, default=12)
    p_table.set_defaults(func=cmd_table)

    p_verify = subs.add_parser("verify", help="randomized invariant verification")
    p_verify.add_argument("--trials", type=int, default=1000)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--t-min", type=float, default=-20.0)
    p_verify.add_argument("--t-max", type=float, default=-10.0)
    p_verify.add_argument("--tol", type=float, default=1e-9)
    p_verify.set_defaults(func=cmd_verify)

    p_enc = subs.add_parser("encode", help="SIG1 -> STASC1 4-to-3 encoding")
    _add_param_flags(p_enc, p_only=True)
    p_enc.add_argument("--input", required=True)
    p_enc.add_argument("--output", required=True)
    p_enc.add_argument("--estimate", action="store_true",
                       help="estimate the invariant from the data")
    p_enc.set_defaults(func=cmd_encode)

    p_dec = subs.add_parser("decode", help="STASC1 -> SIG1 reconstruction")
    p_dec.add_argument("--input", required=True)
    p_dec.add_argument("--output", required=True)
    p_dec.set_defaults(func=cmd_decode)

    p_check = subs.add_parser("check", help="sliding-window integrity check")
    _add_param_flags(p_check, p_only=True)
    p_check.add_argument("--input", required=True)
    p_check.add_argument("--output", default=None)
    p_check.add_argument("--tol", type=float, default=core.ENCODE_TOL)
    p_check.add_argument("--estimate", action="store_true")
    p_check.add_argument("--repair", action="store_true",
                         help="rewrite implicated samples via the identity")
    p_check.set_defaults(func=cmd_check)

    p_fit = subs.add_parser("fit", help="recover (p, q1, q2, r1, r2) from a series")
    p_fit.add_argument("--input", required=True)
    p_fit.add_argument("--r-max", type=int, default=core.DEFAULT_R_MAX)
    p_fit.set_defaults(func=cmd_fit)

    return parser


def _guarded(command, args) -> int:
    """command(args), printing a StasError as `<Name>: <message>` and an
    OSError as `IOError: <message>` on stderr, with exit code 2."""
    try:
        return command(args)
    except StasError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
    except OSError as exc:
        print(f"IOError: {exc}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return _guarded(args.func, args)


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
