"""Four-point invariant signal family.

Exponential-plus-oscillatory signals f(t) = p^t + q1*sin(r1*pi*t) +
q2*cos(r2*pi*t) with odd r1, r2 satisfy (f(t)+f(t+1)) / (f(t+2)+f(t+3)) =
1/p^2 identically.  This package provides exact discrete verification of the
underlying rational identities, real/complex evaluation, missing-sample
reconstruction, a 4-to-3 block codec with sliding-window integrity checking,
and parameter recovery from sampled data.
"""

from .codec import (
    EncodedStream,
    IntegrityFinding,
    decode_stream,
    detect_errors,
    dump_sig1,
    dump_stasc1,
    encode_stream,
    load_sig1,
    load_stasc1,
    repair_samples,
)
from .core import (
    InvariantReport,
    Rational,
    SampleSeries,
    StasParams,
    closed_form_invariant,
    estimate_invariant,
    eval_f,
    eval_s,
    four_term_residual,
    invariant_ratio,
    recurrence_next,
    sample_series,
    seq_a,
)
from .errors import (
    ContractViolation,
    DegenerateParameter,
    DomainError,
    FormatError,
    IdentityViolation,
    IllConditioned,
    NoValidWindows,
    SingularWindow,
    StasError,
)
from .estimator import (
    FitResult,
    disambiguate_p,
    fit_series,
    fit_trig,
    recover_p,
    search_frequencies,
)
from .reconstruct import Window, predict_next, recover_missing
from .rng import SplitMix64

__version__ = "0.1.0"

__all__ = [
    "StasParams", "Rational", "SampleSeries", "InvariantReport",
    "eval_f", "eval_s", "invariant_ratio", "closed_form_invariant",
    "seq_a", "recurrence_next", "four_term_residual",
    "sample_series", "estimate_invariant",
    "Window", "recover_missing", "predict_next",
    "EncodedStream", "IntegrityFinding",
    "encode_stream", "decode_stream", "detect_errors", "repair_samples",
    "dump_sig1", "load_sig1", "dump_stasc1", "load_stasc1",
    "FitResult", "recover_p", "disambiguate_p", "fit_trig",
    "search_frequencies", "fit_series",
    "SplitMix64",
    "StasError", "DomainError", "SingularWindow", "NoValidWindows",
    "DegenerateParameter", "ContractViolation", "IdentityViolation",
    "FormatError", "IllConditioned",
]
