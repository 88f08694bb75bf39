"""Library fuzzing: each public series operation, on any finite series, either
returns or raises a StasError; no other exception escapes.  An invariant
estimate that is returned is finite."""

import cmath
import copy
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stasinv import (
    SampleSeries,
    StasError,
    detect_errors,
    disambiguate_p,
    encode_stream,
    estimate_invariant,
    fit_series,
    fit_trig,
    repair_samples,
    search_frequencies,
)

# Half of the exponents fall in the band where two equal parts sum past the
# float range while a sample with both parts there keeps a finite modulus.
exponents = st.floats(-300.0, math.log10(1.7e308)) | st.floats(307.96, 308.1)


@st.composite
def series_st(draw):
    """0..40 samples at step 1, 1/2, 1/8 or 0.3, whose parts have either sign and
    magnitudes log-uniform on [1e-300, 1.7e308], or in the overflow band above:
    one magnitude each or, so that sums of large samples overflow often, one
    shared by the whole series."""
    shared = draw(st.none() | exponents)
    exponent = exponents if shared is None else st.just(shared)
    part = st.builds(lambda e, negative: -(10.0 ** e) if negative else 10.0 ** e,
                     exponent, st.booleans())
    values = draw(st.lists(st.builds(complex, part, part), max_size=40))
    return SampleSeries(draw(st.sampled_from([-3.5, 0.1, 1.0])), tuple(values),
                        draw(st.sampled_from([1.0, 0.5, 0.125, 0.3])))


def _invariant(series, a):
    """a, or for "report" the series' own estimate_invariant report and for "copy" a
    copy of it, which holds no bound."""
    if a not in ("report", "copy"):
        return a
    report = estimate_invariant(series)
    return report if a == "report" else copy.copy(report)


OPERATIONS = {
    "estimate_invariant": lambda s, a, p: estimate_invariant(s),
    "detect_errors": lambda s, a, p: detect_errors(s, _invariant(s, a), 1e-6),
    "encode_stream": lambda s, a, p: encode_stream(s, _invariant(s, a)),
    "repair_samples": lambda s, a, p: repair_samples(s, range(len(s)), _invariant(s, a)),
    "disambiguate_p": lambda s, a, p: disambiguate_p(s),
    "fit_trig": lambda s, a, p: fit_trig(s, p, 3, 5),
    "search_frequencies": lambda s, a, p: search_frequencies(s, p, 7),
    "fit_series": lambda s, a, p: fit_series(s),
}


@pytest.mark.parametrize("name", OPERATIONS)
@settings(max_examples=100, deadline=None)
@given(series=series_st(),
       a=st.sampled_from([4.0, 1 - 1j, 1e-300, 1e300, "report", "copy"]),
       p=st.sampled_from([0.5, 0.7 + 0.4j, 1e-3, 30.0]))
# step 1/2 below 4m = 8 samples: samples 1, 3 and 5 are in no window
@example(series=SampleSeries(1.0, (1, 2, 3, 4, 5, 6, 7), step=0.5), a=4.0, p=0.5)
@example(series=SampleSeries(1.0, (1, 2, 3, 4, 5)), a="report", p=0.5)
def test_raises_only_stas_errors(name, series, a, p):
    try:
        result = OPERATIONS[name](series, a, p)
    except StasError:
        return
    if name == "estimate_invariant":
        assert cmath.isfinite(result.a_hat) and math.isfinite(result.max_rel_dev), result
