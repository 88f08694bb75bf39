"""The package's public names: each module's __all__ is the only list of them."""

import stasinv

PUBLIC = {
    "StasParams", "SampleSeries", "InvariantReport",
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
}


def test_exports_exactly_the_public_names():
    assert len(stasinv.__all__) == len(PUBLIC) == 41
    assert set(stasinv.__all__) == PUBLIC
    for name in stasinv.__all__:
        assert getattr(stasinv, name) is not None
