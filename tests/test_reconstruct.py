"""Missing-sample recovery from the four-point identity."""

from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from stasinv import (
    ContractViolation,
    DegenerateParameter,
    Window,
    closed_form_invariant,
    predict_next,
    recover_missing,
    sample_series,
    seq_a,
)
from stasinv.rng import SplitMix64

from conftest import complexes, draw_params, params_st

# weighted samples of the base sequence: g(n) = n * a_n = (1/2)^n + (-1)^n
G14 = (-0.5, 1.25, -0.875, 1.0625)


class TestWindow:
    def test_needs_four_slots(self):
        with pytest.raises(ContractViolation):
            Window((1, 2, None), missing=2)

    def test_missing_index_range(self):
        with pytest.raises(ContractViolation):
            Window((1, 2, 3, 4), missing=4)

    def test_extra_empty_slot_rejected(self):
        with pytest.raises(ContractViolation):
            Window((None, None, 3, 4), missing=0)


class TestRecoverMissing:
    def test_recover_final_slot(self):
        w = Window((-0.5, 1.25, -0.875, None), missing=3)
        assert recover_missing(w, 4.0) == 1.0625

    def test_recover_first_slot(self):
        w = Window((None, 1.25, -0.875, 1.0625), missing=0)
        assert recover_missing(w, 4.0) == -0.5

    def test_zero_window(self):
        w = Window((0, 0, 0, None), missing=3)
        assert recover_missing(w, 7.0) == 0

    @pytest.mark.parametrize("m", [2, 3])
    def test_zero_invariant_rejected_for_late_slots(self, m):
        slots = [None if i == m else 1.0 for i in range(4)]
        with pytest.raises(DegenerateParameter):
            recover_missing(Window(tuple(slots), missing=m), 0.0)

    @pytest.mark.parametrize("m", [0, 1])
    def test_zero_invariant_fine_for_early_slots(self, m):
        slots = [None if i == m else 1.0 for i in range(4)]
        assert recover_missing(Window(tuple(slots), missing=m), 0.0) == -1.0

    def test_exact_on_rational_windows(self):
        a = Fraction(4)
        for n in range(1, 50):
            g = tuple(k * seq_a(k) for k in range(n, n + 4))
            for m in range(4):
                slots = tuple(None if i == m else g[i] for i in range(4))
                assert recover_missing(Window(slots, missing=m), a) == g[m]

    @given(params_st, st.floats(-10, 10, allow_nan=False), st.integers(0, 3))
    def test_round_trip_on_generated_windows(self, params, t, m):
        g = sample_series(params, t, 4).values
        scale = max(abs(v) for v in g)
        assume(abs(g[m]) > 1e-6 * scale)
        a = closed_form_invariant(params)
        slots = tuple(None if i == m else g[i] for i in range(4))
        rec = recover_missing(Window(slots, missing=m), a)
        assert abs(rec - g[m]) / abs(g[m]) < 1e-9

    @given(complexes(-2, 2, -2, 2), complexes(-2, 2, -2, 2),
           complexes(-2, 2, -2, 2), complexes(-2, 2, -2, 2))
    def test_linear_in_each_known_slot(self, g1, g2, g3, delta):
        a = 2.5 - 1.5j
        base = recover_missing(Window((None, g1, g2, g3), missing=0), a)
        bumped = recover_missing(Window((None, g1 + delta, g2, g3), missing=0), a)
        # slot 1 enters with coefficient -1
        assert abs((bumped - base) + delta) < 1e-12 * (1 + abs(delta))


class TestPredictNext:
    def test_base_sequence_step(self):
        assert predict_next(-0.5, 1.25, -0.875, 4.0) == 1.0625

    def test_unit_invariant(self):
        assert predict_next(1.0, 1.0, 0.0, 1.0) == 2.0

    def test_zero_invariant_rejected(self):
        with pytest.raises(DegenerateParameter):
            predict_next(1.0, 1.0, 0.0, 0.0)

    @given(params_st, st.integers(0, 3))
    def test_matches_recover_missing_bitwise(self, params, m_unused):
        g = sample_series(params, 0.5, 4).values
        a = closed_form_invariant(params)
        via_window = recover_missing(Window((g[0], g[1], g[2], None), missing=3), a)
        assert predict_next(g[0], g[1], g[2], a) == via_window

    def test_streaming_prediction(self):
        for trial in range(30):
            rng = SplitMix64.for_trial(21, trial)
            params = draw_params(rng)
            series = sample_series(params, rng.uniform(-8.0, 4.0), 12)
            a = closed_form_invariant(params)
            g = series.values
            scale = max(abs(v) for v in g)
            for i in range(len(g) - 3):
                predicted = predict_next(g[i], g[i + 1], g[i + 2], a)
                if abs(g[i + 3]) > 1e-6 * scale:
                    assert abs(predicted - g[i + 3]) / abs(g[i + 3]) < 1e-9
