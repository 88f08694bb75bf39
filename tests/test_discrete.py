"""Exact rational sequence, recurrence, and four-term identity."""

import pytest
from fractions import Fraction
from hypothesis import given
from hypothesis import strategies as st

from stasinv import DomainError, four_term_residual, recurrence_next, seq_a

from _reference import ref_seq


class TestSeqA:
    @pytest.mark.parametrize("n,expected", [
        (1, Fraction(-1, 2)),
        (3, Fraction(-7, 24)),
        (4, Fraction(17, 64)),
    ])
    def test_examples(self, n, expected):
        assert seq_a(n) == expected

    def test_rejects_non_positive(self):
        with pytest.raises(DomainError):
            seq_a(0)

    @given(st.integers(1, 300))
    def test_matches_reference_formula(self, n):
        assert seq_a(n) == ref_seq(n)


class TestRecurrence:
    @pytest.mark.parametrize("n,a_prev2,expected", [
        (3, Fraction(-1, 2), Fraction(-7, 24)),
        (4, Fraction(5, 8), Fraction(17, 64)),
    ])
    def test_examples(self, n, a_prev2, expected):
        assert recurrence_next(n, a_prev2) == expected

    def test_integer_input_is_exact(self):
        # an int a_{n-2}: the division must stay exact, not round through a float
        assert recurrence_next(3, 1) == Fraction(-1, 6)

    def test_rejects_n_below_3(self):
        with pytest.raises(DomainError):
            recurrence_next(2, Fraction(1))

    def test_consistent_with_sequence_up_to_256(self):
        for n in range(3, 257):
            assert recurrence_next(n, seq_a(n - 2)) == seq_a(n)

    @given(st.integers(3, 400))
    def test_consistency_property(self, n):
        assert recurrence_next(n, seq_a(n - 2)) == seq_a(n)


class TestFourTermIdentity:
    @pytest.mark.parametrize("n", [4, 5, 64])
    def test_examples_are_exactly_zero(self, n):
        r = four_term_residual(n)
        assert (r.numerator, r.denominator) == (0, 1)

    def test_rejects_n_below_4(self):
        with pytest.raises(DomainError):
            four_term_residual(3)

    def test_zero_up_to_256(self):
        for n in range(4, 257):
            assert four_term_residual(n) == 0

    @given(st.integers(4, 400))
    def test_zero_property(self, n):
        assert four_term_residual(n) == 0
