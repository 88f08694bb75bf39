"""Determinism and distribution sanity of the SplitMix64 generator."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from stasinv.errors import DomainError
from stasinv.rng import SplitMix64


def test_stream_is_deterministic():
    a = SplitMix64(12345)
    b = SplitMix64(12345)
    assert [a.next_u64() for _ in range(16)] == [b.next_u64() for _ in range(16)]


def test_first_outputs_pinned():
    # published SplitMix64 reference outputs for seed 0:
    # 0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        16294208416658607535,
        7960286522194355700,
        487617019471545679,
    ]


def test_trial_streams_independent_of_call_order():
    direct = SplitMix64.for_trial(9, 7).next_u64()
    SplitMix64.for_trial(9, 3).next_u64()
    again = SplitMix64.for_trial(9, 7).next_u64()
    assert direct == again


def test_trial_streams_differ():
    outs = {SplitMix64.for_trial(0, i).next_u64() for i in range(100)}
    assert len(outs) == 100


def test_negative_trial_index_rejected():
    with pytest.raises(DomainError):
        SplitMix64.for_trial(0, -1)


@given(st.integers(0, 2**64 - 1))
def test_uniform_in_range(seed):
    rng = SplitMix64(seed)
    for _ in range(10):
        u = rng.uniform(-3.0, 7.0)
        assert -3.0 <= u < 7.0


@given(st.integers(0, 2**64 - 1))
def test_odd_int_is_odd_and_bounded(seed):
    rng = SplitMix64(seed)
    for _ in range(10):
        r = rng.odd_int(1, 15)
        assert 1 <= r <= 15 and r % 2 == 1


def test_odd_int_empty_range_rejected():
    with pytest.raises(DomainError):
        SplitMix64(0).odd_int(2, 2)


def test_uniform_complex_draw_order():
    # real part drawn first, then imaginary: matches two scalar draws
    a = SplitMix64(42)
    b = SplitMix64(42)
    z = a.uniform_complex(0.0, 1.0, 2.0, 3.0)
    assert z == complex(b.uniform(0.0, 1.0), b.uniform(2.0, 3.0))
