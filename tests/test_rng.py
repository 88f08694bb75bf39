"""Determinism and distribution sanity of the SplitMix64 generator."""

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from stasinv import StasParams
from stasinv.errors import DomainError
from stasinv.rng import SplitMix64, _lanes, _odd_ints

from conftest import draw_params


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
    for r in _odd_ints([rng.next_u64() for _ in range(10)], 1, 15):
        assert 1 <= r <= 15 and r % 2 == 1


SEED0_FIRST = 16294208416658607535  # the first output of seed 0, pinned above


def test_trial_stream_starts_from_the_root_streams_output():
    # the substream of trial i is seeded with the (i+1)-th raw output of the root stream
    root = SplitMix64(7)
    for i in range(4):
        assert SplitMix64.for_trial(7, i).next_u64() == SplitMix64(root.next_u64()).next_u64()
    assert SplitMix64.for_trial(0, 0).next_u64() == SplitMix64(SEED0_FIRST).next_u64()


def test_uniform_is_the_top_53_bits():
    assert SplitMix64(0).uniform(0.0, 1.0) == (SEED0_FIRST >> 11) * 2.0 ** -53
    assert SplitMix64(0).uniform(-3.0, 7.0) == -3.0 + (SEED0_FIRST >> 11) * 2.0 ** -53 * 10.0


@given(st.integers(0, 2**64 - 1), st.integers(-20, 20), st.integers(0, 20))
@example(0, 1, 2)  # seed 0 draws index 1 of [1, 3]: the upper bound itself
@example(0, 1, 13)  # an even upper bound: 15 is outside [1, 14]
def test_odd_int_draws_by_modulo_over_the_odd_integers(seed, lo, width):
    hi = lo + width
    odds = [r for r in range(lo, hi + 1) if r % 2]
    assume(odds)  # verify's one range, R_BOUNDS, holds odd integers
    x = SplitMix64(seed).next_u64()
    assert _odd_ints([x], lo, hi) == [odds[x % len(odds)]]


@given(st.integers(-2**65, 2**65), st.integers(0, 2**64), st.integers(1, 64), st.integers(0, 12))
@example(2**64 - 1, 2**64 - 64, 64, 3)  # every lane full, the root states wrap past 2^64
@example(0, 0, 1, 1)
def test_lanes_give_each_trials_scalar_outputs(seed, first, count, draws):
    columns = _lanes(seed, first, count, draws)
    assert [len(column) for column in columns] == [count] * draws
    for k in range(count):
        rng = SplitMix64.for_trial(seed, first + k)
        assert [column[k] for column in columns] == [rng.next_u64() for _ in range(draws)]


# (seed, trial, r_hi, q_min), the outputs draw_params takes, and the member it gives
DRAWN = [
    ((11, 0, 15, 0.0), 8, StasParams(p=0.6992151382933496 - 0.6999727923956057j,
                                     q1=-1.2197358196212642 + 1.2913833362799294j,
                                     q2=-0.06373763956135159 - 1.8324143740426084j, r1=3, r2=11)),
    ((5, 2, 9, 0.1), 8, StasParams(p=0.539894029779293 + 0.3772757485508822j,
                                   q1=-1.4754077493311364 - 1.9130710036353094j,
                                   q2=1.0632773144519265 - 1.3751920519915148j, r1=7, r2=5)),
    ((0, 2, 9, 1.5), 16, StasParams(p=0.9512012246974748 + 0.941616495669714j,
                                    q1=-1.8102757019722375 + 1.2699700483006806j,
                                    q2=-0.04566259952628471 - 1.5404508247535817j, r1=7, r2=9)),
    ((7, 5, 3, 2.2), 42, StasParams(p=0.6020573136222678 - 1.3775429319198154j,
                                    q1=-1.9740328590591547 + 1.0711703956490166j,
                                    q2=1.4992529421155805 - 1.9367873901547354j, r1=3, r2=1)),
]


@pytest.mark.parametrize("case, outputs, member", DRAWN)
def test_draw_params_gives_its_pinned_members(case, outputs, member):
    # the tests' data: the members, and the outputs taken with the redraws of q
    seed, trial, r_hi, q_min = case
    rng = SplitMix64.for_trial(seed, trial)
    assert repr(draw_params(rng, r_hi, q_min)) == repr(member)
    after = SplitMix64.for_trial(seed, trial)
    for _ in range(outputs):
        after.next_u64()
    assert rng.next_u64() == after.next_u64()
