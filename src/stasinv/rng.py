"""Deterministic random number generation for reproducible experiments.

The generator is SplitMix64 (Steele, Lea & Flood's 64-bit mixer), chosen
because its state transition is a single 64-bit addition followed by a fixed
avalanche, so any implementation in any language reproduces the same stream
from the same seed:

    state <- (state + 0x9E3779B97F4A7C15) mod 2^64
    z <- state
    z <- (z XOR (z >> 30)) * 0xBF58476D1CE4E5B9 mod 2^64
    z <- (z XOR (z >> 27)) * 0x94D049BB133111EB mod 2^64
    output <- z XOR (z >> 31)

Doubles are produced as (output >> 11) * 2^-53, uniform on [0, 1).

Per-trial substreams are derived from (seed, index) alone so trials can be
evaluated in any order: the substream state is the mixed value of
(seed + (index + 1) * 0x9E3779B97F4A7C15) mod 2^64, i.e. the (index+1)-th
raw output of the root stream.

`verify`'s whole trial loop is here, in `verify_trials`.  It draws the trials
64 at a time: one int holds the 64 trials' substream states, 128 bits a lane,
and each addition, shift and multiply of the mixer runs on every lane at once
(`_lanes`).  Every output is the one that `next_u64` gives on the trial's own stream.
"""

from __future__ import annotations

import cmath
import math
import sys
from itertools import accumulate, chain, filterfalse, islice, repeat
from operator import add, mul, sub, truediv

from . import core
from .errors import DomainError

__all__ = ["SplitMix64"]

# The family members of verify's trials (README): the bounds of Re p, Im p, both
# parts of q1 and of q2, then of the odd r1 and r2.
P_RE_BOUNDS = (0.3, 1.0)
P_IM_BOUNDS = (-1.5, 1.5)
Q_BOUNDS = (-2.0, 2.0)
R_BOUNDS = (1, 15)

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_LANES = 64  # trials a batch
_LANE = 128  # bits a lane: a 64-bit state times a 64-bit constant fits in it
_ONES = sum(1 << _LANE * k for k in range(_LANES))  # 1 in every lane
_LANE_MASK = _MASK * _ONES  # the low 64 bits of every lane
_INDEX = sum(k << _LANE * k for k in range(_LANES))  # k in lane k
# each lane's low 64 bits as an unsigned 64-bit value, lane 0 first
_LOW = slice(None, None, _LANE // 64 if sys.byteorder == "little" else -_LANE // 64)


def _mix(z: int, mask: int = _MASK) -> int:
    """The avalanche on one state (mask 2^64 - 1) or on the lanes of `_lanes`
    (mask `_LANE_MASK`): the mask before each multiply clears the bits that a
    shift moved in from the next lane, and leaves a product that fits in its lane."""
    z = (z ^ (z >> 30) & mask) * 0xBF58476D1CE4E5B9 & mask
    z = (z ^ (z >> 27) & mask) * 0x94D049BB133111EB & mask
    return z ^ (z >> 31)


def _lanes(seed: int, first: int, count: int, draws: int) -> list:
    """The first `draws` outputs of the substreams of trials first .. first + count - 1,
    the first _LANES of them where count is larger, as `draws` columns in trial order:
    column j, row k is output j + 1 of SplitMix64.for_trial(seed, first + k).
    Trial first + k is lane k; the lanes past `count` are computed and dropped."""
    root = (seed + (first + 1) * _GAMMA) & _MASK
    state = _mix(root * _ONES + _GAMMA * _INDEX & _LANE_MASK, _LANE_MASK)
    step = _GAMMA * _ONES
    columns = []
    for _ in range(draws):
        state = state + step & _LANE_MASK
        z = _mix(state, _LANE_MASK).to_bytes(_LANES * _LANE // 8, sys.byteorder)
        columns.append(memoryview(z).cast("Q")[_LOW][:count])
    return columns


def _uniforms(outputs, lo: float, hi: float) -> list[float]:
    """A uniform double in [lo, hi] for each output: lo + u * (hi - lo), u its top 53
    bits scaled to [0, 1), where the rounded sum can reach hi."""
    span = hi - lo
    return [lo + (x >> 11) * 2.0**-53 * span for x in outputs]


def _odd_ints(outputs, lo: int, hi: int) -> list[int]:
    """A uniform odd integer in [lo, hi] for each output, by modulo selection."""
    odds = range(lo if lo % 2 else lo + 1, hi + 1, 2)
    return [odds[x % len(odds)] for x in outputs]


def _trial_params(draws) -> list:
    """The family members of verify's trials, one per row of `draws`, 8 columns of
    outputs: Re p, Im p, Re q1, Im q1, Re q2, Im q2, r1, r2.  Built by StasParams._of,
    as the draw bounds hold every check of StasParams: the parts are finite, r1 and r2
    odd ints, and p needs no redraw, as Re p >= 0.3 keeps it from 0 and far from the
    excluded -1: |1 + p| >= 1.3."""
    parts = [_uniforms(c, *b) for c, b in zip(draws, (P_RE_BOUNDS, P_IM_BOUNDS) + (Q_BOUNDS,) * 4)]
    return core.StasParams._of(*map(list, map(map, (complex,) * 3, parts[::2], parts[1::2])),
                               *(_odd_ints(c, *R_BOUNDS) for c in draws[6:8]))


def _flat_pass(members, ts, points: int, worst: float):
    """The trials of a batch, its t `points` a trial in a row, as _one_by_one yields
    them, bit for bit, from one core._powers pass over every trial's arguments t, t + 1,
    t + 2, t + 3 with one log p a trial, then a pass each for the pair sums, the ratios
    and the deviations.  None where that cannot give them so: an integer-valued argument
    (exact powering), a power or a pair sum past the float range, a zero denominator or
    a nan deviation (which max does not keep), each of which _one_by_one takes, or
    raises, at its own trial."""
    ps = [params.p for params in members]
    args = [0.0] * (4 * len(ts))
    args[0::4] = ts
    for j in 1, 2, 3:
        args[j::4] = map(add, ts, repeat(float(j)))
    logs = chain.from_iterable(map(repeat, map(cmath.log, ps), repeat(4 * points)))
    try:
        powers = core._powers(None, args, logs)
        if powers is None:
            return None
        sums = list(map(add, map(add, powers[0::2], powers[1::2]), repeat(0j)))  # num, den of each t
        if any(map(cmath.isinf, sums)):
            return None
        ratios = list(map(truediv, sums[0::2], sums[1::2]))
        a_s = list(map(truediv, repeat(1.0), map(mul, ps, ps)))
    except (DomainError, ZeroDivisionError):
        return None
    devs = [abs(ratio - a) / scale
            for a, scale, row in zip(a_s, map(abs, a_s), zip(*[iter(ratios)] * points)) for ratio in row]
    if (total := sum(devs)) != total:
        return None
    worsts = accumulate(map(max, zip(*[iter(devs)] * points)), max, initial=worst)
    next(worsts)
    return zip(members, a_s, map(list, zip(*[iter(zip(ts, ratios, devs))] * points)), worsts)


def _one_by_one(members, ts, points: int, worst: float):
    """The trials of a batch, its t `points` a trial in a row, one at a time: a from
    core.closed_form_invariant and each ratio from core.invariant_ratio, each as it is
    when the trial runs."""
    for params, k in zip(members, range(0, len(ts), points)):
        a = core.closed_form_invariant(params)
        scale = abs(a)
        ratios = list(map(core.invariant_ratio, repeat(params), row := ts[k:k + points]))
        devs = [abs(ratio - a) / scale for ratio in ratios]
        for dev in devs:
            if dev > worst or dev != dev:  # a nan stays: no dev compares above it
                worst = dev
        yield params, a, list(zip(row, ratios, devs)), worst


def verify_trials(seed: int, trials: int, t_min: float, t_max: float, points: int = 5):
    """The trials of `stasinv verify`: per trial, the family member _trial_params draws
    from the first 8 outputs of SplitMix64.for_trial(seed, trial), then the ratio at
    `points` t uniform in [t_min, t_max], each redrawn while in EXCLUDED_T.  Yields,
    per trial, (params, a, [(t, ratio, dev), ...], worst): a = 1/p^2,
    dev = |ratio - a| / |a|, worst the running maximum dev, nan once any is nan.
    The first 8 + points outputs of each trial come from _lanes, a batch at a time, and
    a batch's members and t are built before its first trial is yielded; only a t in
    EXCLUDED_T takes the trial's own stream past them.  A batch's trials come from
    _flat_pass, one p^t pass for all of them, or, where it cannot give them exactly,
    from _one_by_one, one trial at a time, which raises a failing trial's error after
    yielding the trials before it.
    """
    if trials < 1:
        raise DomainError(f"--trials must be >= 1, got {trials}")
    if points < 1:
        raise DomainError(f"--points must be >= 1, got {points}")
    # A positive, finite span also rules out a nan or infinite bound.
    if not 0.0 < t_max - t_min < math.inf:
        raise DomainError(f"need --t-min < --t-max with a finite span, got {t_min}, {t_max}")
    excluded = core._EXCLUDED
    worst = 0.0
    for first in range(0, trials, _LANES):
        draws = _lanes(seed, first, trials - first, 8 + points)
        members = _trial_params(draws)
        ts = [0.0] * (len(members) * points)  # trial k's t from k * points on
        for j, column in enumerate(draws[8:]):
            ts[j::points] = _uniforms(column, t_min, t_max)
        if not excluded.isdisjoint(ts):
            for k in range(0, len(ts), points):  # the trial's t again, each redrawn while excluded
                if not excluded.isdisjoint(ts[k:k + points]):
                    stream = SplitMix64.for_trial(seed, first + k // points)
                    us = map(stream.uniform, repeat(t_min), repeat(t_max))
                    ts[k:k + points] = islice(filterfalse(excluded.__contains__, islice(us, 8, None)), points)
        for trial in _flat_pass(members, ts, points, worst) or _one_by_one(members, ts, points, worst):
            yield trial
        worst = trial[3]


class SplitMix64:
    """SplitMix64 stream over 64-bit outputs and derived uniform doubles."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    @classmethod
    def for_trial(cls, seed: int, index: int) -> "SplitMix64":
        """Independent substream for one trial, a pure function of (seed, index)."""
        if index < 0:
            raise DomainError("trial index must be non-negative")
        return cls(_mix((seed + (index + 1) * _GAMMA) & _MASK))

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        return _mix(self._state)

    def uniform(self, lo: float, hi: float) -> float:
        """Uniform double in [lo, hi], as _uniforms draws it."""
        return _uniforms((self.next_u64(),), lo, hi)[0]
