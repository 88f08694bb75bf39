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

import math
import sys
from itertools import filterfalse, islice, repeat

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
    """A uniform double in [lo, hi) for each output: its top 53 bits, scaled."""
    span = hi - lo
    return [lo + (x >> 11) * 2.0**-53 * span for x in outputs]


def _odd_ints(outputs, lo: int, hi: int) -> list[int]:
    """A uniform odd integer in [lo, hi] for each output, by modulo selection."""
    odds = range(lo if lo % 2 else lo + 1, hi + 1, 2)
    return [odds[x % len(odds)] for x in outputs]


def _trial_params(draws):
    """The family members of verify's trials, one per row of `draws`, 8 columns of
    outputs: Re p, Im p, Re q1, Im q1, Re q2, Im q2, r1, r2.  p needs no redraw, as
    Re p >= 0.3 keeps it far from the excluded -1: |1 + p| >= 1.3."""
    parts = [_uniforms(c, *b) for c, b in zip(draws, (P_RE_BOUNDS, P_IM_BOUNDS) + (Q_BOUNDS,) * 4)]
    p, q1, q2 = map(map, (complex,) * 3, parts[::2], parts[1::2])
    return map(core.StasParams, p, q1, q2, *(_odd_ints(c, *R_BOUNDS) for c in draws[6:8]))


def verify_trials(seed: int, trials: int, t_min: float, t_max: float, points: int = 5):
    """The trials of `stasinv verify`: per trial, the family member _trial_params draws
    from the first 8 outputs of SplitMix64.for_trial(seed, trial), then the ratio at
    `points` t uniform in [t_min, t_max), each redrawn while in EXCLUDED_T.  Yields,
    per trial, (params, a, [(t, ratio, dev), ...], worst): a = 1/p^2,
    dev = |ratio - a| / |a|, worst the running maximum dev, nan once any is nan.
    The first 8 + points outputs of each trial come from _lanes, a batch at a time;
    only a t in EXCLUDED_T takes the trial's own stream past them.  a and each ratio
    come from core's functions as they are when the trial runs, replaced ones included.
    """
    if trials < 1:
        raise DomainError(f"--trials must be >= 1, got {trials}")
    if points < 1:
        raise DomainError(f"--points must be >= 1, got {points}")
    # A positive, finite span also rules out a nan or infinite bound.
    if not 0.0 < t_max - t_min < math.inf:
        raise DomainError(f"need --t-min < --t-max with a finite span, got {t_min}, {t_max}")
    excluded = frozenset(core.EXCLUDED_T)
    worst = 0.0
    for first in range(0, trials, _LANES):
        draws = _lanes(seed, first, trials - first, 8 + points)
        t_rows = zip(*(_uniforms(c, t_min, t_max) for c in draws[8:]))
        for trial, params, ts in zip(range(first, trials), _trial_params(draws), t_rows):
            if not excluded.isdisjoint(ts):  # the trial's t again, each redrawn while excluded
                us = map(SplitMix64.for_trial(seed, trial).uniform, repeat(t_min), repeat(t_max))
                ts = list(islice(filterfalse(excluded.__contains__, islice(us, 8, None)), points))
            a = core.closed_form_invariant(params)
            rows = []
            for t in ts:
                ratio = core.invariant_ratio(params, t)
                dev = abs(ratio - a) / abs(a)
                # max() keeps a nan first argument but drops a nan second one
                worst = dev if math.isnan(dev) else max(worst, dev)
                rows.append((t, ratio, dev))
            yield params, a, rows, worst


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
        """Uniform double in [lo, hi)."""
        return _uniforms((self.next_u64(),), lo, hi)[0]
