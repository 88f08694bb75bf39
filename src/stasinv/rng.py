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
"""

from __future__ import annotations

from .errors import DomainError

__all__ = ["SplitMix64"]

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


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
        u = (self.next_u64() >> 11) * 2.0**-53
        return lo + u * (hi - lo)

    def uniform_complex(self, re_lo: float, re_hi: float,
                        im_lo: float, im_hi: float) -> complex:
        """Complex with independent uniform real and imaginary parts (real drawn first)."""
        re = self.uniform(re_lo, re_hi)
        im = self.uniform(im_lo, im_hi)
        return complex(re, im)

    def odd_int(self, lo: int, hi: int) -> int:
        """Uniform odd integer in [lo, hi] (draws one u64; modulo selection)."""
        odds = range(lo if lo % 2 else lo + 1, hi + 1, 2)
        if len(odds) == 0:
            raise DomainError(f"no odd integers in [{lo}, {hi}]")
        return odds[self.next_u64() % len(odds)]
