"""Four-point invariant signal family.

Exponential-plus-oscillatory signals f(t) = p^t + q1*sin(r1*pi*t) +
q2*cos(r2*pi*t) with odd r1, r2 satisfy (f(t)+f(t+1)) / (f(t+2)+f(t+3)) =
1/p^2 identically.  This package provides exact discrete verification of the
underlying rational identities, real/complex evaluation, missing-sample
reconstruction, a 4-to-3 block codec with sliding-window integrity checking,
and parameter recovery from sampled data.
"""

from . import codec, core, errors, estimator, reconstruct, rng
from .codec import *
from .core import *
from .errors import *
from .estimator import *
from .reconstruct import *
from .rng import *

__version__ = "0.1.0"

__all__ = [name for module in (core, reconstruct, codec, estimator, rng, errors)
           for name in module.__all__]
