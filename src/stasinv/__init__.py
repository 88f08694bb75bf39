"""Four-point invariant signal family.

Exponential-plus-oscillatory signals f(t) = p^t + q1*sin(r1*pi*t) +
q2*cos(r2*pi*t) with odd r1, r2 satisfy (f(t)+f(t+1)) / (f(t+2)+f(t+3)) =
1/p^2 identically.  This package provides exact discrete verification of the
underlying rational identities, real/complex evaluation, missing-sample
reconstruction, a 4-to-3 block codec with sliding-window integrity checking,
and parameter recovery from sampled data.
"""

from importlib import import_module

__version__ = "0.1.0"

_MODULES = ("errors", "rng", "core", "reconstruct", "codec", "estimator")


def __getattr__(name: str):
    """PEP 562: a submodule's name (`from stasinv import cli` asks for cli's first) loads it
    alone; a public name loads _MODULES, each after its imports, until one lists it in __all__."""
    if name in _MODULES or name == "cli":
        return import_module(f"{__name__}.{name}")
    modules = (import_module(f"{__name__}.{m}") for m in _MODULES)
    if name == "__all__":
        return [n for module in modules for n in module.__all__]
    for module in modules:
        if name in module.__all__:
            return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
