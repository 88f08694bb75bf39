"""Recovery of a single missing weighted sample from the four-point identity.

A complete window (g0, g1, g2, g3), weighted samples one unit of t apart
(i, i+m, i+2m, i+3m on a grid of step 1/m), satisfies g0 + g1 = a*(g2 + g3).
That one linear equation determines any single unknown slot from the other
three; the solver inverts it exactly, so exact input types (e.g. Fraction)
pass through without rounding.
"""

from __future__ import annotations

from .core import _Record
from .errors import ContractViolation, DegenerateParameter

__all__ = ["Window", "recover_missing", "predict_next"]


class Window(_Record):
    """The four weighted samples of a window, one of them marked missing.

    `g` holds the slot values; the slot at index `missing` (0..3) is the
    unknown and its entry is ignored (conventionally None).  All other slots
    must be present.
    """

    __slots__ = ("g", "missing")

    def __init__(self, g: tuple, missing: int):
        g = tuple(g)
        if len(g) != 4:
            raise ContractViolation(f"window needs exactly 4 slots, got {len(g)}")
        if missing not in (0, 1, 2, 3):
            raise ContractViolation(f"missing index must be in 0..3, got {missing}")
        holes = [i for i, v in enumerate(g) if v is None]
        if any(i != missing for i in holes):
            raise ContractViolation(
                f"empty slots {holes} but only index {missing} is marked missing")
        super().__init__(g, missing)


def recover_missing(window: Window, a):
    """Solve g0 + g1 = a*(g2 + g3) for the single missing slot.

    Missing slot 0 or 1 needs no division; slots 2 and 3 divide by a (see
    predict_next), so a = 0 is rejected there.  Arithmetic stays in the input
    number types.
    """
    m = window.missing
    g = window.g
    if m < 2:
        return a * (g[2] + g[3]) - g[1 - m]
    return predict_next(g[0], g[1], g[5 - m], a)


def predict_next(g0, g1, g2, a):
    """Next weighted sample after (g0, g1, g2): (g0 + g1)/a - g2.

    recover_missing solves either of a window's last two slots with it.
    """
    if a == 0:
        raise DegenerateParameter("a = 0 cannot determine slots 2 or 3")
    return (g0 + g1) / a - g2
