"""Exception types shared across the package."""

from __future__ import annotations

__all__ = ["StasError", "DomainError", "SingularWindow", "NoValidWindows",
           "DegenerateParameter", "ContractViolation", "IdentityViolation",
           "FormatError", "IllConditioned"]


class StasError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(StasError):
    """An argument lies outside the mathematical domain of the operation."""


class SingularWindow(StasError):
    """A four-point window has an exactly zero denominator sum."""


class NoValidWindows(StasError):
    """No window survived filtering (too few samples or all skipped)."""


class DegenerateParameter(StasError):
    """A parameter value (typically a = 0) makes the operation undefined."""


class ContractViolation(StasError):
    """A structural precondition was violated (e.g. wrong missing-slot count)."""


class IdentityViolation(StasError):
    """A block fails the four-point identity check during encoding."""

    def __init__(self, block_index: int, residual: float):
        self.block_index = block_index
        self.residual = residual
        super().__init__(
            f"block {block_index} violates the four-point identity "
            f"(residual {residual:.3e})"
        )


class FormatError(StasError):
    """A serialized stream or file does not conform to its format."""


class IllConditioned(StasError):
    """A least-squares system is too ill-conditioned to solve reliably."""
