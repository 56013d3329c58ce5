"""Exception hierarchy for spincat.

All package-level failures derive from :class:`SpinCatError` so callers can
catch one base class.  Configuration problems and numeric problems are kept
separate because the command-line layer maps them to different exit codes.
An error raised inside a stage of a scenario run carries the stage's name
in ``operation``.
"""

from __future__ import annotations

__all__ = [
    "SpinCatError",
    "DomainError",
    "UsageError",
    "NumericError",
    "KernelDivergenceError",
    "WidthUndefinedError",
    "NoFormationError",
    "ConfigError",
]


class SpinCatError(Exception):
    """Base class for all spincat errors.

    ``operation`` names the stage of a scenario run in which the error was
    raised ("kernel tabulation", "formation-time solve", "formation
    assessment" or "snapshot evolution"), and is ``None`` for an error
    raised outside every stage.  The command-line layer prints it with a
    numeric failure.
    """

    operation: str | None = None


class DomainError(SpinCatError, ValueError):
    """An argument lies outside the mathematical domain of an operation
    (negative frequency, non-increasing grid, invalid angles, ...)."""


class UsageError(SpinCatError, ValueError):
    """Objects were combined inconsistently (sector mismatch, wrong basis,
    coherent state requested outside the symmetric sector, ...)."""


class NumericError(SpinCatError, ArithmeticError):
    """A numeric procedure failed to deliver its accuracy contract.

    Attributes carry whatever partial information was achieved so callers
    can report diagnostics instead of a bare failure.
    """

    def __init__(self, message: str, *, estimate: float | None = None,
                 error_bound: float | None = None):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


class KernelDivergenceError(NumericError):
    """The requested kernel integral diverges (e.g. a finite-temperature
    spectrum with nonzero weight at zero frequency makes the dephasing
    integral logarithmically divergent at the infrared end)."""


class WidthUndefinedError(NumericError):
    """The spectrum has no well-defined half-maximum width (flat, all-zero
    or otherwise degenerate), so no correlation time can be assigned."""


class NoFormationError(NumericError):
    """The twisting phase never reaches the superposition threshold within
    the search horizon.  ``estimate`` holds the achieved supremum of the
    accumulated phase."""


class ConfigError(SpinCatError, ValueError):
    """A scenario configuration failed validation.  ``field`` holds a
    dotted path to the offending entry."""

    def __init__(self, message: str, *, field: str = ""):
        super().__init__(f"{field}: {message}" if field else message)
        self.field = field
