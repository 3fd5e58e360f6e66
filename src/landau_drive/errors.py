"""Exception and warning types shared across the package."""

__all__ = [
    "AccuracyError",
    "ConfigError",
    "DomainError",
    "TruncationError",
    "TruncationWarning",
]


class DomainError(ValueError):
    """Evaluation requested outside a waveform's time domain."""


class AccuracyError(RuntimeError):
    """A numerical routine could not reach the requested tolerance.

    Carries the achieved error estimate in ``achieved`` when known.
    """

    def __init__(self, message: str, achieved: float | None = None):
        super().__init__(message)
        self.achieved = achieved


class TruncationError(RuntimeError):
    """An index or state reached the unhealthy edge of a truncated basis."""


class TruncationWarning(UserWarning):
    """The truncated basis is too small for the requested amplitude."""


class ConfigError(ValueError):
    """Invalid run configuration; message names the offending field."""
