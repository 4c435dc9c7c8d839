"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "QtstError", "UnitCompatibilityError", "DomainError", "DivergentIntegralError",
    "BelowCrossoverError", "SolverConvergenceError", "FitConvergenceError",
]


class QtstError(Exception):
    """Base class for every library-specific error."""


class UnitCompatibilityError(QtstError, ValueError):
    """Raised when a conversion is requested between incompatible units."""

    def __init__(self, source, target):
        self.source = source
        self.target = target
        super().__init__(
            f"cannot convert {source.value!r} to {target.value!r}: "
            "units are dimensionally incompatible"
        )


class DomainError(QtstError, ValueError):
    """An input lies outside the mathematical domain of an operation."""


class DivergentIntegralError(DomainError):
    """The requested spectral integral does not converge."""


class BelowCrossoverError(DomainError):
    """Temperature at or below the tunneling crossover temperature.

    The high-temperature rate expressions are only defined above the
    crossover; callers that sweep temperature grids catch this per row.
    """

    def __init__(self, temperature, crossover, label=None):
        self.temperature = temperature
        self.crossover = crossover
        self.label = label
        who = f" ({label})" if label else ""
        super().__init__(
            f"T = {temperature:g} K is not above the crossover temperature "
            f"T0 = {crossover:g} K{who}"
        )


class SolverConvergenceError(QtstError, RuntimeError):
    """A root solve failed to converge; carries the final bracket."""

    def __init__(self, message, bracket=None):
        self.bracket = bracket
        if bracket is not None:
            message = f"{message} (final bracket: [{bracket[0]:g}, {bracket[1]:g}])"
        super().__init__(message)


class FitConvergenceError(QtstError, RuntimeError):
    """Nonlinear fitting failed (no convergent start, or unusable data)."""
