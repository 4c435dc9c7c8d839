"""Exception types shared across the package, the one input check that
raises them, and the one reader of input tables."""

from __future__ import annotations

import csv
import math

import numpy as np

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


def _float_or_array(x):
    # a Python float for scalar input, so scalar calls skip numpy's
    # per-operation cost; a float array otherwise
    if isinstance(x, (int, float)):
        return float(x)
    arr = np.asarray(x, dtype=float)
    return float(arr) if arr.ndim == 0 else arr


def _require_param(name: str, value, positive: bool = False, signed: bool = False):
    # value, or every element of it, finite and >= 0 (> 0 if positive, of
    # either sign if signed); NaN fails every comparison, so it is rejected
    # with the infinities. Returns the value as _float_or_array converts it.
    v = _float_or_array(value)
    if signed:
        ok = abs(v) < math.inf
    else:
        ok = (v > 0.0 if positive else v >= 0.0) & (v < math.inf)
    if not (ok.all() if isinstance(ok, np.ndarray) else ok):
        want = "finite" if signed else f"finite and {'>' if positive else '>='} 0"
        raise DomainError(f"{name} must be {want}, got {value!r}")
    return v


def _check_fields(obj, *names, positive=False):
    # check each named field of a frozen dataclass once and store it back as
    # a Python float (a sequence as a tuple of floats)
    for name in names:
        v = _require_param(name, getattr(obj, name), positive=positive)
        object.__setattr__(obj, name, tuple(v.tolist()) if isinstance(v, np.ndarray) else v)


def _read_table(text: str, what: str, ncols: int, min_rows: int, optional: int = 0):
    """(header, columns) of the CSV table ``text``, by the one rule for every
    input table: blank rows are skipped; the first other row, if it does not
    parse, is the header (stripped, lowercased); every later row gives a float
    in each of its first ``ncols`` cells, the last ``optional`` of them None
    where empty, or ``DomainError`` names the row (1-based); later cells are
    ignored. Fewer than ``min_rows`` (>= 1) rows raise ``DomainError``."""
    header, rows = None, []
    for i, row in enumerate(csv.reader(text.splitlines()), 1):
        cells = [c.strip().lower() for c in row] + [""] * ncols
        if not any(cells):
            continue
        try:
            rows.append(tuple(None if j >= ncols - optional and not cells[j] else float(cells[j]) for j in range(ncols)))
        except ValueError:
            if header is not None or rows:
                raise DomainError(f"cannot parse row {i} of the {what}: {','.join(row)!r}") from None
            header = cells[: len(row)]
    if len(rows) < min_rows:
        raise DomainError(f"the {what} needs at least {min_rows} rows of numbers, got {len(rows)}")
    return header, tuple(zip(*rows))
