"""Exception types shared across the package, the one input check that
raises them, the one guarded exp of a log, the one reader of input
tables, the one way in to scipy and the one bracketed root finder."""

from __future__ import annotations

import csv
import functools
import importlib
import math
import sys

import numpy as np

__all__ = [
    "QtstError", "DomainError", "DivergentIntegralError",
    "BelowCrossoverError", "SolverConvergenceError", "FitConvergenceError",
]


class QtstError(Exception):
    """Base class for every library-specific error."""


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
    """A root solve failed to converge; carries the bracket it searched."""

    def __init__(self, message, bracket=None):
        self.bracket = bracket
        if bracket is not None:
            message = f"{message} (bracket searched: [{bracket[0]:g}, {bracket[1]:g}])"
        super().__init__(message)


class FitConvergenceError(QtstError, RuntimeError):
    """Nonlinear fitting failed (no convergent start, or unusable data)."""


@functools.cache
def _scipy(module: str):
    # scipy.<module>, imported at its first use, so import qtst loads no
    # scipy; cached, so a hot path pays a dict lookup, not an import statement
    return importlib.import_module(f"scipy.{module}")


# brentq's settings: relative tolerance 4 eps and at most 100 iterations
_RTOL = 4.0 * sys.float_info.epsilon
_MAXITER = 100


def _f_checked(f, x: float) -> float:
    # f(x) as a float; NaN raises as scipy's brentq raises it
    fx = float(f(x))
    if fx != fx:
        raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
    return fx


def _brentq(f, xpre: float, xcur: float, xtol: float, maxiter: int = _MAXITER) -> tuple[float, float]:
    # A step-for-step port of scipy's C brentq (scipy/optimize/Zeros/brentq.c,
    # scipy 1.17) with its Python wrapper's NaN check and scipy's error texts:
    # ValueError for no sign change or a NaN, RuntimeError for no convergence.
    # Returns the root and f there, which the search already holds.
    # Where C divides by zero in a trial step it gets inf or nan, fails the
    # step test and bisects; a ZeroDivisionError here bisects too. The tests
    # keep scipy's brentq as the oracle, identical by float.hex.
    xpre, xcur = float(xpre), float(xcur)
    fpre, fcur = _f_checked(f, xpre), _f_checked(f, xcur)
    if fpre == 0.0:
        return xpre, fpre
    if fcur == 0.0:
        return xcur, fcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre < 0.0 < fcur or fcur < 0.0 < fpre:
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _RTOL * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur, fcur
        bisect = True
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
                bisect = not 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta)
            except ZeroDivisionError:
                pass
        if bisect:
            spre = scur = sbis
        else:  # a good short step
            spre, scur = scur, stry
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0.0 else -delta
        fcur = _f_checked(f, xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


def _brent(f, lo: float, hi: float, xtol: float = 1e-300, what: str = "effective-frequency equation") -> tuple[float, float]:
    # (root, f(root)) of f in [lo, hi] by Brent's method, to relative machine
    # precision at the default xtol; no sign change, a NaN and no convergence
    # become a SolverConvergenceError with the bracket, f's own QtstError passes
    try:
        return _brentq(f, lo, hi, xtol)
    except QtstError:
        raise
    except (ValueError, RuntimeError) as exc:
        raise SolverConvergenceError(f"{what} not solved: {exc}", bracket=(lo, hi)) from exc


def _float_or_array(x):
    # a Python float for scalar input, so scalar calls skip numpy's
    # per-operation cost; a float array otherwise
    if isinstance(x, (int, float)):
        return float(x)
    arr = np.asarray(x, dtype=float)
    return float(arr) if arr.ndim == 0 else arr


def _require_array(name: str, value, positive: bool = False, signed: bool = False):
    # value, or every element of it, finite and >= 0 (> 0 if positive, of
    # either sign if signed); NaN fails every comparison, so it is rejected
    # with the infinities, and so is a value numpy cannot read as a float or a
    # regular float array. Returns the value in _float_or_array's form.
    # A Python float that passes is returned by comparison alone: through
    # _float_or_array and numpy the check cost more than the scalar Peaked
    # kernel it guards. A float that fails takes the general path, which
    # raises the one error text.
    if type(value) is float and (
        -math.inf < value < math.inf if signed
        else (0.0 < value if positive else 0.0 <= value) and value < math.inf
    ):
        return value
    try:
        v = _float_or_array(value)
    except (TypeError, ValueError):
        raise DomainError(f"{name} must be a number or a regular array of numbers, got {value!r}") from None
    if signed:
        ok = abs(v) < math.inf
    else:
        ok = (v > 0.0 if positive else v >= 0.0) & (v < math.inf)
    if not (ok.all() if isinstance(ok, np.ndarray) else ok):
        want = "finite" if signed else f"finite and {'>' if positive else '>='} 0"
        raise DomainError(f"{name} must be {want}, got {value!r}")
    return v


def _require_param(name: str, value, positive: bool = False, signed: bool = False) -> float:
    # one number, checked as _require_array checks it, as a Python float: a
    # list or an array where one number is meant raises DomainError too. A
    # Python float that passes is returned by the same comparison alone
    if type(value) is float and (
        -math.inf < value < math.inf if signed
        else (0.0 < value if positive else 0.0 <= value) and value < math.inf
    ):
        return value
    v = _require_array(name, value, positive, signed)
    if isinstance(v, np.ndarray):
        raise DomainError(f"{name} must be a single number, got {value!r}")
    return v


# the largest log that exp() keeps finite
_LOG_MAX = math.log(np.finfo(float).max)


def _exp_of_log(name: str, log_value: float) -> float:
    # exp(log_value), or a DomainError naming the log where the value
    # overflows a double
    if log_value > _LOG_MAX:
        raise DomainError(f"log {name} = {log_value:.6g} exceeds {_LOG_MAX:.6g}: {name} overflows a double")
    return math.exp(log_value)


def _check_fields(obj, *names, positive=False, signed=False, array=False):
    # check each named field of a frozen dataclass once, by _require_param
    # (_require_array if array), and store it back as a Python float (a
    # sequence as a tuple of floats)
    check = _require_array if array else _require_param
    for name in names:
        v = check(name, getattr(obj, name), positive, signed)
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
