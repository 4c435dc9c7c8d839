"""Parameter estimation: KIE(T) curve fits and Arrhenius regression.

The two-parameter KIE model (reactant-well frequency and barrier
frequency, both hydrogen-referenced) is fit in two stages. A screen
evaluates the weighted cost in one broadcast model call per block of
rows over a lattice spanning the box constraints; a damped least-squares
polish then starts from each of the best few separate local minima of
the lattice. A smooth quadratic penalty covers trial parameters that
push data points below the crossover temperature. Results are
bit-reproducible: points are sorted canonically, and the lattice and the
order of the polishes are fixed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import units
from .errors import DomainError, FitConvergenceError, _check_fields, _read_table, _require_param
from .kie import ArrheniusParams, _log_kie
from .kramers import _crossover_temperature, crossover_temperature
from .units import Isotope

__all__ = [
    "KIEDataset",
    "FitConfig",
    "FitResult",
    "ArrheniusFit",
    "fit_kie",
    "fit_arrhenius",
]

_CROSSOVER_MARGIN = 0.02  # fractional clamp margin above T0 during the search
_PENALTY_SCALE = 10.0
_SCREEN_STEPS = (50.0, 25.0)  # lattice steps in omega0 and omegab (cm^-1)
# omega0 rows per broadcast call of the screen: a chunk's arrays stay small,
# where the whole default lattice at once adds megabytes to the peak
_SCREEN_ROWS = 16
_MAX_POLISHES = 3
_DIFF_STEP = 1e-4  # relative central-difference step for Jacobians
_MAX_NFEV = 400


@dataclass(frozen=True)
class KIEDataset:
    """Experimental (T, KIE, sigma) points for one isotope pair."""

    T_K: tuple
    kie: tuple
    sigma: Optional[tuple] = None
    light: Isotope = Isotope.H
    heavy: Isotope = Isotope.D
    label: str = ""
    source: str = ""

    def __post_init__(self):
        _check_fields(self, "T_K", "kie", positive=True)
        T = np.asarray(self.T_K)
        if T.ndim != 1 or T.shape != np.shape(self.kie):
            raise DomainError("T_K and kie must be 1-d sequences of equal length")
        if np.unique(T).size != T.size:
            raise DomainError("temperatures must be distinct")
        if self.sigma is not None:
            _check_fields(self, "sigma", positive=True)
            if np.shape(self.sigma) != T.shape:
                raise DomainError("sigma must match the data length")

    def __len__(self) -> int:
        return len(self.T_K)

    def sorted_arrays(self):
        """Canonically ordered copies; fitting never depends on input order."""
        T = np.asarray(self.T_K, dtype=float)
        y = np.asarray(self.kie, dtype=float)
        s = None if self.sigma is None else np.asarray(self.sigma, dtype=float)
        order = np.lexsort((y, T))
        return T[order], y[order], (None if s is None else s[order])

    @classmethod
    def from_csv(cls, path, light=None, heavy=None, label="", source="") -> "KIEDataset":
        """A series read by ``from_csv_text``, with the JSON object in the
        sidecar next to it (same name, .json), if any: its ``pair`` (e.g.
        "H:T"), which ``light`` and ``heavy`` override, ``label`` and ``source``."""
        path = Path(path)
        meta = {}
        sidecar = path.with_suffix(".json")
        if sidecar.exists():
            try:
                meta = json.loads(sidecar.read_text(encoding="utf-8"))
            except json.JSONDecodeError as exc:
                raise DomainError(f"sidecar {sidecar.name} is not valid JSON: {exc}") from None
            if not isinstance(meta, dict):
                raise DomainError(f"sidecar {sidecar.name} must hold a JSON object")
        return cls.from_csv_text(
            path.read_text(encoding="utf-8"),
            light=light,
            heavy=heavy,
            label=label or meta.get("label", ""),
            source=source or meta.get("source", str(path)),
            pair=meta.get("pair"),
        )

    @classmethod
    def from_csv_text(
        cls, text: str, light=None, heavy=None, label="", source="", pair=None
    ) -> "KIEDataset":
        """A series from a ``T_K,kie[,sigma]`` table of at least 3 points; a
        sigma column empty in every row means unit weights, in some only an error."""
        if pair and light is None and heavy is None:
            light, heavy = Isotope.pair(pair)
        light = light or Isotope.H
        heavy = heavy or Isotope.D
        header, (T, y, s) = _read_table(text, "KIE series", 3, 3, optional=1)
        if header is None or header[:2] != ["t_k", "kie"]:
            raise DomainError("expected CSV header 'T_K,kie[,sigma]'")
        sigma = None
        if header[2:3] == ["sigma"] and any(v is not None for v in s):
            if None in s:
                raise DomainError("sigma must be given in every row or in none")
            sigma = s
        return cls(T, y, sigma, light, heavy, label, source)


@dataclass(frozen=True)
class FitConfig:
    """Box constraints and screened starts for fit_kie.

    The screen's lattice spans the bounds at fixed steps of 50 cm^-1 in
    omega0 and 25 cm^-1 in omegab; every omega0 and omegab start, clamped
    to the bounds, is added to the lattice's axes, so the screen always
    covers the starts' grid. The defaults lie on the default lattice.
    """

    omega0_starts: tuple = tuple(range(1500, 4001, 500))
    omegab_starts: tuple = tuple(range(300, 2501, 200))
    omega0_bounds: tuple = (500.0, 5000.0)
    omegab_bounds: tuple = (100.0, 3000.0)


@dataclass(frozen=True)
class FitResult:
    """Fitted (omega0, omegab) with diagnostics."""

    omega0: float
    omegab: float
    residual_norm: float
    covariance: tuple  # 2x2, row tuples
    implied_T0: float
    valid: bool
    n_starts_converged: int  # polishes that converged

    def to_json(self) -> dict:
        return {
            "schema": "qtst/1",
            "omega0_cm1": self.omega0,
            "omegab_cm1": self.omegab,
            "residual_norm": self.residual_norm,
            "covariance": [list(row) for row in self.covariance],
            "implied_T0_K": self.implied_T0,
            "valid": self.valid,
            "n_starts_converged": self.n_starts_converged,
        }


def _kie_model(T, omega0, omegab, light, heavy):
    """KIE model on the temperature array T, with a smooth below-crossover penalty.

    omega0 and omegab may be arrays that broadcast with T (and each other)
    in front of its axis. For trial omegab pushing T under the light
    isotope's crossover, the temperature is clamped just above it and the
    value is inflated quadratically in the violation, keeping the
    objective continuous so the damped least-squares iteration can retreat
    smoothly.
    """
    T0 = _crossover_temperature(units._isotope_scaled(omegab, light))
    T_clamped = np.maximum(T, (1.0 + _CROSSOVER_MARGIN) * T0)
    u = (T_clamped - T) / T0
    return np.exp(_log_kie(omega0, omegab, T_clamped, light, heavy)) * (1.0 + _PENALTY_SCALE * u * u)


def _lattice_axis(bounds, step, starts):
    # bounds[0] + k*step up to bounds[1], the upper bound and the clamped starts
    lo, hi = bounds
    grid = lo + step * np.arange(math.floor((hi - lo) / step) + 1)
    return np.unique(np.concatenate((grid, [hi], np.clip(starts, lo, hi))))


def _screen(T, y, w, omega0, omegab, light, heavy):
    """Least-squares cost 0.5*sum(r^2) of _kie_model on the lattice omega0 x
    omegab, _SCREEN_ROWS omega0 rows per call; non-finite costs are inf."""
    cost = np.empty((omega0.size, omegab.size))
    for i in range(0, omega0.size, _SCREEN_ROWS):
        rows = omega0[i : i + _SCREEN_ROWS, None, None]
        r = w * (_kie_model(T, rows, omegab[:, None], light, heavy) - y)
        cost[i : i + _SCREEN_ROWS] = 0.5 * (r * r).sum(axis=-1)
    cost[~np.isfinite(cost)] = np.inf
    return cost


def _local_minima(cost):
    """Flat indices of the separate local minima of a cost lattice, best first.

    A cell is a minimum when its cost is finite, below each of its 8
    neighbours that come before it in row-major order and not above those
    after it, so a run of tied cells counts once. Ties in cost keep
    row-major order.
    """
    m, n = cost.shape
    padded = np.pad(cost, 1, constant_values=np.inf)
    is_min = np.isfinite(cost)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == dj == 0:
                continue
            nb = padded[1 + di : 1 + di + m, 1 + dj : 1 + dj + n]
            is_min &= cost < nb if (di, dj) < (0, 0) else cost <= nb
    idx = np.flatnonzero(is_min)
    return idx[np.argsort(cost.ravel()[idx], kind="stable")]


def least_squares(*args, **kwargs):
    # fit_kie's solver, by a module name that bench/tracer.py wraps to count polishes
    from scipy.optimize import least_squares
    return least_squares(*args, **kwargs)


def fit_kie(data: KIEDataset, config: Optional[FitConfig] = None) -> FitResult:
    """Weighted least-squares fit of the two-parameter KIE model.

    Weights are 1/sigma^2 when uncertainties are present, unit otherwise.
    A screen evaluates the cost on a lattice over the box constraints
    (see ``FitConfig``). From the best cell of each of the best three
    separate local minima of the lattice, a trust-region damped
    least-squares solve (central-difference Jacobian) polishes the fit;
    the best converged polish wins. A polish never ends above the cost it
    starts from, so the fit's cost is at most the lattice's minimum
    whenever the polish from the best cell converges. The covariance comes
    from the Gauss-Newton normal matrix at the optimum scaled by the
    residual variance. ``valid`` requires the coldest datum to sit 5% above
    the implied hydrogen-scaled crossover temperature.
    """
    if len(data) < 3:
        raise DomainError("need at least 3 points for a 2-parameter fit")
    config = config or FitConfig()
    T, y, sigma = data.sorted_arrays()
    w = np.ones_like(T) if sigma is None else 1.0 / sigma

    # Quick feasibility check: the smallest admissible omegab must leave
    # at least one point above the crossover.
    T0_floor = crossover_temperature(units.isotope_frequency(config.omegab_bounds[0], data.light))
    if np.max(T) <= (1.0 + _CROSSOVER_MARGIN) * T0_floor:
        raise FitConvergenceError(
            "all data points lie below the crossover temperature for every "
            "admissible barrier frequency"
        )

    def residuals(params):
        om0, omb = params
        return w * (_kie_model(T, om0, omb, data.light, data.heavy) - y)

    omega0_axis = _lattice_axis(config.omega0_bounds, _SCREEN_STEPS[0], config.omega0_starts)
    omegab_axis = _lattice_axis(config.omegab_bounds, _SCREEN_STEPS[1], config.omegab_starts)
    cost = _screen(T, y, w, omega0_axis, omegab_axis, data.light, data.heavy)
    lo = (config.omega0_bounds[0], config.omegab_bounds[0])
    hi = (config.omega0_bounds[1], config.omegab_bounds[1])
    best = None
    n_converged = 0
    for k in _local_minima(cost)[:_MAX_POLISHES]:
        i, j = divmod(int(k), omegab_axis.size)
        try:
            res = least_squares(
                residuals,
                x0=(omega0_axis[i], omegab_axis[j]),
                bounds=(lo, hi),
                method="trf",
                jac="3-point",
                diff_step=_DIFF_STEP,
                x_scale=(1000.0, 500.0),
                ftol=1e-12,
                xtol=1e-12,
                gtol=1e-12,
                max_nfev=_MAX_NFEV,
            )
        except (ValueError, FloatingPointError):
            continue
        if not res.success or not np.isfinite(res.cost):
            continue
        n_converged += 1
        if best is None or res.cost < best.cost:
            best = res
    if best is None:
        raise FitConvergenceError("no polish from the screened lattice converged")

    dof = max(len(T) - 2, 1)
    s2 = 2.0 * best.cost / dof
    jtj = best.jac.T @ best.jac
    cov = np.linalg.pinv(jtj) * s2
    cov = 0.5 * (cov + cov.T)
    omega0, omegab = map(float, best.x)
    implied_T0 = crossover_temperature(omegab)
    return FitResult(
        omega0=omega0,
        omegab=omegab,
        residual_norm=float(np.linalg.norm(best.fun)),
        covariance=tuple(tuple(float(v) for v in row) for row in cov),
        implied_T0=float(implied_T0),
        valid=bool(np.min(T) > 1.05 * implied_T0),
        n_starts_converged=n_converged,
    )


@dataclass(frozen=True)
class ArrheniusFit:
    """OLS Arrhenius regression result with standard errors."""

    params: ArrheniusParams
    stderr_lnA: float
    stderr_E_kJ_per_mol: float
    residual_norm: float

    def to_json(self) -> dict:
        return {
            "schema": "qtst/1",
            "A": self.params.A,
            "E_kJ_per_mol": self.params.E_kJ_per_mol,
            "stderr_lnA": self.stderr_lnA,
            "stderr_E_kJ_per_mol": self.stderr_E_kJ_per_mol,
            "residual_norm": self.residual_norm,
        }


def fit_arrhenius(T: Sequence[float], k: Sequence[float]) -> ArrheniusFit:
    """Ordinary least squares of ln k on 1/T.

    Returns A = exp(intercept) and E = -slope * kB (kJ/mol) with standard
    errors from the residual variance (zero for a two-point fit).
    """
    T = np.asarray(T, dtype=float)
    k = np.asarray(k, dtype=float)
    if T.ndim != 1 or T.shape != k.shape or T.size < 2:
        raise DomainError("need at least two (T, k) points")
    _require_param("temperatures", T, positive=True)
    _require_param("rates", k, positive=True)
    if np.unique(T).size < 2:
        raise DomainError("degenerate design: all temperatures equal")
    x = 1.0 / T
    yv = np.log(k)
    n = T.size
    x_mean, y_mean = x.mean(), yv.mean()
    sxx = float(np.sum((x - x_mean) ** 2))
    slope = float(np.sum((x - x_mean) * (yv - y_mean)) / sxx)
    intercept = y_mean - slope * x_mean
    resid = yv - (intercept + slope * x)
    if n > 2:
        s2 = float(np.sum(resid**2) / (n - 2))
    else:
        s2 = 0.0
    stderr_slope = math.sqrt(s2 / sxx)
    stderr_intercept = math.sqrt(s2 * (1.0 / n + x_mean**2 / sxx))
    return ArrheniusFit(
        params=ArrheniusParams(A=math.exp(intercept), E_kJ_per_mol=-slope * units.KB_KJ_PER_MOL_K),
        stderr_lnA=stderr_intercept,
        stderr_E_kJ_per_mol=stderr_slope * units.KB_KJ_PER_MOL_K,
        residual_norm=float(np.linalg.norm(resid)),
    )
