"""Parameter estimation: KIE(T) curve fits and Arrhenius regression.

The two-parameter KIE model (reactant-well frequency and barrier
frequency, both hydrogen-referenced) is fit by damped least squares from
a deterministic multi-start grid, with box constraints and a smooth
quadratic penalty for trial parameters that push data points below the
crossover temperature. Results are bit-reproducible: points are sorted
canonically and the start order is fixed.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import least_squares

from . import units
from .errors import DomainError, FitConvergenceError
from .kie import ArrheniusParams, _log_kie
from .kramers import crossover_temperature
from .spectral import _require_param
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
        T = np.asarray(self.T_K, dtype=float)
        y = np.asarray(self.kie, dtype=float)
        if T.ndim != 1 or T.shape != y.shape:
            raise DomainError("T_K and kie must be 1-d sequences of equal length")
        _require_param("temperatures", T, positive=True)
        if np.unique(T).size != T.size:
            raise DomainError("temperatures must be distinct")
        _require_param("KIE values", y, positive=True)
        if self.sigma is not None:
            s = np.asarray(self.sigma, dtype=float)
            if s.shape != T.shape:
                raise DomainError("sigma must match the data length")
            _require_param("sigma", s, positive=True)

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
        """Read a ``T_K,kie,sigma`` CSV (sigma column optional).

        A sidecar JSON next to the file (same name, .json) may carry
        ``pair`` (e.g. "H:T"), ``label`` and ``source`` metadata.
        """
        path = Path(path)
        meta = {}
        sidecar = path.with_suffix(".json")
        if sidecar.exists():
            meta = json.loads(sidecar.read_text(encoding="utf-8"))
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
        if pair and light is None and heavy is None:
            a, _, b = pair.partition(":")
            light, heavy = Isotope.from_label(a), Isotope.from_label(b)
        light = light or Isotope.H
        heavy = heavy or Isotope.D
        reader = csv.reader(io.StringIO(text))
        rows = [r for r in reader if r and any(cell.strip() for cell in r)]
        if not rows:
            raise DomainError("empty dataset file")
        header = [c.strip().lower() for c in rows[0]]
        if header[:2] != ["t_k", "kie"]:
            raise DomainError("expected CSV header 'T_K,kie[,sigma]'")
        has_sigma = len(header) > 2 and header[2] == "sigma"
        T, y, s = [], [], []
        for r in rows[1:]:
            T.append(float(r[0]))
            y.append(float(r[1]))
            if has_sigma and len(r) > 2 and r[2].strip():
                s.append(float(r[2]))
        sigma = tuple(s) if (has_sigma and len(s) == len(T)) else None
        return cls(tuple(T), tuple(y), sigma, light, heavy, label, source)


@dataclass(frozen=True)
class FitConfig:
    """Multi-start grid, box constraints and solver knobs for fit_kie."""

    omega0_starts: tuple = tuple(range(1500, 4001, 500))
    omegab_starts: tuple = tuple(range(300, 2501, 200))
    omega0_bounds: tuple = (500.0, 5000.0)
    omegab_bounds: tuple = (100.0, 3000.0)
    diff_step: float = 1e-4  # relative central-difference step for Jacobians
    max_nfev: int = 400


@dataclass(frozen=True)
class FitResult:
    """Fitted (omega0, omegab) with diagnostics."""

    omega0: float
    omegab: float
    residual_norm: float
    covariance: tuple  # 2x2, row tuples
    implied_T0: float
    valid: bool
    n_starts_converged: int

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

    For trial omegab pushing T under the light isotope's crossover, the
    temperature is clamped just above it and the value is inflated
    quadratically in the violation, keeping the objective continuous so
    the damped least-squares iteration can retreat smoothly.
    """
    T0 = crossover_temperature(units.isotope_frequency(omegab, light))
    T_clamped = np.maximum(T, (1.0 + _CROSSOVER_MARGIN) * T0)
    u = (T_clamped - T) / T0
    return np.exp(_log_kie(omega0, omegab, T_clamped, light, heavy)) * (1.0 + _PENALTY_SCALE * u * u)


def fit_kie(data: KIEDataset, config: Optional[FitConfig] = None) -> FitResult:
    """Weighted least-squares fit of the two-parameter KIE model.

    Weights are 1/sigma^2 when uncertainties are present, unit otherwise.
    Every (omega0, omegab) start on the configured grid is polished by a
    trust-region damped least-squares solve (central-difference Jacobian);
    the best converged minimum wins. The covariance comes from the
    Gauss-Newton normal matrix at the optimum scaled by the residual
    variance. ``valid`` requires the coldest datum to sit 5% above the
    implied hydrogen-scaled crossover temperature.
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

    lo = (config.omega0_bounds[0], config.omegab_bounds[0])
    hi = (config.omega0_bounds[1], config.omegab_bounds[1])
    best = None
    n_converged = 0
    for om0_start in config.omega0_starts:
        for omb_start in config.omegab_starts:
            x0 = (
                min(max(om0_start, lo[0]), hi[0]),
                min(max(omb_start, lo[1]), hi[1]),
            )
            try:
                res = least_squares(
                    residuals,
                    x0=x0,
                    bounds=(lo, hi),
                    method="trf",
                    jac="3-point",
                    diff_step=config.diff_step,
                    x_scale=(1000.0, 500.0),
                    ftol=1e-12,
                    xtol=1e-12,
                    gtol=1e-12,
                    max_nfev=config.max_nfev,
                )
            except (ValueError, FloatingPointError):
                continue
            if not res.success or not np.isfinite(res.cost):
                continue
            n_converged += 1
            if best is None or res.cost < best.cost:
                best = res
    if best is None:
        raise FitConvergenceError("no multi-start point converged")

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
    if np.any(T <= 0) or np.any(k <= 0):
        raise DomainError("temperatures and rates must be > 0")
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
