"""Parameter estimation: KIE(T) curve fits and Arrhenius regression.

The two-parameter KIE model (reactant-well frequency and barrier
frequency, both hydrogen-referenced) is fit in two stages. A screen
evaluates the weighted cost on a lattice spanning the fixed box ``_BOX``,
from log KIE's separate omega0 and omegab terms; the library's own
bounded Levenberg-Marquardt polish, on the model's analytic Jacobian, then
starts from each of the best few separate local minima of the lattice.
Both take log KIE from ``kie._log_kie``, and no scipy is loaded. A smooth
quadratic penalty covers trial parameters that push data points below the
crossover temperature. Results are bit-reproducible: points are sorted canonically,
and the lattice and the order of the polishes are fixed.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import units
from .errors import DomainError, FitConvergenceError, _check_fields, _exp_of_log, _read_table, _require_array, _require_param
from .kie import _is_valid, _log_kie
from .kramers import _crossover_temperature
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
# the box the fit searches, (lo, hi) in omega0 and in omegab (cm^-1)
_BOX = ((500.0, 5000.0), (100.0, 3000.0))
_SCREEN_STEPS = (50.0, 25.0)  # lattice steps in omega0 and omegab (cm^-1)
_MAX_POLISHES = 3
_MAX_NFEV = 400
_X_SCALE = np.array([1000.0, 500.0])  # the polish's step scales in omega0 and omegab


@dataclass(frozen=True)
class KIEDataset:
    """Experimental (T, KIE, sigma) points for one isotope pair, whose light
    isotope may not be the heavier one."""

    T_K: tuple
    kie: tuple
    sigma: Optional[tuple] = None
    light: Isotope = Isotope.H
    heavy: Isotope = Isotope.D
    label: str = ""
    source: str = ""

    def __post_init__(self):
        units._require_isotope_order(self.light, self.heavy)
        _check_fields(self, "T_K", "kie", positive=True, array=True)
        T = np.asarray(self.T_K)
        if T.ndim != 1 or T.shape != np.shape(self.kie):
            raise DomainError("T_K and kie must be 1-d sequences of equal length")
        if np.unique(T).size != T.size:
            raise DomainError("temperatures must be distinct")
        if self.sigma is not None:
            _check_fields(self, "sigma", positive=True, array=True)
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
    def from_csv(cls, path, pair=None) -> "KIEDataset":
        """A series read by ``from_csv_text``, with the JSON object in the
        sidecar next to it (same name, .json), if any: its ``pair`` (e.g.
        "H:T"), unless the ``pair`` argument is given, ``label`` and
        ``source`` (the path where the sidecar gives none)."""
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
            pair=meta.get("pair") if pair is None else pair,
            label=meta.get("label", ""),
            source=meta.get("source", str(path)),
        )

    @classmethod
    def from_csv_text(cls, text: str, pair=None, label="", source="") -> "KIEDataset":
        """A series from a ``T_K,kie[,sigma]`` table of at least 3 points, for
        the isotope ``pair`` (e.g. "H:T"; H:D when None); a sigma column empty
        in every row means unit weights, in some only an error."""
        light, heavy = (Isotope.H, Isotope.D) if pair is None else Isotope.pair(pair)
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
    """Screened starts for fit_kie.

    The screen's lattice spans the fit's box, omega0 from 500 to 5000 and
    omegab from 100 to 3000 cm^-1, at fixed steps of 50 and 25 cm^-1; every
    omega0 and omegab start, clamped to the box, is added to the lattice's
    axes, so the screen always covers the starts' grid. The defaults lie on
    the lattice. The starts must be sequences of finite numbers, or
    ``DomainError`` is raised.
    """

    omega0_starts: tuple = tuple(range(1500, 4001, 500))
    omegab_starts: tuple = tuple(range(300, 2501, 200))

    def __post_init__(self):
        _check_fields(self, "omega0_starts", "omegab_starts", signed=True, array=True)
        for name in ("omega0_starts", "omegab_starts"):
            if np.ndim(getattr(self, name)) != 1:
                raise DomainError(f"{name} must be a sequence of numbers, got {getattr(self, name)!r}")


@dataclass(frozen=True)
class FitResult:
    """Fitted (omega0, omegab) with diagnostics (see ``fit_kie``)."""

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


def _crossover_clamp(T, T0):
    """(tau, T_clamped, u, penalty) for a crossover temperature T0, a scalar
    or a column against the row T: the clamp tau = (1 + margin)*T0, T raised
    to at least tau, the violation u = (T_clamped - T)/T0 and the penalty
    1 + _PENALTY_SCALE*u^2 that inflates a clamped model value."""
    tau = (1.0 + _CROSSOVER_MARGIN) * T0
    T_clamped = np.maximum(T, tau)
    u = (T_clamped - T) / T0
    return tau, T_clamped, u, 1.0 + _PENALTY_SCALE * u * u


def _kie_model(T, omega0, omegab, light, heavy):
    """KIE model at scalar omega0 and omegab on the temperature array T,
    with a smooth below-crossover penalty, and its derivatives: (model,
    d model/d omega0, d model/d omegab).

    The model is the KIE of ``kie._log_kie``, so above the clamp it equals
    ``kie_qtst`` bit for bit. For trial omegab pushing T under the light
    isotope's crossover, the temperature is clamped just above it and the
    value is inflated quadratically in the violation, keeping the objective
    continuous so the polish can retreat smoothly.

    With x = c*omega/sqrt(m) and c = CM1_TO_K/(2*T) for each isotope, the
    1/omega terms cancel between the isotopes: d log KIE/d omega0 is
    [x0 coth(x0)]_l - [x0 coth(x0)]_h over omega0, and d log KIE/d omegab
    is -[xb cot(xb)]_l + [xb cot(xb)]_h over omegab. In a clamped row xb is
    fixed at pi/1.02 for the light isotope, and omegab acts through x0 (c
    goes as 1/omegab there) and the penalty instead.
    """
    T0 = _crossover_temperature(units._isotope_scaled(omegab, light))
    _, T_clamped, u, penalty = _crossover_clamp(T, T0)
    model = np.exp(_log_kie(omega0, omegab, T_clamped, light, heavy)) * penalty

    def coth_cot(iso):
        # x0 coth(x0) and xb cot(xb) of one isotope, at x = c*omega/sqrt(m)
        c = (0.5 * units.CM1_TO_K) / (math.sqrt(iso.mass_number) * T_clamped)
        x0, xb = c * omega0, c * omegab
        return x0 / np.tanh(x0), xb / np.tan(xb)

    (a_l, b_l), (a_h, b_h) = coth_cot(light), coth_cot(heavy)
    a = a_l - a_h
    b = np.where(T < T_clamped, a - (2.0 * _PENALTY_SCALE / T0) * u * T / penalty, b_l - b_h)
    return model, model * a / omega0, model * b / -omegab


def _lattice_axis(bounds, step, starts):
    # bounds[0] + k*step up to bounds[1], the upper bound and the clamped starts
    lo, hi = bounds
    grid = lo + step * np.arange(math.floor((hi - lo) / step) + 1)
    return np.unique(np.concatenate((grid, [hi], np.clip(starts, lo, hi))))


def _screen(T, y, w, omega0, omegab, light, heavy):
    """Least-squares cost 0.5*sum(r^2) of _kie_model on the lattice omega0 x
    omegab (each axis ascending); non-finite costs are inf.

    log KIE is an omega0 term plus an omegab term, so above the clamp the
    model is exp(A[i, t]) * exp(B[j, t]): A on the omega0 axis at the smallest
    omegab, which is unclamped wherever any column is, and B the change from
    that omegab to each other one. Where column j is clamped, at T < tau[j] =
    1.02*T0[j], the model is exp(C[i, j]) times the penalty, C being log KIE
    at tau. The cost is summed one data point at a time, each an I x J array;
    the square is not expanded into matrix products, whose terms cancel
    near the minimum.
    """
    T0 = _crossover_temperature(units._isotope_scaled(omegab, light))
    tau, T_clamped, u, penalty = _crossover_clamp(T, T0[:, None])
    tau = tau[:, 0]
    exp_a = np.exp(_log_kie(omega0[:, None], omegab[0], T_clamped[0], light, heavy))
    exp_b = np.exp(
        _log_kie(omega0[0], omegab[:, None], T_clamped, light, heavy)
        - _log_kie(omega0[0], omegab[0], T_clamped[0], light, heavy)
    )
    exp_c = np.exp(_log_kie(omega0[:, None], omegab, tau, light, heavy))
    # tau ascends with omegab: the first n_free[t] columns are unclamped at T[t]
    n_free = np.searchsorted(tau, T, side="right")
    cost = np.zeros((omega0.size, omegab.size))
    model = np.empty_like(cost)
    for t, k in enumerate(n_free):
        np.multiply(exp_a[:, t, None], exp_b[:k, t], out=model[:, :k])
        np.multiply(exp_c[:, k:], penalty[k:, t], out=model[:, k:])
        r = w[t] * (model - y[t])
        cost += r * r
    cost *= 0.5
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


class _Point(NamedTuple):
    """A polish's iterate x, with its residuals r, their Jacobian J and cost
    0.5*|r|^2; the gradient g = Js^T r and normal matrix A = Js^T Js of the
    Jacobian in z = x/_X_SCALE, Js; which coordinates may move; and the
    length of the Gauss-Newton step in z."""

    x: np.ndarray
    r: np.ndarray
    J: np.ndarray
    cost: float
    g: np.ndarray
    A: np.ndarray
    free: np.ndarray
    gauss_newton: float


class _Polish(NamedTuple):
    """A polish's end point x, with cost 0.5*sum(fun^2), the residuals fun and
    their Jacobian jac there, and nfev residual evaluations."""

    x: np.ndarray
    cost: float
    fun: np.ndarray
    jac: np.ndarray
    nfev: int
    success: bool


def _damped_step(A, g, lam, free):
    """The minimiser p of g.p + p.(A + lam*I).p/2 over the free coordinates,
    the others held at 0, or None where that matrix is singular."""
    (a, b), (_, d) = A.tolist()
    free0, free1 = free.tolist()
    g0, g1 = g.tolist()
    a, g0 = (a + lam, g0) if free0 else (1.0, 0.0)
    d, g1 = (d + lam, g1) if free1 else (1.0, 0.0)
    if not (free0 and free1):
        b = 0.0
    det = a * d - b * b
    if det <= 0.0:
        return None
    return np.array([(b * g1 - d * g0) / det, (b * g0 - a * g1) / det])


def least_squares(fun, x0, bounds):
    """Bounded Levenberg-Marquardt polish of 0.5*|r|^2 in (omega0, omegab).

    ``fun(x)`` returns the residuals r and their Jacobian J. Steps are taken
    in z = x/_X_SCALE and clipped to the box ``bounds = (lo, hi)``; a
    coordinate on a bound that descent or the step would push out stays
    there. A step is taken when the cost falls by at least 1e-4 of its
    linear model's prediction. Where that prediction is below 1e-10 of the
    cost, the cost is flat to rounding, so a step is taken when the
    Gauss-Newton step it leaves is shorter than the one before. The polish
    converges when the free part of J^T r is 0, when the Gauss-Newton step
    is at most 1e-12 of |z|, or, in the flat region, when a step would not
    shorten it. It fails (``success`` False) after _MAX_NFEV evaluations of
    ``fun``, or when the cost at ``x0`` is not finite.
    """
    lo, hi = (np.asarray(b, dtype=float) for b in bounds)

    def evaluate(x):
        r, J = fun(x)
        Js = J * _X_SCALE
        g, A = Js.T @ r, Js.T @ Js
        free = ~((x <= lo) & (g > 0) | (x >= hi) & (g < 0))
        step = _damped_step(A, g, 0.0, free)
        return _Point(x, r, J, 0.5 * float(r @ r), g, A, free, math.inf if step is None else math.hypot(*step))

    point = evaluate(np.clip(np.asarray(x0, dtype=float), lo, hi))
    nfev, lam, nu, converged = 1, 1e-3 * max(point.A[0, 0], point.A[1, 1]), 2.0, False
    while math.isfinite(point.cost) and nfev < _MAX_NFEV:
        x, _, _, cost, g, A, free, gauss_newton = point
        if not g[free].any() or gauss_newton <= 1e-12 * math.hypot(*(x / _X_SCALE)):
            converged = True
            break
        p = _damped_step(A, g, lam, free)
        out = (x <= lo) & (p < 0) | (x >= hi) & (p > 0)
        if out.any():
            p = _damped_step(A, g, lam, free & ~out)
        x_new = np.clip(x + _X_SCALE * p, lo, hi)
        d = (x_new - x) / _X_SCALE
        predicted = -(g @ d + 0.5 * d @ A @ d)
        trial = evaluate(x_new)
        nfev += 1
        flat = predicted <= 1e-10 * cost
        rho = (cost - trial.cost) / predicted if predicted > 0.0 else 0.0
        if math.isfinite(trial.cost) and (rho >= 1e-4 or flat and trial.gauss_newton < gauss_newton):
            point, nu = trial, 2.0
            lam *= 1.0 / 3.0 if flat else max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
        elif math.isfinite(trial.cost) and flat:
            converged = True
            break
        else:
            lam, nu = lam * nu, 2.0 * nu
    return _Polish(point.x, point.cost, point.r, point.J, nfev, converged)


def fit_kie(data: KIEDataset, config: Optional[FitConfig] = None) -> FitResult:
    """Weighted least-squares fit of the two-parameter KIE model.

    Weights are 1/sigma^2 when uncertainties are present, unit otherwise.
    A screen evaluates the cost on a lattice over the box ``_BOX``
    (see ``FitConfig``). From the best cell of each of the best three
    separate local minima of the lattice, a bounded Levenberg-Marquardt
    polish (``least_squares``, on the model's analytic Jacobian) runs to
    where J^T r = 0 to rounding; the best converged polish wins. A polish
    ends no higher than the cost it starts from, but for rounding, so the
    fit's cost is at most the lattice's minimum whenever the polish from
    the best cell converges. The covariance comes from the Gauss-Newton
    normal matrix of the exact Jacobian at the optimum, scaled by the
    residual variance. ``implied_T0`` is hydrogen's crossover temperature,
    and ``valid`` is ``kie_qtst``'s: the coldest datum at least 5% above the
    light isotope's. An equal pair, whose model is 1 at every T and
    identifies no parameter, raises ``DomainError``.
    """
    if len(data) < 3:
        raise DomainError("need at least 3 points for a 2-parameter fit")
    if data.light is data.heavy:
        iso = data.light.name
        raise DomainError(f"an equal pair ({iso}:{iso}) has a KIE of 1 at every T and identifies no parameter")
    config = config or FitConfig()
    T, y, sigma = data.sorted_arrays()
    w = np.ones_like(T) if sigma is None else 1.0 / sigma

    # Quick feasibility check: the smallest admissible omegab must leave
    # at least one point above the crossover.
    T0_floor = _crossover_temperature(units._isotope_scaled(_BOX[1][0], data.light))
    if np.max(T) <= _crossover_clamp(T, T0_floor)[0]:
        raise FitConvergenceError(
            "all data points lie below the crossover temperature for every "
            "admissible barrier frequency"
        )

    def residuals(params):
        model, d_omega0, d_omegab = _kie_model(T, *params, data.light, data.heavy)
        return w * (model - y), (w * np.array((d_omega0, d_omegab))).T

    omega0_axis, omegab_axis = (_lattice_axis(bounds, step, starts) for bounds, step, starts in
                                zip(_BOX, _SCREEN_STEPS, (config.omega0_starts, config.omegab_starts)))
    cost = _screen(T, y, w, omega0_axis, omegab_axis, data.light, data.heavy)
    box = tuple(zip(*_BOX))  # (lo, hi), each over (omega0, omegab)
    best = None
    n_converged = 0
    for k in _local_minima(cost)[:_MAX_POLISHES]:
        i, j = divmod(int(k), omegab_axis.size)
        res = least_squares(residuals, x0=(omega0_axis[i], omegab_axis[j]), bounds=box)
        if not res.success:
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
    return FitResult(
        omega0=omega0,
        omegab=omegab,
        residual_norm=float(np.linalg.norm(best.fun)),
        covariance=tuple(tuple(float(v) for v in row) for row in cov),
        implied_T0=_crossover_temperature(omegab),
        valid=bool(_is_valid(np.min(T), _crossover_temperature(units._isotope_scaled(omegab, data.light)))),
        n_starts_converged=n_converged,
    )


@dataclass(frozen=True)
class ArrheniusFit:
    """OLS Arrhenius regression result: prefactor A and activation energy E
    in k = A exp(-E/kB T), with standard errors. A must be finite and > 0."""

    A: float
    E_kJ_per_mol: float
    stderr_lnA: float
    stderr_E_kJ_per_mol: float
    residual_norm: float

    def __post_init__(self):
        object.__setattr__(self, "A", _require_param("Arrhenius prefactor", self.A, positive=True))

    def to_json(self) -> dict:
        return {"schema": "qtst/1", **asdict(self)}


def fit_arrhenius(T: Sequence[float], k: Sequence[float]) -> ArrheniusFit:
    """Ordinary least squares of ln k on 1/T.

    Returns A = exp(intercept) and E = -slope * kB (kJ/mol) with standard
    errors from the residual variance (zero for a two-point fit). An A that
    overflows a double or underflows to 0 raises ``DomainError``.
    """
    T = np.asarray(T, dtype=float)
    k = np.asarray(k, dtype=float)
    if T.ndim != 1 or T.shape != k.shape or T.size < 2:
        raise DomainError("need at least two (T, k) points")
    _require_array("temperatures", T, positive=True)
    _require_array("rates", k, positive=True)
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
        A=_exp_of_log("A", intercept),
        E_kJ_per_mol=-slope * units.KB_KJ_PER_MOL_K,
        stderr_lnA=stderr_intercept,
        stderr_E_kJ_per_mol=stderr_slope * units.KB_KJ_PER_MOL_K,
        residual_norm=float(np.linalg.norm(resid)),
    )
