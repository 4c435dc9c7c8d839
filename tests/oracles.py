"""Slow reference implementations that the library's fast paths are checked against.

These are the generic numerical routes the library no longer takes: the
memory kernel by quadrature of its spectrum, the spectrum integral by
quadrature, the Matsubara product with an exact kernel for the first terms
and the K_e/(M z) asymptote beyond, the Matsubara product summed term by
term to 10^5 terms and more (with a trigamma tail, or Richardson
extrapolation of its partial sums), the few-term product with its node
array built afresh on every call (``product_nodes_each_call``), and the
effective frequency by a dense scan with root bracketing.
``mu_scan_float64`` is the library's former multi-root scan, with every
kernel call at an ``np.float64`` point, and ``mu_mismatch_array`` its
mismatch on the whole grid at once. They use
only the model's ``friction_spectrum`` (or a scalar ``laplace_kernel``)
and stay independent of the closed forms.
The Drude and Peaked effective frequencies also have polynomial oracles,
built from the model parameters alone. ``log_closed`` is the log of the
zero-friction closed form for one isotope, on scalars or broadcasting
arrays, and ``log_kie`` the log KIE as the difference of two of its calls,
as the library once computed both. ``kie_model`` is the fit's model
through ``log_kie``, one isotope at a time, with no Jacobian;
``fit_multistart`` is the KIE fit on it as scipy's least-squares polish
from every configured start, finished by Gauss-Newton steps, with no
screen; ``screen_broadcast`` is the fit's screen as one broadcast
``kie_model`` call over the whole omega0 x omegab x T lattice.
``PchipTable`` and ``wkb_action_pchip`` are the tabulated potential and its
action with scipy's ``PchipInterpolator`` called at every point, and
``wkb_action_reference`` is the action of any potential through its public
``energy``, the generic integrand the library's tabulated one inlines, and
``wkb_action_mpmath`` is the action of a parabolic, Eckart or cubic barrier
at 50 digits, rebuilt from its constructor's parameters, which the
library's closed forms must match. ``cubic_c3`` is a cubic barrier's c3
from its constructor's parameters. ``bell_weight`` is Bell's thermal
weight of a barrier's energies, from its WKB action below the top and the
parabolic continuation above; ``bell_integral`` and ``bell_mean_depth``
are its integral and its mean depth below the top.
``brentq`` is scipy's Brent's method, which the library's own port
(``errors._brentq``) must match bit for bit, and ``fg_sici`` is the
linear-protein kernel's f and g from scipy's ``sici``. ``erfcx`` is
scipy's scaled complementary error function and ``erfcx_mpmath`` the same
at 40 digits, which the library's own (``qcorr._erfcx``) must match.
"""

from __future__ import annotations

import math
import warnings
from types import SimpleNamespace
from typing import Optional

import mpmath as mp
import numpy as np
from scipy import integrate, optimize
from scipy.interpolate import PchipInterpolator
from scipy.optimize import least_squares
from scipy.special import erfcx as _scipy_erfcx
from scipy.special import polygamma, sici

from qtst import (
    CorrectionResult,
    CubicBarrier,
    DebyeDielectricFriction,
    DrudeFriction,
    EckartBarrier,
    LinearProteinFriction,
    ParabolicBarrier,
    PeakedFriction,
    TabulatedPotential,
    effective_barrier_frequency,
    turning_points,
    wkb_action,
)
from qtst import units
from qtst.errors import BelowCrossoverError, DomainError, FitConvergenceError, SolverConvergenceError, _exp_of_log
from qtst.fit import _CROSSOVER_MARGIN, _PENALTY_SCALE, FitConfig, FitResult, KIEDataset
from qtst.kramers import _brent, _mu_mismatch, crossover_temperature
from qtst.qcorr import _GL_INV_T, _GL_WEIGHTS, _NU_CM1_PER_K, _exact_terms
from qtst.spectral import _kernel_body, _require_param

_QUAD_OPTS = dict(epsabs=0.0, epsrel=1e-11, limit=400)
# fit_multistart's least_squares: relative central-difference step and cap
_FIT_DIFF_STEP = 1e-4
_FIT_MAX_NFEV = 400
# the infinite tails carry ~1e-4 of the integral; absolute floor avoids
# chasing roundoff there
_TAIL_QUAD_OPTS = dict(epsabs=1e-13, epsrel=1e-9, limit=200)


def feature_frequencies(model) -> list[float]:
    """Frequencies (cm^-1) where a model's spectrum changes shape."""
    if isinstance(model, DrudeFriction):
        return [model.omega_d]
    if isinstance(model, PeakedFriction):
        return [model.omega_r, model.omega_r + model.width]
    if isinstance(model, DebyeDielectricFriction):
        omega_tau = units.CM1_TO_RAD_PER_S * 1e-12
        return sorted([1.0 / (omega_tau * tau) for tau in model.tau_ps] + [model.omega_4])
    if isinstance(model, LinearProteinFriction) and model.cutoff is not None:
        return [model.cutoff]
    return []


def _tail_integral(f, lower: float) -> float:
    # int_lower^inf f(w) dw via w = lower/t, finite domain and smooth for
    # the ~1/w^2 and faster tails these spectra have
    def g(t):
        w = lower / t
        return f(w) * lower / (t * t)

    val, _ = integrate.quad(g, 1e-12, 1.0, **_TAIL_QUAD_OPTS)
    return val


def quadrature_kernel(model, z: float) -> float:
    """gamma_hat(z) = (2 z/pi) int_0^inf Re gamma(w)/(w^2 + z^2) dw by quadrature."""
    z = float(z)
    pts = [w for w in feature_frequencies(model) if w > 0.0]
    upper = 50.0 * max([z] + pts + [1.0])

    def f(w):
        return model.friction_spectrum(w) / (w * w + z * z)

    head, _ = integrate.quad(f, 0.0, upper, points=sorted(set(pts + [z])), **_QUAD_OPTS)
    return 2.0 * z / math.pi * (head + _tail_integral(f, upper))


def quadrature_spectrum_integral(model) -> float:
    """int_0^inf Re gamma(w) dw by quadrature."""
    pts = [w for w in feature_frequencies(model) if w > 0.0]
    upper = 50.0 * max(pts + [1.0])
    head, _ = integrate.quad(model.friction_spectrum, 0.0, upper, points=pts, **_QUAD_OPTS)
    return head + _tail_integral(model.friction_spectrum, upper)


def product_exact_then_asymptote(system, model, T, term_tol=1e-9, exact_terms=512):
    """c_qm with the kernel evaluated one scalar call at a time for the
    first ``exact_terms`` Matsubara terms and as K_e/(M z) beyond, where
    its relative error is (feature/z)^2; the remaining tail is added with
    the trigamma function as in ``product_trigamma``."""
    omega0, omegab = system.omega0, system.omegab
    nu = T * _NU_CM1_PER_K
    a = omega0 * omega0 + omegab * omegab
    tail_scale = 2.0 / math.pi * model.spectrum_integral()
    log_sum, n_used, chunk = 0.0, 0, 4096
    while True:
        n = np.arange(n_used + 1, n_used + chunk + 1, dtype=float)
        x = n * nu
        g = tail_scale / x
        for i in np.nonzero(n <= exact_terms)[0]:
            g[i] = model.laplace_kernel(float(x[i]))
        logs = np.log1p(a / (x * x + x * g - omegab * omegab))
        log_sum += float(logs.sum())
        n_used += chunk
        if logs[-1] < term_tol:
            break
        chunk = min(2 * chunk, 262_144)
    return math.exp(log_sum + a * float(polygamma(1, n_used + 1)) / (nu * nu))


_MAX_TERMS = 50_000_000


def product_trigamma(system, model=None, T=300.0, term_tol=1e-9):
    """The product as ``correction_product`` summed it before its few-term form.

    Terms are accumulated (in log space) until the log-term falls below
    ``term_tol``; the remaining tail is added analytically from the
    first-order expansion of the log-term, log(term_n) ~ (w0^2+wb^2)/(n v)^2,
    summed exactly with the trigamma function. The tail drops the
    gamma_hat/x part of the log-term, so at strong Ohmic friction it is off
    by about a*gamma/(2 N^2 nu^3).
    """
    _require_param("temperature", T, positive=True)
    barrier = effective_barrier_frequency(system, model)
    if T <= barrier.T0_K:
        raise BelowCrossoverError(T, barrier.T0_K)

    omega0, omegab = system.omega0, system.omegab
    nu = T * _NU_CM1_PER_K
    a = omega0 * omega0 + omegab * omegab

    log_sum = 0.0
    n_used = 0
    chunk = 4096
    while True:
        n = np.arange(n_used + 1, n_used + chunk + 1, dtype=float)
        x = n * nu
        g = 0.0 if model is None else model.laplace_kernel(x)
        denom = x * x + x * g - omegab * omegab
        if np.any(denom <= 0.0):
            bad = int(n[np.argmax(denom <= 0.0)])
            raise DomainError(
                f"non-positive product denominator at term n={bad}: "
                "temperature is effectively at or below the crossover"
            )
        logs = np.log1p(a / denom)
        log_sum += float(logs.sum())
        n_used += chunk
        if logs[-1] < term_tol:
            break
        if n_used >= _MAX_TERMS:
            raise SolverConvergenceError(
                f"product did not reach term tolerance within {_MAX_TERMS} terms"
            )
        chunk = min(2 * chunk, 262_144)

    # sum_{n>N} a/(n v)^2 = a * psi'(N+1) / v^2
    tail = a * float(polygamma(1, n_used + 1)) / (nu * nu)
    c_qm = math.exp(log_sum + tail)
    regime = "near_crossover" if T < 1.1 * barrier.T0_K else "high_T"
    return CorrectionResult(c_qm=c_qm, regime=regime, terms_used=n_used, tail_estimate=tail)


def product_richardson(system, model, T, N=2**18):
    """log c_qm from exactly rounded partial sums of the log-terms.

    With S_k the sum of the first k*N terms (``math.fsum``), the 1/N and
    1/N^2 terms of the truncation error are removed by
    (8 S_4 - 6 S_2 + S_1)/3. No tail formula enters.
    """
    nu = T * _NU_CM1_PER_K
    omega0, omegab = system.omega0, system.omegab
    x = np.arange(1, 4 * N + 1, dtype=float) * nu
    g = 0.0 if model is None else model.laplace_kernel(x)
    logs = np.log1p((omega0**2 + omegab**2) / (x * x + x * g - omegab**2))
    s1 = math.fsum(logs[:N])
    s2 = math.fsum([s1, math.fsum(logs[N : 2 * N])])
    s4 = math.fsum([s2, math.fsum(logs[2 * N :])])
    return (8.0 * s4 - 6.0 * s2 + s1) / 3.0


def product_nodes_each_call(system, model, T, T0, term_tol):
    """``qcorr._product`` as it was before its nodes were cached: the node
    array is built afresh on every call, and a frictionless call adds the
    zero kernel term x*0.0 to its denominators."""
    if T <= T0:
        raise BelowCrossoverError(T, T0)
    omega0, omegab = system.omega0, system.omegab
    nu = T * _NU_CM1_PER_K
    a = omega0 * omega0 + omegab * omegab
    N = _exact_terms(a / (nu * nu), term_tol)
    M = N + 0.5
    n = np.concatenate((np.arange(1.0, N + 3.0), M * _GL_INV_T))
    x = n * nu
    g = 0.0 if model is None else _kernel_body(model)(x)
    denom = x * x + x * g - omegab * omegab
    if denom.min() <= 0.0:
        bad = float(n[np.argmax(denom <= 0.0)])
        raise DomainError(
            f"non-positive product denominator at term n={bad:g}: "
            "temperature is effectively at or below the crossover"
        )
    logs = np.log1p(a / denom)
    fm1, f0, f1, f2 = logs[N - 2 : N + 2].tolist()
    d1 = (fm1 - 27.0 * f0 + 27.0 * f1 - f2) / 24.0
    d3 = f2 - 3.0 * f1 + 3.0 * f0 - fm1
    tail = M * float(_GL_WEIGHTS @ logs[N + 2 :]) + d1 / 24.0 - 7.0 * d3 / 5760.0
    return _exp_of_log("c_qm", float(logs[:N].sum()) + tail), n.size, tail


def brentq(f, lo: float, hi: float, xtol: float = 1e-300, maxiter: int = 100) -> float:
    """scipy's brentq at the library's settings: rtol 4 eps, at most 100
    iterations and, by default, the xtol of every mu solve."""
    return optimize.brentq(f, lo, hi, xtol=xtol, maxiter=maxiter)


def erfcx(y: float) -> float:
    """scipy's exp(y^2) erfc(y); about 5.7e-14 relative off on [-26, 0)."""
    return float(_scipy_erfcx(y))


def erfcx_mpmath(y: float) -> float:
    """exp(y^2) erfc(y) at 40 digits, rounded once to a double."""
    with mp.workdps(40):
        y = mp.mpf(y)
        return float(mp.exp(y * y) * mp.erfc(y))


def fg_sici(x):
    """f(x) = Ci sin x + (pi/2 - Si) cos x and g(x) = (pi/2 - Si) sin x -
    Ci cos x from scipy's sici; it cancels in pi/2 - Si and in g, so its
    relative error grows like x^2 * 1e-16."""
    si, ci = sici(x)
    s, c, a = np.sin(x), np.cos(x), math.pi / 2.0 - si
    return ci * s + a * c, a * s - ci * c


def mu_scan(omegab: float, model, points: int = 10_000) -> float:
    """Largest root of mu^2 + mu*gamma_hat(mu) = omega_b^2 on (0, omega_b].

    The left side minus the right is negative at 0 and >= 0 at omega_b, so
    the largest root lies above the last grid point where it is negative.
    """
    def f(mu):
        return mu * mu + mu * model.laplace_kernel(mu) - omegab * omegab

    grid = np.linspace(1e-12 * omegab, omegab, points)
    vals = np.array([f(float(x)) for x in grid])
    last = int(np.nonzero(vals < 0.0)[0][-1])
    if vals[last + 1] == 0.0:
        return float(grid[last + 1])
    return optimize.brentq(f, grid[last], grid[last + 1], xtol=1e-14 * omegab, rtol=1e-15)


def mu_mismatch_array(mu: np.ndarray, g: np.ndarray, omegab: float) -> np.ndarray:
    """``kramers._mu_mismatch`` on arrays of points and kernel values.

    The same operations in the same order, each correctly rounded in numpy
    as in math, so every element equals the scalar form bit for bit. Python
    floats overflow to inf and nan without a warning, and so does this.
    """
    with np.errstate(all="ignore"):
        r = g / omegab
        s = np.sqrt(1.0 + 0.25 * r * r)
        return mu - np.where(r < 0.0, omegab * (s - 0.5 * r), omegab / (s + 0.5 * r))


def mu_scan_float64(omegab: float, model) -> tuple[float, float]:
    """(mu, residual) by a 10,000-point multi-root scan on np.float64 points.

    This is the scan the library ran for a ``PeakedFriction`` subclass with
    its own kernel before every solve became Brent's method on the whole
    interval. The mismatch is evaluated on the grid as one array
    expression, Brent's method solves each sign change from np.float64
    brackets, the largest root is returned, and several roots give a
    ``RuntimeWarning``.
    """
    def f(mu):
        return _mu_mismatch(mu, omegab, model.laplace_kernel)

    lo = 1e-12 * omegab
    grid = np.linspace(lo, omegab, 10_000)
    vals = mu_mismatch_array(grid, np.array([model.laplace_kernel(x) for x in grid]), omegab)
    sign_flips = np.nonzero(np.diff(np.signbit(vals)))[0]
    roots = [_brent(f, grid[i], grid[i + 1])[0] for i in sign_flips]
    if vals[-1] == 0.0 and omegab not in roots:
        roots.append(omegab)
    if not roots:
        raise SolverConvergenceError("no root of the effective-frequency equation found", bracket=(lo, omegab))
    if len(roots) > 1:
        warnings.warn(
            f"effective-frequency equation has {len(roots)} roots for this "
            "structured bath; returning the largest",
            RuntimeWarning,
            stacklevel=2,
        )
    mu = max(roots)
    return mu, abs(f(mu))


def drude_mu_cubic(omegab: float, gamma: float, omega_d: float) -> float:
    """The one positive root of the Drude mu equation cleared of its denominator.

    mu^2 + mu*gamma*omega_d/(omega_d + mu) = omega_b^2 times omega_d + mu is
    mu^3 + wd mu^2 + (gamma wd - wb^2) mu - wb^2 wd = 0, whose coefficients
    change sign once; solved for x = mu/omega_b so they are of order one.
    """
    d, g = omega_d / omegab, gamma / omegab
    roots = np.roots([1.0, d, g * d - 1.0, -d])
    (x,) = [r.real for r in roots if abs(r.imag) < 1e-9 and r.real > 0.0]
    return x * omegab


def peaked_mu_quartic(omegab: float, model) -> float:
    """Largest real root in (0, omega_b] of the Peaked mu equation as a quartic.

    mu^2 + mu*gamma_hat(mu) = wb^2 times mu^2 + Gamma*mu + wr^2 is
    mu^4 + G mu^3 + (wr^2 - wb^2 + gr G) mu^2 - wb^2 G mu - wb^2 wr^2 = 0,
    solved for x = mu/omega_b so the coefficients are of order one.
    """
    g, gr, wr = model.width / omegab, model.gamma_r / omegab, model.omega_r / omegab
    roots = np.roots([1.0, g, wr * wr - 1.0 + gr * g, -g, -wr * wr])
    real = [r.real for r in roots if abs(r.imag) < 1e-9 and 0.0 < r.real <= 1.0 + 1e-9]
    return min(max(real), 1.0) * omegab


def log_closed(omega0, omegab, T):
    """log[(omega_b/omega_0) sinh(x0)/sin(xb)] with x = hbar*omega/(2 kB T),
    for T above T0 = crossover_temperature(omegab); the arguments broadcast.
    The sine takes the smaller of pi*T0/T and pi*(T - T0)/T, which are equal
    in exact arithmetic."""
    T0 = crossover_temperature(omegab)
    x0 = units.CM1_TO_K * omega0 / (2.0 * T)
    log_sinh = x0 - math.log(2.0) + np.log(-np.expm1(-2.0 * x0))
    return np.log(omegab / omega0) + log_sinh - np.log(np.sin(math.pi * np.minimum(T0, T - T0) / T))


def log_kie(omega0_H, omegab_H, T, light, heavy):
    """log KIE = (1/2) log(m_h/m_l) + L(light) - L(heavy), L the ``log_closed``
    of each isotope at its frequencies omega/sqrt(m)."""

    def log_closed_at(iso):
        root_m = math.sqrt(iso.mass_number)
        return log_closed(omega0_H / root_m, omegab_H / root_m, T)

    return 0.5 * math.log(heavy.mass_number / light.mass_number) + log_closed_at(light) - log_closed_at(heavy)


def kie_model(T, omega0, omegab, light, heavy):
    """The fit's model as the library once wrote it: ``log_kie`` at the
    temperature clamped to 1.02 times the light isotope's crossover, times
    the penalty 1 + 10*u^2, u the clamp's shift in units of that crossover.
    omega0 and omegab may be arrays that broadcast with T in front of its
    axis."""
    T0 = crossover_temperature(units._isotope_scaled(omegab, light))
    T_clamped = np.maximum(T, (1.0 + _CROSSOVER_MARGIN) * T0)
    u = (T_clamped - T) / T0
    return np.exp(log_kie(omega0, omegab, T_clamped, light, heavy)) * (1.0 + _PENALTY_SCALE * u * u)


def screen_broadcast(T, y, w, omega0, omegab, light, heavy):
    """Least-squares cost 0.5*sum(r^2) of the fit's model on the lattice
    omega0 x omegab, in one unchunked broadcast call over every data point;
    non-finite costs are inf."""
    r = w * (kie_model(T, omega0[:, None, None], omegab[:, None], light, heavy) - y)
    cost = 0.5 * np.sum(r * r, axis=-1)
    cost[~np.isfinite(cost)] = np.inf
    return cost


def _central_jacobian(residuals, x):
    # relative step 1e-6: truncation and rounding both near 1e-11 relative
    columns = []
    for k in range(x.size):
        h = np.zeros_like(x)
        h[k] = 1e-6 * x[k]
        columns.append((residuals(x + h) - residuals(x - h)) / (2.0 * h[k]))
    return np.stack(columns, axis=-1)


def _gauss_newton_finish(residuals, x, lo, hi):
    """Gauss-Newton steps from x, clipped to the box, each from a
    central-difference Jacobian (relative step 1e-6), until a step is below
    1e-13 of |x| or no shorter than the one before: J^T r = 0 to rounding.
    Returns x, cost, fun and jac like ``least_squares``' result."""
    x = np.asarray(x, dtype=float)
    last = math.inf
    for _ in range(50):
        r = residuals(x)
        J = _central_jacobian(residuals, x)
        step = np.clip(x + np.linalg.lstsq(J, -r, rcond=None)[0], lo, hi) - x
        size = float(np.linalg.norm(step))
        if size <= 1e-13 * float(np.linalg.norm(x)) or size >= last:
            break
        x, last = x + step, size
    r = residuals(x)
    return SimpleNamespace(x=x, cost=0.5 * float(r @ r), fun=r, jac=_central_jacobian(residuals, x))


def fit_multistart(data: KIEDataset, config: Optional[FitConfig] = None) -> FitResult:
    """Weighted least-squares fit of the two-parameter KIE model.

    Weights are 1/sigma^2 when uncertainties are present, unit otherwise.
    Every (omega0, omegab) start on the configured grid is polished by
    scipy's trust-region ``least_squares`` (central-difference Jacobian),
    then finished by ``_gauss_newton_finish`` so that its optimum does not
    depend on where the 1e-12 tolerances stopped it; the best converged
    minimum wins. The covariance comes from the Gauss-Newton normal matrix
    at the optimum scaled by the residual variance. ``valid`` requires the
    coldest datum to sit 5% above the implied hydrogen-scaled crossover
    temperature.
    """
    if len(data) < 3:
        raise DomainError("need at least 3 points for a 2-parameter fit")
    config = config or FitConfig()
    T, y, sigma = data.sorted_arrays()
    w = np.ones_like(T) if sigma is None else 1.0 / sigma

    # Quick feasibility check: the smallest admissible omegab must leave
    # at least one point above the crossover.
    T0_floor = crossover_temperature(units._isotope_scaled(config.omegab_bounds[0], data.light))
    if np.max(T) <= (1.0 + _CROSSOVER_MARGIN) * T0_floor:
        raise FitConvergenceError(
            "all data points lie below the crossover temperature for every "
            "admissible barrier frequency"
        )

    def residuals(params):
        om0, omb = params
        return w * (kie_model(T, om0, omb, data.light, data.heavy) - y)

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
                    diff_step=_FIT_DIFF_STEP,
                    x_scale=(1000.0, 500.0),
                    ftol=1e-12,
                    xtol=1e-12,
                    gtol=1e-12,
                    max_nfev=_FIT_MAX_NFEV,
                )
            except (ValueError, FloatingPointError):
                continue
            if not res.success or not np.isfinite(res.cost):
                continue
            res = _gauss_newton_finish(residuals, res.x, lo, hi)
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


class PchipTable(TabulatedPotential):
    """A ``TabulatedPotential`` with every energy a call of scipy's
    ``PchipInterpolator``; the top and the brackets are the table's own."""

    def __init__(self, pot: TabulatedPotential):
        super().__init__(pot._knots, pot._U, pot.mass)
        # a TabulatedPotential refuses assignment once built
        object.__setattr__(self, "interp", PchipInterpolator(self._knots, self._U, extrapolate=False))

    def energy(self, x):
        knots = self._knots
        if x < knots[0] or x > knots[-1]:
            raise DomainError(
                f"x = {x:g} outside the tabulated range [{knots[0]:g}, {knots[-1]:g}]"
            )
        return float(self.interp(x))


def wkb_action_pchip(pot: TabulatedPotential, E: float) -> float:
    """``wkb_action`` of a tabulated potential, with the scipy interpolant
    evaluated at every turning-point and quadrature point."""
    return wkb_action_reference(PchipTable(pot), E)


def wkb_action_reference(pot, E: float) -> float:
    """``wkb_action`` with ``pot.energy`` called at every quadrature point,
    with the library's substitution and ``quad`` settings."""
    x1, x2 = turning_points(pot, E)
    mid = 0.5 * (x1 + x2)
    half = 0.5 * (x2 - x1)
    if half == 0.0:
        return 0.0

    def integrand(theta):
        x = mid + half * math.sin(theta)
        du = pot.energy(x) - E
        if du < 0.0:
            du = 0.0
        return math.sqrt(du) * half * math.cos(theta)

    floor = 1e-12 * half * math.sqrt(pot.barrier_height)
    tabulated = isinstance(pot, TabulatedPotential)
    with warnings.catch_warnings():
        if tabulated:
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, _ = integrate.quad(
            integrand, -0.5 * math.pi, 0.5 * math.pi, epsabs=floor, epsrel=1e-8 if tabulated else 1e-10,
            limit=300,
        )
    return units.ACTION_HBAR_FACTOR * math.sqrt(pot.mass) * val


def cubic_c3(pot: CubicBarrier) -> float:
    """c3 of a cubic barrier's top, in cm^-2/angstrom, from its constructor's
    parameters: with U = E_b - (1/2) M wb^2 (x-xb)^2 + M c3 (x-xb)^3/3,
    c3 = U'''/(2M) = -3 lambda/M, and lambda = M w0^2/(3 xb), so c3 = -w0^2/xb
    with xb = sqrt(6 E_b/(M w0^2)) (M w0^2 in kJ/mol per angstrom^2)."""
    k = units.CURVATURE_KJ_PER_MOL * pot.mass * pot.omega_0**2
    return -pot.omega_0**2 / math.sqrt(6.0 * pot.E_b / k)


def _bell_beta(T: float) -> float:
    # 1/(kB T) in mol/kJ
    return 1.0 / (units.KB_KJ_PER_MOL_K * T)


def bell_weight(pot, omega_b: float, T: float, E: float) -> float:
    """Bell's thermal weight w(E) = P(E) exp(beta (E_b - E)) of a barrier.

    Below the top P = 1/(1 + exp(2 S(E))) with S the library's
    ``wkb_action``; above it, its parabolic continuation, 2S = 2 pi (E_b -
    E)/(hbar omega_b), with the barrier frequency ``omega_b`` (cm^-1) given.
    Each side is written so that no exponential overflows.
    """
    depth = pot.barrier_height - E
    if depth > 0.0:
        two_s = 2.0 * wkb_action(pot, E)
        return math.exp(_bell_beta(T) * depth - two_s) / (1.0 + math.exp(-two_s))
    two_s = 2.0 * math.pi * depth / (units.CM1_TO_KJ_PER_MOL * omega_b)
    return math.exp(_bell_beta(T) * depth) / (1.0 + math.exp(two_s))


def bell_integral(pot, omega_b: float, T: float) -> float:
    """beta times the integral of ``bell_weight`` over E from the well bottom
    (E = 0) up, by quad below and above the top. For a parabolic barrier
    high enough that the cut at E = 0 costs nothing, it is xb/sin(xb), xb =
    hbar omega_b/(2 kB T) = pi T0/T: the closed form's barrier factor."""
    top = pot.barrier_height

    def w(E):
        return bell_weight(pot, omega_b, T, E)

    opts = dict(epsabs=0.0, epsrel=1e-13, limit=200)
    below, _ = integrate.quad(w, 0.0, top, **opts)
    above, _ = integrate.quad(w, top, math.inf, **opts)
    return _bell_beta(T) * (below + above)


def bell_mean_depth(pot, omega_b: float, T: float) -> float:
    """The ``bell_weight``-weighted mean depth E_b - E below the top, in kT,
    on 600 evenly spaced depths from 0.002 to 0.998 E_b."""
    top = pot.barrier_height
    depths = np.linspace(0.002, 0.998, 600) * top
    w = np.array([bell_weight(pot, omega_b, T, top - d) for d in depths.tolist()])
    return _bell_beta(T) * float(w @ depths / w.sum())


def wkb_action_mpmath(pot, E: float) -> float:
    """``wkb_action`` of a parabolic, Eckart or cubic barrier at 50 digits.

    The potential is rebuilt from the constructor's parameters and the
    library's float constants, the turning points are the roots of U - E
    (the cubic's by ``polyroots``), and mpmath's tanh-sinh quadrature runs
    between them on the library's substitution x = mid + half*sin(theta).
    """
    with mp.workdps(50):
        E, M = mp.mpf(E), mp.mpf(pot.mass)
        curvature = mp.mpf(units.CURVATURE_KJ_PER_MOL) * M
        if isinstance(pot, ParabolicBarrier):
            k, top = curvature * mp.mpf(pot.omega_b) ** 2, mp.mpf(pot.E_b)
            r = mp.sqrt(2 * (top - E) / k)
            x1, x2 = -r, r

            def U(x):
                return top - k * x * x / 2
        elif isinstance(pot, EckartBarrier):
            V0, w = mp.mpf(pot.V0), mp.mpf(pot.width)
            r = w * mp.acosh(mp.sqrt(V0 / E))
            x1, x2 = -r, r

            def U(x):
                return V0 / mp.cosh(x / w) ** 2
        elif isinstance(pot, CubicBarrier):
            k = curvature * mp.mpf(pot.omega_0) ** 2
            xb = mp.sqrt(6 * mp.mpf(pot.E_b) / k)
            lam = k / (3 * xb)
            # lambda x^3 - (k/2) x^2 + E = 0: one negative root, then the two
            # turning points in (0, 1.5 x_b)
            roots = mp.polyroots([lam, -k / 2, 0, E], maxsteps=200, extraprec=200)
            x1, x2 = sorted(mp.re(x) for x in roots)[1:]

            def U(x):
                return k * x * x / 2 - lam * x**3
        else:
            raise TypeError(f"no closed form for {type(pot).__name__}")
        mid, half = (x1 + x2) / 2, (x2 - x1) / 2

        def integrand(theta):
            du = U(mid + half * mp.sin(theta)) - E
            return mp.sqrt(max(du, 0)) * half * mp.cos(theta)

        val = mp.quad(integrand, [-mp.pi / 2, mp.pi / 2])
        return float(mp.mpf(units.ACTION_HBAR_FACTOR) * mp.sqrt(M) * val)
