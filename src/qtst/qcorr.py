"""Quantum corrections to the classical rate above the crossover temperature.

The full correction is the thermal-frequency product

    c_qm = prod_{n>=1} (w0^2 + n^2 v^2 + n v g(n v))
                     / (-wb^2 + n^2 v^2 + n v g(n v)),

with v = 2 pi kB T / hbar the smallest bosonic thermal frequency and g the
memory kernel. Every factor exceeds one, so quantum fluctuations always
enhance the rate. At zero friction the product collapses to the closed
sinh/sin form, which diverges at the crossover; the non-parabolic
crossover correction regularises that divergence with a scaled
complementary error function. ``correction_closed`` evaluates the closed
form for one isotope in Python floats; the KIE, a ratio of two of them,
takes the formula from ``qtst.kie`` for both isotopes at once.

The product is summed in log space: the first N log-terms exactly, the
rest by the midpoint Euler-Maclaurin formula with its integral by
Gauss-Legendre quadrature, all in one array call of the model's kernel
(see ``correction_product``). The points of each N are built once per
process and shared read-only, and the frictionless product takes no
kernel term. ``quantum_rate`` solves the effective frequency mu once and
shares it between the product, the classical rate and the equilibrium
check.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import units
from .errors import _LOG_MAX, BelowCrossoverError, DomainError, _exp_of_log, _require_param
from .kramers import BarrierSystem, RateResult, _classical_cm1, _crossover_temperature, solve_effective_frequency
from .spectral import FrictionModel, _kernel_body
from .units import Isotope

__all__ = [
    "CorrectionResult",
    "CrossoverParams",
    "correction_product",
    "correction_closed",
    "correction_crossover",
    "kappa_parameter",
    "weak_friction_margin",
    "quantum_rate",
]

# Matsubara frequency per kelvin: nu_1 = kB*T/(hbar*c) in cm^-1.
_NU_CM1_PER_K = 1.0 / units.CROSSOVER_K_PER_CM1

# The product's tail: at least _MIN_TERMS exact terms, then 24-node
# Gauss-Legendre on t in (0, 1) for n = (N + 1/2)/t, kept as the node
# factors 1/t and the weights w/t^2
_MIN_TERMS = 16
_t, _w = np.polynomial.legendre.leggauss(24)
_GL_INV_T = 2.0 / (_t + 1.0)
_GL_WEIGHTS = 0.5 * _w * _GL_INV_T**2
del _t, _w
# Leading error of the tail as a multiple of f^(5)(N + 1/2): the first
# omitted Euler-Maclaurin term, 31/967680, plus the errors of the f'
# stencil, (3/640)/24, and of the f''' stencil, (1/8)*7/5760
_TAIL_ERROR = 31.0 / 967680.0 + 3.0 / 15360.0 + 7.0 / 46080.0
_TOL_FLOOR = 1e-15

# Below this multiple of T0 a product or rate is near_crossover
_NEAR_CROSSOVER = 1.1

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class CorrectionResult:
    """Quantum correction factor with bookkeeping for reproducibility."""

    c_qm: float
    regime: str  # high_T | near_crossover, below 1.1*T0 (the product raises at or below T0)
    terms_used: int
    tail_estimate: float


@dataclass(frozen=True)
class CrossoverParams:
    """Anharmonic barrier-top parameters controlling the crossover width.

    B = 4*c3^2/(3*omega_b^2) + 3*c4 with c3 in cm^-2/angstrom and c4 in
    cm^-2/angstrom^2; kappa is dimensionless.
    """

    kappa: float
    B: float
    c3: float
    c4: float
    T0_K: float


def _exact_terms(c: float, term_tol: float) -> int:
    # The log-terms tend to f(n) = c/n^2 (c = a/nu^2), whose fifth
    # derivative at M = N + 1/2 is -720 c/M^7; a factor 4 leaves room for
    # the next order and for a kernel still short of its asymptote at M*nu
    bound = 4.0 * 720.0 * _TAIL_ERROR * c / max(term_tol, _TOL_FLOOR)
    return max(_MIN_TERMS, math.ceil(bound ** (1.0 / 7.0) - 0.5))


@functools.cache
def _nodes(N: int) -> np.ndarray:
    # The product's points over nu for N exact terms: n = 1..N+2, then the
    # tail's Gauss-Legendre n = (N + 1/2)/t; built once per N and shared
    # read-only, since N takes few values
    n = np.concatenate((np.arange(1.0, N + 3.0), (N + 0.5) * _GL_INV_T))
    n.flags.writeable = False
    return n


def _product(
    system: BarrierSystem, model: Optional[FrictionModel], T: float, T0: float, term_tol: float
) -> tuple[float, int, float]:
    # (c_qm, terms_used, tail_estimate) at a temperature, for the crossover
    # temperature T0 of a solved mu; T and term_tol come validated
    if T <= T0:
        raise BelowCrossoverError(T, T0)
    omega0, omegab = system.omega0, system.omegab
    nu = T * _NU_CM1_PER_K
    a = omega0 * omega0 + omegab * omegab
    N = _exact_terms(a / (nu * nu), term_tol)
    M = N + 0.5
    n = _nodes(N)
    x = n * nu
    if model is None:
        denom = x * x - omegab * omegab
    else:
        denom = x * x + x * _kernel_body(model)(x) - omegab * omegab
    if denom.min() <= 0.0:
        bad = float(n[np.argmax(denom <= 0.0)])
        raise DomainError(
            f"non-positive product denominator at term n={bad:g}: "
            "temperature is effectively at or below the crossover"
        )
    logs = np.log1p(a / denom)
    fm1, f0, f1, f2 = logs[N - 2 : N + 2].tolist()  # f at N-1, N, N+1, N+2
    d1 = (fm1 - 27.0 * f0 + 27.0 * f1 - f2) / 24.0  # f'(M)
    d3 = f2 - 3.0 * f1 + 3.0 * f0 - fm1  # f'''(M)
    tail = M * float(_GL_WEIGHTS @ logs[N + 2 :]) + d1 / 24.0 - 7.0 * d3 / 5760.0
    return _exp_of_log("c_qm", float(logs[:N].sum()) + tail), n.size, tail


def correction_product(
    system: BarrierSystem,
    model: Optional[FrictionModel] = None,
    T: float = 300.0,
    term_tol: float = 1e-9,
) -> CorrectionResult:
    """Evaluate the thermal-frequency product for c_qm.

    The log-terms f(n) = log(term_n) are summed exactly for n = 1..N, and
    the rest by the midpoint Euler-Maclaurin formula

        sum_{n>N} f(n) = int_{N+1/2}^inf f dn + f'(N+1/2)/24
                         - 7 f'''(N+1/2)/5760 + ...,

    with the integral by 24-node Gauss-Legendre quadrature after the change
    of variable n = (N+1/2)/t, and f', f''' from 4-point stencils on
    f(N-1..N+2). The N + 26 points take one array call of the model's own
    kernel, and none without friction; they are built once per N in a
    process and shared read-only. N is the smallest count, and at least
    16, for which four times the leading error of the tail (the first
    omitted Euler-Maclaurin term and the stencils' error) is at most
    ``term_tol``, so ``term_tol`` bounds the error of log c_qm; below
    1e-15, which double precision cannot resolve, it is taken as 1e-15.
    The bound assumes the kernel has taken its large-z form by about
    (N+1/2) times the first thermal frequency; a bath with strong friction
    out to thousands of times that frequency can exceed it. ``terms_used``
    counts the N + 26 points and ``tail_estimate`` is the tail's
    contribution to log c_qm. A log c_qm above 709.78, where c_qm
    overflows a double, raises ``DomainError``.
    """
    _require_param("temperature", T, positive=True)
    _require_param("term_tol", term_tol, positive=True)
    mu, _ = solve_effective_frequency(system.omegab, model)
    T0 = _crossover_temperature(mu)
    c_qm, terms_used, tail = _product(system, model, T, T0, term_tol)
    regime = "near_crossover" if T < _NEAR_CROSSOVER * T0 else "high_T"
    return CorrectionResult(c_qm=c_qm, regime=regime, terms_used=terms_used, tail_estimate=tail)


def _log_sinh(x):
    # log(sinh x) = x - ln 2 + log(1 - exp(-2x)): no overflow
    return x - _LN2 + math.log(-math.expm1(-2.0 * x))


def _log_closed(omega0, omegab, T):
    """log[(omega_b/omega_0) sinh(x0)/sin(xb)] with x = hbar*omega/(2 kB T),
    for T above T0 = crossover_temperature(omegab), from checked floats.

    Since sin(pi*T0/T) = sin(pi*(T - T0)/T), the sine takes the smaller
    argument: T - T0 keeps precision next to T0, and the direct argument is
    exact far above it.
    """
    T0 = _crossover_temperature(omegab)
    x0 = units.CM1_TO_K * omega0 / (2.0 * T)
    sin_xb = math.sin(math.pi * min(T0, T - T0) / T)
    return math.log(omegab / omega0) + _log_sinh(x0) - math.log(sin_xb)


def correction_closed(omega0: float, omegab: float, T: float) -> float:
    """Zero-friction closed form (omega_b/omega_0) sinh(x0)/sin(xb).

    x = hbar*omega/(2 kB T). Only defined above T0 = 0.228988*omega_b;
    diverges as T -> T0+ (an artefact of the parabolic barrier top), so
    temperatures within 1e-9 of T0 are rejected. A log above 709.78, where
    the value overflows a double, raises ``DomainError``.
    """
    _require_param("omega0", omega0, positive=True)
    _require_param("omegab", omegab, positive=True)
    _require_param("temperature", T, positive=True)
    T0 = _crossover_temperature(omegab)
    if T <= T0 * (1.0 + 1e-9):
        raise BelowCrossoverError(T, T0)
    return _exp_of_log("c_closed", _log_closed(omega0, omegab, T))


def _scaled_sine_ratio(s: float) -> float:
    # s / sin(s), stable at s = 0
    if abs(s) < 1e-12:
        return 1.0
    return s / math.sin(s)


_SQRT_PI = math.sqrt(math.pi)


def _exp_square(y: float) -> float:
    # exp(y^2) to a few ulps for |y| < 27: with Veltkamp's split y = yh + yl,
    # yh has 26 bits, so yh^2 is exact and only the small y^2 - yh^2 =
    # yl*(y + yh) is rounded
    c = 134217729.0 * y
    yh = c - (c - y)
    return math.exp(yh * yh) * math.exp((y - yh) * (y + yh))


def _erfcx(y: float) -> float:
    # exp(y^2) erfc(y) in Python floats: the asymptotic series
    # 1/(y sqrt(pi)) sum_n (-1)^n (2n-1)!!/(2y^2)^n above 26, where 11 terms
    # reach rounding and erfc nears underflow; exp(y^2) erfc(y) on [0, 26];
    # and 2 exp(y^2) - erfcx(-y) below 0, inf where 2 exp(y^2) overflows
    if y > 26.0:
        w = 0.5 / (y * y)
        total = term = 1.0
        for n in range(1, 12):
            term *= -(2 * n - 1) * w
            total += term
        return total / (y * _SQRT_PI)
    if y < 0.0:
        if y * y > _LOG_MAX - _LN2:
            return math.inf
        return 2.0 * _exp_square(y) - _erfcx(-y)
    return _exp_square(y) * math.erfc(y)


def correction_crossover(system: BarrierSystem, T: float, kappa_at_T0: float) -> float:
    """Crossover-regularised correction factor for a weakly damped barrier.

    With eps = (T0 - T)/T0 and y = -eps*(1 - eps/2)*kappa the factor is

        (omega_b/omega_0) sinh(x0) * sqrt(pi) * y * erfcx(y) / sin(xb),

    which is finite at T0 (the sine zero cancels against y -> 0) and
    approaches the closed form from below as y grows: its ratio to
    ``correction_closed`` is exactly sqrt(pi)*y*erfcx(y) =
    1 - 1/(2y^2) + O(y^-4), so the two agree within 5% only for
    y >= 2.94 (T >= 1.26*T0 at kappa = 10). erfcx avoids the overflow of
    exp(y^2)*erfc(y). Valid in the crossover neighbourhood and above,
    T > 0.9*T0. A value that overflows a double raises ``DomainError``.
    """
    _require_param("kappa", kappa_at_T0, positive=True)
    _require_param("temperature", T, positive=True)
    omega0, omegab = system.omega0, system.omegab
    T0 = _crossover_temperature(omegab)
    if T <= 0.9 * T0:
        raise DomainError(
            f"crossover correction is stated for T > 0.9*T0 = {0.9 * T0:g} K; got T = {T:g} K"
        )
    eps = (T0 - T) / T0
    y = -eps * (1.0 - 0.5 * eps) * kappa_at_T0
    # sin(xb) = -sin(s) with s = pi*eps/(1-eps); the y/sin(xb) ratio is
    # evaluated through s/sin(s) so the T -> T0 limit needs no special case.
    s = math.pi * eps / (1.0 - eps)
    q = (1.0 - 0.5 * eps) * (1.0 - eps) * kappa_at_T0 / math.pi * _scaled_sine_ratio(s)
    x0 = units.CM1_TO_K * omega0 / (2.0 * T)
    prefactor = _exp_of_log("(omega_b/omega_0) sinh(x0)", math.log(omegab / omega0) + _log_sinh(x0))
    value = prefactor * _SQRT_PI * q * _erfcx(y)
    if not value < math.inf:
        raise DomainError(
            f"c_crossover overflows a double at T = {T:g} K (y = {y:.6g}, kappa = {kappa_at_T0:g})"
        )
    return value


def kappa_parameter(
    mass: Isotope | float,
    omegab: float,
    c3: float,
    c4: float,
    T0: float,
) -> CrossoverParams:
    """Dimensionless crossover-width parameter from barrier anharmonicity.

    kappa = omega_b^2 * sqrt(8 M / (B kB T0)) with
    B = 4 c3^2/(3 omega_b^2) + 3 c4. Units: omega_b in cm^-1, c3 in
    cm^-2/angstrom, c4 in cm^-2/angstrom^2, mass in hydrogen mass numbers.
    For a smooth high barrier kappa is of order sqrt(E_b/(hbar omega_b)).
    """
    m = mass.mass_number if isinstance(mass, Isotope) else float(mass)
    _require_param("mass", m, positive=True)
    _require_param("omega_b", omegab, positive=True)
    _require_param("c3", c3, signed=True)
    _require_param("c4", c4, signed=True)
    _require_param("T0", T0, positive=True)
    B = 4.0 * c3 * c3 / (3.0 * omegab * omegab) + 3.0 * c4
    if B <= 0:
        raise DomainError(f"anharmonicity parameter B must be > 0, got {B:g}")
    B_si = B * units.CM1_TO_RAD_PER_S**2 / 1e-20  # rad^2 s^-2 m^-2
    omegab_si = omegab * units.CM1_TO_RAD_PER_S
    kappa = omegab_si**2 * math.sqrt(
        8.0 * m * units.PROTON_MASS_KG / (B_si * units.BOLTZMANN_J_K * T0)
    )
    return CrossoverParams(kappa=kappa, B=B, c3=c3, c4=c4, T0_K=T0)


def weak_friction_margin(model: Optional[FrictionModel], T: float) -> float:
    """Largest gamma_hat(n nu)/(n nu) over the thermal frequencies n nu.

    Small values justify the zero-friction closed form. For a passive bath
    g(z)/z = (2/pi) int Re gamma(w)/(w^2 + z^2) dw falls as z grows, so the
    largest is the n = 1 ratio, which takes one kernel call at nu.
    """
    _require_param("temperature", T, positive=True)
    if model is None:
        return 0.0
    nu = T * _NU_CM1_PER_K
    return float(_kernel_body(model)(nu) / nu)


def quantum_rate(
    system: BarrierSystem,
    model: Optional[FrictionModel] = None,
    T: float = 300.0,
    term_tol: float = 1e-9,
) -> RateResult:
    """Quantum-corrected rate: classical Kramers rate times c_qm.

    The one quantum rate; with ``model=None`` it is the frictionless rate
    (omega_0/2pi) (omega_b/omega_0) sinh(x0)/sin(xb) exp(-E_b/kB T), up to
    the product's ``term_tol``. The effective frequency mu is solved once
    and shared by the product, the classical rate and the equilibrium
    check gamma_hat(mu)/omega_b > kB T/E_b (the well stays thermalised):
    ``equilibrium_ok`` says whether it holds and ``equilibrium_margin`` is
    the ratio of its two sides. Both are False and 0.0 with no friction,
    and None at a zero barrier, where the check is undefined. A rate in
    1/s that overflows a double raises ``DomainError``, as a log c_qm above
    709.78 does.
    """
    _require_param("temperature", T, positive=True)
    _require_param("term_tol", term_tol, positive=True)
    mu, _ = solve_effective_frequency(system.omegab, model)
    T0 = _crossover_temperature(mu)
    c_qm, terms_used, _ = _product(system, model, T, T0, term_tol)
    classical_cm1 = _classical_cm1(system, mu, T)
    rate_per_s = (classical_cm1 * units.CM1_TO_RAD_PER_S) * c_qm
    # rate_per_s, CM1_TO_RAD_PER_S (about 1.9e11) times rate_cm1, overflows first
    if math.isinf(rate_per_s):
        log_rate = math.log(classical_cm1 * units.CM1_TO_RAD_PER_S) + math.log(c_qm)
        raise DomainError(f"rate_per_s overflows a double: log rate_per_s = {log_rate:.6g}")
    eq_ok = eq_margin = None
    if system.barrier_kJ_per_mol > 0:
        eq_ok, eq_margin = False, 0.0
        if model is not None:
            rhs = units.KB_KJ_PER_MOL_K * T / system.barrier_kJ_per_mol
            lhs = _kernel_body(model)(mu) / system.omegab
            eq_ok, eq_margin = lhs > rhs, lhs / rhs
    return RateResult(
        T_K=T,
        rate_cm1=classical_cm1 * c_qm,
        rate_per_s=rate_per_s,
        c_qm=c_qm,
        mu_cm1=mu,
        T0_K=T0,
        regime="near_crossover" if T < _NEAR_CROSSOVER * T0 else "qtst",
        equilibrium_ok=eq_ok,
        equilibrium_margin=eq_margin,
        terms_used=terms_used,
    )
