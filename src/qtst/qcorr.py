"""Quantum corrections to the classical rate above the crossover temperature.

The full correction is the thermal-frequency product

    c_qm = prod_{n>=1} (w0^2 + n^2 v^2 + n v g(n v))
                     / (-wb^2 + n^2 v^2 + n v g(n v)),

with v = 2 pi kB T / hbar the smallest bosonic thermal frequency and g the
memory kernel. Every factor exceeds one, so quantum fluctuations always
enhance the rate. At zero friction the product collapses to the closed
sinh/sin form, which diverges at the crossover; the non-parabolic
crossover correction regularises that divergence with a scaled
complementary error function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import erfcx, polygamma

from . import units
from .errors import BelowCrossoverError, DomainError, SolverConvergenceError
from .kramers import (
    BarrierSystem,
    RateResult,
    crossover_temperature,
    classical_rate,
    effective_barrier_frequency,
)
from .spectral import FrictionModel, _require_param
from .units import Isotope

__all__ = [
    "CorrectionResult",
    "CrossoverParams",
    "matsubara_frequency",
    "correction_product",
    "correction_closed",
    "wigner_rate",
    "semiclassical_rate",
    "correction_crossover",
    "kappa_parameter",
    "equilibrium_condition",
    "weak_friction_margin",
    "quantum_rate",
]

# Matsubara frequency per kelvin: nu_1 = kB*T/(hbar*c) in cm^-1.
_NU_CM1_PER_K = 1.0 / units.CROSSOVER_K_PER_CM1

_MAX_TERMS = 50_000_000

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class CorrectionResult:
    """Quantum correction factor with bookkeeping for reproducibility."""

    c_qm: float
    regime: str  # high_T | near_crossover | invalid_below_T0
    terms_used: int
    tail_estimate: float

    def to_json(self) -> dict:
        return {
            "c_qm": self.c_qm,
            "regime": self.regime,
            "terms_used": self.terms_used,
            "tail_estimate": self.tail_estimate,
        }


@dataclass(frozen=True)
class CrossoverParams:
    """Anharmonic barrier-top parameters controlling the crossover width.

    B = 4*c3^2/(3*omega_b^2) + 3*c4 with c3 in cm^-2/angstrom and c4 in
    cm^-2/angstrom^2; kappa is dimensionless. epsilon = (T0 - T)/T0 is
    negative above the crossover.
    """

    kappa: float
    B: float
    c3: float
    c4: float
    T0_K: float
    epsilon: Optional[float] = None

    def epsilon_at(self, T: float) -> float:
        return (self.T0_K - T) / self.T0_K


def matsubara_frequency(n: int, T: float) -> float:
    """n-th bosonic thermal frequency 2*pi*n*kB*T/hbar, in cm^-1."""
    _require_param("temperature", T, positive=True)
    return n * T * _NU_CM1_PER_K


def correction_product(
    system: BarrierSystem,
    model: Optional[FrictionModel] = None,
    T: float = 300.0,
    term_tol: float = 1e-9,
) -> CorrectionResult:
    """Evaluate the thermal-frequency product for c_qm.

    Terms are accumulated (in log space) until the log-term falls below
    ``term_tol``; the remaining tail is added analytically from the
    first-order expansion of the log-term, log(term_n) ~ (w0^2+wb^2)/(n v)^2,
    summed exactly with the trigamma function. The default tolerance keeps
    the post-tail truncation error far below 1e-8 while staying fast on
    dense temperature grids.
    """
    _require_param("temperature", T, positive=True)
    barrier = effective_barrier_frequency(system, model)
    if T <= barrier.T0_K:
        raise BelowCrossoverError(T, barrier.T0_K)

    omega0, omegab = system.omega0, system.omegab
    nu = matsubara_frequency(1, T)
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


def _log_sinh(x, xp):
    # log(sinh x) = x - ln 2 + log(1 - exp(-2x)), xp = math or numpy: no overflow
    return x - _LN2 + xp.log(-xp.expm1(-2.0 * x))


def _log_closed(omega0, omegab, T):
    """log[(omega_b/omega_0) sinh(x0)/sin(xb)] with x = hbar*omega/(2 kB T),
    for T (a scalar or an array) above T0 = crossover_temperature(omegab).

    The one home of the closed form; ``correction_closed``, ``wigner_rate``
    and the KIE all use it. Since sin(pi*T0/T) = sin(pi*(T - T0)/T), the
    sine takes the smaller argument: T - T0 keeps precision next to T0, and
    the direct argument is exact far above it. A scalar T is evaluated with
    ``math``, which is several times faster than numpy on one number.
    """
    xp, minimum = (np, np.minimum) if isinstance(T, np.ndarray) else (math, min)
    T0 = crossover_temperature(omegab)
    x0 = units.CM1_TO_K * omega0 / (2.0 * T)
    sin_xb = xp.sin(math.pi * minimum(T0, T - T0) / T)
    return math.log(omegab / omega0) + _log_sinh(x0, xp) - xp.log(sin_xb)


def _require_above_crossover(omegab: float, T: float) -> float:
    # the closed form diverges as T -> T0+, so T within 1e-9 of T0 is rejected
    _require_param("temperature", T, positive=True)
    T0 = crossover_temperature(omegab)
    if T <= T0 * (1.0 + 1e-9):
        raise BelowCrossoverError(T, T0)
    return T0


def correction_closed(omega0: float, omegab: float, T: float) -> float:
    """Zero-friction closed form (omega_b/omega_0) sinh(x0)/sin(xb).

    x = hbar*omega/(2 kB T). Only defined above T0 = 0.228988*omega_b;
    diverges as T -> T0+ (an artefact of the parabolic barrier top), so
    temperatures within 1e-9 of T0 are rejected.
    """
    _require_param("omega0", omega0, positive=True)
    _require_param("omegab", omegab, positive=True)
    _require_above_crossover(omegab, T)
    return math.exp(_log_closed(omega0, omegab, T))


def wigner_rate(system: BarrierSystem, T: float) -> RateResult:
    """Frictionless quantum rate (omega_b/4pi) sinh/sin exp(-E_b/kB T).

    Provided as a standalone diagnostic; it differs from the normative
    classical-rate-times-product form by a factor of 2 in the prefactor
    convention (see ``quantum_rate``).
    """
    omega0, omegab = system.omega0, system.omegab
    T0 = _require_above_crossover(omegab, T)
    beta_e = system.barrier_kJ_per_mol / (units.KB_KJ_PER_MOL_K * T)
    log_rate_cm1 = math.log(omega0 / (4.0 * math.pi)) + _log_closed(omega0, omegab, T) - beta_e
    rate_cm1 = math.exp(log_rate_cm1)
    regime = "near_crossover" if T < 1.1 * T0 else "qtst"
    return RateResult(
        T_K=T,
        rate_cm1=rate_cm1,
        rate_per_s=rate_cm1 * units.CM1_TO_RAD_PER_S,
        c_qm=math.nan,
        mu_cm1=omegab,
        T0_K=T0,
        regime=regime,
    )


def semiclassical_rate(system: BarrierSystem, T: float) -> RateResult:
    """Zero-point-corrected activated rate (kB T/h) exp(-(E_b - hbar w0/2)/kB T)."""
    _require_param("temperature", T, positive=True)
    zero_point = 0.5 * system.omega0 * units.CM1_TO_KJ_PER_MOL
    exponent = -(system.barrier_kJ_per_mol - zero_point) / (units.KB_KJ_PER_MOL_K * T)
    rate_s = units.KB_OVER_H_PER_S_K * T * math.exp(exponent)
    return RateResult(
        T_K=T,
        rate_cm1=rate_s / units.CM1_TO_RAD_PER_S,
        rate_per_s=rate_s,
        c_qm=math.nan,
        mu_cm1=system.omegab,
        T0_K=crossover_temperature(system.omegab),
        regime="classical",
    )


def _scaled_sine_ratio(s: float) -> float:
    # s / sin(s), stable at s = 0
    if abs(s) < 1e-12:
        return 1.0
    return s / math.sin(s)


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
    T > 0.9*T0.
    """
    _require_param("kappa", kappa_at_T0, positive=True)
    _require_param("temperature", T, positive=True)
    omega0, omegab = system.omega0, system.omegab
    T0 = crossover_temperature(omegab)
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
    prefactor = math.exp(math.log(omegab / omega0) + _log_sinh(x0, math))
    return prefactor * math.sqrt(math.pi) * q * float(erfcx(y))


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
    if m <= 0:
        raise DomainError("mass must be > 0")
    if omegab <= 0 or T0 <= 0:
        raise DomainError("omega_b and T0 must be > 0")
    B = 4.0 * c3 * c3 / (3.0 * omegab * omegab) + 3.0 * c4
    if B <= 0:
        raise DomainError(f"anharmonicity parameter B must be > 0, got {B:g}")
    B_si = B * units.CM1_TO_RAD_PER_S**2 / 1e-20  # rad^2 s^-2 m^-2
    omegab_si = omegab * units.CM1_TO_RAD_PER_S
    kappa = omegab_si**2 * math.sqrt(
        8.0 * m * units.PROTON_MASS_KG / (B_si * units.BOLTZMANN_J_K * T0)
    )
    return CrossoverParams(kappa=kappa, B=B, c3=c3, c4=c4, T0_K=T0)


def equilibrium_condition(
    system: BarrierSystem, model: Optional[FrictionModel], T: float
) -> tuple[bool, float]:
    """Check gamma_hat(mu)/omega_b > kB T / E_b (well stays thermalised).

    Returns (satisfied, margin) with margin the ratio of the two sides;
    very weak friction with a low barrier invalidates the equilibrium
    assumption behind the rate expressions.
    """
    _require_param("temperature", T, positive=True)
    if system.barrier_kJ_per_mol == 0:
        raise DomainError("equilibrium condition is undefined for a zero barrier")
    rhs = units.KB_KJ_PER_MOL_K * T / system.barrier_kJ_per_mol
    if model is None:
        return False, 0.0
    barrier = effective_barrier_frequency(system, model)
    lhs = model.laplace_kernel(barrier.mu_cm1) / system.omegab
    return lhs > rhs, lhs / rhs


def weak_friction_margin(model: Optional[FrictionModel], T: float) -> float:
    """Largest gamma_hat(n nu)/(n nu) over the thermal frequencies.

    Small values justify the zero-friction closed form; the n = 1 term
    dominates for kernels that decay with z.
    """
    if model is None:
        return 0.0
    x = np.arange(1, 9, dtype=float) * matsubara_frequency(1, T)
    return float(np.max(model.laplace_kernel(x) / x))


def quantum_rate(
    system: BarrierSystem,
    model: Optional[FrictionModel] = None,
    T: float = 300.0,
    term_tol: float = 1e-9,
) -> RateResult:
    """Quantum-corrected rate: classical Kramers rate times c_qm.

    This product form is the normative rate output; ``wigner_rate`` is a
    frictionless diagnostic differing by a factor-2 prefactor convention.
    """
    corr = correction_product(system, model, T, term_tol=term_tol)
    base = classical_rate(system, model, T)
    eq_ok = eq_margin = None
    if system.barrier_kJ_per_mol > 0:
        eq_ok, eq_margin = equilibrium_condition(system, model, T)
    return RateResult(
        T_K=T,
        rate_cm1=base.rate_cm1 * corr.c_qm,
        rate_per_s=base.rate_per_s * corr.c_qm,
        c_qm=corr.c_qm,
        mu_cm1=base.mu_cm1,
        T0_K=base.T0_K,
        regime="near_crossover" if corr.regime == "near_crossover" else "qtst",
        equilibrium_ok=eq_ok,
        equilibrium_margin=eq_margin,
        terms_used=corr.terms_used,
    )
