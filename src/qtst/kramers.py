"""Classical escape rates over a parabolic barrier with memory friction.

The environment renormalises the barrier frequency omega_b down to an
effective frequency mu solving

    mu = sqrt(gamma_hat(mu)^2/4 + omega_b^2) - gamma_hat(mu)/2,

equivalently mu^2 + mu*gamma_hat(mu) = omega_b^2. The crossover
temperature below which deep tunneling becomes possible is
T0 = hbar*mu/(2*pi*kB), and the classical rate carries the mu/omega_b
transmission factor.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import units
from .errors import DomainError, SolverConvergenceError
from .spectral import DrudeFriction, FrictionModel, PeakedFriction
from .units import Isotope

__all__ = [
    "BarrierSystem",
    "EffectiveBarrier",
    "RateResult",
    "effective_barrier_frequency",
    "solve_effective_frequency",
    "crossover_temperature",
    "classical_rate",
    "classical_kie",
]


@dataclass(frozen=True)
class BarrierSystem:
    """Reaction-coordinate parameters for a hydrogen-transfer barrier.

    Frequencies are quoted for the hydrogen isotope (cm^-1); the barrier
    height is in kJ/mol. Isotope-scaled frequencies are derived through
    ``units.isotope_frequency`` only.
    """

    omega0_H: float
    omegab_H: float
    barrier_kJ_per_mol: float
    isotope: Isotope = Isotope.H

    def __post_init__(self):
        if self.omega0_H <= 0 or self.omegab_H <= 0:
            raise DomainError("well and barrier frequencies must be > 0")
        if self.barrier_kJ_per_mol < 0:
            raise DomainError("barrier height must be >= 0")

    @property
    def omega0(self) -> float:
        return units.isotope_frequency(self.omega0_H, self.isotope)

    @property
    def omegab(self) -> float:
        return units.isotope_frequency(self.omegab_H, self.isotope)

    def with_isotope(self, isotope: Isotope) -> "BarrierSystem":
        return BarrierSystem(self.omega0_H, self.omegab_H, self.barrier_kJ_per_mol, isotope)


@dataclass(frozen=True)
class EffectiveBarrier:
    """Root of the effective-frequency equation plus its crossover temperature."""

    mu_cm1: float
    T0_K: float
    residual: float

    def to_json(self) -> dict:
        return {"mu_cm1": self.mu_cm1, "T0_K": self.T0_K, "residual": self.residual}


@dataclass(frozen=True)
class RateResult:
    """A computed rate with its quantum correction and regime flags."""

    T_K: float
    rate_cm1: float
    rate_per_s: float
    c_qm: float
    mu_cm1: float
    T0_K: float
    regime: str  # classical | qtst | near_crossover | below_T0
    equilibrium_ok: Optional[bool] = None
    equilibrium_margin: Optional[float] = None
    terms_used: Optional[int] = None

    def to_json(self) -> dict:
        return {
            "T_K": self.T_K,
            "rate_cm1": self.rate_cm1,
            "rate_per_s": self.rate_per_s,
            "c_qm": self.c_qm,
            "mu_cm1": self.mu_cm1,
            "T0_K": self.T0_K,
            "regime": self.regime,
            "equilibrium_ok": self.equilibrium_ok,
            "equilibrium_margin": self.equilibrium_margin,
            "terms_used": self.terms_used,
        }


def _mu_mismatch(mu: float, omegab: float, model: FrictionModel) -> float:
    g = model.laplace_kernel(mu)
    # sqrt(g^2/4 + wb^2) - g/2 rewritten to avoid cancellation at strong
    # friction: equals wb^2 / (sqrt(g^2/4 + wb^2) + g/2)
    rhs = omegab * omegab / (math.sqrt(0.25 * g * g + omegab * omegab) + 0.5 * g)
    return mu - rhs


def _bisect(f, lo: float, hi: float, omegab: float):
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise SolverConvergenceError(
            "effective-frequency equation has no sign change in bracket",
            bracket=(lo, hi),
        )
    while hi - lo > 1e-12 * omegab:
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if flo * fm < 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def solve_effective_frequency(omegab: float, model: Optional[FrictionModel]) -> tuple[float, float]:
    """Solve for mu on (0, omega_b]; returns (mu, residual).

    A ``PeakedFriction`` takes the largest root of its quartic; other
    models bisect on the guaranteed bracket. One Newton polish follows.
    A subclass of ``PeakedFriction`` that overrides the kernel may admit
    several roots: all sign changes on a dense scan are located, the
    largest root is returned and a warning is issued.
    """
    if omegab <= 0:
        raise DomainError("omega_b must be > 0")
    if model is None:
        return omegab, 0.0

    def f(mu):
        return _mu_mismatch(mu, omegab, model)

    lo = 1e-12 * omegab
    # looked up per call, so a wrapper installed on the class still counts
    # as the built-in kernel
    if type(model).laplace_kernel is PeakedFriction.laplace_kernel:
        mu = _peaked_mu_quartic(omegab, model, lo)
    elif isinstance(model, PeakedFriction):
        grid = np.linspace(lo, omegab, 10_000)
        vals = np.array([f(x) for x in grid])
        sign_flips = np.nonzero(np.diff(np.signbit(vals)))[0]
        roots = [_bisect(f, grid[i], grid[i + 1], omegab) for i in sign_flips]
        # a sign flip onto an exact zero at omega_b already bisected to it
        if vals[-1] == 0.0 and omegab not in roots:
            roots.append(omegab)
        if not roots:
            raise SolverConvergenceError(
                "no root of the effective-frequency equation found",
                bracket=(lo, omegab),
            )
        if len(roots) > 1:
            warnings.warn(
                f"effective-frequency equation has {len(roots)} roots for this "
                "structured bath; returning the largest",
                RuntimeWarning,
                stacklevel=2,
            )
        mu = max(roots)
    else:
        mu = _bisect(f, lo, omegab, omegab)

    # One Newton polish with a numerical derivative.
    h = 1e-7 * omegab
    d = (f(min(mu + h, omegab)) - f(max(mu - h, lo))) / (min(mu + h, omegab) - max(mu - h, lo))
    if d != 0.0:
        step = f(mu) / d
        polished = mu - step
        if lo < polished <= omegab and abs(f(polished)) < abs(f(mu)):
            mu = polished

    residual = abs(f(mu))
    if residual > 1e-10 * omegab:
        raise SolverConvergenceError(
            f"effective-frequency residual {residual:g} exceeds tolerance",
            bracket=(lo, omegab),
        )

    if isinstance(model, DrudeFriction):
        mu_cubic = _drude_mu_cubic(omegab, model.gamma, model.omega_d)
        if abs(mu_cubic - mu) > 1e-8 * omegab:
            raise SolverConvergenceError(
                f"Drude cross-validation failed: iterative mu={mu:g} vs cubic mu={mu_cubic:g}",
                bracket=(lo, omegab),
            )
    return mu, residual


def _peaked_mu_quartic(omegab: float, model: PeakedFriction, lo: float) -> float:
    # mu^2 + mu*gamma_hat(mu) = wb^2 times mu^2 + Gamma*mu + wr^2 is
    # mu^4 + G mu^3 + (wr^2 - wb^2 + gr G) mu^2 - wb^2 G mu - wb^2 wr^2 = 0,
    # solved for x = mu/wb so the coefficients are of order one.
    # mu^2 + mu*gamma_hat(mu) increases with mu, so one root lies in (0, wb].
    g, gr, wr = model.width / omegab, model.gamma_r / omegab, model.omega_r / omegab
    roots = np.roots([1.0, g, wr * wr - 1.0 + gr * g, -g, -wr * wr])
    real = [
        r.real * omegab
        for r in roots
        if abs(r.imag) < 1e-9 and lo < r.real * omegab <= omegab * (1.0 + 1e-9)
    ]
    if not real:
        raise SolverConvergenceError(
            "Peaked quartic has no real root in (0, omega_b]", bracket=(lo, omegab)
        )
    return float(min(max(real), omegab))


def _drude_mu_cubic(omegab: float, gamma: float, omega_d: float) -> float:
    # mu^2 - omega_b^2 + mu*omega_d*gamma/(omega_d + mu) = 0 cleared of its
    # denominator is a cubic with exactly one positive real root.
    coeffs = [1.0, omega_d, gamma * omega_d - omegab**2, -(omegab**2) * omega_d]
    roots = np.roots(coeffs)
    real = [r.real for r in roots if abs(r.imag) < 1e-9 * omegab and r.real > 0]
    if not real:
        raise SolverConvergenceError("Drude cubic has no positive real root")
    return max(real)


def effective_barrier_frequency(
    system: BarrierSystem, model: Optional[FrictionModel] = None
) -> EffectiveBarrier:
    """Friction-renormalised barrier frequency and crossover temperature."""
    mu, residual = solve_effective_frequency(system.omegab, model)
    return EffectiveBarrier(mu_cm1=mu, T0_K=crossover_temperature(mu), residual=residual)


def crossover_temperature(mu: float) -> float:
    """T0 = hbar*mu/(2*pi*kB) = 0.228988 K per cm^-1 of mu."""
    if mu < 0:
        raise DomainError("mu must be >= 0")
    return units.CROSSOVER_K_PER_CM1 * mu


def classical_rate(
    system: BarrierSystem, model: Optional[FrictionModel], T: float
) -> RateResult:
    """Classical escape rate (mu/omega_b) * (omega_0/2pi) * exp(-E_b/kB T).

    The rate is reported both in angular cm^-1 units and in s^-1.
    """
    if T <= 0:
        raise DomainError("temperature must be > 0")
    barrier = effective_barrier_frequency(system, model)
    beta_e = system.barrier_kJ_per_mol / (units.KB_KJ_PER_MOL_K * T)
    rate_cm1 = (barrier.mu_cm1 / system.omegab) * system.omega0 / (2.0 * math.pi) * math.exp(-beta_e)
    return RateResult(
        T_K=T,
        rate_cm1=rate_cm1,
        rate_per_s=rate_cm1 * units.CM1_TO_RAD_PER_S,
        c_qm=1.0,
        mu_cm1=barrier.mu_cm1,
        T0_K=barrier.T0_K,
        regime="classical",
    )


def classical_kie(
    system: BarrierSystem,
    model: Optional[FrictionModel],
    light: Isotope,
    heavy: Isotope,
    T: Optional[float] = None,
) -> float:
    """Classical kinetic isotope effect (mu/omega_b ratio of the isotopes).

    The barrier height cancels, so the result is temperature independent;
    ``T`` is accepted for interface symmetry and ignored. Bounded by
    1 <= KIE <= sqrt(m_heavy/m_light), the upper bound reached at strong
    friction.
    """
    if light.mass_number >= heavy.mass_number:
        raise DomainError("light isotope must be lighter than heavy isotope")
    ratios = []
    for iso in (light, heavy):
        omegab = units.isotope_frequency(system.omegab_H, iso)
        mu, _ = solve_effective_frequency(omegab, model)
        ratios.append(mu / omegab)
    return ratios[0] / ratios[1]
