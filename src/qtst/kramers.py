"""Classical escape rates over a parabolic barrier with memory friction.

The environment renormalises the barrier frequency omega_b down to an
effective frequency mu solving

    mu = sqrt(gamma_hat(mu)^2/4 + omega_b^2) - gamma_hat(mu)/2,

equivalently mu^2 + mu*gamma_hat(mu) = omega_b^2. The crossover
temperature below which deep tunneling becomes possible is
T0 = hbar*mu/(2*pi*kB), and the classical rate carries the mu/omega_b
transmission factor.

The environment is a passive bath: the kernel is the Laplace transform of
a non-negative friction spectrum. Then z*gamma_hat(z) = (2/pi) int
Re gamma(w) z^2/(w^2 + z^2) dw increases with z, the equation has exactly
one root on (0, omega_b], and Brent's method solves it on the whole
interval for every model. A user kernel that is no such transform may
have several roots; the solve returns one of them, with no promise about
which.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from . import units
from .errors import SolverConvergenceError, _brent, _check_fields, _require_param
from .spectral import FrictionModel, _kernel_body
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
    height is in kJ/mol; all three are stored as Python floats. The
    isotope-scaled frequencies ``omega0`` and ``omegab`` are derived
    from the checked fields once, on construction; they are
    not dataclass fields, so equality, hashing, ``repr`` and
    ``dataclasses.replace`` see only the four fields:
    ``replace(system, isotope=Isotope.D)`` is the same barrier for D.
    """

    omega0_H: float
    omegab_H: float
    barrier_kJ_per_mol: float
    isotope: Isotope = Isotope.H

    def __post_init__(self):
        _check_fields(self, "omega0_H", "omegab_H", positive=True)
        _check_fields(self, "barrier_kJ_per_mol")
        object.__setattr__(self, "omega0", units._isotope_scaled(self.omega0_H, self.isotope))
        object.__setattr__(self, "omegab", units._isotope_scaled(self.omegab_H, self.isotope))


@dataclass(frozen=True)
class EffectiveBarrier:
    """Root of the effective-frequency equation plus its crossover temperature."""

    mu_cm1: float
    T0_K: float
    residual: float


@dataclass(frozen=True)
class RateResult:
    """A computed rate with its quantum correction and regime flags."""

    T_K: float
    rate_cm1: float
    rate_per_s: float
    c_qm: float
    mu_cm1: float
    T0_K: float
    regime: str  # classical | qtst | near_crossover, T < 1.1*T0 (quantum_rate raises at or below T0)
    equilibrium_ok: Optional[bool] = None
    equilibrium_margin: Optional[float] = None
    terms_used: Optional[int] = None


def _mu_mismatch(mu: float, omegab: float, kernel) -> float:
    # sqrt(g^2/4 + wb^2) - g/2 rewritten as wb/(s + r/2) with r = g/wb and
    # s = sqrt(1 + r^2/4): nothing cancels at strong friction, and g = 0
    # gives wb exactly. A negative kernel takes the equal wb*(s - r/2),
    # which does not cancel to 0 either
    r = kernel(mu) / omegab
    s = math.sqrt(1.0 + 0.25 * r * r)
    return mu - (omegab * (s - 0.5 * r) if r < 0.0 else omegab / (s + 0.5 * r))


def solve_effective_frequency(omegab: float, model: Optional[FrictionModel]) -> tuple[float, float]:
    """Solve for mu on (0, omega_b]; returns (mu, residual).

    mu^2 + mu*gamma_hat(mu) - omega_b^2 is negative near 0 and >= 0 at
    omega_b. The kernel must be the Laplace transform of a non-negative
    friction spectrum Re gamma(w), as every built-in kernel is. Then
    z*gamma_hat(z) = (2/pi) int Re gamma(w) z^2/(w^2 + z^2) dw (see
    ``qtst.spectral``) increases with z, so the mismatch increases and has
    exactly one root, which Brent's method finds on
    [1e-12*omega_b, omega_b]. For any other kernel the root returned is
    one root, with no promise about which. Every z lies in the bracket
    checked with ``omega_b``, so the solve calls the model's ``_kernel``
    (or a subclass's own ``laplace_kernel``), taken once per solve, with a
    Python float.
    """
    omegab = _require_param("omega_b", omegab, positive=True)
    if model is None:
        return omegab, 0.0
    kernel = _kernel_body(model)

    def f(mu):
        return _mu_mismatch(mu, omegab, kernel)

    lo = 1e-12 * omegab
    mu, f_mu = _brent(f, lo, omegab)
    residual = abs(f_mu)
    if residual > 1e-10 * omegab:
        raise SolverConvergenceError(
            f"effective-frequency residual {residual:g} exceeds tolerance",
            bracket=(lo, omegab),
        )
    return mu, residual


def effective_barrier_frequency(
    system: BarrierSystem, model: Optional[FrictionModel] = None
) -> EffectiveBarrier:
    """Friction-renormalised barrier frequency and crossover temperature."""
    mu, residual = solve_effective_frequency(system.omegab, model)
    return EffectiveBarrier(mu_cm1=mu, T0_K=_crossover_temperature(mu), residual=residual)


def crossover_temperature(mu):
    """T0 = hbar*mu/(2*pi*kB) = 0.228988 K per cm^-1 of mu, for a scalar or
    an array mu; a negative, infinite or NaN mu, or any such entry, raises
    ``DomainError``."""
    return _crossover_temperature(_require_param("mu", mu))


def _crossover_temperature(mu):
    # crossover_temperature's body, for a mu already checked or solved
    return units.CROSSOVER_K_PER_CM1 * mu


def classical_rate(
    system: BarrierSystem, model: Optional[FrictionModel], T: float
) -> RateResult:
    """Classical escape rate (mu/omega_b) * (omega_0/2pi) * exp(-E_b/kB T).

    The rate is reported both in angular cm^-1 units and in s^-1.
    """
    _require_param("temperature", T, positive=True)
    mu, _ = solve_effective_frequency(system.omegab, model)
    rate_cm1 = _classical_cm1(system, mu, T)
    return RateResult(T_K=T, rate_cm1=rate_cm1, rate_per_s=rate_cm1 * units.CM1_TO_RAD_PER_S, c_qm=1.0,
                      mu_cm1=mu, T0_K=_crossover_temperature(mu), regime="classical")


def _classical_cm1(system: BarrierSystem, mu: float, T: float) -> float:
    # the classical rate in cm^-1 for a solved mu, at a validated T
    beta_e = system.barrier_kJ_per_mol / (units.KB_KJ_PER_MOL_K * T)
    return (mu / system.omegab) * system.omega0 / (2.0 * math.pi) * math.exp(-beta_e)


def classical_kie(
    system: BarrierSystem,
    model: Optional[FrictionModel],
    light: Isotope,
    heavy: Isotope,
) -> float:
    """Classical kinetic isotope effect (mu/omega_b ratio of the isotopes).

    The barrier height cancels, so the result is temperature independent.
    Its ratio to sqrt(m_heavy/m_light) is (mu_h + g(mu_h))/(mu_l + g(mu_l)),
    with g the Laplace-transformed kernel. So it is at most
    sqrt(m_heavy/m_light), the value reached at strong Ohmic friction,
    wherever z + g(z) does not fall between the two mu. A kernel with g' < -1 there can exceed it: a
    slow Drude bath (gamma > omega_d), or a Debye dielectric at small
    omega_b. It is at least 1 wherever g(z)/z does not rise between the two
    mu. An equal pair gives 1; a light isotope heavier than the heavy one
    raises ``DomainError``.
    """
    units._require_isotope_order(light, heavy)
    ratios = []
    for iso in (light, heavy):
        omegab = units._isotope_scaled(system.omegab_H, iso)
        mu, _ = solve_effective_frequency(omegab, model)
        ratios.append(mu / omegab)
    return ratios[0] / ratios[1]
