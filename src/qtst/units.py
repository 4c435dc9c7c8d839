"""Physical constants and unit conversions used by every other module.

Conventions, fixed once here:

* frequencies are stored as wavenumbers (cm^-1) in the angular-frequency
  sense, i.e. omega[rad/s] = 2*pi*c * omega[cm^-1]
* temperatures in kelvin, energies in kJ/mol, times in ps, dipoles in debye
* constants are CODATA 2018; every derived conversion factor below comes
  from this one table so golden numbers are reproducible
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass

from .errors import DomainError, UnitCompatibilityError, _require_param

__all__ = ["Unit", "Quantity", "convert", "Isotope", "isotope_frequency"]

# CODATA 2018 (SI). Single source of truth.
PLANCK_J_S = 6.62607015e-34
BOLTZMANN_J_K = 1.380649e-23
SPEED_OF_LIGHT_M_S = 299792458.0
AVOGADRO_PER_MOL = 6.02214076e23
ELEMENTARY_CHARGE_C = 1.602176634e-19
VACUUM_PERMITTIVITY_F_M = 8.8541878128e-12
PROTON_MASS_KG = 1.67262192369e-27

HBAR_J_S = PLANCK_J_S / (2.0 * math.pi)
DEBYE_C_M = 1e-21 / SPEED_OF_LIGHT_M_S  # 3.33564e-30 C m

# Derived conversion factors.
CM1_TO_RAD_PER_S = 2.0 * math.pi * SPEED_OF_LIGHT_M_S * 100.0
CM1_TO_J = PLANCK_J_S * SPEED_OF_LIGHT_M_S * 100.0  # hbar * omega for 1 cm^-1
CM1_TO_KJ_PER_MOL = CM1_TO_J * AVOGADRO_PER_MOL / 1000.0  # 0.0119627
CM1_TO_K = CM1_TO_J / BOLTZMANN_J_K  # 1.4387769 K cm
KB_KJ_PER_MOL_K = BOLTZMANN_J_K * AVOGADRO_PER_MOL / 1000.0
KB_OVER_H_PER_S_K = BOLTZMANN_J_K / PLANCK_J_S

# Crossover temperature per unit effective barrier frequency:
# T0 = hbar*mu/(2*pi*kB) = CROSSOVER_K_PER_CM1 * mu[cm^-1]
CROSSOVER_K_PER_CM1 = CM1_TO_K / (2.0 * math.pi)  # 0.2289885 K cm

# Curvature M*omega^2, expressed as kJ/mol per (mass number * cm^-2 * A^2).
CURVATURE_KJ_PER_MOL = (
    PROTON_MASS_KG * CM1_TO_RAD_PER_S**2 * 1e-20 * AVOGADRO_PER_MOL / 1000.0
)

# Barrier-penetration action: S/hbar = ACTION_HBAR_FACTOR * sqrt(mass#) *
# integral of sqrt(U - E)[sqrt(kJ/mol)] dx[A].
ACTION_HBAR_FACTOR = (
    math.sqrt(2.0 * PROTON_MASS_KG * 1000.0 / AVOGADRO_PER_MOL) * 1e-10 / HBAR_J_S
)


class Unit(enum.Enum):
    WAVENUMBER = "cm^-1"
    KELVIN = "K"
    KJ_PER_MOL = "kJ/mol"
    RAD_PER_S = "rad/s"
    PICOSECOND = "ps"
    DEBYE = "D"


# Factors into the canonical frequency unit (cm^-1) for the energy-like
# family. Energy <-> frequency <-> temperature conversions go through
# hbar, kB and hc*N_A; time and dipole units do not mix with them.
_ENERGY_FAMILY_TO_CM1 = {
    Unit.WAVENUMBER: 1.0,
    Unit.KELVIN: 1.0 / CM1_TO_K,
    Unit.KJ_PER_MOL: 1.0 / CM1_TO_KJ_PER_MOL,
    Unit.RAD_PER_S: 1.0 / CM1_TO_RAD_PER_S,
}


@dataclass(frozen=True)
class Quantity:
    """A value with one of the six supported units."""

    value: float
    unit: Unit


def convert(q: Quantity, target: Unit) -> Quantity:
    """Convert ``q`` to ``target``, or raise ``UnitCompatibilityError``.

    Pure function; round-trips are identities to better than 1e-12
    relative.
    """
    if q.unit is target:
        return Quantity(q.value, target)
    try:
        to_cm1 = _ENERGY_FAMILY_TO_CM1[q.unit]
        from_cm1 = _ENERGY_FAMILY_TO_CM1[target]
    except KeyError:
        raise UnitCompatibilityError(q.unit, target) from None
    return Quantity(q.value * to_cm1 / from_cm1, target)


class Isotope(enum.Enum):
    """Hydrogen isotope labels with their unitless mass numbers."""

    H = 1.0
    D = 2.0
    T = 3.0

    @property
    def mass_number(self) -> float:
        return self.value

    @classmethod
    def from_label(cls, label: str) -> "Isotope":
        try:
            return cls[label.strip().upper()]
        except KeyError:
            raise DomainError(f"unknown isotope label {label!r}; expected H, D or T") from None

    @classmethod
    def pair(cls, text: str) -> tuple["Isotope", "Isotope"]:
        """(light, heavy) from "H:D", "H/D" or "HD", in any case, with
        whitespace around the labels; which pairs it allows is the caller's
        rule."""
        m = re.fullmatch(r"\s*(\w)\s*[:/]?\s*(\w)\s*", text)
        if m is None:
            raise DomainError(f"cannot parse isotope pair {text!r}; expected e.g. H:D, H/D or HD")
        return cls.from_label(m[1]), cls.from_label(m[2])


def isotope_frequency(omega_H, isotope: Isotope):
    """Scale a hydrogen frequency (cm^-1), a scalar or an array, to the
    given isotope.

    Frequencies enter as omega/sqrt(m) with m the unitless mass number,
    so heavier isotopes oscillate slower. This is the single code path
    for isotope scaling in the package. A negative, infinite or NaN
    frequency, or any such entry of an array, raises ``DomainError``.
    """
    return _isotope_scaled(_require_param("frequency", omega_H), isotope)


def _isotope_scaled(omega_H, isotope: Isotope):
    # isotope_frequency's body, for frequencies already checked
    return omega_H / math.sqrt(isotope.mass_number)
