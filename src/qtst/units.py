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

from .errors import DomainError

__all__ = ["Isotope"]

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
        """The isotope named "H", "D" or "T", in any case, with whitespace
        around it. Anything but a string raises ``DomainError``, as a bad
        string does."""
        try:
            if isinstance(label, str):
                return cls[label.strip().upper()]
        except KeyError:
            pass
        raise DomainError(f"unknown isotope label {label!r}; expected H, D or T")

    @classmethod
    def pair(cls, text: str) -> tuple["Isotope", "Isotope"]:
        """(light, heavy) from "H:D", "H/D" or "HD", in any case, with
        whitespace around the labels; which pairs it allows is the caller's
        rule. Anything but a string raises ``DomainError``, as a bad string does."""
        m = re.fullmatch(r"\s*(\w)\s*[:/]?\s*(\w)\s*", text) if isinstance(text, str) else None
        if m is None:
            raise DomainError(f"cannot parse isotope pair {text!r}; expected e.g. H:D, H/D or HD")
        return cls.from_label(m[1]), cls.from_label(m[2])


def _isotope_scaled(omega_H, isotope: Isotope):
    # a hydrogen frequency (cm^-1), already checked, scaled to the isotope:
    # omega/sqrt(m), so heavier isotopes oscillate slower
    return omega_H / math.sqrt(isotope.mass_number)


def _require_isotope_order(light: Isotope, heavy: Isotope) -> None:
    # the one rule for an isotope pair: the light isotope may not be the
    # heavier one; an equal pair (a KIE of 1) is allowed
    if light.mass_number > heavy.mass_number:
        raise DomainError("light isotope must not be heavier than heavy isotope")
