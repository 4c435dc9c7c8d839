"""Kinetic isotope effects, apparent Arrhenius parameters, and diagnostics.

Above the crossover temperature the KIE between two hydrogen isotopes
depends on just two parameters, the reactant-well frequency omega_0 and
the barrier frequency omega_b (both quoted for hydrogen):

    k_l/k_h = sqrt(m_h/m_l) * sinh(x0/sqrt(m_l))/sinh(x0/sqrt(m_h))
                            * sin(xb/sqrt(m_h))/sin(xb/sqrt(m_l)),

x = hbar*omega/(2 kB T). That is sqrt(m_h/m_l) times the ratio of the two
isotopes' zero-friction corrections (omega_b/omega_0) sinh(x0)/sin(xb), each
at its own frequencies omega/sqrt(m); the closed form lives in
``qtst.qcorr``. Expanding around a reference temperature gives apparent
Arrhenius parameters that can be compared directly with the values
extracted from experimental Arrhenius plots.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from importlib import resources

from . import units
from .errors import BelowCrossoverError, DomainError, _require_param
from .kramers import _crossover_temperature
from .qcorr import _log_closed
from .units import Isotope, _isotope_scaled

__all__ = [
    "ArrheniusParams",
    "KIEPrediction",
    "ApparentArrhenius",
    "ClassificationReport",
    "kie_qtst",
    "apparent_arrhenius",
    "swain_schaad",
    "classify",
    "load_limits",
    "load_table1",
    "load_barrier_frequencies",
    "load_dataset_csv",
]


@dataclass(frozen=True)
class ArrheniusParams:
    """Prefactor A and activation energy E in k = A exp(-E/kB T)."""

    A: float
    E_kJ_per_mol: float

    def __post_init__(self):
        _require_param("Arrhenius prefactor", self.A, positive=True)


@dataclass(frozen=True)
class KIEPrediction:
    ratio: float
    T_K: float
    light: Isotope
    heavy: Isotope
    T0_light_K: float
    valid: bool

    def to_json(self) -> dict:
        return {
            "ratio": self.ratio,
            "T_K": self.T_K,
            "pair": f"{self.light.name}:{self.heavy.name}",
            "T0_light_K": self.T0_light_K,
            "valid": self.valid,
        }


@dataclass(frozen=True)
class ApparentArrhenius:
    """A_light/A_heavy and E_heavy - E_light from the local expansion."""

    a_ratio: float
    delta_E_kJ_per_mol: float
    T_R: float
    expansion_ok: bool

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ClassificationReport:
    """Tunneling-signature flags for one measured system."""

    kie: float
    a_ratio: float
    delta_E_kJ_per_mol: float
    pair: str
    kie_above_limit: bool
    delta_E_above_limit: bool
    prefactor_below_limit: bool
    outside_bell_low: bool
    outside_bell_high: bool
    referenced_limits: dict

    @property
    def kim_kreevoy_flags(self) -> tuple[bool, bool, bool]:
        return (self.kie_above_limit, self.delta_E_above_limit, self.prefactor_below_limit)

    def to_json(self) -> dict:
        return {
            "inputs": {
                "kie": self.kie,
                "a_ratio": self.a_ratio,
                "delta_E_kJ_per_mol": self.delta_E_kJ_per_mol,
                "pair": self.pair,
            },
            "kim_kreevoy": {
                "kie_above_limit": self.kie_above_limit,
                "delta_E_above_limit": self.delta_E_above_limit,
                "prefactor_below_limit": self.prefactor_below_limit,
            },
            "bell": {
                "outside_low": self.outside_bell_low,
                "outside_high": self.outside_bell_high,
            },
        }


def _require_kie_args(omega0_H, omegab_H, T, light: Isotope, heavy: Isotope) -> float:
    """Check KIE arguments; return the light isotope's crossover, the one that binds."""
    _require_param("omega0", omega0_H, positive=True)
    _require_param("omegab", omegab_H, positive=True)
    _require_param("temperature", T, positive=True)
    if light.mass_number > heavy.mass_number:
        raise DomainError("light isotope must not be heavier than heavy isotope")
    T0_light = _crossover_temperature(_isotope_scaled(omegab_H, light))
    if T <= T0_light:
        raise BelowCrossoverError(T, T0_light, label=light.name)
    return T0_light


def _log_kie(omega0_H, omegab_H, T, light: Isotope, heavy: Isotope):
    """log KIE = (1/2) log(m_h/m_l) + L(light) - L(heavy), with L the log of
    the closed-form correction at the isotope's frequencies; T may be an
    array, every entry above the light isotope's crossover."""

    def log_closed(iso):
        return _log_closed(_isotope_scaled(omega0_H, iso), _isotope_scaled(omegab_H, iso), T)

    return 0.5 * math.log(heavy.mass_number / light.mass_number) + log_closed(light) - log_closed(heavy)


def kie_qtst(
    omega0_H: float,
    omegab_H: float,
    T: float,
    light: Isotope = Isotope.H,
    heavy: Isotope = Isotope.D,
) -> KIEPrediction:
    """Predicted KIE at temperature T for the given isotope pair.

    Defined for T above the crossover of the light isotope, which crosses
    first since omega_b/sqrt(m) is largest for it.
    """
    T0_light = _require_kie_args(omega0_H, omegab_H, T, light, heavy)
    return KIEPrediction(
        ratio=math.exp(_log_kie(omega0_H, omegab_H, T, light, heavy)),
        T_K=T,
        light=light,
        heavy=heavy,
        T0_light_K=T0_light,
        valid=T >= 1.05 * T0_light,
    )


def apparent_arrhenius(
    omega0_H: float,
    omegab_H: float,
    T_R: float,
    light: Isotope = Isotope.H,
    heavy: Isotope = Isotope.D,
) -> ApparentArrhenius:
    """Apparent Arrhenius parameters of the KIE expanded about T_R.

    Returns A_light/A_heavy and E_heavy - E_light (kJ/mol). The expansion
    replaces the hyperbolic sines by exponentials, which assumes
    hbar*omega_0 well above 2 kB T_R; ``expansion_ok`` is False when the
    heavy isotope violates hbar*omega_0/sqrt(m) >= 4 kB T_R.
    """
    _require_kie_args(omega0_H, omegab_H, T_R, light, heavy)
    expansion_ok = (
        units.CM1_TO_K * omega0_H / math.sqrt(heavy.mass_number) >= 4.0 * T_R
    )
    s_l = 1.0 / math.sqrt(light.mass_number)
    s_h = 1.0 / math.sqrt(heavy.mass_number)
    b = units.CM1_TO_K * omegab_H / (2.0 * T_R)  # = beta_R hbar omega_b / 2
    cot_term = s_h / math.tan(b * s_h) - s_l / math.tan(b * s_l)

    a_ratio = (
        math.sqrt(heavy.mass_number / light.mass_number)
        * (math.sin(b * s_h) / math.sin(b * s_l))
        * math.exp(-b * cot_term)
    )
    delta_E = (
        0.5 * omega0_H * units.CM1_TO_KJ_PER_MOL * (s_l - s_h)
        + 0.5 * omegab_H * units.CM1_TO_KJ_PER_MOL * cot_term
    )
    return ApparentArrhenius(a_ratio, delta_E, T_R, expansion_ok)


def swain_schaad(kH: float, kD: float, kT: float) -> float:
    """Swain-Schaad exponent ln(kH/kT)/ln(kD/kT).

    Works equally on rates or on ratios sharing the tritium reference. In
    the unit-prefactor, zero-point-only limit at omega_0 ~ 3000 cm^-1 the
    value is 3.26.
    """
    for name, k in (("kH", kH), ("kD", kD), ("kT", kT)):
        _require_param(name, k, positive=True)
    denom = math.log(kD / kT)
    if denom == 0.0:
        raise DomainError("degenerate denominator: ln(kD/kT) = 0")
    return math.log(kH / kT) / denom


def classify(
    kie: float,
    a_ratio: float,
    delta_E_kJ_per_mol: float,
    pair: tuple[Isotope, Isotope] | str = (Isotope.H, Isotope.D),
) -> ClassificationReport:
    """Flag the standard tunneling criteria for one measured system.

    Kim-Kreevoy criteria (stated for H/D transfer): KIE above 6.4 near
    room temperature, activation-energy difference above 5.0 kJ/mol, and
    prefactor ratio below 0.7. Separately, prefactor ratios outside the
    Bell windows (0.3-1.7 for H/T, 0.5-1.4 for D/T and H/D) are flagged
    on each side. Thresholds are read from the bundled limits table.
    """
    if isinstance(pair, str):
        pair = Isotope.pair(pair)
    key = f"{pair[0].name}{pair[1].name}"
    limits = load_limits()
    if key not in limits["bell_prefactor_ranges"]["ranges"]:
        raise DomainError(f"unsupported isotope pair {key!r}; expected HD, HT or DT")
    kk = limits["kim_kreevoy"]
    lo, hi = limits["bell_prefactor_ranges"]["ranges"][key]
    return ClassificationReport(
        kie=kie,
        a_ratio=a_ratio,
        delta_E_kJ_per_mol=delta_E_kJ_per_mol,
        pair=key,
        kie_above_limit=kie > kk["kie_hd_min"],
        delta_E_above_limit=delta_E_kJ_per_mol > kk["delta_E_kJ_per_mol_min"],
        prefactor_below_limit=a_ratio < kk["a_ratio_hd_max"],
        outside_bell_low=a_ratio < lo,
        outside_bell_high=a_ratio > hi,
        referenced_limits=limits,
    )


def _load_json(name: str) -> dict:
    with resources.files("qtst.data").joinpath(name).open("r", encoding="utf-8") as fh:
        return json.load(fh)


def load_limits() -> dict:
    """Kim-Kreevoy and Bell threshold constants (versioned reference data)."""
    return _load_json("limits.json")


def load_table1() -> list[dict]:
    """Measured KIE Arrhenius parameters for enzymes and model reactions."""
    return _load_json("table1_kie.json")["rows"]


def load_barrier_frequencies() -> list[dict]:
    """Barrier frequencies from quantum chemistry, with max crossover T."""
    return _load_json("table3_omegab.json")["rows"]


def load_dataset_csv(name: str) -> str:
    """Return the text of a bundled dataset CSV (fig3_mcm.csv, fig4_mao.csv)."""
    return resources.files("qtst.data").joinpath(name).read_text(encoding="utf-8")
