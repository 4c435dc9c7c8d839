"""Kinetic isotope effects, apparent Arrhenius parameters, and diagnostics.

Above the crossover temperature the KIE between two hydrogen isotopes
depends on just two parameters, the reactant-well frequency omega_0 and
the barrier frequency omega_b (both quoted for hydrogen):

    k_l/k_h = sqrt(m_h/m_l) * sinh(x0/sqrt(m_l))/sinh(x0/sqrt(m_h))
                            * sin(xb/sqrt(m_h))/sin(xb/sqrt(m_l)),

x = hbar*omega/(2 kB T). That is sqrt(m_h/m_l) times the ratio of the two
isotopes' zero-friction corrections (omega_b/omega_0) sinh(x0)/sin(xb), each
at its own frequencies omega/sqrt(m). ``_log_factor`` is the one home of
that correction, once per isotope: ``qcorr.correction_closed`` takes it,
and ``kie_qtst``, the fit's screen and its model take log KIE from two of
its calls in ``_log_kie``. Expanding around a reference temperature gives
apparent Arrhenius parameters that can be compared directly with the
values extracted from experimental Arrhenius plots.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass
from functools import cache
from importlib import resources

import numpy as np

from . import units
from .errors import BelowCrossoverError, DomainError, _require_array, _require_param
from .kramers import _crossover_temperature
from .units import Isotope, _isotope_scaled

__all__ = [
    "KIEPrediction",
    "ApparentArrhenius",
    "ClassificationReport",
    "kie_qtst",
    "apparent_arrhenius",
    "swain_schaad",
    "classify",
    "load_table1",
    "load_dataset_csv",
]


@dataclass(frozen=True)
class KIEPrediction:
    """A ``kie_qtst`` result: scalars for a scalar T, with T_K the T passed in; for
    an array T, ratio, T_K and valid are arrays of its shape. valid is False
    below 1.05*T0_light_K."""

    ratio: float | np.ndarray
    T_K: float | np.ndarray
    light: Isotope
    heavy: Isotope
    T0_light_K: float
    valid: bool | np.ndarray


@dataclass(frozen=True)
class ApparentArrhenius:
    """A_light/A_heavy and E_heavy - E_light from the local expansion."""

    a_ratio: float
    delta_E_kJ_per_mol: float
    T_R: float
    expansion_ok: bool


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


def _require_kie_args(omega0_H, omegab_H, T, light: Isotope, heavy: Isotope):
    """Check KIE arguments; return omega0, omegab and T as checked, and the light isotope's (binding) crossover."""
    omega0_H = _require_param("omega0", omega0_H, positive=True)
    omegab_H = _require_param("omegab", omegab_H, positive=True)
    T_checked = _require_array("temperature", T, positive=True)
    units._require_isotope_order(light, heavy)
    T0_light = _crossover_temperature(_isotope_scaled(omegab_H, light))
    if isinstance(T_checked, float) and T <= T0_light:
        raise BelowCrossoverError(T, T0_light, label=light.name)
    return omega0_H, omegab_H, T_checked, T0_light


def _is_valid(T, T0_light):
    # a prediction is trusted from 5% above the light isotope's crossover
    return T >= 1.05 * T0_light


def _log_factor(omega0, omegab, T):
    """log[2 sinh(x0)/sin(xb)] = x0 + log[(1 - exp(-2 x0))/sin(xb)], x =
    hbar*omega/(2 kB T), at one isotope's frequencies omega0 and omegab, which
    broadcast with T, every T above T0 = crossover_temperature(omegab).

    Since sin(pi*T0/T) = sin(pi*(T - T0)/T), the sine takes the smaller
    argument: T - T0 keeps precision next to T0, and the direct argument is
    exact far above it.
    """
    T0 = _crossover_temperature(omegab)
    x0 = (0.5 * units.CM1_TO_K) * omega0 / T
    return x0 + np.log(-np.expm1(-2.0 * x0) / np.sin(math.pi * np.minimum(T0, T - T0) / T))


def _log_kie(omega0_H, omegab_H, T, light: Isotope, heavy: Isotope):
    """log KIE at hydrogen frequencies omega0_H and omegab_H, which broadcast
    with T, every T above the light isotope's crossover.

    Each isotope takes ``_log_factor`` at its frequencies omega/sqrt(m); the
    ratio omega_b/omega_0 is the same for both and cancels, as does ln 2.
    """
    root_l, root_h = math.sqrt(light.mass_number), math.sqrt(heavy.mass_number)
    log_l = _log_factor(omega0_H / root_l, omegab_H / root_l, T)
    log_h = _log_factor(omega0_H / root_h, omegab_H / root_h, T)
    return 0.5 * math.log(heavy.mass_number / light.mass_number) + (log_l - log_h)


def kie_qtst(
    omega0_H: float,
    omegab_H: float,
    T: float | np.ndarray,
    light: Isotope = Isotope.H,
    heavy: Isotope = Isotope.D,
) -> KIEPrediction:
    """Predicted KIE at temperature T for the given isotope pair.

    Defined for T above the crossover of the light isotope, which crosses
    first since omega_b/sqrt(m) is largest for it: a scalar T at or below it
    raises ``BelowCrossoverError``. T may be an array of any shape, whose rows
    at or below the crossover get ratio NaN and valid False instead.
    """
    omega0_H, omegab_H, T_checked, T0_light = _require_kie_args(omega0_H, omegab_H, T, light, heavy)
    if isinstance(T_checked, float):
        ratio = float(np.exp(_log_kie(omega0_H, omegab_H, T_checked, light, heavy)))
    else:
        T, above = T_checked.copy(), T_checked > T0_light
        ratio = np.full(T.shape, math.nan)
        ratio[above] = np.exp(_log_kie(omega0_H, omegab_H, T[above], light, heavy))
    return KIEPrediction(
        ratio=ratio,
        T_K=T,
        light=light,
        heavy=heavy,
        T0_light_K=T0_light,
        valid=_is_valid(T, T0_light),
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
    _require_param("T_R", T_R, positive=True)
    omega0_H, omegab_H, _, _ = _require_kie_args(omega0_H, omegab_H, T_R, light, heavy)
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
    on each side. Thresholds are read from the bundled limits table. The
    KIE and prefactor ratio must be finite and > 0 and the activation-energy
    difference finite, or ``DomainError``; the report echoes them as passed.
    """
    _require_param("kie", kie, positive=True)
    _require_param("a_ratio", a_ratio, positive=True)
    _require_param("delta_E_kJ_per_mol", delta_E_kJ_per_mol, signed=True)
    if isinstance(pair, str):
        pair = Isotope.pair(pair)
    key = f"{pair[0].name}{pair[1].name}"
    limits = _bundled_json("limits.json")
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
    )


@cache
def _bundled_json(name: str) -> dict:
    # parsed once per process and shared: read it, never change it
    with resources.files("qtst.data").joinpath(name).open("r", encoding="utf-8") as fh:
        return json.load(fh)


def _table1_rows() -> list[dict]:
    # the shared rows, for readers that do not change them
    return _bundled_json("table1_kie.json")["rows"]


def load_table1() -> list[dict]:
    """Measured KIE Arrhenius parameters for enzymes and model reactions,
    a fresh copy on each call."""
    return copy.deepcopy(_table1_rows())


def load_dataset_csv(name: str) -> str:
    """Return the text of a bundled dataset CSV (fig3_mcm.csv, fig4_mao.csv)."""
    return resources.files("qtst.data").joinpath(name).read_text(encoding="utf-8")
