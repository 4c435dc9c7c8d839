"""Frequency-dependent friction models for a protein-solvent environment.

Each model exposes the friction spectrum Re gamma(omega) = J(omega)/(M*omega)
(mass-free, in cm^-1), its Laplace-transformed memory kernel gamma_hat(z),
and the integral (2/pi) * int Re gamma(omega) d omega that fixes the
environment-induced curvature K_e. Mass enters only multiplicatively where
K_e itself is needed, so the models store the mass-free spectrum.

Every built-in kernel is closed-form. The memory kernel gamma(omega) is
analytic in the upper half plane, so by Kramers-Kronig its Laplace transform
(2 z/pi) int_0^inf Re gamma(w)/(w^2 + z^2) dw is the continuation
gamma_hat(z) = gamma(i z) to imaginary frequency, and
int_0^inf Re gamma(w) dw = (pi/2) lim_{z->inf} z gamma_hat(z). Where a
model is defined by its spectrum (the dielectric cavity), the continuation
of that spectrum's response function gives the kernel exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import sici

from . import units
from .errors import DivergentIntegralError, DomainError

__all__ = [
    "FrictionModel",
    "OhmicFriction",
    "DrudeFriction",
    "PeakedFriction",
    "DebyeDielectricFriction",
    "LinearProteinFriction",
    "ChromophoreEstimate",
    "effective_curvature",
    "kernel_upper_bound",
    "chromophore_estimate",
    "friction_model_from_json",
]

# omega[rad/ps] = _OMEGA_TAU * omega[cm^-1];  multiplied by tau in ps it
# gives the dimensionless omega*tau of a Debye relaxation term.
_OMEGA_TAU = units.CM1_TO_RAD_PER_S * 1e-12


def _float_or_array(x):
    # a Python float for scalar input, so scalar calls skip numpy's
    # per-operation cost; a float array otherwise
    if isinstance(x, (int, float)):
        return float(x)
    arr = np.asarray(x, dtype=float)
    return float(arr) if arr.ndim == 0 else arr


def _require_param(name: str, value, positive: bool = False) -> None:
    # value, or every element of it, finite and >= 0 (> 0 if positive);
    # NaN fails both comparisons, so it is rejected with the infinities
    v = _float_or_array(value)
    ok = (v > 0.0 if positive else v >= 0.0) & (v < math.inf)
    if not (ok.all() if isinstance(ok, np.ndarray) else ok):
        raise DomainError(f"{name} must be finite and {'>' if positive else '>='} 0, got {value!r}")


def _require_positive_z(z):
    _require_param("Laplace variable z", z, positive=True)
    return z


class FrictionModel:
    """Base class; subclasses are frozen dataclasses, safe to share.

    Contract for subclasses: ``laplace_kernel`` and ``friction_spectrum``
    take a scalar or a numpy array and return a Python float for scalar
    input and a float array of the same shape otherwise. ``laplace_kernel``
    raises ``DomainError`` unless every z is finite and > 0. Constructors
    reject NaN, infinite and out-of-range parameters with ``DomainError``.
    """

    kind = "base"

    def friction_spectrum(self, omega):
        """Re gamma(omega) in cm^-1 for omega >= 0 (cm^-1)."""
        raise NotImplementedError

    def laplace_kernel(self, z):
        """gamma_hat(z) = (2 z/pi) int_0^inf Re gamma(w)/(w^2 + z^2) dw, in
        cm^-1, for z > 0 (cm^-1)."""
        raise NotImplementedError

    def spectrum_integral(self) -> float:
        """int_0^inf Re gamma(omega) d omega in cm^-2, or raise if divergent."""
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class OhmicFriction(FrictionModel):
    """Memoryless friction: gamma_hat(z) = gamma, J(omega) = M*gamma*omega."""

    gamma: float
    kind = "ohmic"

    def __post_init__(self):
        _require_param("gamma", self.gamma)

    def friction_spectrum(self, omega):
        if np.ndim(omega):
            return np.full(np.shape(omega), self.gamma, dtype=float)
        return self.gamma

    def laplace_kernel(self, z):
        _require_positive_z(z)
        if np.ndim(z):
            return np.full(np.shape(z), self.gamma, dtype=float)
        return self.gamma

    def spectrum_integral(self):
        if self.gamma == 0.0:
            return 0.0
        raise DivergentIntegralError(
            "Ohmic friction has no finite spectrum integral; K_e diverges"
        )

    def to_json(self):
        return {"kind": self.kind, "gamma": self.gamma}


@dataclass(frozen=True)
class DrudeFriction(FrictionModel):
    """Drude-regularised friction with bath response frequency omega_d.

    gamma_hat(z) = gamma / (1 + z/omega_d)
    Re gamma(w)  = gamma / (1 + w^2/omega_d^2)
    """

    gamma: float
    omega_d: float
    kind = "drude"

    def __post_init__(self):
        _require_param("gamma", self.gamma)
        _require_param("omega_d", self.omega_d, positive=True)

    def friction_spectrum(self, omega):
        w = np.asarray(omega, dtype=float)
        out = self.gamma / (1.0 + (w / self.omega_d) ** 2)
        return out if np.ndim(omega) else float(out)

    def laplace_kernel(self, z):
        _require_positive_z(z)
        zz = np.asarray(z, dtype=float)
        out = self.gamma / (1.0 + zz / self.omega_d)
        return out if np.ndim(z) else float(out)

    def spectrum_integral(self):
        # int gamma/(1+w^2/wd^2) dw = gamma*wd*pi/2, so K_e = M*gamma*wd
        return self.gamma * self.omega_d * math.pi / 2.0

    def to_json(self):
        return {"kind": self.kind, "gamma": self.gamma, "omega_d": self.omega_d}


@dataclass(frozen=True)
class PeakedFriction(FrictionModel):
    """A friction spectrum peaked at omega_r with width Gamma.

    Re gamma(w) = gamma_r (w*Gamma)^2 / ((w^2 - omega_r^2)^2 + (w*Gamma)^2)
    gamma_hat(z) = gamma_r * z * Gamma / (z^2 + omega_r^2 + z*Gamma)

    The spectrum equals gamma_r exactly at the peak frequency.
    """

    gamma_r: float
    width: float
    omega_r: float
    kind = "peaked"

    def __post_init__(self):
        for name in ("gamma_r", "width", "omega_r"):
            _require_param(name, getattr(self, name))

    def friction_spectrum(self, omega):
        w = np.asarray(omega, dtype=float)
        num = self.gamma_r * (w * self.width) ** 2
        den = (w * w - self.omega_r**2) ** 2 + (w * self.width) ** 2
        out = np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0), 0.0)
        return out if np.ndim(omega) else float(out)

    def laplace_kernel(self, z):
        _require_positive_z(z)
        zz = np.asarray(z, dtype=float)
        out = self.gamma_r * zz * self.width / (zz * zz + self.omega_r**2 + zz * self.width)
        return out if np.ndim(z) else float(out)

    def spectrum_integral(self):
        # int_0^inf w^2 dw / ((w^2-a^2)^2 + b^2 w^2) = pi/(2 b), any a;
        # hence the integral is pi*gamma_r*Gamma/2 and K_e = M*gamma_r*Gamma.
        return math.pi * self.gamma_r * self.width / 2.0

    def to_json(self):
        return {
            "kind": self.kind,
            "gamma_r": self.gamma_r,
            "width": self.width,
            "omega_r": self.omega_r,
        }


# Water dielectric relaxation at 298 K: three Debye terms plus one damped
# resonance. delta_eps, tau (ps) and the resonance frequency (cm^-1).
WATER_DELTA_EPS = (71.5, 2.8, 1.6, 0.92)
WATER_TAU_PS = (8.3, 1.0, 0.1, 0.025)
WATER_OMEGA4_CM1 = 175.0


@dataclass(frozen=True)
class DebyeDielectricFriction(FrictionModel):
    """Dielectric-continuum friction on a charge in a spherical cavity.

    The solvent is described by a complex dielectric function built from
    three Debye relaxation terms plus one damped resonant term; the
    friction spectrum follows from the reaction field of a cavity of
    radius ``cavity_radius`` (angstrom) carved in it:

    Re gamma(w) = pref/w * Im R(eps(w)),  R(e) = (e - eps_c)/(2 e + eps_c),

    with pref = e^2/(2 pi eps0 a^3 M). ``eps_c`` is the static dielectric
    constant of the cavity interior (the local protein environment).
    ``eps_inf`` defaults to 1.54 so the static limit is ~78.4, the value
    for liquid water; the tabulated relaxation coefficients do not pin it
    down.

    Closed forms. Each relaxation term is delta_eps/(1 - i a w - b w^2),
    with a = tau and b = 1/omega_4^2 for the resonance (b = 0 for the Debye
    terms). R(eps(w)) is analytic in the upper half plane, so continuing to
    w = i z, where eps(i z) = eps_inf + sum delta_eps/(1 + a z + b z^2) is
    real, gives

    gamma_hat(z)        = pref * (R(eps(0)) - R(eps(i z))) / z,
    int Re gamma(w) dw  = (pi/2) * pref * (R(eps(0)) - R(eps(i inf))).

    The differences are evaluated as R(e1) - R(e2) =
    3 eps_c (e1 - e2)/((2 e1 + eps_c)(2 e2 + eps_c)), and
    Im R(e) = 3 eps_c Im e/|2 e + eps_c|^2, so no expression cancels and the
    w -> 0 and z -> 0 limits need no special case.
    """

    cavity_radius: float
    eps_c: float = 2.0
    mass: float = 1.0
    eps_inf: float = 1.54
    delta_eps: tuple = WATER_DELTA_EPS
    tau_ps: tuple = WATER_TAU_PS
    omega_4: float = WATER_OMEGA4_CM1
    kind = "debye_dielectric"

    def __post_init__(self):
        _require_param("cavity_radius", self.cavity_radius, positive=True)
        _require_param("mass", self.mass, positive=True)
        _require_param("eps_c", self.eps_c, positive=True)
        _require_param("eps_inf", self.eps_inf, positive=True)
        _require_param("omega_4", self.omega_4)
        if len(self.delta_eps) != 4 or len(self.tau_ps) != 4:
            raise DomainError("expected 4 relaxation strengths and 4 times")
        _require_param("delta_eps", self.delta_eps)
        _require_param("tau_ps", self.tau_ps)

    def _terms(self):
        # (delta_eps, a, b) of each term delta_eps/(1 - i a w - b w^2), with
        # a in cm (tau times _OMEGA_TAU) and b in cm^2
        b4 = self.omega_4**-2 if self.omega_4 > 0 else 0.0
        a = [_OMEGA_TAU * tau for tau in self.tau_ps]
        return tuple(zip(self.delta_eps, a, (0.0, 0.0, 0.0, b4)))

    def epsilon(self, omega):
        """Complex dielectric function at omega (cm^-1, angular sense).

        The sign convention makes Im eps >= 0 for omega >= 0, as required
        for a dissipative medium.
        """
        w = _float_or_array(omega)
        return self.eps_inf + sum(de / (1.0 - b * w * w - 1j * a * w) for de, a, b in self._terms())

    def _prefactor(self) -> float:
        # e^2/(2 pi eps0 a^3 M), expressed so division by omega[cm^-1]
        # yields Re gamma in cm^-1.
        a_m = self.cavity_radius * 1e-10
        m_kg = self.mass * units.PROTON_MASS_KG
        pref_si = units.ELEMENTARY_CHARGE_C**2 / (
            2.0 * math.pi * units.VACUUM_PERMITTIVITY_F_M * a_m**3 * m_kg
        )
        return pref_si / units.CM1_TO_RAD_PER_S**2

    def _static_scale(self) -> float:
        # pref * 3 eps_c / (2 eps(0) + eps_c)
        eps0 = self.eps_inf + sum(self.delta_eps)
        return self._prefactor() * 3.0 * self.eps_c / (2.0 * eps0 + self.eps_c)

    def friction_spectrum(self, omega):
        _require_param("omega", omega)
        w = _float_or_array(omega)
        eps = self.eps_inf + 0j
        loss = 0.0  # Im eps(w) / w
        for de, a, b in self._terms():
            d = 1.0 - b * w * w - 1j * a * w
            eps = eps + de / d
            loss = loss + de * a / (d.real**2 + d.imag**2)
        den = 2.0 * eps + self.eps_c
        return self._prefactor() * 3.0 * self.eps_c * loss / (den.real**2 + den.imag**2)

    def laplace_kernel(self, z):
        _require_positive_z(z)
        zz = _float_or_array(z)
        eps = self.eps_inf  # eps(i z)
        drop = 0.0  # (eps(0) - eps(i z)) / z
        for de, a, b in self._terms():
            # term = de/(1 + z s), and de - term = z * term * s
            s = a + b * zz if b else a
            term = de / (1.0 + zz * s)
            eps = eps + term
            drop = drop + term * s
        return self._static_scale() * drop / (2.0 * eps + self.eps_c)

    def spectrum_integral(self):
        # a term with a = b = 0 never relaxes, so eps(i inf) keeps it
        relaxing = sum(de for de, a, b in self._terms() if a > 0.0 or b > 0.0)
        eps_hi = self.eps_inf + sum(self.delta_eps) - relaxing
        return math.pi / 2.0 * self._static_scale() * relaxing / (2.0 * eps_hi + self.eps_c)

    def to_json(self):
        return {
            "kind": self.kind,
            "cavity_radius": self.cavity_radius,
            "eps_c": self.eps_c,
            "mass": self.mass,
            "eps_inf": self.eps_inf,
            "delta_eps": list(self.delta_eps),
            "tau_ps": list(self.tau_ps),
            "omega_4": self.omega_4,
        }


# From x = 45 on, _auxiliary_fg sums 14 terms of the asymptotic series, which
# reach double precision there. The sici form cancels in pi/2 - Si(x) and in
# g; its relative error grows like x^2 * 1e-16 (3e-13 just below 45, 4e-9 at 1e4).
_SERIES_FROM = 45.0
# coefficients of the series of f x and g x^2 in 1/x^2, highest power first
_SERIES = [((-1) ** k * math.factorial(2 * k), (-1) ** k * math.factorial(2 * k + 1))
           for k in range(13, -1, -1)]


def _fg_sici(x):
    si, ci = sici(x)
    s, c, a = np.sin(x), np.cos(x), math.pi / 2.0 - si
    return ci * s + a * c, a * s - ci * c


def _fg_series(x):
    # f ~ sum (-1)^k (2k)!/x^(2k+1),  g ~ sum (-1)^k (2k+1)!/x^(2k+2), by Horner
    r = 1.0 / (x * x)
    f = g = 0.0
    for cf, cg in _SERIES:
        f, g = f * r + cf, g * r + cg
    return f / x, g * r


def _auxiliary_fg(x):
    # the auxiliary functions f and g of LinearProteinFriction.laplace_kernel
    # at x > 0 (a float or an array); sici runs only on points below the switch
    if np.ndim(x) == 0:
        return _fg_sici(x) if x < _SERIES_FROM else _fg_series(x)
    f, g = np.empty_like(x), np.empty_like(x)
    near = x < _SERIES_FROM
    f[near], g[near] = _fg_sici(x[near])
    f[~near], g[~near] = _fg_series(x[~near])
    return f, g


@dataclass(frozen=True)
class LinearProteinFriction(FrictionModel):
    """Ohmic-plus-linear fit to protein-mode damping, with a cutoff.

    Re gamma(w) = (delta_gamma + slope*w) * exp(-w/cutoff). The linear fit
    holds over roughly 100-400 cm^-1; the exponential cutoff (default at
    the fit's upper validity, 400 cm^-1) makes K_e and the Laplace kernel
    exist. With ``cutoff=None`` both are divergent and raise.
    """

    delta_gamma: float = 20.0
    slope: float = 0.38
    cutoff: Optional[float] = 400.0
    kind = "linear_protein"

    def __post_init__(self):
        _require_param("delta_gamma", self.delta_gamma)
        _require_param("slope", self.slope)
        if self.cutoff is not None:
            _require_param("cutoff", self.cutoff, positive=True)

    def friction_spectrum(self, omega):
        w = np.asarray(omega, dtype=float)
        out = self.delta_gamma + self.slope * w
        if self.cutoff is not None:
            out = out * np.exp(-w / self.cutoff)
        return out if np.ndim(omega) else float(out)

    def laplace_kernel(self, z):
        _require_positive_z(z)
        if self.cutoff is None:
            raise DivergentIntegralError(
                "linear protein friction without a cutoff has no Laplace transform"
            )
        # With f(x) = Ci(x) sin x + (pi/2 - Si(x)) cos x and
        #      g(x) = -Ci(x) cos x + (pi/2 - Si(x)) sin x:
        # int e^{-pw}/(w^2+z^2) dw  = f(p z)/z
        # int w e^{-pw}/(w^2+z^2) dw = g(p z)
        # so gamma_hat(z) = (2/pi) [delta_gamma f(pz) + slope * z * g(pz)].
        zz = _float_or_array(z)
        f, g = _auxiliary_fg(zz / self.cutoff)
        out = 2.0 / math.pi * (self.delta_gamma * f + self.slope * zz * g)
        return out if np.ndim(z) else float(out)

    def spectrum_integral(self):
        if self.cutoff is None:
            raise DivergentIntegralError(
                "linear protein friction without a cutoff has divergent K_e"
            )
        wc = self.cutoff
        return self.delta_gamma * wc + self.slope * wc * wc

    def to_json(self):
        return {
            "kind": self.kind,
            "delta_gamma": self.delta_gamma,
            "slope": self.slope,
            "cutoff": self.cutoff,
        }


_KINDS = {
    cls.kind: cls
    for cls in (
        OhmicFriction,
        DrudeFriction,
        PeakedFriction,
        DebyeDielectricFriction,
        LinearProteinFriction,
    )
}


def friction_model_from_json(obj: dict) -> FrictionModel:
    """Rebuild a friction model from its JSON object form."""
    try:
        kind = obj["kind"]
    except (TypeError, KeyError):
        raise DomainError("friction model JSON needs a 'kind' key") from None
    try:
        cls = _KINDS[kind]
    except KeyError:
        raise DomainError(f"unknown friction model kind {kind!r}") from None
    kwargs = {k: v for k, v in obj.items() if k != "kind"}
    for key in ("delta_eps", "tau_ps"):
        if key in kwargs:
            kwargs[key] = tuple(kwargs[key])
    return cls(**kwargs)


def effective_curvature(model: FrictionModel, mass: float = 1.0) -> float:
    """Environment-induced curvature K_e = (2/pi) M int Re gamma(w) dw.

    Returned in mass-number * cm^-2 units (so Drude gives M*gamma*omega_d).
    Raises ``DivergentIntegralError`` where the integral does not exist.
    """
    _require_param("mass", mass, positive=True)
    return 2.0 / math.pi * _float_or_array(mass) * model.spectrum_integral()


def kernel_upper_bound(model: FrictionModel, z):
    """Rigorous bound on the memory kernel: gamma_hat(z) <= K_e/(M z).

    Follows from 1/(w^2+z^2) <= 1/z^2 inside the transform integral, i.e.
    gamma_hat(z) <= (2/(pi z)) int Re gamma(w) dw, which is K_e/(M z).
    The particle mass cancels. Propagates the divergent-integral error.
    Takes a scalar (returns a float) or an array of z.
    """
    _require_positive_z(z)
    return 2.0 / math.pi * model.spectrum_integral() / _float_or_array(z)


@dataclass(frozen=True)
class ChromophoreEstimate:
    """Order-of-magnitude friction bound mapped from chromophore data.

    Built from a measured reorganisation energy E_R (cm^-1) and the dipole
    change delta_mu (debye) of a chromophore at the transfer site. The
    coupling scale is (hbar*e/delta_mu)^2/M expressed in cm^-1; K_e is in
    mass-number * cm^-2; bound_scale is the z* (cm^-1) such that
    gamma_hat(z)/z <= (z*/z)^2.
    """

    reorganisation_energy: float
    delta_mu: float
    mass: float
    coupling_scale: float
    K_e: float
    bound_scale: float


def chromophore_estimate(
    reorganisation_energy: float, delta_mu: float, mass: float = 1.0
) -> ChromophoreEstimate:
    """Map chromophore spectral-density data onto a friction bound.

    K_e = (2/pi) (e/delta_mu)^2 E_R and the kernel bound becomes
    gamma_hat(z)/z <= (z*/z)^2 with z*^2 = K_e/M. K_e is linear in E_R and
    in 1/delta_mu^2.
    """
    if delta_mu <= 0:
        raise DomainError("dipole change must be > 0")
    if reorganisation_energy < 0:
        raise DomainError("reorganisation energy must be >= 0")
    if mass <= 0:
        raise DomainError("mass must be > 0")
    dmu_si = delta_mu * units.DEBYE_C_M
    coupling_j = (units.HBAR_J_S * units.ELEMENTARY_CHARGE_C / dmu_si) ** 2 / (
        mass * units.PROTON_MASS_KG
    )
    coupling_cm1 = coupling_j / units.CM1_TO_J
    z_star_sq = 2.0 / math.pi * coupling_cm1 * reorganisation_energy
    return ChromophoreEstimate(
        reorganisation_energy=reorganisation_energy,
        delta_mu=delta_mu,
        mass=mass,
        coupling_scale=coupling_cm1,
        K_e=mass * z_star_sq,
        bound_scale=math.sqrt(z_star_sq),
    )


def debye_dielectric(model: DebyeDielectricFriction, omega: float) -> complex:
    """Complex solvent dielectric function at omega >= 0 (cm^-1; scalar or array)."""
    _require_param("omega", omega)
    return model.epsilon(omega)


def cavity_friction(model: DebyeDielectricFriction, omega: float) -> float:
    """Dielectric cavity friction spectrum Re gamma(omega) in cm^-1, for
    omega > 0 (cm^-1; scalar or array)."""
    _require_param("omega", omega, positive=True)
    return model.friction_spectrum(omega)
