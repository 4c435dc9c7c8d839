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
from dataclasses import dataclass, fields

import numpy as np

from . import units
from .errors import DivergentIntegralError, DomainError, _check_fields, _require_param

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
# the largest square root a double can square without overflow
_SQRT_MAX = math.sqrt(np.finfo(float).max)


class FrictionModel:
    """Base class; subclasses are frozen dataclasses, safe to share.

    ``laplace_kernel`` and ``friction_spectrum`` take a scalar or a numpy
    array, return a Python float for scalar input and a float array of the
    same shape otherwise, and are the one place that checks their input:
    ``DomainError`` unless every z is finite and > 0, every omega finite
    and >= 0. Subclasses implement ``_kernel`` and ``_spectrum`` on the
    checked value (a Python float or a float array); constructors reject
    NaN, infinite and out-of-range parameters with ``DomainError`` and store
    each as a Python float. The effective-frequency solve
    (``kramers.solve_effective_frequency``, one Python float at a time) and
    the Matsubara product (one float array) call ``_kernel`` on checked
    values, or, where a subclass overrides ``laplace_kernel``, that code.
    ``to_json`` comes from the fields: the ``kind``, then each dataclass
    field in order, a tuple written as a list.
    """

    kind = "base"

    def friction_spectrum(self, omega):
        """Re gamma(omega) in cm^-1 for omega >= 0 (cm^-1)."""
        return self._spectrum(_require_param("omega", omega))

    def laplace_kernel(self, z):
        """gamma_hat(z) = (2 z/pi) int_0^inf Re gamma(w)/(w^2 + z^2) dw, in
        cm^-1, for z > 0 (cm^-1)."""
        return self._kernel(_require_param("Laplace variable z", z, positive=True))

    def _spectrum(self, omega):
        raise NotImplementedError

    def _kernel(self, z):
        raise NotImplementedError

    def spectrum_integral(self) -> float:
        """int_0^inf Re gamma(omega) d omega in cm^-2, or raise if divergent."""
        raise NotImplementedError

    def to_json(self) -> dict:
        values = ((f.name, getattr(self, f.name)) for f in fields(self))
        return {"kind": self.kind, **{k: list(v) if isinstance(v, tuple) else v for k, v in values}}


def _kernel_body(model: FrictionModel):
    # the kernel for a z already checked: the model's _kernel, or its own
    # laplace_kernel where a subclass overrides the checked entry
    if type(model).laplace_kernel is FrictionModel.laplace_kernel:
        return model._kernel
    return model.laplace_kernel


@dataclass(frozen=True)
class OhmicFriction(FrictionModel):
    """Memoryless friction: gamma_hat(z) = gamma, J(omega) = M*gamma*omega."""

    gamma: float
    kind = "ohmic"

    def __post_init__(self):
        _check_fields(self, "gamma")

    def _kernel(self, z):
        return np.full(z.shape, self.gamma) if isinstance(z, np.ndarray) else self.gamma

    _spectrum = _kernel

    def spectrum_integral(self):
        if self.gamma == 0.0:
            return 0.0
        raise DivergentIntegralError(
            "Ohmic friction has no finite spectrum integral; K_e diverges"
        )



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
        _check_fields(self, "gamma")
        _check_fields(self, "omega_d", positive=True)

    def _spectrum(self, w):
        r = w / self.omega_d
        return self.gamma / (1.0 + r * r)

    def _kernel(self, z):
        return self.gamma / (1.0 + z / self.omega_d)

    def spectrum_integral(self):
        # int gamma/(1+w^2/wd^2) dw = gamma*wd*pi/2, so K_e = M*gamma*wd
        return self.gamma * self.omega_d * math.pi / 2.0



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
        _check_fields(self, "gamma_r", "width", "omega_r")

    def _spectrum(self, w):
        x, d = w * self.width, w * w - self.omega_r**2
        num = self.gamma_r * (x * x)
        den = d * d + x * x
        if isinstance(den, np.ndarray):
            return np.where(den > 0.0, num / np.where(den > 0.0, den, 1.0), 0.0)
        return num / den if den > 0.0 else 0.0

    def _kernel(self, z):
        return self.gamma_r * z * self.width / (z * z + self.omega_r**2 + z * self.width)

    def spectrum_integral(self):
        # int_0^inf w^2 dw / ((w^2-a^2)^2 + b^2 w^2) = pi/(2 b), any a;
        # hence the integral is pi*gamma_r*Gamma/2 and K_e = M*gamma_r*Gamma.
        return math.pi * self.gamma_r * self.width / 2.0



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
    w -> 0 and z -> 0 limits need no special case. The spectrum is computed
    in real arithmetic, so a scalar call equals the array element bit for
    bit; the spectrum integral is computed once, on construction.
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
        _check_fields(self, "cavity_radius", "mass", "eps_c", "eps_inf", positive=True)
        _check_fields(self, "omega_4")
        if len(self.delta_eps) != 4 or len(self.tau_ps) != 4:
            raise DomainError("expected 4 relaxation strengths and 4 times")
        _check_fields(self, "delta_eps", "tau_ps")
        # (delta_eps, a, b) of each term delta_eps/(1 - i a w - b w^2), with
        # a in cm (tau times _OMEGA_TAU) and b in cm^2
        b4 = self.omega_4**-2 if self.omega_4 > 0 else 0.0
        a = [_OMEGA_TAU * tau for tau in self.tau_ps]
        terms = tuple(zip(self.delta_eps, a, (0.0, 0.0, 0.0, b4)))
        # e^2/(2 pi eps0 a^3 M), expressed so division by omega[cm^-1]
        # yields Re gamma in cm^-1
        a_m, m_kg = self.cavity_radius * 1e-10, self.mass * units.PROTON_MASS_KG
        pref_si = units.ELEMENTARY_CHARGE_C**2 / (
            2.0 * math.pi * units.VACUUM_PERMITTIVITY_F_M * a_m**3 * m_kg
        )
        prefactor = pref_si / units.CM1_TO_RAD_PER_S**2
        # pref * 3 eps_c / (2 eps(0) + eps_c)
        eps0 = self.eps_inf + sum(self.delta_eps)
        static_scale = prefactor * 3.0 * self.eps_c / (2.0 * eps0 + self.eps_c)
        # int Re gamma dw; a term with a = b = 0 never relaxes, so eps(i inf)
        # keeps it
        relaxing = sum(de for de, a, b in terms if a > 0.0 or b > 0.0)
        eps_hi = self.eps_inf + sum(self.delta_eps) - relaxing
        integral = math.pi / 2.0 * static_scale * relaxing / (2.0 * eps_hi + self.eps_c)
        # each term with its cap: twice the w where (a w)^2 or (1 - b w^2)^2
        # overflows
        capped = tuple((de, a, b, 2.0 * min(_SQRT_MAX / a if a else math.inf,
                                            math.sqrt(_SQRT_MAX / b) if b else math.inf))
                       for de, a, b in terms)
        # derived once; not fields, so ==, hash and repr see the parameters only
        for name, value in (("_terms", terms), ("_capped_terms", capped), ("_cap_min", min(t[3] for t in capped)),
                            ("_prefactor", prefactor), ("_static_scale", static_scale),
                            ("_spectrum_integral", integral)):
            object.__setattr__(self, name, value)

    def epsilon(self, omega):
        """Complex dielectric function at omega (cm^-1, angular sense), a
        scalar or an array, checked as ``friction_spectrum`` checks it.

        The sign convention makes Im eps >= 0 for omega >= 0, as required
        for a dissipative medium.
        """
        w = _require_param("omega", omega)
        # past about 1e154 cm^-1 b w^2 overflows to inf and the term to its limit 0, silently as for a float
        with np.errstate(over="ignore"):
            return self.eps_inf + sum(de / (1.0 - b * w * w - 1j * a * w) for de, a, b in self._terms)

    def _spectrum(self, w, clip=None):
        # in real arithmetic: de/(dr - i di) = de (dr + i di)/(dr^2 + di^2).
        # Past about 1e77 cm^-1 a term's dr^2 + di^2 overflows to inf, and
        # q = 0 is its limit. So a term is taken at clip(w, cap): past its cap
        # dr and di stay finite while q = 0, and the term adds an exact 0, not
        # 0 * inf = nan. A float below every cap needs no clip
        if clip is None and (isinstance(w, np.ndarray) or w >= self._cap_min):
            with np.errstate(over="ignore"):
                return self._spectrum(w, np.minimum if isinstance(w, np.ndarray) else min)
        eps_re, eps_im = self.eps_inf, 0.0
        loss = 0.0  # Im eps(w) / w
        for de, a, b, cap in self._capped_terms:
            wt = w if clip is None else clip(w, cap)
            dr, di = 1.0 - b * wt * wt, a * wt
            q = de / (dr * dr + di * di)
            eps_re = eps_re + q * dr
            eps_im = eps_im + q * di
            loss = loss + q * a
        den_re, den_im = 2.0 * eps_re + self.eps_c, 2.0 * eps_im
        return self._prefactor * 3.0 * self.eps_c * loss / (den_re * den_re + den_im * den_im)

    def _kernel(self, z):
        eps = self.eps_inf  # eps(i z)
        drop = 0.0  # (eps(0) - eps(i z)) / z
        for de, a, b in self._terms:
            # term = de/(1 + z s), and de - term = z * term * s
            s = a + b * z if b else a
            term = de / (1.0 + z * s)
            eps = eps + term
            drop = drop + term * s
        return self._static_scale * drop / (2.0 * eps + self.eps_c)

    def spectrum_integral(self):
        return self._spectrum_integral



# _auxiliary_fg in two pieces, each by one fixed sequence of float
# operations, so a scalar call equals the array element bit for bit. It
# gives f and h = x g, which both tend to 1/x. Below x = 4, 16 terms of the
# power series of Si(x)/x and of (Ci(x) - gamma - ln x)/x^2 in x^2 reach
# double precision. From 4 on, f and h come from
# g - i f = int_0^inf e^-t/(t + i x) dt by 40-node Gauss-Laguerre
# quadrature, written in u = 1/x so that no step overflows for any finite x.
# Against mpmath the pieces are at most 7e-15 relative off in f and 2.5e-14
# in h (4,000 points on (1e-10, 1e5]).
_POWER_BELOW = 4.0
# a piece with this many points or fewer in an array runs them one float at
# a time: array operations cost a few microseconds each, whatever the size
_FEW = 4
_EULER_GAMMA = 0.5772156649015329
# the two power series in x^2, each split into its even and odd powers (so
# four series in x^4, half as many Horner steps): per power of x^4, highest
# first, the coefficients of Si even, Si odd, Cin even and Cin odd, where
# Si(x)/x = Si even + x^2 Si odd and (Ci(x) - gamma - ln x)/x^2 = Cin even +
# x^2 Cin odd; each power's four as a column, to broadcast over an array
_SI = [(-1) ** k / ((2 * k + 1) * math.factorial(2 * k + 1)) for k in range(16)]
_CIN = [(-1) ** (k + 1) / ((2 * k + 2) * math.factorial(2 * k + 2)) for k in range(16)]
_POWER = np.array([_SI[0::2], _SI[1::2], _CIN[0::2], _CIN[1::2]]).T[::-1, :, None].copy()
_POWER_ROWS = tuple(map(tuple, _POWER[..., 0].tolist()))
# the weights of the sums for f and for h over the 40 Gauss-Laguerre nodes,
# the two sums side by side, tabulated once, at import. Each set sums to 1,
# as int e^-t dt and int t e^-t dt do (numpy scales the first; laggauss's
# nodes leave the second 9e-14 short, which h would carry). A term
# w/(1 + t^2 u^2) is taken as (w/t^2)/(u^2 + 1/t^2), one add and one
# division per node, so the weights are stored divided by t^2
_t, _w = np.polynomial.laguerre.laggauss(40)
_LAGUERRE_IT2 = np.concatenate((1.0 / (_t * _t),) * 2)
_LAGUERRE_W = np.concatenate((_w, _w * _t / np.sum(_w * _t))) * _LAGUERRE_IT2
_HALVES = np.array([0, 40])


def _fg_power(x):
    # f = Ci sin x + (pi/2 - Si) cos x and h = x ((pi/2 - Si) sin x - Ci cos x),
    # with Si and Ci from their power series, by Horner's rule in x^4: an
    # array runs the float's operations on the four series side by side
    r = x * x
    r2 = r * r
    if isinstance(x, np.ndarray):
        p = np.zeros((4, x.size))
        for column in _POWER:
            p *= r2
            p += column
        se, so, ce, co = p
        ln, s, c = np.log(x), np.sin(x), np.cos(x)
    else:
        se = so = ce = co = 0.0
        for kse, kso, kce, kco in _POWER_ROWS:
            se, so, ce, co = se * r2 + kse, so * r2 + kso, ce * r2 + kce, co * r2 + kco
        ln, s, c = float(np.log(x)), float(np.sin(x)), float(np.cos(x))
    ci = _EULER_GAMMA + ln + (ce + co * r) * r
    a = math.pi / 2.0 - (se + so * r) * x
    return ci * s + a * c, (a * s - ci * c) * x


def _fg_laguerre(x):
    # f = u sum w/(1 + t^2 u^2) and h = u sum w t/(1 + t^2 u^2) with u = 1/x,
    # each sum over the 40 nodes one segment of np.add.reduceat, for a float
    # as for an array
    u = 1.0 / x
    if isinstance(x, np.ndarray):
        q = _LAGUERRE_W / ((u * u)[:, None] + _LAGUERRE_IT2)
        sf, sh = np.add.reduceat(q.ravel(), np.arange(0, q.size, 40)).reshape(-1, 2).T
    else:
        sf, sh = np.add.reduceat(_LAGUERRE_W / (u * u + _LAGUERRE_IT2), _HALVES).tolist()
    return u * sf, u * sh


def _auxiliary_fg(x):
    # the auxiliary function f of LinearProteinFriction._kernel and h = x g
    # at x > 0, a float or an array; each piece runs on its own points only
    if not isinstance(x, np.ndarray):
        return (_fg_power if x < _POWER_BELOW else _fg_laguerre)(x)
    f, h = np.empty_like(x), np.empty_like(x)
    low = x < _POWER_BELOW
    for piece, on in ((_fg_power, low), (_fg_laguerre, ~low)):
        n = np.count_nonzero(on)
        if n > _FEW:
            f[on], h[on] = piece(x[on])
        elif n:
            f[on], h[on] = np.array([piece(v) for v in x[on].tolist()]).T
    return f, h


@dataclass(frozen=True)
class LinearProteinFriction(FrictionModel):
    """Ohmic-plus-linear fit to protein-mode damping, with a cutoff.

    Re gamma(w) = (delta_gamma + slope*w) * exp(-w/cutoff). The linear fit
    holds over roughly 100-400 cm^-1; the exponential cutoff (default at
    the fit's upper validity, 400 cm^-1) makes K_e and the Laplace kernel
    exist, so it must be finite and > 0, or ``DomainError``.
    """

    delta_gamma: float = 20.0
    slope: float = 0.38
    cutoff: float = 400.0
    kind = "linear_protein"

    def __post_init__(self):
        _check_fields(self, "delta_gamma", "slope")
        _check_fields(self, "cutoff", positive=True)

    def _spectrum(self, w):
        out = (self.delta_gamma + self.slope * w) * np.exp(-w / self.cutoff)
        return out if isinstance(w, np.ndarray) else float(out)

    def _kernel(self, z):
        # With f(x) = Ci(x) sin x + (pi/2 - Si(x)) cos x and
        #      g(x) = -Ci(x) cos x + (pi/2 - Si(x)) sin x:
        # int e^{-pw}/(w^2+z^2) dw  = f(p z)/z
        # int w e^{-pw}/(w^2+z^2) dw = g(p z)
        # so gamma_hat(z) = (2/pi) [delta_gamma f(pz) + slope * z * g(pz)],
        # where z g(pz) = cutoff h(pz) with h(x) = x g(x).
        f, h = _auxiliary_fg(z / self.cutoff)
        out = 2.0 / math.pi * (self.delta_gamma * f + self.slope * self.cutoff * h)
        return out if isinstance(z, np.ndarray) else float(out)

    def spectrum_integral(self):
        wc = self.cutoff
        return self.delta_gamma * wc + self.slope * wc * wc



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
    except (KeyError, TypeError):  # TypeError: a kind that cannot be a key
        raise DomainError(f"unknown friction model kind {kind!r}") from None
    try:
        return cls(**{k: v for k, v in obj.items() if k != "kind"})
    except TypeError as exc:  # a field unknown, missing or of the wrong shape
        raise DomainError(f"bad fields for friction model kind {kind!r}: {exc}") from None


def effective_curvature(model: FrictionModel, mass: float = 1.0) -> float:
    """Environment-induced curvature K_e = (2/pi) M int Re gamma(w) dw.

    Returned in mass-number * cm^-2 units (so Drude gives M*gamma*omega_d).
    Raises ``DivergentIntegralError`` where the integral does not exist.
    """
    m = _require_param("mass", mass, positive=True)
    return 2.0 / math.pi * m * model.spectrum_integral()


def kernel_upper_bound(model: FrictionModel, z):
    """Rigorous bound on the memory kernel: gamma_hat(z) <= K_e/(M z).

    Follows from 1/(w^2+z^2) <= 1/z^2 inside the transform integral, i.e.
    gamma_hat(z) <= (2/(pi z)) int Re gamma(w) dw, which is K_e/(M z).
    The particle mass cancels. Propagates the divergent-integral error.
    Takes a scalar (returns a float) or an array of z.
    """
    zz = _require_param("Laplace variable z", z, positive=True)
    return 2.0 / math.pi * model.spectrum_integral() / zz


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
    _require_param("dipole change", delta_mu, positive=True)
    _require_param("reorganisation energy", reorganisation_energy)
    _require_param("mass", mass, positive=True)
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
