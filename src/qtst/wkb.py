"""Zero-friction barrier penetration: turning points, action, transmission.

The semiclassical action through a one-dimensional barrier is

    S(E) = sqrt(2 M) * int_{x1}^{x2} sqrt(U(x) - E) dx,

between the classical turning points, and the transmission probability is
exp(-2 S(E)/hbar). Positions are in angstrom, energies in kJ/mol, masses
in hydrogen mass numbers; the action is returned in units of hbar.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import units
from .errors import DomainError, _check_fields, _read_table, _require_param

__all__ = [
    "Potential1D",
    "ParabolicBarrier",
    "EckartBarrier",
    "CubicBarrier",
    "TabulatedPotential",
    "turning_points",
    "wkb_action",
    "transmission",
]


class Potential1D:
    """Base class for the model barriers. Immutable values."""

    mass: float
    #: interpolated potentials have C1 kinks at their knots, which the
    #: action's quadrature runs across; see ``wkb_action`` for the accuracy
    smooth = True

    def energy(self, x: float) -> float:
        """U(x) in kJ/mol at position x (angstrom)."""
        raise NotImplementedError

    @property
    def barrier_height(self) -> float:
        raise NotImplementedError

    @property
    def barrier_position(self) -> float:
        raise NotImplementedError

    @property
    def length_scale(self) -> float:
        """Characteristic width used for scans and tolerances."""
        raise NotImplementedError

    def search_window(self) -> tuple[float, float]:
        """Outermost positions the turning-point search may visit."""
        scale = self.length_scale
        return self.barrier_position - 1e3 * scale, self.barrier_position + 1e3 * scale


def _curvature(mass: float, omega: float) -> float:
    # M*omega^2 in kJ/mol per angstrom^2
    return units.CURVATURE_KJ_PER_MOL * mass * omega * omega


@dataclass(frozen=True)
class ParabolicBarrier(Potential1D):
    """Inverted parabola U = E_b - (1/2) M omega_b^2 x^2, top at x = 0."""

    E_b: float
    omega_b: float
    mass: float = 1.0

    def __post_init__(self):
        _check_fields(self, "E_b", "omega_b", "mass", positive=True)

    def energy(self, x):
        return self.E_b - 0.5 * _curvature(self.mass, self.omega_b) * x * x

    @property
    def barrier_height(self):
        return self.E_b

    @property
    def barrier_position(self):
        return 0.0

    @property
    def length_scale(self):
        return math.sqrt(2.0 * self.E_b / _curvature(self.mass, self.omega_b))


@dataclass(frozen=True)
class EckartBarrier(Potential1D):
    """Symmetric barrier U = V0 / cosh^2(x/width), top at x = 0."""

    V0: float
    width: float
    mass: float = 1.0

    def __post_init__(self):
        _check_fields(self, "V0", "width", "mass", positive=True)

    def energy(self, x):
        return self.V0 / math.cosh(x / self.width) ** 2

    @property
    def barrier_height(self):
        return self.V0

    @property
    def barrier_position(self):
        return 0.0

    @property
    def length_scale(self):
        return self.width


@dataclass(frozen=True)
class CubicBarrier(Potential1D):
    """Metastable cubic well U = (1/2) M w0^2 x^2 - lambda x^3.

    Parameterised by the well frequency omega_0 and the barrier height;
    the barrier curvature then equals the well curvature, and the top sits
    at x_b = sqrt(6 E_b / (M omega_0^2)).
    """

    omega_0: float
    E_b: float
    mass: float = 1.0

    def __post_init__(self):
        _check_fields(self, "omega_0", "E_b", "mass", positive=True)

    def _k(self) -> float:
        return _curvature(self.mass, self.omega_0)

    @property
    def barrier_position(self):
        return math.sqrt(6.0 * self.E_b / self._k())

    def _lambda(self) -> float:
        return self._k() / (3.0 * self.barrier_position)

    def energy(self, x):
        return 0.5 * self._k() * x * x - self._lambda() * x**3

    @property
    def barrier_height(self):
        return self.E_b

    @property
    def length_scale(self):
        return self.barrier_position

    def search_window(self):
        # Beyond ~3 x_b the potential is far below any tunneling energy.
        return 0.0, 3.0 * self.barrier_position

    def cubic_coefficient(self) -> float:
        """c3 of the barrier-top expansion, in cm^-2/angstrom.

        From U = E_b - (1/2) M wb^2 (x-xb)^2 + M c3 (x-xb)^3/3 + ...,
        c3 = U'''/(2M); the cubic form has U''' = -6 lambda everywhere.
        """
        return -3.0 * self._lambda() / (units.CURVATURE_KJ_PER_MOL * self.mass)


class TabulatedPotential(Potential1D):
    """Monotone-cubic interpolation of sampled (x, U) points."""

    smooth = False

    def __init__(self, x: Sequence[float], U: Sequence[float], mass: float = 1.0):
        from scipy.interpolate import PchipInterpolator
        from scipy.optimize import minimize_scalar
        x = np.asarray(x, dtype=float)
        U = np.asarray(U, dtype=float)
        if x.ndim != 1 or x.size < 4 or x.shape != U.shape:
            raise DomainError("need matching 1-d arrays with at least 4 points")
        _require_param("x", x, signed=True)
        _require_param("U", U, signed=True)
        if np.any(np.diff(x) <= 0):
            order = np.argsort(x)
            x, U = x[order], U[order]
            if np.any(np.diff(x) <= 0):
                raise DomainError("grid positions must be distinct")
        _require_param("mass", mass, positive=True)
        self.mass = float(mass)
        self._U = U
        # scipy builds the PCHIP coefficients once; each piece is then kept
        # as (a0, a1, a2, a3) in powers of s = x - x_i
        self._knots = x.tolist()
        self._coefs = [tuple(col) for col in PchipInterpolator(x, U).c[::-1].T.tolist()]
        i_top = int(np.argmax(U))
        if i_top == 0 or i_top == x.size - 1:
            raise DomainError("tabulated potential has no interior barrier top")
        res = minimize_scalar(
            lambda t: -self.energy(t),
            bounds=(x[max(i_top - 1, 0)], x[min(i_top + 1, x.size - 1)]),
            method="bounded",
            options={"xatol": 1e-13 * (x[-1] - x[0])},
        )
        self._x_top = float(res.x)
        self._U_top = self.energy(res.x)

    def energy(self, x):
        knots = self._knots
        if x < knots[0] or x > knots[-1]:
            raise DomainError(
                f"x = {x:g} outside the tabulated range [{knots[0]:g}, {knots[-1]:g}]"
            )
        # the piece with x_i <= x < x_{i+1}, the last one closed at its end
        i = bisect_right(knots, x, 1, len(knots) - 1) - 1
        a0, a1, a2, a3 = self._coefs[i]
        s = x - knots[i]
        z = s * s
        # scipy's own term order (a power sum, not Horner), so the value is
        # bit for bit that of PchipInterpolator
        return float(a0 + a1 * s + a2 * z + a3 * (z * s))

    @property
    def barrier_height(self):
        return self._U_top

    @property
    def barrier_position(self):
        return self._x_top

    @property
    def length_scale(self):
        return self._knots[-1] - self._knots[0]

    def search_window(self):
        return self._knots[0], self._knots[-1]

    @classmethod
    def from_csv(cls, path_or_text, mass: float = 1.0) -> "TabulatedPotential":
        """The knots of a table (x_angstrom, U_kJ_per_mol) of at least 4 rows,
        given as a path or as text with a newline."""
        if isinstance(path_or_text, str) and "\n" in path_or_text:
            text = path_or_text
        else:
            text = Path(path_or_text).read_text(encoding="utf-8")
        _, (xs, us) = _read_table(text, "potential table", 2, 4)
        return cls(xs, us, mass=mass)


def turning_points(pot: Potential1D, E: float) -> tuple[float, float]:
    """Classical turning points bracketing the barrier top at energy E.

    Found by Brent's method to 1e-12 of the potential's length scale.
    Requires 0 < E < barrier height; raises a no-barrier error otherwise,
    and a non-bracketing error when a tabulated potential never drops
    below E.
    """
    from scipy.optimize import brentq
    if E >= pot.barrier_height:
        raise DomainError(
            f"no barrier for E = {E:g} >= barrier height {pot.barrier_height:g} kJ/mol"
        )
    if E <= 0:
        raise DomainError("energy must be > 0")
    x_top = pot.barrier_position
    w_lo, w_hi = pot.search_window()
    roots = []
    for direction, limit in ((-1.0, w_lo), (1.0, w_hi)):
        step = 0.25 * pot.length_scale
        inner = x_top
        outer = x_top + direction * step
        found = False
        while (outer - limit) * direction <= 0:
            if pot.energy(outer) < E:
                found = True
                break
            inner = outer
            step *= 2.0
            outer = outer + direction * step
        if not found:
            if (outer - limit) * direction > 0 and abs(limit - x_top) > 0:
                outer = limit
                try:
                    found = pot.energy(outer) < E
                except DomainError:
                    found = False
            if not found:
                raise DomainError(
                    "turning point search could not bracket U(x) = E "
                    f"going {'left' if direction < 0 else 'right'} of the barrier top"
                )
        lo, hi = (outer, inner) if direction < 0 else (inner, outer)
        tol = 1e-12 * max(pot.length_scale, abs(lo), abs(hi))
        roots.append(brentq(lambda x: pot.energy(x) - E, lo, hi, xtol=tol))
    return roots[0], roots[1]


def wkb_action(pot: Potential1D, E: float) -> float:
    """Barrier-penetration action S(E) in units of hbar.

    The integrand's inverse-square-root endpoint singularities are removed
    by the substitution x = x_mid + half_width * sin(theta), after which an
    adaptive quadrature asks for 1e-10 relative accuracy on a smooth
    potential. On a tabulated one it asks for 1e-8, but the interpolant's
    kinks at the knots, which the quadrature does not split at, cost more
    deep below the top: on a 41-point Eckart table (40 kJ/mol, width
    0.45 angstrom) the action is 1.8e-7 relative off at 0.05*E_b, 1.4e-9
    at 0.5*E_b and 1.1e-11 at 0.95*E_b, against a quadrature split at the
    knots to 1e-13.
    """
    from scipy import integrate
    x1, x2 = turning_points(pot, E)
    mid = 0.5 * (x1 + x2)
    half = 0.5 * (x2 - x1)
    if half == 0.0:
        return 0.0

    def integrand(theta):
        x = mid + half * math.sin(theta)
        du = pot.energy(x) - E
        if du < 0.0:
            du = 0.0
        return math.sqrt(du) * half * math.cos(theta)

    # absolute floor sized to the integral keeps the quadrature from
    # chasing roundoff near the top where the integral itself vanishes
    floor = 1e-12 * half * math.sqrt(pot.barrier_height)
    with warnings.catch_warnings():
        if not pot.smooth:
            # interpolant kinks cap the reachable accuracy at the grid's
            # resolution; QUADPACK's best estimate is what we want
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, _ = integrate.quad(
            integrand,
            -0.5 * math.pi,
            0.5 * math.pi,
            epsabs=floor,
            epsrel=1e-10 if pot.smooth else 1e-8,
            limit=300,
        )
    return units.ACTION_HBAR_FACTOR * math.sqrt(pot.mass) * val


def transmission(pot: Potential1D, E: float) -> float:
    """WKB tunneling probability exp(-2 S(E)/hbar), in (0, 1).

    Underflows to 0.0 for extremely thick barriers.
    """
    return math.exp(-2.0 * wkb_action(pot, E))
