"""Zero-friction barrier penetration: turning points, action, transmission.

The semiclassical action through a one-dimensional barrier is

    S(E) = sqrt(2 M) * int_{x1}^{x2} sqrt(U(x) - E) dx,

between the classical turning points, and the transmission probability is
exp(-2 S(E)/hbar). Positions are in angstrom, energies in kJ/mol, masses
in hydrogen mass numbers; the action is returned in units of hbar.

The three model barriers have the integral in closed form, with no
turning-point solve and no quadrature (see ``wkb_action``):

- parabola: pi (E_b - E)/sqrt(2 k), k = M omega_b^2;
- Eckart: pi w (sqrt(V0) - sqrt(E)) (Bell, *The Tunnel Effect in
  Chemistry*, 1980), evaluated as pi w (V0 - E)/(sqrt(V0) + sqrt(E));
- cubic: complete elliptic integrals of the root gaps (Byrd & Friedman,
  *Handbook of Elliptic Integrals*, 1971, 236), or a hypergeometric series
  just below the top.

A tabulated potential, and any subclass that overrides ``energy``, takes
the adaptive quadrature between Brent turning points.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_right
from dataclasses import FrozenInstanceError, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import units
from .errors import DomainError, _brent, _check_fields, _read_table, _require_array, _require_param, _scipy

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
    """Base class for the model barriers. Immutable values.

    A subclass gives ``energy``, the barrier top (``barrier_position`` and
    ``barrier_height``) and ``brackets(E)``: for 0 < E < barrier height, one
    interval ``(lo, hi)`` on each side of the top, the left one first, each
    holding exactly one root of U(x) - E. ``turning_points`` runs Brent's
    method in each. A model barrier also gives ``_integral(E)``, the closed
    form of int sqrt(U - E) dx that ``wkb_action`` takes in place of its
    quadrature, but only for the class that defines that ``energy``.
    """

    mass: float
    # the barrier top, which a subclass sets on construction
    barrier_height: float
    barrier_position: float

    def energy(self, x: float) -> float:
        """U(x) in kJ/mol at position x (angstrom)."""
        raise NotImplementedError

    def brackets(self, E: float) -> tuple[tuple[float, float], tuple[float, float]]:
        """``(lo, hi)`` left and right of the top, each with one root of U - E."""
        raise NotImplementedError

    def _action_integrand(self, E, mid, half):
        # sqrt(U - E) dx with x = mid + half*sin(theta), for wkb_action
        def integrand(theta):
            x = mid + half * math.sin(theta)
            du = self.energy(x) - E
            if du < 0.0:
                du = 0.0
            return math.sqrt(du) * half * math.cos(theta)

        return integrand


def _curvature(mass: float, omega: float) -> float:
    # M*omega^2 in kJ/mol per angstrom^2
    return units.CURVATURE_KJ_PER_MOL * mass * omega * omega


@dataclass(frozen=True)
class ParabolicBarrier(Potential1D):
    """Inverted parabola U = E_b - (1/2) M omega_b^2 x^2, top at x = 0."""

    E_b: float
    omega_b: float
    mass: float = 1.0
    barrier_position = 0.0

    def __post_init__(self):
        _check_fields(self, "E_b", "omega_b", "mass", positive=True)
        # the top and the curvature M w_b^2; not dataclass fields
        object.__setattr__(self, "barrier_height", self.E_b)
        object.__setattr__(self, "_k", _curvature(self.mass, self.omega_b))

    def energy(self, x):
        return self.E_b - 0.5 * self._k * x * x

    def brackets(self, E):
        # U = 0 at the outer ends
        r = math.sqrt(2.0 * self.E_b / self._k)
        return (-r, 0.0), (0.0, r)

    def _integral(self, E):
        # half an ellipse of semi-axes sqrt(2 (E_b - E)/k) and sqrt(E_b - E)
        return math.pi * (self.E_b - E) / math.sqrt(2.0 * self._k)


@dataclass(frozen=True)
class EckartBarrier(Potential1D):
    """Symmetric barrier U = V0 / cosh^2(x/width), top at x = 0."""

    V0: float
    width: float
    mass: float = 1.0
    barrier_position = 0.0

    def __post_init__(self):
        _check_fields(self, "V0", "width", "mass", positive=True)
        object.__setattr__(self, "barrier_height", self.V0)

    def energy(self, x):
        return self.V0 / math.cosh(x / self.width) ** 2

    def _outer_ratio(self, E):
        # cosh^2 = 2 V0/E at the bracket ends, where U = E/2; past a double's
        # range U can no longer reach E/2, and energy() would overflow
        q = 2.0 * self.V0 / E
        if q == math.inf:
            raise DomainError(f"E = {E:g} kJ/mol is too small for an Eckart barrier of {self.V0:g} kJ/mol")
        return q

    def brackets(self, E):
        r = self.width * math.acosh(math.sqrt(self._outer_ratio(E)))
        return (-r, 0.0), (0.0, r)

    def _integral(self, E):
        # pi w (sqrt(V0) - sqrt(E)), without the difference's cancellation
        # near the top; an E too small for the brackets raises as they do
        self._outer_ratio(E)
        return math.pi * self.width * (self.V0 - E) / (math.sqrt(self.V0) + math.sqrt(E))


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
        # the curvature M w0^2, the top and lambda, derived once; not dataclass
        # fields, so equality, hashing and repr see only the three above
        k = _curvature(self.mass, self.omega_0)
        xb = math.sqrt(6.0 * self.E_b / k)
        object.__setattr__(self, "_k", k)
        object.__setattr__(self, "barrier_position", xb)
        object.__setattr__(self, "barrier_height", self.E_b)
        object.__setattr__(self, "_lambda", k / (3.0 * xb))

    def energy(self, x):
        return 0.5 * self._k * x * x - self._lambda * x**3

    def brackets(self, E):
        # U = 0 at x = 0 and at x = 1.5 x_b, and is monotone on each side
        xb = self.barrier_position
        return (0.0, xb), (xb, 1.5 * xb)

    def _integral(self, E):
        # U - E = lambda (x - r0)(x - r1)(r2 - x), r0 < 0 < r1 < r2; with
        # lambda x_b^3 = 2 E_b the integral is sqrt(2 E_b) x_b J, where J
        # takes the root gaps d = r2 - r1 and q = r1 - r0 in units of x_b,
        # from the trigonometric roots: d = sqrt(3) sin(beta), q =
        # sqrt(3) sin(alpha), alpha = (2/3) asin(sqrt(E/E_b)) and beta =
        # pi/3 - alpha, each angle from atan2 so the small one keeps its digits
        top = self.E_b
        below, above = math.sqrt(top - E), math.sqrt(E)
        d = _SQRT3 * math.sin(_TWO_THIRDS * math.atan2(below, above))
        q = _SQRT3 * math.sin(_TWO_THIRDS * math.atan2(above, below))
        if d < 0.25 * q:
            # near the top the elliptic form cancels: the Euler integral's
            # series, pi/8 d^2 sqrt(q) 2F1(-1/2, 3/2; 3; -d/q)
            j = 0.125 * math.pi * d * d * math.sqrt(q) * _hyp2f1_top(-d / q)
        else:
            # Byrd & Friedman 236, with m = d/p and 1 - m = q/p
            p = d + q
            K, Em = _complete_elliptic(d / p, math.sqrt(q / p))
            j = (2.0 / 15.0) * math.sqrt(p) * (2.0 * (p * p - p * q + q * q) * Em - q * (p + q) * K)
        return math.sqrt(2.0 * top) * self.barrier_position * j


_SQRT3 = math.sqrt(3.0)
_TWO_THIRDS = 2.0 / 3.0


def _complete_elliptic(m, kc):
    """K(m) and E(m) by the arithmetic-geometric mean (Abramowitz & Stegun
    17.6), from the parameter m and the complementary modulus kc =
    sqrt(1 - m), each passed in so neither is a difference."""
    a, b = 1.0, kc
    c2, weight = m, 0.5  # c_n^2 and 2^(n-1)
    total = weight * c2
    while c2 > 1e-32:
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        # c_{n+1} = c_n^2/(4 a_{n+1}), not the cancelling (a_n - b_n)/2
        c2 = c2 * c2 / (16.0 * a * a)
        weight *= 2.0
        total += weight * c2
    K = 0.5 * math.pi / a
    return K, K * (1.0 - total)


def _hyp2f1_top(z):
    # 2F1(-1/2, 3/2; 3; z) by its series, for -1/4 < z <= 0: the terms
    # alternate and fall at least 4-fold
    term = total = 1.0
    n = 0
    while abs(term) > 1e-17 * total:
        term *= (n - 0.5) * (n + 1.5) / ((n + 3.0) * (n + 1.0)) * z
        total += term
        n += 1
    return total


def _sign(v):
    # numpy's sign, but 0 for nan: the two differ only where a knot spacing
    # overflows, and the slopes' check below then refuses the table
    return (v > 0.0) - (v < 0.0)


def _pchip_end_slope(h0, h1, m0, m1):
    # scipy's one-sided three-point end slope, kept monotone
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if _sign(d) != _sign(m0):
        return 0.0
    if _sign(m0) != _sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pchip_coefficients(x, y):
    """(a0, a1, a2, a3) of each piece of the PCHIP interpolant of sorted
    knots x and values y (lists of floats): scipy's ``PchipInterpolator``
    ``.c[::-1].T``, bit for bit, from the same operations in the same order."""
    h = [b - a for a, b in zip(x, x[1:])]
    m = [(b - a) / hk for a, b, hk in zip(y, y[1:], h)]
    # Fritsch-Butland interior slopes: a weighted harmonic mean of the two
    # secants, zero where either is zero or their signs differ
    d = [_pchip_end_slope(h[0], h[1], m[0], m[1])]
    for h0, h1, m0, m1 in zip(h, h[1:], m, m[1:]):
        if (m0 > 0.0 and m1 > 0.0) or (m0 < 0.0 and m1 < 0.0):
            w1, w2 = 2.0 * h1 + h0, h1 + 2.0 * h0
            whmean = (w1 / m0 + w2 / m1) / (w1 + w2)
            # numpy's 1/0 is infinite, and refused below
            d.append(1.0 / whmean if whmean else math.inf)
        else:
            d.append(0.0)
    d.append(_pchip_end_slope(h[-1], h[-2], m[-1], m[-2]))
    # scipy refuses an infinite slope too, with a ValueError
    if not all(map(math.isfinite, d)):
        raise DomainError("tabulated potential's PCHIP slopes overflow: knots too close for their values")
    # CubicHermiteSpline's coefficients
    coefs = []
    for y0, d0, d1, hk, mk in zip(y, d, d[1:], h, m):
        t = (d0 + d1 - 2.0 * mk) / hk
        coefs.append((y0, d0, (mk - d0) / hk - t, t / hk))
    return coefs


class TabulatedPotential(Potential1D):
    """Monotone-cubic interpolation of sampled (x, U) points. Immutable, as
    the frozen dataclasses are: assignment raises ``FrozenInstanceError``."""

    def __init__(self, x: Sequence[float], U: Sequence[float], mass: float = 1.0):
        x = np.asarray(x, dtype=float)
        U = np.asarray(U, dtype=float)
        if x.ndim != 1 or x.size < 4 or x.shape != U.shape:
            raise DomainError("need matching 1-d arrays with at least 4 points")
        _require_array("x", x, signed=True)
        _require_array("U", U, signed=True)
        # neighbours compared, not subtracted: a difference can overflow
        if np.any(x[1:] <= x[:-1]):
            order = np.argsort(x)
            x, U = x[order], U[order]
            if np.any(x[1:] <= x[:-1]):
                raise DomainError("grid positions must be distinct")
        mass = _require_param("mass", mass, positive=True)
        knots, values = x.tolist(), U.tolist()
        if not math.isfinite(knots[-1] - knots[0]):
            raise DomainError("grid positions must span less than the largest double")
        # energy() takes s^3 for s up to a piece's width; an infinite power
        # times a zero coefficient would be nan
        widest = max(b - a for a, b in zip(knots, knots[1:]))
        if not math.isfinite(widest * widest * widest):
            raise DomainError("each grid spacing cubed must stay below the largest double")
        # no monotone piece rises above its end knots: the top is the
        # largest knot
        top = int(np.argmax(U))
        if top == 0 or top == x.size - 1:
            raise DomainError("tabulated potential has no interior barrier top")
        # each piece as (a0, a1, a2, a3) in powers of s = x - x_i; an
        # infinite one (scipy's too) makes energy() nan where it meets s = 0
        coefs = _pchip_coefficients(knots, values)
        if not all(math.isfinite(c) for piece in coefs for c in piece):
            raise DomainError("tabulated potential's PCHIP coefficients overflow: values too large for their spacing")
        # set once, past the __setattr__ that refuses every later assignment
        vars(self).update(
            mass=mass,
            _knots=knots,
            _coefs=coefs,
            _U=values,
            _i_top=top,
            barrier_height=values[top],
            barrier_position=knots[top],
        )

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

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

    def _action_integrand(self, E, mid, half):
        # energy() inlined, less its range check: every x lies between the
        # turning points, so inside the table
        knots, coefs, last = self._knots, self._coefs, len(self._knots) - 1
        sin, cos, sqrt, find = math.sin, math.cos, math.sqrt, bisect_right

        def integrand(theta):
            x = mid + half * sin(theta)
            i = find(knots, x, 1, last) - 1
            a0, a1, a2, a3 = coefs[i]
            s = x - knots[i]
            z = s * s
            du = a0 + a1 * s + a2 * z + a3 * (z * s) - E
            if du < 0.0:
                du = 0.0
            return sqrt(du) * half * cos(theta)

        return integrand

    def brackets(self, E):
        # every PCHIP piece is monotone, so the piece that ends at the first
        # knot below E, walking out from the top, holds exactly one crossing
        knots, U, top = self._knots, self._U, self._i_top
        left = next((i for i in range(top - 1, -1, -1) if U[i] < E), None)
        right = next((i for i in range(top + 1, len(U)) if U[i] < E), None)
        if left is None or right is None:
            raise DomainError(
                f"tabulated potential stays above E = {E:g} kJ/mol "
                f"{'left' if left is None else 'right'} of the barrier top"
            )
        return (knots[left], knots[left + 1]), (knots[right - 1], knots[right])

    @classmethod
    def from_csv(cls, path, mass: float = 1.0) -> "TabulatedPotential":
        """The knots of the table (x_angstrom, U_kJ_per_mol) of at least 4 rows
        in the file at ``path``."""
        _, (xs, us) = _read_table(Path(path).read_text(encoding="utf-8"), "potential table", 2, 4)
        return cls(xs, us, mass=mass)


def _check_energy(pot: Potential1D, E) -> float:
    # finite, > 0 and below the top, or DomainError; E as a float
    E = _require_param("energy", E, positive=True)
    if E >= pot.barrier_height:
        raise DomainError(
            f"no barrier for E = {E:g} >= barrier height {pot.barrier_height:g} kJ/mol"
        )
    return E


def _energy_class(pot: Potential1D) -> type:
    # the class whose energy pot runs; a closed form or an inlined integrand
    # describes that energy only, so a subclass overriding it gets neither
    return next(cls for cls in type(pot).__mro__ if "energy" in vars(cls))


def turning_points(pot: Potential1D, E: float) -> tuple[float, float]:
    """Classical turning points on either side of the barrier top at energy E.

    One root of U(x) - E by Brent's method in each of ``pot.brackets(E)``,
    to 1e-12 of that bracket's scale, max(hi - lo, |lo|, |hi|). E must be
    finite and > 0 (``_require_param``) and below the barrier height, and a
    tabulated potential must drop below E on each side, or ``DomainError``;
    a bracket Brent's method cannot solve raises ``SolverConvergenceError``.
    """
    E = _check_energy(pot, E)
    x1, x2 = (
        _brent(lambda x: pot.energy(x) - E, lo, hi, xtol=1e-12 * max(hi - lo, abs(lo), abs(hi)), what="turning point")[0]
        for lo, hi in pot.brackets(E)
    )
    return x1, x2


def wkb_action(pot: Potential1D, E: float) -> float:
    """Barrier-penetration action S(E) in units of hbar.

    The parabolic, Eckart and cubic barriers take their closed forms (see
    the module docstring): no turning points and no scipy. Against a
    50-digit mpmath quadrature of each barrier as its constructor defines
    it, each is within 1e-12 relative for E/E_b in [1e-6, 1 - 1e-6] and
    masses 1 to 3 (the worst of 600 random cases each: 4.8e-16 parabolic,
    4.5e-16 Eckart, 6.5e-15 cubic). The cubic is complete elliptic
    integrals by the AGM, or, where the turning points' gap is below a
    quarter of the gap to the third root, the series of its hypergeometric
    form (the elliptic one cancels there: 1.7e-10 off at (1 - 1e-6) E_b).
    E is checked as ``turning_points`` checks it, and an Eckart energy too
    small for its brackets raises the same ``DomainError``.

    A tabulated potential, and any subclass that overrides ``energy``,
    takes a quadrature between the turning points. The integrand's
    inverse-square-root endpoint singularities are removed by the
    substitution x = x_mid + half_width * sin(theta), after which scipy's
    adaptive quadrature asks for 1e-10 relative accuracy on a smooth
    potential. On a tabulated one it asks for 1e-8, but the interpolant's
    kinks at the knots, which the quadrature does not split at, cost more
    deep below the top: on a 41-point Eckart table (40 kJ/mol, width
    0.45 angstrom) the action is 1.8e-7 relative off at 0.05*E_b, 1.4e-9
    at 0.5*E_b and 1.1e-11 at 0.95*E_b, against a quadrature split at the
    knots to 1e-13.
    """
    owner = _energy_class(pot)
    closed = vars(owner).get("_integral")
    if closed is not None:
        val = closed(pot, _check_energy(pot, E))
        return units.ACTION_HBAR_FACTOR * math.sqrt(pot.mass) * val

    integrate = _scipy("integrate")
    x1, x2 = turning_points(pot, E)
    mid = 0.5 * (x1 + x2)
    half = 0.5 * (x2 - x1)

    # absolute floor sized to the integral keeps the quadrature from
    # chasing roundoff near the top where the integral itself vanishes
    floor = 1e-12 * half * math.sqrt(pot.barrier_height)
    integrand = vars(owner).get("_action_integrand", Potential1D._action_integrand)
    tabulated = isinstance(pot, TabulatedPotential)
    with warnings.catch_warnings():
        if tabulated:
            # interpolant kinks cap the reachable accuracy at the grid's
            # resolution; QUADPACK's best estimate is what we want
            warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, _ = integrate.quad(
            integrand(pot, E, mid, half),
            -0.5 * math.pi,
            0.5 * math.pi,
            epsabs=floor,
            epsrel=1e-8 if tabulated else 1e-10,
            limit=300,
        )
    return units.ACTION_HBAR_FACTOR * math.sqrt(pot.mass) * val


def transmission(pot: Potential1D, E: float) -> float:
    """WKB tunneling probability exp(-2 S(E)/hbar), in (0, 1).

    Underflows to 0.0 for extremely thick barriers.
    """
    return math.exp(-2.0 * wkb_action(pot, E))
