"""Slow reference implementations that the library's fast paths are checked against.

These are the generic numerical routes the library no longer takes: the
memory kernel by quadrature of its spectrum, the spectrum integral by
quadrature, the Matsubara product with an exact kernel for the first terms
and the K_e/(M z) asymptote beyond, and the effective frequency by a dense
scan with root bracketing. They use only the model's ``friction_spectrum``
(or a scalar ``laplace_kernel``) and stay independent of the closed forms.
The Drude and Peaked effective frequencies also have polynomial oracles,
built from the model parameters alone.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, optimize
from scipy.special import polygamma

from qtst import (
    DebyeDielectricFriction,
    DrudeFriction,
    LinearProteinFriction,
    PeakedFriction,
    matsubara_frequency,
)
from qtst import units

_QUAD_OPTS = dict(epsabs=0.0, epsrel=1e-11, limit=400)
# the infinite tails carry ~1e-4 of the integral; absolute floor avoids
# chasing roundoff there
_TAIL_QUAD_OPTS = dict(epsabs=1e-13, epsrel=1e-9, limit=200)


def feature_frequencies(model) -> list[float]:
    """Frequencies (cm^-1) where a model's spectrum changes shape."""
    if isinstance(model, DrudeFriction):
        return [model.omega_d]
    if isinstance(model, PeakedFriction):
        return [model.omega_r, model.omega_r + model.width]
    if isinstance(model, DebyeDielectricFriction):
        omega_tau = units.CM1_TO_RAD_PER_S * 1e-12
        return sorted([1.0 / (omega_tau * tau) for tau in model.tau_ps] + [model.omega_4])
    if isinstance(model, LinearProteinFriction) and model.cutoff is not None:
        return [model.cutoff]
    return []


def _tail_integral(f, lower: float) -> float:
    # int_lower^inf f(w) dw via w = lower/t, finite domain and smooth for
    # the ~1/w^2 and faster tails these spectra have
    def g(t):
        w = lower / t
        return f(w) * lower / (t * t)

    val, _ = integrate.quad(g, 1e-12, 1.0, **_TAIL_QUAD_OPTS)
    return val


def quadrature_kernel(model, z: float) -> float:
    """gamma_hat(z) = (2 z/pi) int_0^inf Re gamma(w)/(w^2 + z^2) dw by quadrature."""
    z = float(z)
    pts = [w for w in feature_frequencies(model) if w > 0.0]
    upper = 50.0 * max([z] + pts + [1.0])

    def f(w):
        return model.friction_spectrum(w) / (w * w + z * z)

    head, _ = integrate.quad(f, 0.0, upper, points=sorted(set(pts + [z])), **_QUAD_OPTS)
    return 2.0 * z / math.pi * (head + _tail_integral(f, upper))


def quadrature_spectrum_integral(model) -> float:
    """int_0^inf Re gamma(w) dw by quadrature."""
    pts = [w for w in feature_frequencies(model) if w > 0.0]
    upper = 50.0 * max(pts + [1.0])
    head, _ = integrate.quad(model.friction_spectrum, 0.0, upper, points=pts, **_QUAD_OPTS)
    return head + _tail_integral(model.friction_spectrum, upper)


def product_exact_then_asymptote(system, model, T, term_tol=1e-9, exact_terms=512):
    """c_qm with the kernel evaluated one scalar call at a time for the
    first ``exact_terms`` Matsubara terms and as K_e/(M z) beyond, where
    its relative error is (feature/z)^2; the remaining tail is added with
    the trigamma function as in ``correction_product``."""
    omega0, omegab = system.omega0, system.omegab
    nu = matsubara_frequency(1, T)
    a = omega0 * omega0 + omegab * omegab
    tail_scale = 2.0 / math.pi * model.spectrum_integral()
    log_sum, n_used, chunk = 0.0, 0, 4096
    while True:
        n = np.arange(n_used + 1, n_used + chunk + 1, dtype=float)
        x = n * nu
        g = tail_scale / x
        for i in np.nonzero(n <= exact_terms)[0]:
            g[i] = model.laplace_kernel(float(x[i]))
        logs = np.log1p(a / (x * x + x * g - omegab * omegab))
        log_sum += float(logs.sum())
        n_used += chunk
        if logs[-1] < term_tol:
            break
        chunk = min(2 * chunk, 262_144)
    return math.exp(log_sum + a * float(polygamma(1, n_used + 1)) / (nu * nu))


def mu_scan(omegab: float, model, points: int = 10_000) -> float:
    """Largest root of mu^2 + mu*gamma_hat(mu) = omega_b^2 on (0, omega_b].

    The left side minus the right is negative at 0 and >= 0 at omega_b, so
    the largest root lies above the last grid point where it is negative.
    """
    def f(mu):
        return mu * mu + mu * model.laplace_kernel(mu) - omegab * omegab

    grid = np.linspace(1e-12 * omegab, omegab, points)
    vals = np.array([f(float(x)) for x in grid])
    last = int(np.nonzero(vals < 0.0)[0][-1])
    if vals[last + 1] == 0.0:
        return float(grid[last + 1])
    return optimize.brentq(f, grid[last], grid[last + 1], xtol=1e-14 * omegab, rtol=1e-15)


def drude_mu_cubic(omegab: float, gamma: float, omega_d: float) -> float:
    """The one positive root of the Drude mu equation cleared of its denominator.

    mu^2 + mu*gamma*omega_d/(omega_d + mu) = omega_b^2 times omega_d + mu is
    mu^3 + wd mu^2 + (gamma wd - wb^2) mu - wb^2 wd = 0, whose coefficients
    change sign once; solved for x = mu/omega_b so they are of order one.
    """
    d, g = omega_d / omegab, gamma / omegab
    roots = np.roots([1.0, d, g * d - 1.0, -d])
    (x,) = [r.real for r in roots if abs(r.imag) < 1e-9 and r.real > 0.0]
    return x * omegab


def peaked_mu_quartic(omegab: float, model) -> float:
    """Largest real root in (0, omega_b] of the Peaked mu equation as a quartic.

    mu^2 + mu*gamma_hat(mu) = wb^2 times mu^2 + Gamma*mu + wr^2 is
    mu^4 + G mu^3 + (wr^2 - wb^2 + gr G) mu^2 - wb^2 G mu - wb^2 wr^2 = 0,
    solved for x = mu/omega_b so the coefficients are of order one.
    """
    g, gr, wr = model.width / omegab, model.gamma_r / omegab, model.omega_r / omegab
    roots = np.roots([1.0, g, wr * wr - 1.0 + gr * g, -g, -wr * wr])
    real = [r.real for r in roots if abs(r.imag) < 1e-9 and 0.0 < r.real <= 1.0 + 1e-9]
    return min(max(real), 1.0) * omegab
