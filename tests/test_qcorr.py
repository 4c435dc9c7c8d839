import math

import numpy as np
import pytest

from qtst import (
    BarrierSystem,
    CubicBarrier,
    DebyeDielectricFriction,
    DrudeFriction,
    Isotope,
    OhmicFriction,
    classical_rate,
    correction_closed,
    correction_crossover,
    correction_product,
    crossover_temperature,
    equilibrium_condition,
    kappa_parameter,
    matsubara_frequency,
    quantum_rate,
    semiclassical_rate,
    weak_friction_margin,
    wigner_rate,
)
from qtst.errors import BelowCrossoverError, DomainError

from oracles import product_exact_then_asymptote, quadrature_kernel

SYSTEM = BarrierSystem(3000.0, 1000.0, 40.0)
T0 = crossover_temperature(1000.0)


# ------------------------------------------------------------- matsubara


def test_matsubara_room_temperature():
    assert matsubara_frequency(1, 300.0) == pytest.approx(1310.11, abs=0.01)


def test_matsubara_zero_and_linearity():
    assert matsubara_frequency(0, 250.0) == 0.0
    assert matsubara_frequency(2, 150.0) == pytest.approx(matsubara_frequency(1, 300.0), rel=1e-14)


def test_matsubara_rejects_bad_temperature():
    with pytest.raises(DomainError):
        matsubara_frequency(1, 0.0)


# ----------------------------------------------------------- closed form


def test_closed_form_high_temperature_limit():
    assert correction_closed(800.0, 800.0, 2.0e5) == pytest.approx(1.0, abs=1e-4)


def test_closed_form_spot_value_frozen_oracle():
    # high-precision evaluation of (1/3) sinh(7.19388438752)/sin(2.39796146251)
    assert correction_closed(3000.0, 1000.0, 300.0) == pytest.approx(327.75293858654829, rel=1e-12)


def test_closed_form_diverges_toward_crossover():
    vals = [correction_closed(3000.0, 1000.0, T0 * (1 + d)) for d in (1e-2, 1e-4, 1e-6)]
    assert vals[0] < vals[1] < vals[2]
    with pytest.raises(BelowCrossoverError):
        correction_closed(3000.0, 1000.0, T0)
    with pytest.raises(BelowCrossoverError):
        correction_closed(3000.0, 1000.0, T0 * (1 + 1e-12))


@pytest.mark.parametrize(
    "args",
    [
        (math.nan, 1000.0, 300.0),
        (3000.0, math.nan, 300.0),
        (3000.0, 1000.0, math.nan),
        (math.inf, 1000.0, 300.0),
        (3000.0, math.inf, 300.0),
        (3000.0, 1000.0, math.inf),
    ],
    ids=["omega0-nan", "omegab-nan", "T-nan", "omega0-inf", "omegab-inf", "T-inf"],
)
def test_closed_form_rejects_non_finite_input(args):
    with pytest.raises(DomainError):
        correction_closed(*args)


# ---------------------------------------------------------- product form


def test_product_matches_closed_form_without_friction():
    for f in np.linspace(1.05, 5.0, 25):
        T = float(f) * T0
        prod = correction_product(SYSTEM, None, T)
        closed = correction_closed(3000.0, 1000.0, T)
        assert abs(prod.c_qm / closed - 1.0) < 1e-6


def test_product_spot_equals_closed_at_300K():
    got = correction_product(SYSTEM, None, 300.0)
    assert got.c_qm == pytest.approx(correction_closed(3000.0, 1000.0, 300.0), rel=1e-9)
    assert got.terms_used > 0
    assert got.tail_estimate > 0.0


def test_product_approaches_unity_far_above_crossover():
    sys_match = BarrierSystem(1000.0, 1000.0, 40.0)
    res = correction_product(sys_match, None, 10.0 * T0)
    assert abs(res.c_qm - 1.0) < 0.1


def test_product_below_crossover_raises():
    with pytest.raises(BelowCrossoverError):
        correction_product(SYSTEM, None, 0.99 * T0)


def test_product_regime_flags():
    assert correction_product(SYSTEM, None, 1.05 * T0).regime == "near_crossover"
    assert correction_product(SYSTEM, None, 2.0 * T0).regime == "high_T"


def test_product_with_drude_vs_richardson_long_product_oracle():
    # brute-force oracle: partial log-sums at N and 2N terms extrapolated
    # against the 1/N tail (independent of the trigamma tail in the
    # implementation)
    model = DrudeFriction(gamma=300.0, omega_d=500.0)
    T = 300.0
    nu = matsubara_frequency(1, T)
    omega0, omegab = SYSTEM.omega0, SYSTEM.omegab
    a = omega0**2 + omegab**2

    def partial(N):
        n = np.arange(1, N + 1, dtype=float)
        xx = n * nu
        g = model.laplace_kernel(xx)
        return float(np.log1p(a / (xx * xx + xx * g - omegab**2)).sum())

    s1, s2 = partial(2**20), partial(2**21)
    oracle = math.exp(2.0 * s2 - s1)
    got = correction_product(SYSTEM, model, T)
    assert got.c_qm == pytest.approx(oracle, rel=1e-7)


def test_product_with_quadrature_model_matches_vector_path():
    # the array-kernel product vs the exact-then-asymptote oracle sum once
    # used for quadrature-backed kernels, fed by an equivalent scalar-only
    # wrapper
    from dataclasses import dataclass

    @dataclass(frozen=True)
    class ScalarDrude(DrudeFriction):
        def laplace_kernel(self, z):
            if np.ndim(z):
                raise AssertionError("scalar path expected")
            return DrudeFriction.laplace_kernel(self, z)

    model_v = DrudeFriction(gamma=120.0, omega_d=400.0)
    model_s = ScalarDrude(gamma=120.0, omega_d=400.0)
    a = correction_product(SYSTEM, model_v, 310.0).c_qm
    b = product_exact_then_asymptote(SYSTEM, model_s, 310.0)
    assert b == pytest.approx(a, rel=1e-8)


def test_debye_product_matches_quadrature_kernel_oracle():
    # the closed-form dielectric kernel in the product vs the route the
    # product once took for it: a quadrature kernel per term for the first
    # terms and the K_e/(M z) asymptote beyond
    from dataclasses import dataclass

    @dataclass(frozen=True)
    class QuadratureDebye(DebyeDielectricFriction):
        def laplace_kernel(self, z):
            return quadrature_kernel(self, z)

    model = DebyeDielectricFriction(cavity_radius=3.0)
    got = correction_product(SYSTEM, model, 300.0).c_qm
    oracle = product_exact_then_asymptote(
        SYSTEM, QuadratureDebye(cavity_radius=3.0), 300.0, exact_terms=128
    )
    assert got == pytest.approx(oracle, rel=1e-9)


def test_isotope_ordering_of_correction():
    vals = {}
    for iso in (Isotope.H, Isotope.D, Isotope.T):
        vals[iso] = correction_product(SYSTEM.with_isotope(iso), None, 300.0).c_qm
    assert vals[Isotope.H] >= vals[Isotope.D] >= vals[Isotope.T] >= 1.0


@pytest.mark.parametrize("omega0", [1500.0, 3000.0])
@pytest.mark.parametrize("omegab", [500.0, 1000.0])
@pytest.mark.parametrize("gamma_frac", [0.0, 0.1, 1.0])
def test_correction_always_exceeds_unity(omega0, omegab, gamma_frac):
    system = BarrierSystem(omega0, omegab, 40.0)
    model = None if gamma_frac == 0 else OhmicFriction(gamma_frac * omegab)
    from qtst import effective_barrier_frequency

    t0 = effective_barrier_frequency(system, model).T0_K
    for f in (1.001, 1.01, 1.1, 1.5, 2.0, 5.0, 10.0):
        res = correction_product(system, model, f * t0)
        assert res.c_qm >= 1.0


# -------------------------------------------------------------- rates


def test_wigner_rate_spot_value_frozen_oracle():
    r = wigner_rate(SYSTEM, 300.0)
    assert r.rate_per_s == pytest.approx(1599469170.1195802, rel=1e-11)
    assert r.rate_cm1 == pytest.approx(0.008491321844648368, rel=1e-11)


@pytest.mark.parametrize("T", [math.nan, math.inf, -math.inf])
def test_wigner_rate_rejects_non_finite_temperature(T):
    with pytest.raises(DomainError):
        wigner_rate(SYSTEM, T)


@pytest.mark.parametrize("T", [math.nan, math.inf])
@pytest.mark.parametrize(
    "call",
    [
        lambda T: matsubara_frequency(1, T),
        lambda T: correction_product(SYSTEM, None, T),
        lambda T: quantum_rate(SYSTEM, DrudeFriction(100.0, 100.0), T),
        lambda T: semiclassical_rate(SYSTEM, T),
        lambda T: correction_crossover(SYSTEM, T, 10.0),
        lambda T: equilibrium_condition(SYSTEM, DrudeFriction(100.0, 100.0), T),
    ],
    ids=["matsubara", "product", "quantum_rate", "semiclassical", "crossover", "equilibrium"],
)
def test_non_finite_temperature_fails_fast(call, T):
    # NaN passes every `T <= 0` test, and the product would then run to its term limit
    with pytest.raises(DomainError):
        call(T)


def test_wigner_rate_is_closed_form_times_boltzmann_factor():
    # rate = omega_0/(4 pi) * correction_closed * exp(-E_b/kB T)
    kb_kj = 1.380649e-23 * 6.02214076e23 / 1000.0
    for system in (SYSTEM, BarrierSystem(1500.0, 400.0, 25.0, Isotope.D)):
        t0 = crossover_temperature(system.omegab)
        for T in t0 * np.geomspace(1.001, 20.0, 12):
            T = float(T)
            expected = (
                system.omega0 / (4.0 * math.pi)
                * correction_closed(system.omega0, system.omegab, T)
                * math.exp(-system.barrier_kJ_per_mol / (kb_kj * T))
            )
            assert wigner_rate(system, T).rate_cm1 == pytest.approx(expected, rel=1e-13)


def test_wigner_rate_vanishes_with_huge_barrier():
    r = wigner_rate(BarrierSystem(3000.0, 1000.0, 4000.0), 300.0)
    assert r.rate_per_s == 0.0


def test_semiclassical_limit_in_the_wigner_regime():
    # hbar*omega_b << 2 kB T << hbar*omega_0: the normative product-form
    # rate reduces to the semiclassical expression within the expansion
    # error; the omega_b/(4 pi) diagnostic sits at exactly half of it
    # (the documented factor-2 prefactor convention).
    system = BarrierSystem(12000.0, 50.0, 40.0)
    T = 300.0
    xb = 1.4387768775 * 50.0 / (2 * T)
    x0 = 1.4387768775 * 12000.0 / (2 * T)
    budget = xb * xb / 6.0 + math.exp(-2 * x0) + 1e-9
    ratio = quantum_rate(system, None, T).rate_per_s / semiclassical_rate(system, T).rate_per_s
    assert abs(ratio - 1.0) <= 2.0 * budget
    half = wigner_rate(system, T).rate_per_s / semiclassical_rate(system, T).rate_per_s
    assert abs(2.0 * half - 1.0) <= 2.0 * budget


def test_semiclassical_rate_prefactor_when_barrier_equals_zero_point():
    zero_point = 0.5 * 3000.0 * 0.011962656563869701
    system = BarrierSystem(3000.0, 1000.0, zero_point)
    r = semiclassical_rate(system, 300.0)
    assert r.rate_per_s == pytest.approx(1.380649e-23 / 6.62607015e-34 * 300.0, rel=1e-12)
    assert semiclassical_rate(system, 600.0).rate_per_s == pytest.approx(2 * r.rate_per_s, rel=1e-12)


def test_semiclassical_isotope_ratio_algebraic_oracle():
    T = 300.0
    rH = semiclassical_rate(SYSTEM, T).rate_per_s
    rD = semiclassical_rate(SYSTEM.with_isotope(Isotope.D), T).rate_per_s
    assert rH / rD == pytest.approx(8.2238622106632665, rel=1e-10)


def test_quantum_rate_is_classical_times_correction():
    model = DrudeFriction(150.0, 400.0)
    r = quantum_rate(SYSTEM, model, 305.0)
    base = classical_rate(SYSTEM, model, 305.0)
    corr = correction_product(SYSTEM, model, 305.0)
    assert r.rate_per_s == pytest.approx(base.rate_per_s * corr.c_qm, rel=1e-12)
    assert r.c_qm == corr.c_qm
    assert r.equilibrium_ok is not None


def test_quantum_rate_frictionless_is_twice_wigner():
    # the product form carries omega_0/(2 pi) instead of omega_b/(4 pi)
    r = quantum_rate(SYSTEM, None, 300.0)
    assert r.rate_per_s == pytest.approx(2.0 * wigner_rate(SYSTEM, 300.0).rate_per_s, rel=1e-9)


def test_quantum_rate_approaches_classical_far_above_crossover():
    system = BarrierSystem(1000.0, 1000.0, 40.0)
    T = 12.0 * T0
    assert quantum_rate(system, None, T).rate_per_s == pytest.approx(
        classical_rate(system, None, T).rate_per_s, rel=0.05
    )


def test_quantum_rate_monotone_in_temperature():
    # activated kinetics above the crossover neighbourhood; within
    # ~1.1*T0 of the crossover the parabolic-top divergence makes the
    # high-temperature expression untrustworthy (and non-monotone)
    rates = [quantum_rate(SYSTEM, None, T).rate_per_s for T in np.linspace(1.15 * T0, 400.0, 30)]
    assert all(a < b for a, b in zip(rates, rates[1:]))


def test_quantum_rate_below_crossover_raises():
    with pytest.raises(BelowCrossoverError):
        quantum_rate(SYSTEM, None, 0.9 * T0)


# ---------------------------------------------------- crossover correction


def test_crossover_correction_finite_at_T0():
    val = correction_crossover(SYSTEM, T0, 10.0)
    assert math.isfinite(val) and val > 1.0
    # analytic limit: prefactor * kappa/sqrt(pi)
    x0 = 1.4387768775039338 * 3000.0 / (2 * T0)
    expected = (1000.0 / 3000.0) * math.sinh(x0) * 10.0 / math.sqrt(math.pi)
    assert val == pytest.approx(expected, rel=1e-9)


def test_crossover_correction_continuous_across_T0():
    eps = 1e-9
    lo = correction_crossover(SYSTEM, T0 * (1 - eps), 10.0)
    hi = correction_crossover(SYSTEM, T0 * (1 + eps), 10.0)
    mid = correction_crossover(SYSTEM, T0, 10.0)
    assert lo == pytest.approx(mid, rel=1e-6)
    assert hi == pytest.approx(mid, rel=1e-6)


def test_crossover_correction_approaches_closed_form_from_below():
    ratios = []
    for f in (1.2, 1.5, 2.0, 3.0, 5.0):
        T = f * T0
        ratios.append(correction_crossover(SYSTEM, T, 10.0) / correction_closed(3000.0, 1000.0, T))
    assert all(r < 1.0 for r in ratios)
    assert all(a < b for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] > 0.999


def test_crossover_correction_asymptotic_series_oracle():
    # sqrt(pi) y erfcx(y) ~ 1 - 1/(2y^2) + 3/(4y^4) for large y
    T = 5.0 * T0  # y = 4*(1+2)/... = eps=-4: y = 4*3*10 = 120
    kappa = 10.0
    eps = (T0 - T) / T0
    y = -eps * (1 - eps / 2) * kappa
    series = 1.0 - 1.0 / (2 * y * y) + 3.0 / (4 * y**4)
    got = correction_crossover(SYSTEM, T, kappa) / correction_closed(3000.0, 1000.0, T)
    assert got == pytest.approx(series, rel=1e-7)


def test_crossover_correction_domain_and_kappa_validation():
    with pytest.raises(DomainError):
        correction_crossover(SYSTEM, 300.0, 0.0)
    with pytest.raises(DomainError):
        correction_crossover(SYSTEM, 0.5 * T0, 10.0)


# ---------------------------------------------------------------- kappa


def test_kappa_B_reduces_to_quartic_when_c3_zero():
    p = kappa_parameter(Isotope.H, 1000.0, 0.0, 1000.0, T0)
    assert p.B == pytest.approx(3000.0, rel=1e-14)
    assert p.kappa == pytest.approx(707.51458643290672, rel=1e-10)


def test_kappa_numeric_spot_with_hand_computed_B():
    c3, c4 = 2.0e5, 500.0
    p = kappa_parameter(1.0, 800.0, c3, c4, 200.0)
    B = 4 * c3**2 / (3 * 800.0**2) + 3 * c4
    assert p.B == pytest.approx(B, rel=1e-12)
    rad = 2 * math.pi * 2.99792458e10
    kappa = (800.0 * rad) ** 2 * math.sqrt(
        8 * 1.67262192369e-27 / (B * rad**2 / 1e-20 * 1.380649e-23 * 200.0)
    )
    assert p.kappa == pytest.approx(kappa, rel=1e-10)


def test_kappa_for_cubic_barrier_scales_with_barrier_height():
    # the cubic barrier has c4 = 0 and c3 from its third derivative; the
    # resulting kappa reduces to sqrt(72 pi E_b/(hbar omega_b))
    pot = CubicBarrier(omega_0=1000.0, E_b=40.0)
    c3 = pot.cubic_coefficient()
    p = kappa_parameter(1.0, 1000.0, c3, 0.0, T0)
    assert p.kappa == pytest.approx(27.501562113832227, rel=1e-8)
    # order sqrt(E_b / hbar*omega_b), well above 1 for a high barrier
    assert p.kappa > math.sqrt(40.0 / 11.9627)


def test_kappa_rejects_nonpositive_B():
    with pytest.raises(DomainError):
        kappa_parameter(1.0, 1000.0, 0.0, 0.0, 230.0)
    with pytest.raises(DomainError):
        kappa_parameter(1.0, 1000.0, 0.0, -10.0, 230.0)


# ------------------------------------------------------------ equilibrium


def test_equilibrium_condition_frictionless_false():
    ok, margin = equilibrium_condition(SYSTEM, None, 300.0)
    assert ok is False and margin == 0.0


def test_equilibrium_condition_huge_barrier_true():
    system = BarrierSystem(3000.0, 1000.0, 4.0e4)
    ok, _ = equilibrium_condition(system, OhmicFriction(1.0), 300.0)
    assert ok is True


def test_equilibrium_condition_hand_evaluated_margin():
    model = OhmicFriction(100.0)  # 0.1 * omega_b
    ok, margin = equilibrium_condition(SYSTEM, model, 300.0)
    kb = 1.380649e-23 * 6.02214076e23 / 1000.0
    assert margin == pytest.approx((100.0 / 1000.0) / (kb * 300.0 / 40.0), rel=1e-10)
    assert ok is (margin > 1.0)


def test_equilibrium_condition_zero_barrier_rejected():
    with pytest.raises(DomainError):
        equilibrium_condition(BarrierSystem(3000.0, 1000.0, 0.0), None, 300.0)


def test_weak_friction_margin():
    assert weak_friction_margin(None, 300.0) == 0.0
    m = weak_friction_margin(DrudeFriction(100.0, 200.0), 300.0)
    nu = matsubara_frequency(1, 300.0)
    assert m == pytest.approx(DrudeFriction(100.0, 200.0).laplace_kernel(nu) / nu, rel=1e-12)
    assert m < 1.0


# ---------------------------------------------------------- serialization


def test_rate_and_correction_results_serialize():
    import json

    r = quantum_rate(SYSTEM, DrudeFriction(100.0, 300.0), 310.0)
    payload = r.to_json()
    assert payload["regime"] in ("qtst", "near_crossover")
    assert {"T_K", "rate_per_s", "c_qm", "mu_cm1", "T0_K"} <= set(payload)
    json.dumps(payload)

    c = correction_product(SYSTEM, None, 300.0)
    cj = c.to_json()
    assert cj["regime"] == "high_T" and cj["terms_used"] > 0
    json.dumps(cj)
