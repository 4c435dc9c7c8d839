import math
import sys
import time
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np
import pytest

from qtst import (
    BarrierSystem,
    CubicBarrier,
    DebyeDielectricFriction,
    DrudeFriction,
    FrictionModel,
    Isotope,
    LinearProteinFriction,
    OhmicFriction,
    PeakedFriction,
    classical_rate,
    correction_closed,
    correction_crossover,
    correction_product,
    crossover_temperature,
    effective_barrier_frequency,
    kappa_parameter,
    quantum_rate,
    weak_friction_margin,
)
from qtst import kramers, qcorr, units
from qtst.errors import BelowCrossoverError, DomainError
from qtst.qcorr import _erfcx

from oracles import (
    cubic_c3,
    erfcx,
    erfcx_mpmath,
    product_exact_then_asymptote,
    product_nodes_each_call,
    product_richardson,
    product_trigamma,
    quadrature_kernel,
)

SYSTEM = BarrierSystem(3000.0, 1000.0, 40.0)
T0 = crossover_temperature(1000.0)


# ------------------------------------------------------------- matsubara


def test_matsubara_room_temperature():
    # the first bosonic thermal frequency 2*pi*kB*T/hbar is T*_NU_CM1_PER_K
    assert 300.0 * qcorr._NU_CM1_PER_K == pytest.approx(1310.11, abs=0.01)


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
    # against the 1/N tail (independent of the Euler-Maclaurin tail in the
    # implementation)
    model = DrudeFriction(gamma=300.0, omega_d=500.0)
    T = 300.0
    nu = T * qcorr._NU_CM1_PER_K
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


@pytest.mark.parametrize("t_over_t0", [1.001, 1.03, 2.0])
def test_product_at_strong_ohmic_friction_matches_richardson_oracle(t_over_t0):
    # gamma = 6 omega_b, where a tail that drops the gamma/x part of the
    # log-term (oracles.product_trigamma) is 1.7e-8 off
    system, model = BarrierSystem(2500.0, 500.0, 40.0), OhmicFriction(3000.0)
    T = t_over_t0 * effective_barrier_frequency(system, model).T0_K
    got = correction_product(system, model, T)
    assert abs(math.log(got.c_qm) - product_richardson(system, model, T)) <= 1e-10
    assert got.terms_used <= 300


# gamma_hat <= omega_b = 1000 cm^-1 throughout, where the trigamma tail holds
TRIGAMMA_MODELS = [
    None,
    OhmicFriction(300.0),
    DrudeFriction(300.0, 500.0),
    PeakedFriction(200.0, 150.0, 600.0),
    DebyeDielectricFriction(cavity_radius=8.0),
    LinearProteinFriction(),
]


@pytest.mark.parametrize("model", TRIGAMMA_MODELS, ids=lambda m: getattr(m, "kind", "none"))
def test_product_matches_trigamma_oracle(model):
    T0m = effective_barrier_frequency(SYSTEM, model).T0_K
    for f in (1.01, 1.1, 1.5, 3.0, 6.0):
        got = correction_product(SYSTEM, model, f * T0m)
        ref = product_trigamma(SYSTEM, model, f * T0m)
        assert abs(math.log(got.c_qm / ref.c_qm)) <= 1e-9
        assert got.regime == ref.regime


RICHARDSON_CASES = [
    (None, 1.01),
    (OhmicFriction(300.0), 1.001),
    (DrudeFriction(300.0, 500.0), 1.1),
    (PeakedFriction(200.0, 150.0, 600.0), 1.5),
    (DebyeDielectricFriction(cavity_radius=3.0), 1.03),
    (LinearProteinFriction(), 2.0),
]


@pytest.mark.parametrize(
    "model, t_over_t0", RICHARDSON_CASES, ids=lambda v: getattr(v, "kind", str(v))
)
def test_product_log_error_within_term_tol(model, t_over_t0):
    T = t_over_t0 * effective_barrier_frequency(SYSTEM, model).T0_K
    ref = product_richardson(SYSTEM, model, T)
    for term_tol in (1e-6, 1e-9, 1e-12):
        got = correction_product(SYSTEM, model, T, term_tol=term_tol)
        assert abs(math.log(got.c_qm) - ref) <= term_tol
        assert got.terms_used <= 300


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 4: N is sized from the kernel's large-z form, which a "
    "Drude bath with omega_d = 1e6 cm^-1 has not taken at the first tail node",
)
def test_product_keeps_term_tol_for_slow_drude_friction():
    model, term_tol = DrudeFriction(3000.0, 1e6), 1e-9
    T = 1.3 * effective_barrier_frequency(SYSTEM, model).T0_K
    got = correction_product(SYSTEM, model, T, term_tol=term_tol)
    assert abs(math.log(got.c_qm) - product_richardson(SYSTEM, model, T)) <= term_tol


def test_nodes_are_built_once_per_term_count_and_read_only():
    nodes = qcorr._nodes(40)
    assert qcorr._nodes(40) is nodes
    with pytest.raises(ValueError):
        nodes[0] = 2.0


def test_a_second_product_at_the_same_term_count_adds_no_cache_miss():
    # N depends on the system, T and term_tol only, so the bath shares it
    correction_product(SYSTEM, None, 300.0)
    before = qcorr._nodes.cache_info()
    correction_product(SYSTEM, DrudeFriction(300.0, 500.0), 300.0)
    after = qcorr._nodes.cache_info()
    assert (after.misses, after.hits) == (before.misses, before.hits + 1)


NODE_ORACLE_MODELS = {
    "none": None,
    "ohmic300": OhmicFriction(300.0),
    "ohmic3000": OhmicFriction(3000.0),
    "drude2000": DrudeFriction(500.0, 2000.0),
    "drude1e6": DrudeFriction(3000.0, 1e6),
    "peaked": PeakedFriction(200.0, 150.0, 600.0),
    "debye": DebyeDielectricFriction(cavity_radius=3.0),
    "protein": LinearProteinFriction(),
}


@pytest.mark.parametrize("model", NODE_ORACLE_MODELS.values(), ids=NODE_ORACLE_MODELS.keys())
def test_cached_nodes_match_nodes_built_each_call_bit_for_bit(model, monkeypatch):
    def hexed(value):
        return value.hex() if isinstance(value, float) else value

    def outputs():
        out = []
        for iso in (Isotope.H, Isotope.D, Isotope.T):
            system = replace(SYSTEM, isotope=iso)
            T0m = effective_barrier_frequency(system, model).T0_K
            for t_over_t0 in (1.01, 1.3, 2.0, 4.0):
                for term_tol in (1e-6, 1e-9, 1e-12, 1e-15):
                    T = t_over_t0 * T0m
                    p = correction_product(system, model, T, term_tol)
                    r = quantum_rate(system, model, T, term_tol)
                    values = (p.c_qm, p.terms_used, p.tail_estimate, r.rate_per_s, r.equilibrium_margin)
                    out.append(tuple(map(hexed, values)))
        return out

    cached = outputs()
    monkeypatch.setattr(qcorr, "_product", product_nodes_each_call)
    assert outputs() == cached


@pytest.mark.parametrize("term_tol", [0.0, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("call", [correction_product, quantum_rate], ids=["product", "quantum_rate"])
def test_bad_term_tol_fails_fast(call, term_tol):
    start = time.perf_counter()
    with pytest.raises(DomainError, match="term_tol"):
        call(SYSTEM, DrudeFriction(100.0, 300.0), 300.0, term_tol=term_tol)
    assert time.perf_counter() - start < 0.1


def test_quantum_rate_solves_mu_once(monkeypatch):
    calls = []
    solve = kramers.solve_effective_frequency

    def counting(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(kramers, "solve_effective_frequency", counting)
    monkeypatch.setattr(qcorr, "solve_effective_frequency", counting)
    quantum_rate(SYSTEM, DrudeFriction(150.0, 400.0), 305.0)
    assert len(calls) == 1


@pytest.mark.parametrize("call, built", [
    (quantum_rate, {"RateResult": 1}),
    (classical_rate, {"RateResult": 1}),
    (correction_product, {"CorrectionResult": 1}),
], ids=["quantum_rate", "classical_rate", "correction_product"])
def test_each_rate_builds_only_the_record_it_returns(call, built, monkeypatch):
    counts = Counter()
    for cls in (kramers.RateResult, qcorr.CorrectionResult, kramers.EffectiveBarrier):
        def counting(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            counts[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    call(SYSTEM, DrudeFriction(150.0, 400.0), 305.0)
    assert counts == built


@dataclass(frozen=True)
class NegativeBand(FrictionModel):
    # a kernel of -5000 on (1500, 2700) cm^-1 and 0 elsewhere: mu = omega_b,
    # and at 300 K the second thermal frequency, 2620 cm^-1, falls in the band
    def _kernel(self, z):
        return -5000.0 * ((z > 1500.0) & (z < 2700.0))


@pytest.mark.parametrize("call", [correction_product, quantum_rate], ids=lambda f: f.__name__)
def test_a_non_positive_product_denominator_is_a_domain_error(call):
    with pytest.raises(DomainError, match="non-positive product denominator at term n=2"):
        call(BarrierSystem(3000.0, 1000.0, 40.0), NegativeBand(), 300.0)


def test_isotope_ordering_of_correction():
    vals = {}
    for iso in (Isotope.H, Isotope.D, Isotope.T):
        vals[iso] = correction_product(replace(SYSTEM, isotope=iso), None, 300.0).c_qm
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
# The Wigner rate is the frictionless quantum rate, quantum_rate(system,
# None, T): the closed form times the Boltzmann factor, with the classical
# prefactor omega_0/(2 pi).

# SI constants for the oracles below
H_J_S, KB_J_K, C_CM_S, NA_PER_MOL = 6.62607015e-34, 1.380649e-23, 2.99792458e10, 6.02214076e23
KB_KJ_PER_MOL_K = KB_J_K * NA_PER_MOL / 1000.0


def test_wigner_rate_spot_value_frozen_oracle():
    # twice the value frozen for the omega_0/(4 pi) prefactor, to the
    # product's term_tol
    r = quantum_rate(SYSTEM, None, 300.0)
    assert r.rate_per_s == pytest.approx(2.0 * 1599469170.1195802, rel=1e-9)
    assert r.rate_cm1 == pytest.approx(2.0 * 0.008491321844648368, rel=1e-9)


@pytest.mark.parametrize("T", [math.nan, math.inf, -math.inf])
def test_wigner_rate_rejects_non_finite_temperature(T):
    with pytest.raises(DomainError):
        quantum_rate(SYSTEM, None, T)


@pytest.mark.parametrize("T", [math.nan, math.inf])
@pytest.mark.parametrize(
    "call",
    [
        lambda T: correction_product(SYSTEM, None, T),
        lambda T: quantum_rate(SYSTEM, DrudeFriction(100.0, 100.0), T),
        lambda T: correction_crossover(SYSTEM, T, 10.0),
    ],
    ids=["product", "quantum_rate", "crossover"],
)
def test_non_finite_temperature_fails_fast(call, T):
    # NaN passes every `T <= 0` test, so each entry point must reject it itself
    with pytest.raises(DomainError):
        call(T)


def test_wigner_rate_is_closed_form_times_boltzmann_factor():
    # rate = omega_0/(2 pi) * (omega_b/omega_0) sinh(x0)/sin(xb) * exp(-E_b/kB T),
    # x = h c omega/(2 kB T), to the product's term_tol
    for system in (SYSTEM, BarrierSystem(1500.0, 400.0, 25.0, Isotope.D)):
        t0 = crossover_temperature(system.omegab)
        for T in t0 * np.geomspace(1.001, 20.0, 12):
            T = float(T)
            x0, xb = (H_J_S * C_CM_S * w / (2.0 * KB_J_K * T) for w in (system.omega0, system.omegab))
            expected = (
                system.omega0 / (2.0 * math.pi)
                * (system.omegab / system.omega0) * math.sinh(x0) / math.sin(xb)
                * math.exp(-system.barrier_kJ_per_mol / (KB_KJ_PER_MOL_K * T))
            )
            assert quantum_rate(system, None, T).rate_cm1 == pytest.approx(expected, rel=1e-9)


def test_wigner_rate_vanishes_with_huge_barrier():
    r = quantum_rate(BarrierSystem(3000.0, 1000.0, 4000.0), None, 300.0)
    assert r.rate_per_s == 0.0


def test_semiclassical_limit_in_the_wigner_regime():
    # hbar*omega_b << 2 kB T << hbar*omega_0: the frictionless rate reduces
    # to the semiclassical (kB T/h) exp(-(E_b - hbar omega_0/2)/kB T) within
    # the expansion error
    system = BarrierSystem(12000.0, 50.0, 40.0)
    T = 300.0
    xb = 1.4387768775 * 50.0 / (2 * T)
    x0 = 1.4387768775 * 12000.0 / (2 * T)
    budget = xb * xb / 6.0 + math.exp(-2 * x0) + 1e-9
    zero_point = 0.5 * H_J_S * C_CM_S * 12000.0 * NA_PER_MOL / 1000.0  # kJ/mol
    semiclassical = KB_J_K * T / H_J_S * math.exp(-(40.0 - zero_point) / (KB_KJ_PER_MOL_K * T))
    ratio = quantum_rate(system, None, T).rate_per_s / semiclassical
    assert abs(ratio - 1.0) <= 2.0 * budget


def test_quantum_rate_is_classical_times_correction():
    model = DrudeFriction(150.0, 400.0)
    r = quantum_rate(SYSTEM, model, 305.0)
    base = classical_rate(SYSTEM, model, 305.0)
    corr = correction_product(SYSTEM, model, 305.0)
    assert r.rate_per_s == pytest.approx(base.rate_per_s * corr.c_qm, rel=1e-12)
    assert r.c_qm == corr.c_qm
    assert r.equilibrium_ok is not None


def test_quantum_rate_frictionless_is_twice_wigner():
    # the product form carries omega_0/(2 pi); the Wigner rate written out
    # with the omega_0/(4 pi) prefactor sits at exactly half of it
    T = 300.0
    wigner = (
        SYSTEM.omega0 / (4.0 * math.pi)
        * correction_closed(SYSTEM.omega0, SYSTEM.omegab, T)
        * math.exp(-SYSTEM.barrier_kJ_per_mol / (KB_KJ_PER_MOL_K * T))
    )
    r = quantum_rate(SYSTEM, None, T)
    assert r.rate_cm1 == pytest.approx(2.0 * wigner, rel=1e-9)


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


# a barrier that strong friction brings down to T0 = 0.33 K: at 1.03*T0 the
# product's log is about 2750, past the 709.78 where exp overflows a double
OVERFLOW_SYSTEM = BarrierSystem(2500.0, 500.0, 40.0)
OVERFLOW_MODEL = DebyeDielectricFriction(cavity_radius=1.0)


@pytest.mark.parametrize("call", [correction_product, quantum_rate], ids=lambda f: f.__name__)
def test_product_overflow_is_a_domain_error_naming_log_c_qm(call):
    T = 1.03 * effective_barrier_frequency(OVERFLOW_SYSTEM, OVERFLOW_MODEL).T0_K
    with pytest.raises(DomainError, match="log c_qm"):
        call(OVERFLOW_SYSTEM, OVERFLOW_MODEL, T)


# omega_0 = 5000 cm^-1 over omega_b = 20 cm^-1 (T0 = 4.58 K): at 5 K,
# x0 = 719 and the closed form's log is about 715
CLOSED_OVERFLOW_SYSTEM = BarrierSystem(5000.0, 20.0, 0.0)


def test_closed_form_overflow_is_a_domain_error_naming_the_log():
    with pytest.raises(DomainError, match="log c_closed"):
        correction_closed(5000.0, 20.0, 5.0)
    # just inside the range it is finite
    assert math.isfinite(correction_closed(5000.0, 20.0, 7.5))


def test_wigner_rate_overflow_is_a_domain_error_naming_the_log():
    # at 5 K the product's log, about 715, overflows first
    with pytest.raises(DomainError, match="log c_qm"):
        quantum_rate(CLOSED_OVERFLOW_SYSTEM, None, 5.0)
    assert math.isfinite(quantum_rate(CLOSED_OVERFLOW_SYSTEM, None, 7.5).rate_cm1)


def test_wigner_rate_per_second_overflow_is_a_domain_error():
    # at 5.1 K c_qm and rate_cm1 = 1.0e307 are finite, but rate_per_s, 1.9e11
    # times larger, is not
    with pytest.raises(DomainError, match="log rate_per_s"):
        quantum_rate(CLOSED_OVERFLOW_SYSTEM, None, 5.1)
    r = quantum_rate(CLOSED_OVERFLOW_SYSTEM, None, 7.5)
    assert math.isfinite(r.rate_per_s)
    assert r.rate_per_s == pytest.approx(r.rate_cm1 * units.CM1_TO_RAD_PER_S, rel=1e-15)


def test_crossover_prefactor_overflow_is_a_domain_error():
    with pytest.raises(DomainError, match="overflows a double"):
        correction_crossover(CLOSED_OVERFLOW_SYSTEM, 5.0, 10.0)


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


def test_crossover_correction_overflow_is_a_domain_error():
    # at 0.95*T0 and kappa = 1000, y = -48.75 and erfcx(y) ~ 2 exp(y^2)
    # overflows a double; 1.0*T0 stays finite
    with pytest.raises(DomainError, match="c_crossover overflows a double"):
        correction_crossover(SYSTEM, 0.95 * T0, 1000.0)
    assert math.isfinite(correction_crossover(SYSTEM, T0, 1000.0))


# 9,000 points over [-26, 1e6], a third of them negative
ERFCX_POINTS = np.concatenate([
    np.linspace(-26.0, 0.0, 3000, endpoint=False),
    np.linspace(0.0, 30.0, 3000),
    np.geomspace(30.0, 1e6, 3000),
]).tolist()


def test_erfcx_is_within_1e15_of_mpmath():
    worst = max(abs(_erfcx(y) / erfcx_mpmath(y) - 1.0) for y in ERFCX_POINTS)
    assert worst <= 1e-15, worst


@pytest.mark.parametrize("y", [-math.inf, -27.0, -26.63, 0.0, -0.0, 26.0, 1e200, math.inf, math.nan])
def test_erfcx_edge_values_are_scipys(y):
    # scipy gives inf once 2 exp(y^2) overflows, 1 at 0 and 0 at +inf
    got, want = _erfcx(y), erfcx(y)
    assert got == pytest.approx(want, rel=1e-15) or (math.isnan(got) and math.isnan(want))


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
    c3 = cubic_c3(pot)
    p = kappa_parameter(1.0, 1000.0, c3, 0.0, T0)
    assert p.kappa == pytest.approx(27.501562113832227, rel=1e-8)
    # order sqrt(E_b / hbar*omega_b), well above 1 for a high barrier
    assert p.kappa > math.sqrt(40.0 / 11.9627)


@pytest.mark.parametrize("position", range(5))
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_kappa_rejects_non_finite_input(position, bad):
    args = [1.0, 1000.0, 0.0, 100.0, 230.0]
    args[position] = bad
    with pytest.raises(DomainError, match="must be finite"):
        kappa_parameter(*args)


def test_kappa_rejects_nonpositive_B():
    with pytest.raises(DomainError):
        kappa_parameter(1.0, 1000.0, 0.0, 0.0, 230.0)
    with pytest.raises(DomainError):
        kappa_parameter(1.0, 1000.0, 0.0, -10.0, 230.0)


# ------------------------------------------------------------ equilibrium


def test_equilibrium_condition_frictionless_false():
    r = quantum_rate(SYSTEM, None, 300.0)
    assert r.equilibrium_ok is False and r.equilibrium_margin == 0.0


def test_equilibrium_condition_huge_barrier_true():
    system = BarrierSystem(3000.0, 1000.0, 4.0e4)
    assert quantum_rate(system, OhmicFriction(1.0), 300.0).equilibrium_ok is True


def test_equilibrium_condition_hand_evaluated_margin():
    # gamma_hat(mu)/omega_b against kB T/E_b
    r = quantum_rate(SYSTEM, OhmicFriction(100.0), 300.0)  # 0.1 * omega_b
    assert r.equilibrium_margin == pytest.approx((100.0 / 1000.0) / (KB_KJ_PER_MOL_K * 300.0 / 40.0), rel=1e-10)
    assert r.equilibrium_ok is (r.equilibrium_margin > 1.0)


def test_equilibrium_condition_is_undefined_at_a_zero_barrier():
    for model in (None, OhmicFriction(100.0)):
        r = quantum_rate(BarrierSystem(3000.0, 1000.0, 0.0), model, 300.0)
        assert r.equilibrium_ok is None and r.equilibrium_margin is None


def test_weak_friction_margin():
    assert weak_friction_margin(None, 300.0) == 0.0
    m = weak_friction_margin(DrudeFriction(100.0, 200.0), 300.0)
    nu = 300.0 * qcorr._NU_CM1_PER_K
    assert m == pytest.approx(DrudeFriction(100.0, 200.0).laplace_kernel(nu) / nu, rel=1e-12)
    assert m < 1.0


@pytest.mark.parametrize("model", [OhmicFriction(100.0), DrudeFriction(500.0, 2000.0), DrudeFriction(5e3, 3e4),
                                   PeakedFriction(200.0, 150.0, 600.0), PeakedFriction(5e3, 50.0, 4e3),
                                   DebyeDielectricFriction(3.0), LinearProteinFriction(),
                                   LinearProteinFriction(50.0, 1.5, 3000.0)],
                         ids=["ohmic", "drude", "drude_slow", "peaked", "peaked_high", "debye", "linear_protein",
                              "linear_protein_steep"])
@pytest.mark.parametrize("T", [10.0, 300.0, 1e4])
def test_weak_friction_margin_is_the_largest_of_the_first_eight_ratios(model, T):
    # g(z)/z falls with z for a passive bath, so the one ratio at nu is the
    # largest over n nu, n = 1..8, bit for bit, from an array kernel call
    x = np.arange(1.0, 9.0) * (T * qcorr._NU_CM1_PER_K)
    assert weak_friction_margin(model, T).hex() == float(np.max(model.laplace_kernel(x) / x)).hex()


@pytest.mark.parametrize("model", [None, DrudeFriction(100.0, 200.0)], ids=["none", "drude"])
@pytest.mark.parametrize("T", [-5.0, 0.0, math.nan, math.inf])
def test_weak_friction_margin_checks_temperature_first(model, T):
    with pytest.raises(DomainError):
        weak_friction_margin(model, T)


@pytest.mark.parametrize("model", [DrudeFriction(100.0, 300.0), DebyeDielectricFriction(cavity_radius=3.0)],
                         ids=["drude", "debye"])
def test_quantum_rate_checks_each_input_once(model):
    # T, term_tol and omega_b; the mu solve, the product and the equilibrium
    # check call the kernel body on values already checked
    from qtst import spectral

    code, checked = spectral._require_param.__code__, []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            checked.append(frame.f_locals["name"])

    sys.setprofile(profile)
    try:
        quantum_rate(SYSTEM, model, 300.0)
    finally:
        sys.setprofile(None)
    assert sorted(checked) == ["omega_b", "temperature", "term_tol"]


def test_tail_estimate_is_a_python_float():
    for model in (None, DrudeFriction(100.0, 300.0)):
        corr = correction_product(SYSTEM, model, 300.0)
        assert type(corr.tail_estimate) is float and type(corr.c_qm) is float
