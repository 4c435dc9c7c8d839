import json
import math

import numpy as np
import pytest

from qtst import (
    DebyeDielectricFriction,
    DrudeFriction,
    LinearProteinFriction,
    OhmicFriction,
    PeakedFriction,
    cavity_friction,
    chromophore_estimate,
    debye_dielectric,
    effective_curvature,
    friction_model_from_json,
    kernel_upper_bound,
)
from qtst.errors import DivergentIntegralError, DomainError
from qtst import units

from oracles import quadrature_kernel

ALL_FINITE_KE_MODELS = [
    DrudeFriction(gamma=100.0, omega_d=100.0),
    DrudeFriction(gamma=30.0, omega_d=600.0),
    PeakedFriction(gamma_r=200.0, width=150.0, omega_r=600.0),
    DebyeDielectricFriction(cavity_radius=3.0),
    LinearProteinFriction(),
]


# --------------------------------------------------------------- kernels


def test_ohmic_kernel_is_constant():
    m = OhmicFriction(50.0)
    for z in (0.1, 1.0, 123.0, 9999.0):
        assert m.laplace_kernel(z) == 50.0


def test_drude_kernel_hand_value():
    m = DrudeFriction(gamma=100.0, omega_d=100.0)
    assert m.laplace_kernel(100.0) == pytest.approx(50.0, rel=1e-14)


def test_peaked_kernel_hand_value_and_asymptote():
    gamma_r, width = 300.0, 30.0
    omega_r = 10.0 * width
    m = PeakedFriction(gamma_r, width, omega_r)
    z = omega_r
    # exact algebra: gamma_r*z*w/(2 z^2 + z w) = gamma_r*w/(2z + w)
    assert m.laplace_kernel(z) == pytest.approx(gamma_r * width / (2 * z + width), rel=1e-14)
    # narrow-peak scale estimate gamma_r*width/z holds within a factor ~2
    assert m.laplace_kernel(z) == pytest.approx(gamma_r * width / z, rel=1.1)


def test_kernel_rejects_nonpositive_z():
    for m in (OhmicFriction(10.0), DrudeFriction(10.0, 10.0)):
        with pytest.raises(DomainError):
            m.laplace_kernel(0.0)
        with pytest.raises(DomainError):
            m.laplace_kernel(-5.0)


@pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
def test_kernel_rejects_nonfinite_z(z):
    for m in ALL_FINITE_KE_MODELS + [OhmicFriction(10.0)]:
        with pytest.raises(DomainError):
            m.laplace_kernel(z)
        with pytest.raises(DomainError):
            m.laplace_kernel(np.array([1.0, z]))


@pytest.mark.parametrize(
    "make",
    [
        lambda: OhmicFriction(math.nan),
        lambda: OhmicFriction(math.inf),
        lambda: DrudeFriction(math.nan, 100.0),
        lambda: DrudeFriction(100.0, math.inf),
        lambda: PeakedFriction(math.nan, 100.0, 500.0),
        lambda: PeakedFriction(200.0, math.inf, 500.0),
        lambda: PeakedFriction(200.0, 100.0, -math.inf),
        lambda: LinearProteinFriction(delta_gamma=math.nan),
        lambda: LinearProteinFriction(slope=math.inf),
        lambda: LinearProteinFriction(cutoff=math.nan),
        lambda: DebyeDielectricFriction(cavity_radius=math.nan),
        lambda: DebyeDielectricFriction(cavity_radius=math.inf),
        lambda: DebyeDielectricFriction(cavity_radius=3.0, mass=math.nan),
        lambda: DebyeDielectricFriction(cavity_radius=3.0, omega_4=math.nan),
        lambda: DebyeDielectricFriction(cavity_radius=3.0, delta_eps=(71.5, math.nan, 1.6, 0.92)),
        lambda: DebyeDielectricFriction(cavity_radius=3.0, tau_ps=(8.3, 1.0, math.inf, 0.025)),
    ],
    ids=[
        "ohmic-nan", "ohmic-inf", "drude-nan", "drude-inf", "peaked-nan", "peaked-inf",
        "peaked-neg-inf", "linear-nan", "linear-inf", "linear-cutoff-nan", "debye-radius-nan",
        "debye-radius-inf", "debye-mass-nan", "debye-omega4-nan", "debye-delta-nan",
        "debye-tau-inf",
    ],
)
def test_constructor_rejects_nonfinite_parameter(make):
    with pytest.raises(DomainError):
        make()


@pytest.mark.parametrize(
    "kwargs",
    [
        {"eps_c": 0.0},
        {"eps_c": -2.0},
        {"eps_inf": 0.0},
        {"eps_inf": -1.0},
        {"delta_eps": (71.5, -2.8, 1.6, 0.92)},
        {"tau_ps": (8.3, 1.0, -0.1, 0.025)},
    ],
    ids=["eps_c-zero", "eps_c-negative", "eps_inf-zero", "eps_inf-negative",
         "delta_eps-negative", "tau_ps-negative"],
)
def test_dielectric_rejects_unphysical_constants(kwargs):
    # eps_c = -2 once gave a negative spectrum, breaking the kernel bound
    with pytest.raises(DomainError):
        DebyeDielectricFriction(cavity_radius=3.0, **kwargs)


def test_kernel_bound_accepts_arrays():
    m = PeakedFriction(gamma_r=200.0, width=150.0, omega_r=600.0)
    zs = [1.0, 10.0, 250.0]
    got = kernel_upper_bound(m, zs)
    assert isinstance(got, np.ndarray) and got.shape == (3,)
    assert list(got) == [kernel_upper_bound(m, z) for z in zs]
    assert isinstance(kernel_upper_bound(m, 10.0), float)
    with pytest.raises(DomainError):
        kernel_upper_bound(m, [1.0, 0.0])


def test_drude_approaches_ohmic_at_large_cutoff():
    z = 100.0
    drude = DrudeFriction(gamma=75.0, omega_d=1e6 * z)
    assert abs(drude.laplace_kernel(z) / 75.0 - 1.0) < 1e-3


def test_numeric_kernel_matches_analytic_for_drude():
    # the quadrature oracle, checked against the closed form
    m = DrudeFriction(gamma=120.0, omega_d=250.0)
    for z in (3.0, 70.0, 900.0):
        numeric = quadrature_kernel(m, z)
        assert numeric == pytest.approx(m.laplace_kernel(z), rel=1e-8)


def test_linear_protein_kernel_matches_quadrature_oracle():
    from scipy.integrate import quad

    m = LinearProteinFriction()
    for z in (5.0, 50.0, 400.0, 3000.0):
        oracle = (
            2.0
            * z
            / math.pi
            * quad(lambda w: m.friction_spectrum(w) / (w * w + z * z), 0.0, np.inf, limit=300)[0]
        )
        assert m.laplace_kernel(z) == pytest.approx(oracle, rel=1e-7)


def test_linear_protein_without_cutoff_diverges():
    m = LinearProteinFriction(cutoff=None)
    with pytest.raises(DivergentIntegralError):
        m.laplace_kernel(100.0)
    with pytest.raises(DivergentIntegralError):
        effective_curvature(m)


# ------------------------------------------------------------- spectra


def test_drude_spectrum_low_frequency_and_at_cutoff():
    m = DrudeFriction(gamma=80.0, omega_d=140.0)
    assert m.friction_spectrum(0.0) == pytest.approx(80.0, rel=1e-14)
    assert m.friction_spectrum(140.0) == pytest.approx(40.0, rel=1e-14)


def test_peaked_spectrum_peak_value_exact():
    m = PeakedFriction(gamma_r=321.0, width=45.0, omega_r=510.0)
    assert m.friction_spectrum(510.0) == pytest.approx(321.0, rel=1e-14)


@pytest.mark.parametrize("model", ALL_FINITE_KE_MODELS + [OhmicFriction(25.0)])
def test_spectrum_nonnegative(model):
    for w in np.linspace(0.0, 5000.0, 101):
        assert model.friction_spectrum(float(w)) >= 0.0


# ---------------------------------------------------- effective curvature


def test_effective_curvature_ohmic_diverges():
    with pytest.raises(DivergentIntegralError):
        effective_curvature(OhmicFriction(50.0))


def test_effective_curvature_drude_analytic():
    m = DrudeFriction(gamma=100.0, omega_d=200.0)
    assert effective_curvature(m) == pytest.approx(100.0 * 200.0, rel=1e-12)
    assert effective_curvature(m, mass=2.0) == pytest.approx(2.0 * 100.0 * 200.0, rel=1e-12)


@pytest.mark.parametrize(
    "model",
    [
        DrudeFriction(gamma=100.0, omega_d=200.0),
        PeakedFriction(gamma_r=200.0, width=150.0, omega_r=600.0),
        LinearProteinFriction(),
    ],
)
def test_effective_curvature_vs_trapezoid_oracle(model):
    # brute-force oracle: dense trapezoid on the compactified variable
    # w = W t/(1-t), which folds the infinite tail into t -> 1
    scale = 300.0
    t = np.linspace(0.0, 1.0 - 1e-9, 2_000_001)
    w = scale * t / (1.0 - t)
    jac = scale / (1.0 - t) ** 2
    integral = np.trapezoid(model.friction_spectrum(w) * jac, t)
    assert effective_curvature(model) == pytest.approx(2.0 / math.pi * integral, rel=1e-6)


def test_linear_kernel_series_and_sici_forms_agree_at_switch():
    from qtst.spectral import _SERIES_FROM, _fg_series, _fg_sici

    x = np.array([_SERIES_FROM])
    for near, far in zip(_fg_sici(x), _fg_series(x)):
        np.testing.assert_allclose(far, near, rtol=1e-13, atol=0.0)


def test_linear_kernel_within_bound_at_large_z():
    # z/cutoff >= 1e4, where the sici form cancels to a few digits
    m = LinearProteinFriction(0.0, 1.0, 100.0)
    z = np.geomspace(1e6, 1e12, 25)
    assert np.all(m.laplace_kernel(z) <= kernel_upper_bound(m, z) * (1.0 + 1e-15))
    # gamma_hat = K_e/(M z) (1 - 6 (cutoff/z)^2 + O((cutoff/z)^4))
    np.testing.assert_allclose(
        m.laplace_kernel(z), kernel_upper_bound(m, z) * (1.0 - 6.0 * (100.0 / z) ** 2), rtol=1e-12
    )


# ------------------------------------------------------------ the bound


def test_kernel_bound_drude_closed_form():
    m = DrudeFriction(gamma=100.0, omega_d=200.0)
    z = 50.0
    assert kernel_upper_bound(m, z) == pytest.approx(100.0 * 200.0 / z, rel=1e-12)


def test_kernel_bound_zero_curvature():
    assert kernel_upper_bound(DrudeFriction(gamma=0.0, omega_d=100.0), 10.0) == 0.0


@pytest.mark.parametrize("model", ALL_FINITE_KE_MODELS)
def test_kernel_never_exceeds_bound(model):
    for z in np.geomspace(1.0, 1e4, 41):
        z = float(z)
        assert model.laplace_kernel(z) <= kernel_upper_bound(model, z) * (1.0 + 1e-9)


# --------------------------------------------------- dielectric friction


def test_dielectric_static_and_high_frequency_limits():
    m = DebyeDielectricFriction(cavity_radius=3.0)
    eps0 = debye_dielectric(m, 0.0)
    assert eps0.real == pytest.approx(m.eps_inf + 76.82, rel=1e-12)
    assert eps0.imag == 0.0
    eps_hi = debye_dielectric(m, 1e7)
    assert eps_hi.real == pytest.approx(m.eps_inf, abs=1e-3)


def test_debye_term_half_height_at_inverse_tau():
    # single relaxation term: Re(eps - eps_inf) = delta_eps/2 at omega = 1/tau
    m = DebyeDielectricFriction(
        cavity_radius=3.0, delta_eps=(71.5, 0.0, 0.0, 0.0), tau_ps=(8.3, 1.0, 0.1, 0.025)
    )
    omega_cm1 = 1.0 / (units.CM1_TO_RAD_PER_S * 1e-12 * 8.3)
    eps = debye_dielectric(m, omega_cm1)
    assert eps.real - m.eps_inf == pytest.approx(71.5 / 2.0, rel=1e-12)
    assert eps.imag == pytest.approx(71.5 / 2.0, rel=1e-12)


def test_dielectric_loss_positive_and_of_expected_size():
    m = DebyeDielectricFriction(cavity_radius=3.0)
    for w in np.geomspace(0.01, 3000.0, 60):
        assert debye_dielectric(m, float(w)).imag >= 0.0
    # the measured loss near 100 cm^-1 is about 2
    assert debye_dielectric(m, 100.0).imag == pytest.approx(1.91, abs=0.4)


def test_cavity_friction_lossless_solvent_gives_zero():
    m = DebyeDielectricFriction(
        cavity_radius=3.0, delta_eps=(0.0, 0.0, 0.0, 0.0), eps_inf=78.4
    )
    assert cavity_friction(m, 100.0) == 0.0


def test_cavity_friction_radius_scaling():
    small = DebyeDielectricFriction(cavity_radius=2.0)
    big = DebyeDielectricFriction(cavity_radius=4.0)
    assert cavity_friction(big, 100.0) == pytest.approx(cavity_friction(small, 100.0) / 8.0, rel=1e-12)


def test_cavity_friction_spot_value_vs_independent_oracle():
    # re-derive from scratch with complex arithmetic and CODATA constants
    m = DebyeDielectricFriction(cavity_radius=3.0, eps_c=2.0, mass=1.0)
    w = 100.0
    om_tau = 2.0 * math.pi * 2.99792458e10 * 1e-12  # rad/ps per cm^-1
    eps = 1.54 + 0j
    for de, tau in zip((71.5, 2.8, 1.6), (8.3, 1.0, 0.1)):
        eps += de / (1.0 - 1j * om_tau * w * tau)
    eps += 0.92 / (1.0 - 1j * om_tau * w * 0.025 - (w / 175.0) ** 2)
    loss = ((eps - 2.0) / (2.0 * eps + 2.0)).imag
    pref = (1.602176634e-19) ** 2 / (
        2.0 * math.pi * 8.8541878128e-12 * (3e-10) ** 3 * 1.67262192369e-27
    )
    rad_s_per_cm1 = 2.0 * math.pi * 2.99792458e10
    expected = pref * loss / (w * rad_s_per_cm1) / rad_s_per_cm1
    assert cavity_friction(m, w) == pytest.approx(expected, rel=1e-10)


def test_dielectric_array_calls_match_scalar_calls():
    m = DebyeDielectricFriction(cavity_radius=3.0)
    w = np.geomspace(0.01, 3000.0, 40)
    assert isinstance(m.epsilon(100.0), complex)
    assert isinstance(m.friction_spectrum(100.0), float)
    assert isinstance(m.laplace_kernel(100.0), float)
    # numpy and Python complex division may round differently in the last bit
    for f in (m.epsilon, m.friction_spectrum, m.laplace_kernel):
        np.testing.assert_allclose(f(w), [f(float(x)) for x in w], rtol=1e-15, atol=0.0)


def test_dielectric_spectrum_zero_frequency_limit():
    # Im eps ~ omega as omega -> 0, so Re gamma has a finite limit at 0,
    # reached with a relative error of order (omega*tau)^2
    m = DebyeDielectricFriction(cavity_radius=3.0, eps_c=2.0)
    assert m.friction_spectrum(0.0) == pytest.approx(cavity_friction(m, 1e-6), rel=1e-9)
    assert np.isfinite(m.friction_spectrum(np.array([0.0, 1.0]))).all()


@pytest.mark.parametrize(
    "call",
    [
        lambda m: debye_dielectric(m, math.nan),
        lambda m: debye_dielectric(m, math.inf),
        lambda m: debye_dielectric(m, [1.0, math.nan]),
        lambda m: cavity_friction(m, math.nan),
        lambda m: cavity_friction(m, math.inf),
        lambda m: cavity_friction(m, [1.0, 0.0]),
        lambda m: effective_curvature(m, mass=math.nan),
        lambda m: effective_curvature(m, mass=math.inf),
    ],
    ids=["dielectric-nan", "dielectric-inf", "dielectric-list-nan", "cavity-nan", "cavity-inf",
         "cavity-list-zero", "curvature-mass-nan", "curvature-mass-inf"],
)
def test_dielectric_helpers_reject_non_finite_input(call):
    with pytest.raises(DomainError):
        call(DebyeDielectricFriction(cavity_radius=3.0))


def test_debye_dielectric_takes_a_list():
    m = DebyeDielectricFriction(cavity_radius=3.0)
    w = [0.0, 10.0, 100.0]
    np.testing.assert_array_equal(debye_dielectric(m, w), m.epsilon(np.array(w)))


def test_cavity_friction_takes_a_list():
    m = DebyeDielectricFriction(cavity_radius=3.0)
    w = [1.0, 10.0, 100.0]
    np.testing.assert_array_equal(cavity_friction(m, w), m.friction_spectrum(np.array(w)))


def test_effective_curvature_takes_an_array_of_masses():
    m = DrudeFriction(gamma=100.0, omega_d=200.0)
    np.testing.assert_allclose(
        effective_curvature(m, mass=[1.0, 2.0, 3.0]), [2e4, 4e4, 6e4], rtol=1e-12
    )


def test_cavity_friction_rejects_bad_radius():
    with pytest.raises(DomainError):
        DebyeDielectricFriction(cavity_radius=-1.0)
    with pytest.raises(DomainError):
        cavity_friction(DebyeDielectricFriction(cavity_radius=3.0), 0.0)


# ------------------------------------------------- chromophore estimates


def test_chromophore_coupling_scale_against_independent_formula():
    est = chromophore_estimate(1000.0, 5.0)
    hbar = 6.62607015e-34 / (2 * math.pi)
    dmu = 5.0 * 1e-21 / 2.99792458e8
    expected = (hbar * 1.602176634e-19 / dmu) ** 2 / 1.67262192369e-27
    expected_cm1 = expected / (6.62607015e-34 * 2.99792458e10)
    assert est.coupling_scale == pytest.approx(expected_cm1, rel=1e-10)
    # about 30 cm^-1 for a proton with a 5-debye dipole change
    assert est.coupling_scale == pytest.approx(30.9, abs=0.5)


def test_chromophore_bound_scale_order_of_magnitude():
    est = chromophore_estimate(1000.0, 5.0)
    # formula value is ~140 cm^-1, same order as the published ~150 cm^-1
    assert est.bound_scale == pytest.approx(140.2, abs=1.0)
    assert 100.0 < est.bound_scale < 200.0


def test_chromophore_linearity_in_er_and_inverse_square_dipole():
    base = chromophore_estimate(500.0, 2.0)
    assert chromophore_estimate(1000.0, 2.0).K_e == pytest.approx(2.0 * base.K_e, rel=1e-12)
    assert chromophore_estimate(500.0, 4.0).K_e == pytest.approx(base.K_e / 4.0, rel=1e-12)


def test_chromophore_zero_reorganisation_energy():
    est = chromophore_estimate(0.0, 3.0)
    assert est.K_e == 0.0
    assert est.bound_scale == 0.0


def test_chromophore_rejects_nonpositive_dipole():
    with pytest.raises(DomainError):
        chromophore_estimate(1000.0, 0.0)


def test_chromophore_ke_is_mass_independent():
    # K_e in mass*cm^-2 units: the 1/M in the coupling cancels the M factor
    assert chromophore_estimate(800.0, 3.0, mass=1.0).K_e == pytest.approx(
        chromophore_estimate(800.0, 3.0, mass=3.0).K_e, rel=1e-12
    )


# ---------------------------------------------------------- serialization


@pytest.mark.parametrize("model", ALL_FINITE_KE_MODELS + [OhmicFriction(42.0)])
def test_json_round_trip(model):
    text = json.dumps(model.to_json())
    clone = friction_model_from_json(json.loads(text))
    assert clone == model


def test_json_unknown_kind_rejected():
    with pytest.raises(DomainError):
        friction_model_from_json({"kind": "elastic"})
    with pytest.raises(DomainError):
        friction_model_from_json({"gamma": 1.0})
